"""Ablation: paper-calibrated vs machine-measured compute costs.

Figure reproduction uses ``CostModel.paper_like`` (constants matching the
authors' C++/AES-NI testbed).  ``CostModel.measured`` instead times this
library's pure-Python primitives, which are ~5-30x slower per op.  The
measured outcome is an instance of the paper's §6.3.2 decision rule
(LBL wins when ``c > p + o``): with Python-speed label crypto ``p`` is
≈ 15 ms per access — under the Oregon RTT (``c = 21.8 ms``) on its own, but
32 closed-loop clients queue for the proxy's cores behind it, so ``p`` plus
queueing and the larger messages' ``o`` exceed ``c`` and the 2RTT baseline
rightfully wins.  LBL-ORTOA's advantage *requires* hardware-speed symmetric
crypto, which the paper's testbed (and any production deployment) has.
"""

import pytest
from conftest import save_table

from repro.harness import CostModel, DeploymentSpec, run_experiment
from repro.harness.report import render_table


def test_ablation_cost_model(benchmark):
    def run():
        measured_model = CostModel.measured(samples=500)
        rows = []
        for model_name, model in (
            ("paper-like", CostModel.paper_like()),
            ("python-measured", measured_model),
        ):
            for protocol in ("lbl", "baseline"):
                result = run_experiment(
                    DeploymentSpec(protocol=protocol, duration_ms=1500), model
                )
                rows.append(
                    {
                        "cost_model": model_name,
                        "protocol": protocol,
                        "throughput_ops_s": result.metrics.throughput_ops_per_s,
                        "avg_latency_ms": result.metrics.avg_latency_ms,
                        "proxy_compute_ms": result.avg_proxy_compute_ms,
                    }
                )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_table(
        "ablation_costmodel",
        render_table("Ablation: paper-like vs measured compute costs", rows),
    )
    by = {(r["cost_model"], r["protocol"]): r for r in rows}

    # Python crypto is slower, so LBL compute grows...
    assert (
        by[("python-measured", "lbl")]["proxy_compute_ms"]
        > by[("paper-like", "lbl")]["proxy_compute_ms"]
    )
    # ...while the baseline (one AEAD round trip) barely moves.
    assert by[("python-measured", "baseline")]["avg_latency_ms"] == pytest.approx(
        by[("paper-like", "baseline")]["avg_latency_ms"], rel=0.01
    )
    # The §6.3.2 rule in action: LBL can only win if p + o stays under the
    # Oregon RTT, so p alone under it is necessary (not sufficient: o and
    # proxy queueing add to it).  Whichever machine measures, a win for LBL
    # with p over the RTT would break the rule.
    lbl = by[("python-measured", "lbl")]
    baseline = by[("python-measured", "baseline")]
    p_under_rtt = lbl["proxy_compute_ms"] < 21.84
    measured_lbl_wins = lbl["avg_latency_ms"] < baseline["avg_latency_ms"]
    assert p_under_rtt or not measured_lbl_wins
