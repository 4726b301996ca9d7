"""Ablation: paper-calibrated vs machine-measured compute costs.

Figure reproduction uses ``CostModel.paper_like`` (constants matching the
authors' C++/AES-NI testbed).  ``CostModel.measured`` instead times this
library's pure-Python primitives, which are ~5-30x slower per op.  The
measured outcome is an instance of the paper's §6.3.2 decision rule
(LBL wins when ``c > p + o``): with Python-speed label crypto ``p`` is
15–23 ms per access — about the Oregon RTT (``c = 21.8 ms``) on its own, and
32 closed-loop clients queue for the proxy's four workers behind it, so
``p`` plus queueing and the larger messages' ``o`` exceed ``c`` and the 2RTT
baseline rightfully wins.  LBL-ORTOA's advantage *requires* hardware-speed
symmetric crypto, which the paper's testbed (and any production deployment)
has.  The test predicts the winner under both cost models from ``p``, ``o``,
``c`` and the closed-loop queueing floor, and checks the simulation agrees —
LBL under the paper's costs, the baseline under Python's.
"""

import pytest
from conftest import save_table

from repro.harness import CostModel, DeploymentSpec, run_experiment
from repro.harness.report import render_table
from repro.sim.network import DATACENTER_RTT_MS


def test_ablation_cost_model(benchmark):
    def run():
        measured_model = CostModel.measured(samples=500)
        rows = []
        runs = {}
        for model_name, model in (
            ("paper-like", CostModel.paper_like()),
            ("python-measured", measured_model),
        ):
            for protocol in ("lbl", "baseline"):
                result = run_experiment(
                    DeploymentSpec(protocol=protocol, duration_ms=1500), model
                )
                runs[(model_name, protocol)] = result
                rows.append(
                    {
                        "cost_model": model_name,
                        "protocol": protocol,
                        "throughput_ops_s": result.metrics.throughput_ops_per_s,
                        "avg_latency_ms": result.metrics.avg_latency_ms,
                        "proxy_compute_ms": result.avg_proxy_compute_ms,
                    }
                )
        return rows, runs

    rows, runs = benchmark.pedantic(run, rounds=1, iterations=1)
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
    # The §6.3.2 rule in action, both ways: LBL saves one RTT ``c`` and pays
    # the extra compute and transfer ``p + o``, so it wins when ``p + o < c``
    # — provided the proxy keeps up: ``num_clients`` closed-loop clients share
    # ``proxy_workers`` workers, so no request completes faster than
    # ``num_clients * p / proxy_workers``, and past the baseline's latency
    # that queueing alone loses the round trip saved.  Whichever machine
    # measures, the simulation must agree with the prediction.
    c = DATACENTER_RTT_MS["oregon"]
    lbl_wins = {}
    for model_name in ("paper-like", "python-measured"):
        lbl, baseline = runs[(model_name, "lbl")], runs[(model_name, "baseline")]
        p_plus_o = (
            lbl.metrics.avg_compute_ms + lbl.metrics.avg_comm_overhead_ms
        ) - (baseline.metrics.avg_compute_ms + baseline.metrics.avg_comm_overhead_ms)
        queue_floor_ms = (
            lbl.spec.num_clients * lbl.avg_proxy_compute_ms / lbl.spec.proxy_workers
        )
        rule_picks_lbl = (
            p_plus_o < c and queue_floor_ms < baseline.metrics.avg_latency_ms
        )
        lbl_wins[model_name] = (
            lbl.metrics.avg_latency_ms < baseline.metrics.avg_latency_ms
        )
        assert rule_picks_lbl == lbl_wins[model_name], model_name
    # Under the paper's costs the rule's "LBL" side is the one exercised.
    assert lbl_wins["paper-like"]
