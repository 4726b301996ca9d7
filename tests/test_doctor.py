"""``repro doctor`` attribution: contrived scenarios must name the right cause.

Acceptance criterion: doctor correctly attributes *dispatch-bound* vs
*crypto-bound* overload in two contrived scenarios.  :func:`diagnose` is a
pure function over signal vectors, so the scenarios are synthetic dicts
shaped exactly like :func:`collect_signals` output; a live end-to-end run
against a metrics-serving cluster closes the loop at the bottom.
"""

import random

import pytest

from repro import obs
from repro.obs.doctor import (
    SCORE_FLOOR,
    collect_signals,
    diagnose,
    render_doctor,
    run_doctor,
)
from repro.types import Request, StoreConfig

pytestmark = pytest.mark.timeout(180)

CONFIG = StoreConfig(value_len=16, group_bits=2, point_and_permute=True)


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _signal(**overrides) -> dict:
    """A quiet, healthy shard; overrides push it toward a bottleneck."""
    base = {
        "target": "shard-0",
        "up": True,
        "ops_per_s": 100.0,
        "shed_per_s": 0.0,
        "in_flight_occupancy": 0.1,
        "prepare_p99_ms": 1.0,
        "service_p99_ms": 5.0,
        "p99_ms": 7.0,
    }
    base.update(overrides)
    return base


# --------------------------------------------------------------------- #
# Acceptance: the two contrived attribution scenarios
# --------------------------------------------------------------------- #


def test_dispatch_bound_scenario_names_dispatch():
    """A full in-flight window, with the crypto side idle, must be
    attributed to dispatch."""
    diagnosis = diagnose(
        [_signal(shed_per_s=5.0, in_flight_occupancy=0.95)]
    )
    assert diagnosis["bottleneck"] == "dispatch"
    assert diagnosis["shedding"] is True
    assert diagnosis["scores"]["dispatch"] == 1.0
    assert diagnosis["scores"]["crypto"] < SCORE_FLOOR
    assert any("dispatch: shard-0" in r for r in diagnosis["reasons"])
    assert any("shedding" in r for r in diagnosis["reasons"])


def test_crypto_bound_scenario_names_crypto():
    """Prepares that are slow and dwarf service time, with the dispatcher
    idle, must be attributed to crypto."""
    diagnosis = diagnose(
        [
            _signal(
                ops_per_s=40.0,
                prepare_p99_ms=40.0,
                service_p99_ms=2.0,
                p99_ms=45.0,
            )
        ]
    )
    assert diagnosis["bottleneck"] == "crypto"
    assert diagnosis["shedding"] is False
    assert diagnosis["scores"]["crypto"] == pytest.approx(40.0 / 42.0)
    assert diagnosis["scores"]["dispatch"] < SCORE_FLOOR
    assert any(
        "crypto: shard-0 prepare p99 40.00 ms" in r for r in diagnosis["reasons"]
    )


# --------------------------------------------------------------------- #
# The remaining verdicts
# --------------------------------------------------------------------- #


def test_fast_but_dominant_prepares_do_not_read_as_crypto_bound():
    """An idle deployment's prepares dominate its tiny service times; that
    is a latency *share*, not saturation — prepares must also be
    absolutely slow before crypto is named."""
    diagnosis = diagnose([_signal(prepare_p99_ms=4.6, service_p99_ms=1.4)])
    assert diagnosis["bottleneck"] == "healthy"
    assert diagnosis["scores"]["crypto"] < SCORE_FLOOR


def test_slow_dominant_prepares_alone_read_as_crypto_bound():
    """Prepares beyond the absolute threshold flag crypto on their own,
    when the target reports no service time to compare them with."""
    diagnosis = diagnose(
        [_signal(prepare_p99_ms=40.0, service_p99_ms=None, p99_ms=45.0)]
    )
    assert diagnosis["bottleneck"] == "crypto"
    assert diagnosis["scores"]["crypto"] == 1.0


def test_wire_bound_scenario_names_wire():
    """Round trips dwarf busy time on both sides: the wire holds the
    latency."""
    diagnosis = diagnose(
        [_signal(prepare_p99_ms=1.0, service_p99_ms=2.0, p99_ms=50.0)]
    )
    assert diagnosis["bottleneck"] == "wire"
    assert any("time is off-CPU" in r for r in diagnosis["reasons"])


def test_quiet_deployment_is_healthy():
    diagnosis = diagnose(
        [_signal(prepare_p99_ms=1.0), _signal(target="shard-1", prepare_p99_ms=1.0)]
    )
    assert diagnosis["bottleneck"] == "healthy"
    assert diagnosis["shedding"] is False
    assert diagnosis["reasons"] == ["no saturation signal crossed its threshold"]
    assert diagnosis["measured_ops_per_s"] == 200.0


def test_unmeasured_cause_reads_incomplete_not_healthy():
    """A quiet deployment whose proxy series no target exposes has not been
    shown healthy: crypto and wire are unscored, and the verdict says so."""
    diagnosis = diagnose([_signal(prepare_p99_ms=None, p99_ms=None)])
    assert diagnosis["bottleneck"] == "incomplete"
    assert diagnosis["scores"]["crypto"] is None
    assert diagnosis["scores"]["wire"] is None
    assert diagnosis["scores"]["dispatch"] < SCORE_FLOOR
    assert "crypto: not measured at these targets" in diagnosis["reasons"]
    report = render_doctor(diagnosis)
    assert "verdict: INCOMPLETE" in report
    assert "crypto=not measured" in report


def test_saturation_is_named_even_when_a_cause_is_unmeasured():
    diagnosis = diagnose([_signal(prepare_p99_ms=None, in_flight_occupancy=0.95)])
    assert diagnosis["bottleneck"] == "dispatch"
    assert diagnosis["scores"]["crypto"] is None


def test_shedding_forces_attribution_even_below_score_floor():
    """Shedding proves overload; doctor must name the strongest cause even
    when no individual score clears the floor."""
    diagnosis = diagnose(
        [_signal(shed_per_s=2.0, in_flight_occupancy=0.3)]
    )
    assert diagnosis["shedding"] is True
    assert diagnosis["bottleneck"] != "healthy"


def test_all_targets_down_is_unreachable():
    diagnosis = diagnose([{"target": "gone:1", "up": False}])
    assert diagnosis["bottleneck"] == "unreachable"
    assert diagnosis["reasons"] == ["no target answered its metrics scrape"]


def test_down_target_excluded_from_scores_but_listed():
    diagnosis = diagnose(
        [
            _signal(in_flight_occupancy=0.95),
            {"target": "shard-1", "up": False},
        ]
    )
    assert diagnosis["bottleneck"] == "dispatch"
    assert len(diagnosis["targets"]) == 2
    assert "shard-1: DOWN" in render_doctor(diagnosis)


def test_predicted_capacity_comes_from_cost_model_baseline():
    """Default baseline = shard capacity x target utilization, per target."""
    from repro.analysis.costmodel import (
        DEFAULT_SHARD_OPS_PER_SEC,
        DEFAULT_TARGET_UTILIZATION,
    )

    diagnosis = diagnose([_signal(), _signal(target="shard-1")])
    expected = DEFAULT_SHARD_OPS_PER_SEC * DEFAULT_TARGET_UTILIZATION * 2
    assert diagnosis["predicted_ops_per_s"] == expected
    assert diagnosis["utilization"] == pytest.approx(200.0 / expected)


def test_render_doctor_reports_verdict_scores_and_capacity():
    diagnosis = diagnose(
        [_signal(shed_per_s=5.0, in_flight_occupancy=0.95)],
        predicted_ops_per_shard=1000.0,
    )
    report = render_doctor(diagnosis)
    assert "verdict: DISPATCH  (shedding load)" in report
    assert "crypto=" in report and "dispatch=1.00" in report
    assert "100.0 ops/s measured vs 1000.0 ops/s predicted" in report
    assert "10% of predicted capacity" in report


# --------------------------------------------------------------------- #
# End to end: scrape a live metrics-serving cluster
# --------------------------------------------------------------------- #


def test_run_doctor_against_live_cluster_exits_healthy():
    """A lightly-loaded in-process cluster scrapes clean: verdict healthy,
    exit code 0, and the report carries real throughput numbers."""
    from repro.core.sharded import ShardedLblDeployment
    from repro.transport.cluster import ShardCluster

    with ShardCluster(
        2, point_and_permute=True, in_process=True, metrics=True
    ) as cluster:
        deployment = ShardedLblDeployment(
            CONFIG, cluster.addresses, rng=random.Random(0)
        )
        try:
            deployment.initialize({f"d-{i}": b"v" for i in range(8)})
            obs.enable()
            for i in range(8):
                deployment.access(Request.read(f"d-{i}"))
            lines: list[str] = []
            targets = [
                f"{host}:{port}" for host, port in cluster.metrics_addresses
            ]
            code = run_doctor(targets, interval_s=0.2, write=lines.append)
            obs.disable()
        finally:
            deployment.close()
    assert code == 0
    report = "\n".join(lines)
    assert "verdict: HEALTHY" in report
    assert "2 target(s)" in report


def test_process_backed_deployment_never_reads_healthy():
    """A shard in its own process exposes no proxy series, so doctor cannot
    score crypto there: it must not call the deployment healthy."""
    import json

    from repro.core.sharded import ShardedLblDeployment
    from repro.transport.cluster import ShardCluster

    with ShardCluster(
        2, in_process=False, metrics=True, enable_obs=True
    ) as cluster:
        deployment = ShardedLblDeployment(
            CONFIG, cluster.addresses, rng=random.Random(0)
        )
        try:
            deployment.initialize({f"p-{i}": b"v" for i in range(8)})
            obs.enable()
            for i in range(8):
                deployment.access(Request.read(f"p-{i}"))
            lines: list[str] = []
            targets = [
                f"{host}:{port}" for host, port in cluster.metrics_addresses
            ]
            code = run_doctor(
                targets, interval_s=0.2, write=lines.append, json_mode=True
            )
            obs.disable()
        finally:
            deployment.close()
    diagnosis = json.loads("\n".join(lines))
    assert all(target["up"] for target in diagnosis["targets"])
    assert diagnosis["scores"]["crypto"] is None
    assert diagnosis["bottleneck"] != "healthy"
    assert code == 1


def test_collect_signals_marks_unreachable_target_down():
    signals = collect_signals(["127.0.0.1:1"], interval_s=0.05)
    (signal,) = signals
    assert signal["up"] is False
    assert diagnose(signals)["bottleneck"] == "unreachable"


def test_run_doctor_json_mode_emits_machine_readable_diagnosis():
    import json

    lines: list[str] = []
    code = run_doctor(["127.0.0.1:1"], interval_s=0.05, write=lines.append,
                      json_mode=True)
    assert code == 1
    payload = json.loads("\n".join(lines))
    assert payload["bottleneck"] == "unreachable"
    assert set(payload["scores"]) == {"dispatch", "crypto", "wire"}
