"""Tests for the cost model, the DES runner, and report rendering."""

import pytest

from repro.core.base import OpCounts
from repro.errors import ConfigurationError
from repro.harness import CostModel, DeploymentSpec, run_experiment
from repro.harness.report import ratio_summary, render_table
from repro.sim.network import DATACENTER_RTT_MS

FAST = {"duration_ms": 400.0}


# --------------------------------------------------------------------- #
# Cost model
# --------------------------------------------------------------------- #

def test_phase_ms_prices_all_counters():
    model = CostModel(
        prf_us=1.0, aead_enc_us=2.0, aead_dec_us=3.0, failed_dec_us=4.0,
        ecall_overhead_us=5.0, kv_op_us=6.0,
        fhe_enc_ms=7.0, fhe_dec_ms=8.0, fhe_add_ms=9.0, fhe_mul_ms=10.0,
    )
    ops = OpCounts(prf=1, aead_enc=1, aead_dec=1, failed_dec=1, ecalls=1,
                   kv_ops=1, fhe_enc=1, fhe_dec=1, fhe_add=1, fhe_mul=1)
    assert model.phase_ms(ops) == pytest.approx((1+2+3+4+5+6) / 1000 + (7+8+9+10))


def test_zero_ops_cost_nothing():
    assert CostModel.paper_like().phase_ms(OpCounts()) == 0.0


def test_measured_calibration_returns_positive_costs():
    model = CostModel.measured(samples=200)
    assert model.prf_us > 0
    assert model.aead_enc_us > 0
    assert model.aead_dec_us > 0
    assert model.failed_dec_us > 0
    # FHE costs stay at paper-like defaults.
    assert model.fhe_mul_ms == CostModel.paper_like().fhe_mul_ms


def test_measured_calibration_rejects_tiny_sample():
    with pytest.raises(ConfigurationError):
        CostModel.measured(samples=1)


# --------------------------------------------------------------------- #
# Runner semantics
# --------------------------------------------------------------------- #

def test_one_round_beats_two_rounds():
    lbl = run_experiment(DeploymentSpec(protocol="lbl", **FAST))
    baseline = run_experiment(DeploymentSpec(protocol="baseline", **FAST))
    assert lbl.metrics.avg_latency_ms < baseline.metrics.avg_latency_ms
    assert lbl.metrics.throughput_ops_per_s > baseline.metrics.throughput_ops_per_s


def test_latency_grows_with_distance():
    latencies = []
    for location in ("oregon", "london", "mumbai"):
        result = run_experiment(
            DeploymentSpec(protocol="tee", server_location=location,
                           server_cores=48, duration_ms=1500.0)
        )
        latencies.append(result.metrics.avg_latency_ms)
    assert latencies == sorted(latencies)
    # TEE compute is negligible: latency ≈ client hop + server RTT.
    assert latencies[0] == pytest.approx(DATACENTER_RTT_MS["oregon"] + 0.5, abs=2.0)


def test_throughput_scales_with_clients_before_saturation():
    t1 = run_experiment(DeploymentSpec(protocol="tee", num_clients=1,
                                       server_cores=48, **FAST))
    t8 = run_experiment(DeploymentSpec(protocol="tee", num_clients=8,
                                       server_cores=48, **FAST))
    ratio = t8.metrics.throughput_ops_per_s / t1.metrics.throughput_ops_per_s
    assert ratio == pytest.approx(8.0, rel=0.15)


def test_sharding_scales_throughput_linearly():
    one = run_experiment(DeploymentSpec(protocol="lbl", num_shards=1, **FAST))
    three = run_experiment(DeploymentSpec(protocol="lbl", num_shards=3, **FAST))
    ratio = three.metrics.throughput_ops_per_s / one.metrics.throughput_ops_per_s
    assert ratio == pytest.approx(3.0, rel=0.15)
    assert three.metrics.avg_latency_ms == pytest.approx(
        one.metrics.avg_latency_ms, rel=0.1
    )


def test_write_fraction_does_not_change_performance():
    """The access-oblivious guarantee, observed from the outside (Fig 2c)."""
    results = [
        run_experiment(DeploymentSpec(protocol="lbl", write_fraction=f, **FAST))
        for f in (0.0, 0.5, 1.0)
    ]
    latencies = [r.metrics.avg_latency_ms for r in results]
    assert max(latencies) - min(latencies) < 0.5


def test_memory_pressure_only_hits_big_message_protocols():
    small = run_experiment(DeploymentSpec(protocol="lbl", num_objects=2**20, **FAST))
    big = run_experiment(DeploymentSpec(protocol="lbl", num_objects=2**22, **FAST))
    assert big.metrics.avg_latency_ms > small.metrics.avg_latency_ms * 1.05

    tee_small = run_experiment(DeploymentSpec(protocol="tee", num_objects=2**20,
                                              server_cores=48, **FAST))
    tee_big = run_experiment(DeploymentSpec(protocol="tee", num_objects=2**22,
                                            server_cores=48, **FAST))
    assert tee_big.metrics.avg_latency_ms == pytest.approx(
        tee_small.metrics.avg_latency_ms, rel=0.02
    )


def test_lbl_message_sizes_follow_analysis():
    """§5.3.2 (with §10.1): 2^y ciphertexts per y bits of plaintext."""
    result = run_experiment(DeploymentSpec(protocol="lbl", **FAST))
    groups = 160 * 8 // 2
    # Each entry: 12 B nonce + 16 B label + 1 B slot + 16 B tag + 4 B framing.
    expected = groups * 4 * (12 + 16 + 1 + 16 + 4)
    assert result.request_bytes == pytest.approx(expected, rel=0.05)


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        DeploymentSpec(protocol="nonexistent")
    with pytest.raises(ConfigurationError):
        DeploymentSpec(num_clients=0)
    with pytest.raises(ConfigurationError):
        DeploymentSpec(duration_ms=0)


def test_deterministic_given_seed():
    a = run_experiment(DeploymentSpec(protocol="tee", server_cores=48, seed=5, **FAST))
    b = run_experiment(DeploymentSpec(protocol="tee", server_cores=48, seed=5, **FAST))
    assert a.metrics.throughput_ops_per_s == b.metrics.throughput_ops_per_s
    assert a.metrics.avg_latency_ms == b.metrics.avg_latency_ms


# --------------------------------------------------------------------- #
# Report rendering
# --------------------------------------------------------------------- #

def test_render_table_aligns_columns():
    text = render_table("T", [{"a": 1, "b": "xy"}, {"a": 22.5, "b": "z"}])
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[2] and "b" in lines[2]
    assert len({len(line) for line in lines[1:]}) <= 2  # rules + rows align


def test_render_table_rejects_empty():
    with pytest.raises(ConfigurationError):
        render_table("T", [])


def test_ratio_summary():
    rows = [
        {"protocol": "baseline", "tput": 100.0},
        {"protocol": "lbl", "tput": 170.0},
        {"protocol": "lbl", "tput": 150.0},
    ]
    ratios = ratio_summary(rows, "protocol", "tput", base="baseline")
    assert ratios["baseline"] == 1.0
    assert ratios["lbl"] == pytest.approx(1.6)


def test_ratio_summary_requires_base():
    with pytest.raises(ConfigurationError):
        ratio_summary([{"protocol": "lbl", "tput": 1.0}], "protocol", "tput", "baseline")


def test_csv_rendering():
    from repro.harness.report import rows_to_csv

    csv = rows_to_csv([{"a": 1, "b": "x,y"}, {"a": 2.5, "b": 'say "hi"'}])
    lines = csv.splitlines()
    assert lines[0] == "a,b"
    assert lines[1] == '1,"x,y"'
    assert lines[2] == '2.50,"say ""hi"""'
    with pytest.raises(ConfigurationError):
        rows_to_csv([])


def test_jitter_widens_latency_spread_but_keeps_average():
    calm = run_experiment(DeploymentSpec(protocol="tee", server_cores=48, **FAST))
    jittery = run_experiment(
        DeploymentSpec(protocol="tee", server_cores=48, rtt_jitter_ms=4.0, **FAST)
    )
    assert jittery.metrics.p99_latency_ms > calm.metrics.p99_latency_ms
    # Uniform [0, 4] jitter on two one-way hops adds ~4 ms on average.
    assert jittery.metrics.avg_latency_ms == pytest.approx(
        calm.metrics.avg_latency_ms + 4.0, abs=1.0
    )


def test_jitter_is_reproducible():
    a = run_experiment(DeploymentSpec(protocol="tee", server_cores=48,
                                      rtt_jitter_ms=3.0, seed=4, **FAST))
    b = run_experiment(DeploymentSpec(protocol="tee", server_cores=48,
                                      rtt_jitter_ms=3.0, seed=4, **FAST))
    assert a.metrics.avg_latency_ms == b.metrics.avg_latency_ms


def test_negative_jitter_rejected():
    with pytest.raises(ConfigurationError):
        DeploymentSpec(rtt_jitter_ms=-1.0)


def test_utilization_reporting():
    """Proxy utilization must expose the saturation mechanism: low at 8
    clients, near-saturated at 128 for LBL; and the server stays cool."""
    light = run_experiment(DeploymentSpec(protocol="lbl", num_clients=8, **FAST))
    heavy = run_experiment(DeploymentSpec(protocol="lbl", num_clients=128, **FAST))
    assert 0.0 < light.proxy_utilization < 0.6
    assert heavy.proxy_utilization > 0.85
    assert heavy.server_utilization < heavy.proxy_utilization
    assert 0.0 <= heavy.server_utilization <= 1.0
