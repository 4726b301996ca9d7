"""Tests for metrics aggregation, the dollar-cost model, and Figure 6."""

import pytest

from repro.analysis import (
    estimate_lbl_cost,
    optimal_y,
    overhead_factors,
    summarize,
)
from repro.analysis.costmodel import LblCostModel
from repro.analysis.overhead import measured_factors
from repro.errors import ConfigurationError
from repro.types import LatencySample, Operation


def sample(latency, op=Operation.READ, compute=0.0, overhead=0.0):
    return LatencySample(op, 0.0, latency, compute, overhead)


# --------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------- #

def test_summarize_basic():
    samples = [sample(10.0), sample(20.0), sample(30.0, op=Operation.WRITE)]
    m = summarize(samples, duration_ms=1000.0)
    assert m.num_requests == 3
    assert m.throughput_ops_per_s == 3.0
    assert m.avg_latency_ms == pytest.approx(20.0)
    assert m.p50_latency_ms == pytest.approx(20.0)
    assert m.read_fraction == pytest.approx(2 / 3)


def test_summarize_breakdown():
    samples = [sample(30.0, compute=4.0, overhead=5.0)] * 4
    m = summarize(samples, duration_ms=100.0)
    assert m.avg_compute_ms == pytest.approx(4.0)
    assert m.avg_comm_overhead_ms == pytest.approx(5.0)
    assert m.avg_base_comm_ms == pytest.approx(21.0)


def test_summarize_percentiles_ordered():
    samples = [sample(float(i)) for i in range(1, 101)]
    m = summarize(samples, duration_ms=1.0)
    assert m.p50_latency_ms <= m.p95_latency_ms <= m.p99_latency_ms


def test_summarize_rejects_empty_and_bad_duration():
    with pytest.raises(ConfigurationError):
        summarize([], 10.0)
    with pytest.raises(ConfigurationError):
        summarize([sample(1.0)], 0.0)


# --------------------------------------------------------------------- #
# Dollar cost (§6.3.3)
# --------------------------------------------------------------------- #

def test_cost_paper_configuration():
    """r=128, t=1280, E_len=128, 1M objects: per-request cost must land in
    the paper's order of magnitude (~$2e-5)."""
    est = estimate_lbl_cost()
    assert 1e-6 < est.per_request < 1e-4
    assert est.storage_gb > 0
    assert est.network_per_million_accesses > est.compute_per_million_accesses


def test_cost_scales_linearly_with_value_bits():
    small = estimate_lbl_cost(value_bits=640)
    large = estimate_lbl_cost(value_bits=1280)
    assert large.network_gb_per_million_accesses == pytest.approx(
        2 * small.network_gb_per_million_accesses, rel=0.01
    )


def test_cost_storage_halves_with_y2():
    y1 = estimate_lbl_cost(group_bits=1)
    y2 = estimate_lbl_cost(group_bits=2)
    assert y2.storage_gb == pytest.approx(y1.storage_gb / 2, rel=0.01)
    # ...while the request's tables — Figure 6's communication term, the
    # 2^y·t/y ciphertexts — stay byte-identical; only group 0's check blocks,
    # 16 bytes per row of its 2^y, grow.  The wire-accurate model also counts
    # the response, whose packed slots are G·y = 8·value_len bits either way,
    # so y=2 moves exactly those 32 check bytes more per access.
    m1 = LblCostModel(value_len=160, group_bits=1)
    m2 = LblCostModel(value_len=160, group_bits=2)
    assert m2.request_bytes - m1.request_bytes == (4 - 2) * 16
    assert m2.response_bytes == m1.response_bytes == 1 + 2 + 160 + 16
    assert y2.network_gb_per_million_accesses - y1.network_gb_per_million_accesses == (
        pytest.approx(32 * 1_000_000 / 1e9)
    )


def test_cost_validation():
    with pytest.raises(ConfigurationError):
        estimate_lbl_cost(num_objects=0)
    with pytest.raises(ConfigurationError):
        estimate_lbl_cost(group_bits=0)


# --------------------------------------------------------------------- #
# Figure 6: overhead factors
# --------------------------------------------------------------------- #

def test_optimal_y_is_2():
    assert optimal_y() == 2


def test_factor_shapes_match_paper():
    factors = {f.y: f for f in overhead_factors(5)}
    # storage decreases monotonically
    assert factors[1].storage_factor > factors[2].storage_factor > factors[3].storage_factor
    # communication flat from y=1 to y=2, then increasing
    assert factors[1].communication_factor == factors[2].communication_factor == 2.0
    assert factors[3].communication_factor > 2.0
    # total dips at 2 and rises after
    assert factors[2].total < factors[1].total
    assert factors[3].total > factors[2].total


@pytest.mark.parametrize("y", [1, 2, 4])
def test_measured_factors_agree_with_analytic(y):
    analytic = {f.y: f for f in overhead_factors(4)}[y]
    measured = measured_factors(y, value_len=16)
    assert measured.storage_factor == pytest.approx(analytic.storage_factor, rel=0.01)
    assert measured.communication_factor == pytest.approx(
        analytic.communication_factor, rel=0.01
    )
