"""Percentile, slice-median and spread arithmetic."""

import statistics

import pytest

from bench import stats


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.percentile(values, 0.5) == 3.0
    assert stats.percentile(values, 0.9) == 5.0
    assert stats.percentile(values, 0.2) == 1.0
    assert stats.percentile(list(range(1, 101)), 0.9) == 90
    assert stats.percentile([7.0], 0.99) == 7.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 0.0)


def test_p90_keeps_ten_samples_beyond_it_from_100_calls():
    assert stats.samples_beyond(100, 0.9) == stats.MIN_TAIL_SAMPLES
    assert stats.samples_beyond(140, 0.9) == 14
    assert stats.samples_beyond(140, 0.99) < stats.MIN_TAIL_SAMPLES  # why p99 is not gated


def test_slice_median_ignores_a_few_spoiled_slices():
    slices = [35.0] * 7 + [12.0, 9.0, 20.0]  # a neighbour burst spoils three slices
    assert stats.median(slices) == 35.0


def test_iqr_share_matches_the_drivers_formula():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.iqr_share(values) == pytest.approx((q3 - q1) / statistics.median(values))
    assert stats.iqr_share([3.0]) == 0.0


def test_worsening_follows_the_metric_direction():
    assert stats.worsening(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert stats.worsening(100.0, 110.0, "higher") == pytest.approx(-0.10)
    assert stats.worsening(100.0, 90.0, "higher") == pytest.approx(0.10)
