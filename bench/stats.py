"""The benchmark's arithmetic: percentiles, slice medians, spreads."""

from __future__ import annotations

import math
import statistics
from statistics import median  # noqa: F401 - the slice median, re-exported

#: A percentile is only reported as steady when at least this many samples
#: lie beyond it (choosing-metrics guide, section 1).
MIN_TAIL_SAMPLES = 10


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with ``q`` of the mass at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"percentile rank {q} outside (0, 1]")
    ordered = sorted(values)
    return ordered[math.ceil(q * len(ordered)) - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly beyond the nearest-rank ``q`` percentile."""
    return count - math.ceil(q * count)


def iqr_share(values: list[float]) -> float:
    """Distance between the first and third quartile as a share of the median.

    The same spread the driver computes over repeated runs
    (``statistics.quantiles(values, n=4)``); 0.0 when fewer than two values.
    """
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0


def worsening(first: float, second: float, better: str) -> float:
    """Relative amount by which ``second`` is worse than ``first`` (negative = better)."""
    if first == 0:
        return 0.0 if second == 0 else math.inf
    change = (second - first) / abs(first)
    return change if better == "lower" else -change
