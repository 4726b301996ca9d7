"""A small metrics registry: counters, gauges and log-bucket histograms.

Instruments are created lazily by name
(``REGISTRY.counter("transport.requests_dispatched")``) and accumulate until
:meth:`MetricsRegistry.reset`.  A snapshot is a plain nested dict of
primitives, so it JSON-serializes directly and — because no wall-clock
timestamps are baked in — is deterministic whenever the instrumented
workload is.

The one histogram, :class:`LogHistogram`, has HDR-style geometric buckets
spanning nine decades with bounded relative error: right for latencies,
where p99/p999 matter and the interesting mass may sit anywhere between
microseconds and seconds.

Thread safety: every mutation takes the registry's lock.  The LBL TCP server
handles connections on threads, so counters would otherwise lose increments;
the lock only costs anything while observability is enabled, since hot paths
guard emission behind :data:`repro.obs._state.enabled`.
"""

from __future__ import annotations

import json
import math
import threading
from typing import Any

from repro.errors import ConfigurationError


class Counter:
    """A monotonically increasing integer."""

    kind = "counter"
    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self.value = 0
        self._lock = lock

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ConfigurationError("counters only go up")
        with self._lock:
            self.value += amount

    def snapshot(self) -> int:
        """The current total."""
        return self.value

    def reset(self) -> None:
        """Zero the counter (the handle stays valid)."""
        with self._lock:
            self.value = 0


class Gauge:
    """A point-in-time value (e.g. current stash occupancy)."""

    kind = "gauge"
    __slots__ = ("name", "value", "max_value", "_lock")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self.value = 0.0
        self.max_value = 0.0
        self._lock = lock

    def set(self, value: float) -> None:
        """Record the current reading (the high-water mark is kept too)."""
        with self._lock:
            self.value = float(value)
            if value > self.max_value:
                self.max_value = float(value)

    def snapshot(self) -> dict[str, float]:
        """The last reading and the high-water mark."""
        return {"value": self.value, "max": self.max_value}

    def reset(self) -> None:
        """Zero the reading and the high-water mark."""
        with self._lock:
            self.value = 0.0
            self.max_value = 0.0


#: Geometry of :class:`LogHistogram` buckets.  ``GROWTH = 2**(1/8)`` bounds
#: the relative quantile error at ~9%; spanning 100 ns … ~1000 s costs 267
#: buckets of one int each — small enough to keep per instrument.
LOG_BUCKET_MIN = 1e-7
LOG_BUCKET_GROWTH = 2 ** 0.125
LOG_BUCKET_COUNT = 267

_LOG_GROWTH_LN = math.log(LOG_BUCKET_GROWTH)
_LOG_MIN_LN = math.log(LOG_BUCKET_MIN)


class LogHistogram:
    """Log-bucketed (HDR-style) histogram with quantile queries.

    Bucket ``i`` covers ``(MIN * GROWTH**(i-1), MIN * GROWTH**i]``; bucket 0
    holds everything at or below :data:`LOG_BUCKET_MIN` (including zero and
    negative durations from clock skew), the last bucket everything past the
    top bound.  A quantile answer is the upper edge of the bucket the target
    rank falls in, so it overestimates by at most one growth factor — the
    usual HDR trade of bounded relative error for O(1) recording.
    """

    kind = "log_histogram"
    __slots__ = ("name", "bucket_counts", "count", "total", "min", "max", "_lock")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self.bucket_counts = [0] * (LOG_BUCKET_COUNT + 1)
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self._lock = lock

    @staticmethod
    def bucket_index(value: float) -> int:
        """Bucket holding ``value`` (0 for values <= the smallest bound)."""
        if value <= LOG_BUCKET_MIN:
            return 0
        index = int(math.ceil((math.log(value) - _LOG_MIN_LN) / _LOG_GROWTH_LN))
        # The logarithm rounds either way of an exact bound: settle the
        # edge on the bounds themselves, so bucket i is (bound(i-1), bound(i)].
        if value <= LogHistogram.bucket_bound(index - 1):
            index -= 1
        elif value > LogHistogram.bucket_bound(index):
            index += 1
        return min(index, LOG_BUCKET_COUNT)

    @staticmethod
    def bucket_bound(index: int) -> float:
        """Upper edge of bucket ``index`` (+inf for the overflow bucket)."""
        if index >= LOG_BUCKET_COUNT:
            return math.inf
        return LOG_BUCKET_MIN * LOG_BUCKET_GROWTH ** index

    def observe(self, value: float) -> None:
        """Record one sample (typically a duration in seconds)."""
        value = float(value)
        index = self.bucket_index(value)
        with self._lock:
            self.bucket_counts[index] += 1
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """The value at quantile ``q`` in [0, 1] (0.0 when empty).

        Returns the upper bucket edge, clamped to the observed max so p100
        of a single sample is that sample, not its bucket's edge.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile {q} outside [0, 1]")
        counts = list(self.bucket_counts)
        count = sum(counts)
        if count == 0:
            return 0.0
        rank = q * count
        cumulative = 0
        for index, bucket_count in enumerate(counts):
            cumulative += bucket_count
            if cumulative >= rank:
                bound = self.bucket_bound(index)
                observed_max = self.max if self.max is not None else bound
                return min(bound, observed_max)
        return self.max or 0.0

    def snapshot(self) -> dict[str, Any]:
        """Count/sum/mean/min/max, p50/p90/p99/p999, and non-empty buckets."""
        buckets = {
            f"le_{self.bucket_bound(index):.3g}": count
            for index, count in enumerate(self.bucket_counts)
            if count
        }
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(0.50),
            "p90": self.percentile(0.90),
            "p99": self.percentile(0.99),
            "p999": self.percentile(0.999),
            "buckets": buckets,
        }

    def reset(self) -> None:
        """Drop all observations (the handle stays valid)."""
        with self._lock:
            self.bucket_counts = [0] * (LOG_BUCKET_COUNT + 1)
            self.count = 0
            self.total = 0.0
            self.min = None
            self.max = None


class MetricsRegistry:
    """Name-addressed home of all instruments of one observability session."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, Counter | Gauge | LogHistogram] = {}

    def _get_or_create(self, name: str, kind: str, factory):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = factory()
                self._instruments[name] = instrument
            elif instrument.kind != kind:
                raise ConfigurationError(
                    f"metric {name!r} already registered as a {instrument.kind}"
                )
            return instrument

    def counter(self, name: str) -> Counter:
        """Get or create the counter called ``name``."""
        return self._get_or_create(name, "counter", lambda: Counter(name, self._lock))

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge called ``name``."""
        return self._get_or_create(name, "gauge", lambda: Gauge(name, self._lock))

    def log_histogram(self, name: str) -> LogHistogram:
        """Get or create the log-bucketed latency histogram called ``name``."""
        return self._get_or_create(
            name, "log_histogram", lambda: LogHistogram(name, self._lock)
        )

    def names(self) -> list[str]:
        """Sorted names of every registered instrument."""
        return sorted(self._instruments)

    def snapshot(self) -> dict[str, Any]:
        """All instruments grouped by kind — plain primitives, JSON-ready."""
        out: dict[str, Any] = {
            "counters": {},
            "gauges": {},
            "log_histograms": {},
        }
        for name in self.names():
            instrument = self._instruments[name]
            out[instrument.kind + "s"][name] = instrument.snapshot()
        return out

    def to_json(self, indent: int | None = 2) -> str:
        """The snapshot as a JSON document."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def reset(self) -> None:
        """Zero every instrument (handles held by callers stay valid)."""
        for instrument in list(self._instruments.values()):
            instrument.reset()

    def clear(self) -> None:
        """Drop every instrument entirely."""
        with self._lock:
            self._instruments.clear()


#: The process-wide default registry all built-in instrumentation writes to.
REGISTRY = MetricsRegistry()


__all__ = [
    "Counter",
    "Gauge",
    "LogHistogram",
    "MetricsRegistry",
    "REGISTRY",
    "LOG_BUCKET_MIN",
    "LOG_BUCKET_GROWTH",
    "LOG_BUCKET_COUNT",
]
