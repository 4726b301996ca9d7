"""The untraced measured window: closed loop, one caller, sliced, speed-normalised.

A *call* is one call into the deployment (one access, one pipelined burst
or one batch); ``ops_s`` counts accesses, latencies are per call.  Between
calls the caller samples the host canary (:class:`bench.host.Canary`); every
reported time is scaled by the concurrent canary to reference-host time, and
the raw values are kept as ``raw.*`` diagnostics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from bench import host, stats
from bench.system import System, call_deployment


@dataclass
class Slice:
    """One slice of the window."""

    accesses: int
    busy_s: float  # wall time of the slice without its canary samples
    calls: list[tuple[float, float]]  # (midpoint on the clock, raw latency in ms)
    scale: float  # reference-host time per wall time, from the slice's canary samples

    @property
    def raw_ops_s(self) -> float:
        """Correct accesses per second of busy wall time."""
        return self.accesses / self.busy_s

    @property
    def ops_s(self) -> float:
        """Throughput at reference-host speed."""
        return self.raw_ops_s / self.scale


@dataclass
class Window:
    """Everything one measured window observed."""

    seconds: float
    canary: host.Canary = field(default_factory=host.Canary)
    slices: list[Slice] = field(default_factory=list)
    #: Latencies of single-access calls by operation (lockstep workloads only).
    op_ms: dict[str, list[float]] = field(
        default_factory=lambda: {"read": [], "write": []}
    )
    wire_bytes: int = 0
    usage: dict[str, float] = field(default_factory=dict)

    @property
    def call_ms(self) -> list[float]:
        """Every raw call latency of the window."""
        return [ms for piece in self.slices for _at, ms in piece.calls]

    def scaled_ms(self, pieces: "list[Slice] | None" = None) -> list[float]:
        """Call latencies (of the whole window by default) at reference-host speed.

        Each call is scaled by the canary samples nearest to it in time.
        """
        scale_at = self.canary.scale_at
        return [
            ms * scale_at(at)
            for piece in (self.slices if pieces is None else pieces)
            for at, ms in piece.calls
        ]

    @property
    def accesses(self) -> int:
        """Correct accesses of the window."""
        return sum(piece.accesses for piece in self.slices)

    @property
    def noisy(self) -> bool:
        """The host changed regime under the window: re-run before comparing."""
        return self.canary.drift() > host.CANARY_DRIFT_LIMIT

    def latency_ms(self, q: float) -> float:
        """The ``q`` quantile of call latency at reference-host speed."""
        return stats.percentile(self.scaled_ms(), q)


def run_window(system: System, seconds: float) -> Window:
    """Drive the deployment for ``seconds``, split into the workload's slices.

    A call belongs to the slice it started in, and a slice runs to the end of
    its last call, so every call is counted exactly once.  Replies are
    checked against the oracle inside the slice but outside the call's
    latency.  After each call the canary takes its share of the elapsed time.
    """
    spec, dep, stream, checker = system.spec, system.dep, system.stream, system.checker
    window = Window(seconds)
    canary = window.canary
    slice_seconds = seconds / spec.slices
    wire_before = checker.wire_bytes
    usage = host.UsageProbe.start(system.shard_pid)
    clock = time.perf_counter
    window_start = clock()
    for _ in range(spec.slices):
        correct = 0
        calls: list[tuple[float, float]] = []
        first_sample = len(canary.samples_ms)
        canary_before_s = canary.wall_s
        slice_start = clock()
        deadline = slice_start + slice_seconds
        while True:
            requests = stream.next_call()
            call_start = clock()
            try:
                transcripts = call_deployment(dep, spec, requests)
            except Exception as error:  # a failed call is a counted outcome
                checker.raised(requests, error)
            else:
                call_end = clock()
                elapsed_ms = (call_end - call_start) * 1e3
                calls.append(((call_start + call_end) / 2, elapsed_ms))
                if len(requests) == 1:
                    window.op_ms[requests[0].op.value].append(elapsed_ms)
                correct += checker.transcripts(requests, transcripts)
            canary.keep_up(window_start)
            now = clock()
            if now >= deadline:
                break
        own = canary.samples_ms[first_sample:]
        window.slices.append(
            Slice(
                correct,
                now - slice_start - (canary.wall_s - canary_before_s),
                calls,
                # A slice too short to hold a sample borrows the nearest ones.
                host.scale_of(own) if own else canary.scale_at(now),
            )
        )
    window.usage = usage.finish()
    window.usage["proxy_cpu_s"] -= canary.cpu_s
    window.wire_bytes = checker.wire_bytes - wire_before
    return window


def end_to_end(window: Window, setup_s: float) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics of BENCHMARK.json as ``name -> (value, unit)``."""
    accesses = max(window.accesses, 1)
    cpu_s = window.usage["proxy_cpu_s"] + window.usage["shard_cpu_s"]
    return {
        "ops_s": (stats.median([piece.ops_s for piece in window.slices]), "accesses/s"),
        "p50_ms": (window.latency_ms(0.50), "ms"),
        "p90_ms": (window.latency_ms(0.90), "ms"),
        "cpu_ms_per_op": (cpu_s * 1e3 / accesses * window.canary.scale(), "ms"),
        "wire_bytes_per_op": (window.wire_bytes / accesses, "B"),
        "rss_mb": (
            window.usage["proxy_rss_mib"] + window.usage["shard_rss_mib"],
            "MiB",
        ),
        "setup_s": (setup_s, "s"),
    }


def diagnostics(window: Window) -> dict[str, tuple[float, str]]:
    """Never-gated numbers that explain a moved or unrepeatable window."""
    accesses = max(window.accesses, 1)
    call_ms = window.call_ms
    canary = window.canary
    reads, writes = window.op_ms["read"], window.op_ms["write"]
    gap = 0.0
    if reads and writes:
        gap = abs(
            stats.percentile(reads, 0.5) - stats.percentile(writes, 0.5)
        ) / stats.percentile(call_ms, 0.5)
    best = max(window.slices, key=lambda piece: piece.ops_s)
    scale = canary.scale()
    return {
        "calls": (len(call_ms), "count"),
        "tail.p99_ms": (window.latency_ms(0.99), "ms"),
        "tail.max_ms": (window.latency_ms(1.0), "ms"),
        "best.ops_s": (best.ops_s, "accesses/s"),
        "best.p50_ms": (stats.percentile(window.scaled_ms([best]), 0.5), "ms"),
        "slice.ops_s_iqr": (
            stats.iqr_share([piece.ops_s for piece in window.slices]),
            "ratio",
        ),
        "obliv.get_put_p50_gap": (gap, "ratio"),
        "cpu.proxy_ms_per_op": (window.usage["proxy_cpu_s"] * 1e3 / accesses * scale, "ms"),
        "cpu.shard_ms_per_op": (window.usage["shard_cpu_s"] * 1e3 / accesses * scale, "ms"),
        "rss.proxy_mb": (window.usage["proxy_rss_mib"], "MiB"),
        "rss.shard_mb": (window.usage["shard_rss_mib"], "MiB"),
        "raw.ops_s": (
            stats.median([piece.raw_ops_s for piece in window.slices]),
            "accesses/s",
        ),
        "raw.p50_ms": (stats.percentile(call_ms, 0.5), "ms"),
        "raw.p90_ms": (stats.percentile(call_ms, 0.9), "ms"),
        "host.canary_ms": (canary.mean_ms(), "ms"),
        "host.slowdown": (1.0 / scale, "ratio"),
        "host.canary_drift": (canary.drift(), "ratio"),
        "host.steal_share": (window.usage["steal_share"], "ratio"),
    }
