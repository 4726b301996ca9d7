"""Host-side readers: ``/proc`` CPU and memory, steal time, and the canary loop.

Everything here observes the benchmark's processes from outside; nothing
imports the program under test.
"""

from __future__ import annotations

import bisect
import hashlib
import hmac
import os
import time
from dataclasses import dataclass

_CLK_TCK = os.sysconf("SC_CLK_TCK")

#: HMAC evaluations of one canary sample: fixed work, about 4 ms on a quiet
#: core of this host class.
CANARY_LOOPS = 2_000
#: Duration of one canary sample on the *reference* host, in milliseconds.
#: Every reported time is scaled to it, so the constant only sets the scale.
CANARY_REF_MS = 4.0
#: Share of the caller's busy time spent sampling the canary.
CANARY_SHARE = 0.12
#: Canary samples averaged around one call to scale it (about +-100 ms).
CANARY_NEIGHBOURS = 6
#: A window whose two halves differ by more than this in mean canary time
#: saw the host change regime under it and is marked noisy.
CANARY_DRIFT_LIMIT = 0.25


def parse_stat_cpu_ticks(stat_text: str) -> int:
    """utime + stime (clock ticks) from the text of ``/proc/<pid>/stat``.

    The command name (field 2) may hold spaces and parentheses, so fields
    are counted from the last ``)``.
    """
    fields = stat_text[stat_text.rindex(")") + 2 :].split()
    return int(fields[11]) + int(fields[12])  # fields 14 and 15 of the line


def process_cpu_s(pid: int) -> float:
    """CPU seconds (user + system, all threads) a live process has consumed."""
    with open(f"/proc/{pid}/stat") as handle:
        return parse_stat_cpu_ticks(handle.read()) / _CLK_TCK


def parse_status_kib(status_text: str, field: str) -> int:
    """One ``kB`` field (e.g. ``VmHWM``) from the text of ``/proc/<pid>/status``."""
    for line in status_text.splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1])
    raise KeyError(f"{field} not in /proc status")


def peak_rss_mib(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        return parse_status_kib(handle.read(), "VmHWM") / 1024.0


def parse_proc_stat(stat_text: str) -> tuple[int, int]:
    """(steal ticks, total ticks) from the aggregate ``cpu`` line of ``/proc/stat``."""
    for line in stat_text.splitlines():
        if line.startswith("cpu "):
            ticks = [int(field) for field in line.split()[1:]]
            steal = ticks[7] if len(ticks) > 7 else 0
            return steal, sum(ticks[:8])  # guest time is already inside user/nice
    raise KeyError("no aggregate cpu line in /proc/stat")


def host_cpu_ticks() -> tuple[int, int]:
    """Current (steal, total) tick counters of the whole host."""
    with open("/proc/stat") as handle:
        return parse_proc_stat(handle.read())


def canary_sample() -> float:
    """Wall time of one fixed HMAC loop, in milliseconds.

    The loop does the same work on every call, so a change in its time is a
    change in the host (a neighbour on the core, frequency, steal), not in
    the program.
    """
    key = b"k" * 32
    message = b"m" * 48
    start = time.perf_counter()
    for _ in range(CANARY_LOOPS):
        hmac.new(key, message, hashlib.sha256).digest()
    return (time.perf_counter() - start) * 1e3


def scale_of(samples_ms: list[float]) -> float:
    """Reference-host time per unit of wall time, judged by these canary samples."""
    return CANARY_REF_MS * len(samples_ms) / sum(samples_ms)


class Canary:
    """Speed samples of the caller's core, interleaved with the measured work.

    This host class flips between a quiet and a contended speed (about
    1.7x apart) in bursts of tens of milliseconds and regimes of minutes,
    so a raw time mostly measures the neighbours.  The canary is sampled on
    the caller thread between calls, for a fixed share of the busy time.
    A time divided by the canary samples taken around it, times
    :data:`CANARY_REF_MS`, is the time the same work takes on the reference
    host; that is what the benchmark reports (raw values are kept beside it).
    """

    def __init__(self, share: float = CANARY_SHARE) -> None:
        self.share = share
        self.samples_ms: list[float] = []
        self.times_s: list[float] = []  # perf_counter at the end of each sample
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def tick(self) -> float:
        """Take one sample; returns it in milliseconds."""
        cpu = time.thread_time()
        sample = canary_sample()
        self.cpu_s += time.thread_time() - cpu
        self.wall_s += sample / 1e3
        self.samples_ms.append(sample)
        self.times_s.append(time.perf_counter())
        return sample

    def keep_up(self, since_s: float) -> None:
        """Sample until the canary has had its share of the work done since ``since_s``.

        ``since_s`` is the ``perf_counter`` reading at which this canary's
        phase began; the canary's own samples do not count as work.
        """
        while self.wall_s < self.share * (time.perf_counter() - since_s - self.wall_s):
            self.tick()

    def burst(self, count: int = 5) -> float:
        """Take ``count`` samples back to back; returns their mean in milliseconds.

        For the edges of a phase that is timed as a whole.
        """
        return sum(self.tick() for _ in range(count)) / count

    def mean_ms(self) -> float:
        """Mean sample."""
        return sum(self.samples_ms) / len(self.samples_ms)

    def scale(self) -> float:
        """Factor that turns a total or mean time into reference-host time."""
        return scale_of(self.samples_ms)

    def scale_at(self, when_s: float) -> float:
        """The same factor from the :data:`CANARY_NEIGHBOURS` samples nearest ``when_s``.

        Used for single calls: the host's speed changes faster than a window,
        so each call is scaled by what the canary saw right around it.
        """
        count = len(self.samples_ms)
        first = bisect.bisect_left(self.times_s, when_s) - CANARY_NEIGHBOURS // 2
        first = max(0, min(first, count - CANARY_NEIGHBOURS))
        return scale_of(self.samples_ms[first : first + CANARY_NEIGHBOURS])

    def drift(self) -> float:
        """Relative change of the mean sample from the first to the second half."""
        half = len(self.samples_ms) // 2
        if half == 0:
            return 0.0
        first = sum(self.samples_ms[:half]) / half
        second = sum(self.samples_ms[half:]) / (len(self.samples_ms) - half)
        return abs(second - first) / first


def pin_apart(shard_pid: int) -> tuple[set[int], bool]:
    """Pin this process to one CPU and the shard process to another.

    Returns this process's previous affinity (to restore) and whether the
    processes were pinned.  Apart, the scheduler cannot stack both on one
    core for a while, and the canary samples the very core the proxy runs
    on.  With fewer than two usable CPUs nothing is changed.
    """
    previous = os.sched_getaffinity(0)
    if len(previous) < 2:
        return previous, False
    proxy_cpu, shard_cpu = sorted(previous)[:2]
    os.sched_setaffinity(0, {proxy_cpu})
    for task in os.listdir(f"/proc/{shard_pid}/task"):
        os.sched_setaffinity(int(task), {shard_cpu})
    return previous, True


@dataclass
class UsageProbe:
    """CPU and steal counters sampled at the start of a measured window."""

    shard_pid: int
    proxy_cpu_s: float
    shard_cpu_s: float
    steal_ticks: int
    total_ticks: int

    @classmethod
    def start(cls, shard_pid: int) -> "UsageProbe":
        """Sample every counter now."""
        steal, total = host_cpu_ticks()
        return cls(
            shard_pid, time.process_time(), process_cpu_s(shard_pid), steal, total
        )

    def finish(self) -> dict[str, float]:
        """Deltas since :meth:`start`, plus both processes' peak RSS."""
        steal, total = host_cpu_ticks()
        elapsed_ticks = total - self.total_ticks
        return {
            "proxy_cpu_s": time.process_time() - self.proxy_cpu_s,
            "shard_cpu_s": process_cpu_s(self.shard_pid) - self.shard_cpu_s,
            "steal_share": (
                (steal - self.steal_ticks) / elapsed_ticks if elapsed_ticks else 0.0
            ),
            "proxy_rss_mib": peak_rss_mib(os.getpid()),
            "shard_rss_mib": peak_rss_mib(self.shard_pid),
        }
