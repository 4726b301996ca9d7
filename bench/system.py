"""Boot, drive and tear down the system under test through its stable surface.

The benchmark builds the system only with ``StoreConfig(...)``,
``ShardCluster(1, in_process=False)`` and
``ShardedLblDeployment(config, addresses, rng=random.Random(seed))`` and
drives it only with ``initialize`` / ``access`` / ``access_pipelined`` /
``access_batch`` / ``close``, passing none of the deployment's optional
knobs, so it measures the repo's defaults.  Only the traced pass
(:mod:`bench.tracing`) goes below that surface.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.core.base import AccessTranscript
from repro.core.sharded import ShardedLblDeployment
from repro.transport.cluster import ShardCluster
from repro.types import Request, StoreConfig

from bench import host
from bench.workload import RequestStream, Spec


def store_config(spec: Spec) -> StoreConfig:
    """The workload's store configuration."""
    return StoreConfig(
        value_len=spec.value_len,
        group_bits=spec.group_bits,
        point_and_permute=spec.point_and_permute,
        label_cache_entries=-1 if spec.label_cache else None,
    )


def call_deployment(
    dep: ShardedLblDeployment, spec: Spec, requests: list[Request]
) -> list[AccessTranscript]:
    """One call into the deployment, of the workload's kind."""
    if spec.call == "access":
        return [dep.access(requests[0])]
    if spec.call == "access_pipelined":
        return dep.access_pipelined(requests, depth=spec.depth)
    return dep.access_batch(requests)


@dataclass
class Checker:
    """Dict oracle plus the GET/PUT shape check, fed with every reply."""

    oracle: dict[str, bytes]
    attempted: int = 0
    failed: int = 0
    wire_bytes: int = 0
    errors: list[str] = field(default_factory=list)
    shapes: dict[str, set[tuple[int, int]]] = field(
        default_factory=lambda: {"read": set(), "write": set()}
    )

    def reply(self, request: Request, value: bytes, sent: int, received: int) -> bool:
        """Check one reply against the oracle; returns whether it was right."""
        self.attempted += 1
        self.wire_bytes += sent + received
        self.shapes[request.op.value].add((sent, received))
        if request.op.is_write:
            self.oracle[request.key] = request.value
        if value == self.oracle[request.key]:
            return True
        self._fail(1, f"{request.op.value} {request.key}: reply differs from the oracle")
        return False

    def transcripts(
        self, requests: list[Request], transcripts: list[AccessTranscript]
    ) -> int:
        """Check one call's transcripts; returns how many accesses were right."""
        if len(transcripts) != len(requests):
            self.attempted += len(requests)
            self._fail(len(requests), "call returned the wrong number of transcripts")
            return 0
        return sum(
            self.reply(
                request,
                transcript.response.value,
                transcript.request_bytes,
                transcript.response_bytes,
            )
            for request, transcript in zip(requests, transcripts)
        )

    def raised(self, requests: list[Request], error: BaseException) -> None:
        """Count a call that raised: every access of it failed."""
        self.attempted += len(requests)
        self._fail(len(requests), f"{type(error).__name__}: {error}")

    def _fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.errors) < 5:
            self.errors.append(message)

    def oblivious_shapes(self) -> bool:
        """GET and PUT exchanged messages of one identical (request, reply) size."""
        reads, writes = self.shapes["read"], self.shapes["write"]
        seen = reads | writes
        if len(seen) > 1:
            return False
        return not (reads and writes) or reads == writes


@dataclass
class System:
    """A booted, initialized and warmed deployment with its inputs and oracle."""

    spec: Spec
    dep: ShardedLblDeployment
    stream: RequestStream
    checker: Checker
    shard_pid: int
    #: Whether proxy and shard were pinned to separate CPUs.
    pinned: bool
    #: Set-up phases as ``name -> (raw seconds, reference-host seconds)``.
    phases: dict[str, tuple[float, float]] = field(default_factory=dict)

    @property
    def raw_setup_s(self) -> float:
        """Boot + initialize + warm-up, as the wall clock saw them."""
        return sum(raw for raw, _scaled in self.phases.values())

    @property
    def setup_s(self) -> float:
        """Boot + initialize + warm-up at reference-host speed."""
        return sum(scaled for _raw, scaled in self.phases.values())


#: ``(system, requests)`` -> None; how set-up loads records and drives warm-up calls.
Loader = Callable[[System, dict[str, bytes]], None]
Driver = Callable[[System, list[Request]], None]


def load_plain(system: System, records: dict[str, bytes]) -> None:
    """Bulk-load through the stable surface."""
    system.dep.initialize(records)


def drive_plain(system: System, requests: list[Request]) -> None:
    """One checked call through the stable surface."""
    system.checker.transcripts(
        requests, call_deployment(system.dep, system.spec, requests)
    )


@contextlib.contextmanager
def booted(
    spec: Spec, seed: int, load: Loader = load_plain, drive: Driver = drive_plain
) -> Iterator[System]:
    """Boot one shard process, load the records, warm up; tear down on exit.

    The shard process is stopped and reaped on every path out, including
    exceptions raised by the body or by set-up itself.
    """
    stream = RequestStream(spec, seed)
    clock = time.perf_counter
    edges = host.Canary()
    phases: dict[str, tuple[float, float]] = {}

    def close_phase(name: str, start: float, before_ms: float) -> float:
        """End a phase timed as a whole; scale it by the canary bursts at its two edges."""
        raw = clock() - start
        after_ms = edges.burst()
        phases[name] = (raw, raw * host.scale_of([before_ms, after_ms]))
        return after_ms

    affinity = None
    edge_ms = edges.burst()
    start = clock()
    try:
        with ShardCluster(1, in_process=False) as cluster:
            (shard,) = multiprocessing.active_children()
            affinity, pinned = host.pin_apart(shard.pid)
            dep = ShardedLblDeployment(
                store_config(spec), cluster.addresses, rng=random.Random(seed)
            )
            try:
                edge_ms = close_phase("boot", start, edge_ms)
                system = System(
                    spec, dep, stream, Checker(dict(stream.initial)), shard.pid,
                    pinned, phases,
                )
                start = clock()
                load(system, stream.initial)
                close_phase("initialize", start, edge_ms)
                # Warm-up interleaves canary samples, as the measured window does.
                canary = host.Canary()
                start = clock()
                for _ in range(spec.warmup_calls):
                    drive(system, stream.next_call())
                    canary.keep_up(start)
                raw = clock() - start - canary.wall_s
                phases["warmup"] = (raw, raw * canary.scale())
                yield system
            finally:
                dep.close()
    finally:
        if affinity is not None:
            os.sched_setaffinity(0, affinity)
        reap_children()


def reap_children(timeout: float = 5.0) -> None:
    """Make sure no child process outlives the run: terminate, then kill, then join."""
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout)
        if child.is_alive():
            child.kill()
            child.join(timeout)
