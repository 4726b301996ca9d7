"""The traced pass: the calls ``ShardedLblDeployment.access`` makes, by hand.

With observability off, ``access`` is route, prepare, encode, one round
trip, decode, finalize (``src/repro/core/sharded.py``); ``access_batch``
is the same with the batch messages.  This module makes exactly those
calls through the layers' public functions and records a span around each
one in its own memory — the program itself is not instrumented.

What the remote shard does inside the round trip is measured on two
*replicas* in this process: two ``LblFrameDispatcher`` objects loaded with
the same LOAD frames and fed, outside the timed path, every payload the
remote shard receives.  Replica A runs the three server stages one by one
(decode, ``LblServer.process``, encode); replica B runs the whole
``dispatch``.  Both replies must equal the remote reply byte for byte.

A replica span is measured after the round trip it explains, so its
*interval* is re-based to start with that round trip and clipped to it;
its measured duration is kept in ``ms`` and is what every statistic uses.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.base import OpCounts
from repro.core.lbl.concurrent import finalize_batch_entries
from repro.core.messages import (
    LblAccessRequest,
    LblAccessResponse,
    LblBatchRequest,
    LblBatchResponse,
)
from repro.transport.server import LOAD_ACK, LblFrameDispatcher, pack_load
from repro.types import Request

from bench import host, stats
from bench.system import System
from bench.workload import Spec

#: Top-level stages of one staged step, in call order; their p50s and the
#: unattributed remainder add up to the untraced p50.
STAGES = (
    "proxy.prepare",
    "messages.encode",
    "transport.roundtrip",
    "messages.decode",
    "proxy.finalize",
)
#: Replica A's stages, children of replica B's ``dispatch`` span.
SERVER_STAGES = ("messages.server_decode", "server.process", "messages.server_encode")


class ReplicaMismatch(RuntimeError):
    """A replica's reply differed from the remote shard's."""


@dataclass
class SpanLog:
    """Spans kept in memory: ``(name, start, end, parent, request_id, ms)`` rows."""

    rows: list[tuple[str, float, float, int | None, int, float]] = field(
        default_factory=list
    )

    def add(
        self, name: str, start: float, end: float, parent: int | None, request_id: int
    ) -> int:
        """Record a span measured in place; returns its id."""
        self.rows.append((name, start, end, parent, request_id, (end - start) * 1e3))
        return len(self.rows) - 1

    def add_rebased(
        self, name: str, seconds: float, offset: float, parent: int, request_id: int
    ) -> int:
        """Record a replica span of ``seconds``, placed ``offset`` into its parent."""
        _name, parent_start, parent_end, *_rest = self.rows[parent]
        start = min(parent_start + offset, parent_end)
        end = min(start + seconds, parent_end)
        self.rows.append((name, start, end, parent, request_id, seconds * 1e3))
        return len(self.rows) - 1

    def to_dicts(self) -> list[dict]:
        """JSON form, one object per span, ids being list positions."""
        origin = self.rows[0][1] if self.rows else 0.0
        return [
            {
                "id": index,
                "name": name,
                "start_ms": (start - origin) * 1e3,
                "end_ms": (end - origin) * 1e3,
                "parent": parent,
                "request_id": request_id,
                "ms": ms,
            }
            for index, (name, start, end, parent, request_id, ms) in enumerate(self.rows)
        ]


@dataclass
class Counts:
    """Exact work counts summed over the traced pass."""

    accesses: int = 0
    prepare: OpCounts = field(default_factory=OpCounts)
    finalize: OpCounts = field(default_factory=OpCounts)
    server: OpCounts = field(default_factory=OpCounts)
    request_bytes: int = 0
    reply_bytes: int = 0


class Staged:
    """Hand-staged driver of one system plus its two server replicas."""

    def __init__(self, spec: Spec) -> None:
        pnp = spec.point_and_permute
        self.replica_a = LblFrameDispatcher(point_and_permute=pnp)  # stage by stage
        self.replica_b = LblFrameDispatcher(point_and_permute=pnp)  # whole dispatch
        self.log: SpanLog | None = None
        self.counts = Counts()
        self._next_id = 0

    # ------------------------------------------------------------------ #
    # Set-up hooks (see bench.system.booted)
    # ------------------------------------------------------------------ #

    def load(self, system: System, records: dict[str, bytes]) -> None:
        """``ShardedLblDeployment.initialize`` by hand, mirrored into the replicas."""
        dep = system.dep
        pending = []
        for encoded_key, labels in dep.proxy.initial_records(records):
            frame = pack_load(encoded_key, labels)
            shard = dep.router.shard_of(encoded_key)
            pending.append(dep.clients[shard].submit(frame))
            for replica in (self.replica_a, self.replica_b):
                if replica.dispatch(frame) != LOAD_ACK:
                    raise ReplicaMismatch("replica rejected a load record")
        for future in pending:
            if future.result(dep.timeout) != LOAD_ACK:
                raise ReplicaMismatch("remote shard rejected a load record")

    def drive(self, system: System, requests: list[Request]) -> None:
        """One checked staged step per access (or one per batch)."""
        if system.spec.staged_per_access:
            for request in requests:
                self.access(system, request)
        else:
            self.batch(system, requests)

    # ------------------------------------------------------------------ #
    # Staged steps
    # ------------------------------------------------------------------ #

    def access(self, system: System, request: Request) -> None:
        """The calls of ``ShardedLblDeployment.access``, one span each."""
        dep = system.dep
        clock = time.perf_counter
        t0 = clock()
        shard = dep.shard_of(request.key)
        t1 = clock()
        lbl_request, prepare_ops, epoch = dep.prepare_engine.prepare_one(request)
        t2 = clock()
        payload = lbl_request.to_bytes()
        t3 = clock()
        reply = dep.clients[shard].submit(payload).result(dep.timeout)
        t4 = clock()
        response = LblAccessResponse.from_bytes(reply)
        t5 = clock()
        value, finalize_ops = dep.proxy.finalize(request.key, response, counter=epoch)
        t6 = clock()

        # Replica A, stage by stage; replica B, whole.  Outside the timed path.
        a0 = clock()
        server_request = LblAccessRequest.from_bytes(payload)
        a1 = clock()
        server_response, server_ops = self.replica_a.lbl.process(server_request)
        a2 = clock()
        staged_reply = server_response.to_bytes()
        a3 = clock()
        whole_reply = self.replica_b.dispatch(payload)
        b1 = clock()
        if not staged_reply == whole_reply == reply:
            raise ReplicaMismatch(f"replica reply differs for {request.key}")

        system.checker.reply(request, value, len(payload), len(reply))
        self._record(
            1, [prepare_ops], [finalize_ops], [server_ops], payload, reply,
            (t0, t1, t2, t3, t4, t5, t6), (a1 - a0, a2 - a1, a3 - a2), b1 - a3,
        )

    def batch(self, system: System, requests: list[Request]) -> None:
        """The calls of ``ShardedLblDeployment.access_batch`` (one shard), one span each."""
        dep = system.dep
        clock = time.perf_counter
        t0 = clock()
        shard = dep.shard_of(requests[0].key)
        t1 = clock()
        built = dep.prepare_engine.prepare_batch(requests)
        t2 = clock()
        # access_batch serializes every sub-request once for its byte
        # accounting and once more inside the batch message; so does this.
        lbl_requests = tuple(lbl_request for lbl_request, _ops, _epoch in built)
        _sub_messages = [lbl_request.to_bytes() for lbl_request in lbl_requests]
        payload = LblBatchRequest(lbl_requests).to_bytes()
        t3 = clock()
        reply = dep.clients[shard].submit(payload).result(dep.timeout)
        t4 = clock()
        response = LblBatchResponse.from_bytes(reply)
        t5 = clock()
        share = (len(payload) // len(requests), len(reply) // len(requests))
        transcripts, failures = finalize_batch_entries(
            dep.proxy,
            [(request, ops, epoch) for request, (_lbl, ops, epoch) in zip(requests, built)],
            response.responses,
            shares=[share] * len(requests),
        )
        t6 = clock()

        a0 = clock()
        server_batch = LblBatchRequest.from_bytes(payload)
        a1 = clock()
        processed = [self.replica_a.lbl.process(entry) for entry in server_batch.requests]
        a2 = clock()
        staged_reply = LblBatchResponse(
            tuple(server_response for server_response, _ops in processed)
        ).to_bytes()
        a3 = clock()
        whole_reply = self.replica_b.dispatch(payload)
        b1 = clock()
        if not staged_reply == whole_reply == reply:
            raise ReplicaMismatch("replica batch reply differs")

        if failures:
            system.checker.raised(requests, RuntimeError(f"batch failures {failures}"))
        else:
            system.checker.transcripts(
                requests, [transcripts[index] for index in range(len(requests))]
            )
        self._record(
            len(requests),
            [ops for _lbl, ops, _epoch in built],
            [transcript.phases[2].ops for transcript in transcripts.values()],
            [ops for _response, ops in processed],
            payload,
            reply,
            (t0, t1, t2, t3, t4, t5, t6), (a1 - a0, a2 - a1, a3 - a2), b1 - a3,
        )

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def _record(
        self, accesses, prepare, finalize, server, payload, reply, t, server_stage_s, dispatch_s
    ) -> None:
        """Add one step's exact counts and its spans to the pass being recorded."""
        log = self.log
        if log is None:  # warm-up: replicas fed, nothing recorded
            return
        counts = self.counts
        counts.accesses += accesses
        counts.prepare = sum(prepare, counts.prepare)
        counts.finalize = sum(finalize, counts.finalize)
        counts.server = sum(server, counts.server)
        counts.request_bytes += len(payload)
        counts.reply_bytes += len(reply)

        request_id = self._next_id
        self._next_id += 1
        root = log.add("step", t[0], t[6], None, request_id)
        stage_ids = [
            log.add(name, start, end, root, request_id)
            for name, start, end in zip(STAGES, t[1:6], t[2:7])
        ]
        roundtrip = stage_ids[STAGES.index("transport.roundtrip")]
        # The server's work sits at the far end of the wire: centre it.
        lead = max(0.0, (t[4] - t[3] - dispatch_s) / 2)
        dispatch = log.add_rebased("dispatch", dispatch_s, lead, roundtrip, request_id)
        offset = max(0.0, (dispatch_s - sum(server_stage_s)) / 2)
        for name, seconds in zip(SERVER_STAGES, server_stage_s):
            log.add_rebased(name, seconds, offset, dispatch, request_id)
            offset += seconds


def run_traced(system: System, staged: Staged, steps: int) -> tuple[SpanLog, host.Canary]:
    """Record ``steps`` staged steps of fresh requests from the same generator.

    Between steps the caller samples the host canary, as the untraced window
    does; the samples come back with the log.
    """
    staged.log = SpanLog()
    canary = host.Canary()
    per_step = 1 if system.spec.staged_per_access else system.spec.accesses_per_call
    pending: list[Request] = []
    start = time.perf_counter()
    for _ in range(steps):
        if len(pending) < per_step:
            pending = system.stream.next_call()
        step, pending = pending[:per_step], pending[per_step:]
        staged.drive(system, step)
        canary.keep_up(start)
    log, staged.log = staged.log, None
    return log, canary


def stage_p50s(log: SpanLog, canary: host.Canary) -> dict[str, float]:
    """p50 duration (ms, reference-host speed) of every span name in the log.

    Every span of a step is scaled by the canary samples around that step.
    """
    scaled: dict[str, list[float]] = {}
    for name, start, _end, parent, _request_id, ms in log.rows:
        if parent is None:
            scale = canary.scale_at(start)  # rows of one step follow its root
        scaled.setdefault(name, []).append(ms * scale)
    return {name: stats.percentile(values, 0.50) for name, values in scaled.items()}


def budget(p50: dict[str, float], untraced_call_ms: float, steps_per_call: int):
    """The layer table: ``(stage, p50 ms per call, share of the untraced p50)`` rows.

    The round trip is split into the wire and the server's stages (from the
    replicas); the last row is what the stages leave unattributed, so the
    shares add up to 1.
    """
    dispatch_self = p50["dispatch"] - sum(p50[name] for name in SERVER_STAGES)
    parts = {
        "proxy.prepare": p50["proxy.prepare"],
        "messages.encode": p50["messages.encode"],
        "transport.self": p50["transport.roundtrip"] - p50["dispatch"],
        "dispatch.self": dispatch_self,
        **{name: p50[name] for name in SERVER_STAGES},
        "messages.decode": p50["messages.decode"],
        "proxy.finalize": p50["proxy.finalize"],
    }
    rows = [
        (name, ms * steps_per_call, ms * steps_per_call / untraced_call_ms)
        for name, ms in parts.items()
    ]
    attributed = sum(ms for _name, ms, _share in rows)
    rows.append(
        (
            "trace.unattributed",
            untraced_call_ms - attributed,
            (untraced_call_ms - attributed) / untraced_call_ms,
        )
    )
    return rows


def write_trace(path: Path, workload: str, seed: int, log: SpanLog) -> None:
    """Write the span log next to the benchmark (``bench/out/trace_<workload>.json``)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump({"workload": workload, "seed": seed, "spans": log.to_dicts()}, handle)
