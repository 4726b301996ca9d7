"""The LBL front end: one trusted proxy over N shards, each behind a link.

The paper scales ORTOA by partitioning the key space across proxy/server
pairs (§6.2.4).  :class:`ShardedLblDeployment` is the trusted side of every
LBL deployment in this repository: one proxy fronting ``N`` shards, each
reached through a *link* (:mod:`repro.transport.pipeline`) — a
:class:`~repro.transport.pipeline.PipelinedLblClient` over TCP to an
:class:`~repro.transport.server.LblTcpServer`, or a
:class:`~repro.transport.pipeline.LocalLink` handing the same payload bytes
to a dispatcher in this process.  :class:`LblOrtoa` (one local shard) and
:class:`RemoteLblOrtoa` (one TCP shard) are this class with its link chosen.

* **routing** — :class:`~repro.storage.sharding.ShardRouter` maps the
  PRF-encoded key to a shard (the router sees what each server already sees);
* **batching** — :meth:`access_batch` prepares in request order and ships
  one sub-batch frame per shard, concurrently;
* **pipelining** — :meth:`access_pipelined` keeps up to ``pipeline_depth``
  single-request frames in flight; :meth:`access` is a pipeline of one.

**One key, one frame in flight.**  Two in-flight accesses to one key would
both build tables against the same label epoch and the second would fail to
decrypt.  So every access *claims* its key from prepare until its reply is
finalized, across all caller threads: a pipeline that wants a claimed key
drains its own window, and waits for another caller's claim only once it
holds none; a batch claims all its keys at once while holding none.  No
caller ever waits for a key while it holds another, so callers cannot
deadlock.  Within a batch the server processes sub-requests in order, so
repeated keys inside one batch are safe.

The proxy's share of an access is one sequential table build (§5.2 step 1);
throughput is bought by adding proxy/server pairs (§6.2.4), not by spreading
one prepare over workers (``docs/performance.md`` has the measurement).
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Iterable

from repro.core.base import AccessTranscript, OpCounts, OrtoaProtocol, RoundTrip
from repro.core.lbl.concurrent import finalize_batch_entries
from repro.core.lbl.proxy import LblProxy
from repro.core.lbl.wal import CounterWal
from repro.core.messages import (
    LblAccessRequest,
    LblAccessResponse,
    LblBatchRequest,
    LblBatchResponse,
    LblErrorEntry,
)
from repro.crypto.keys import KeyChain
from repro.errors import (
    BatchPartialFailure,
    ConfigurationError,
    OverloadError,
    ProtocolError,
    RefusedError,
)
from repro.obs import _state as _obs
from repro.obs.metrics import REGISTRY
from repro.obs.propagate import TraceContext, merge_span_dumps
from repro.obs.trace import TRACER, Span
from repro.storage.sharding import ShardRouter
from repro.transport.pipeline import LocalLink, PipelinedLblClient
from repro.transport.server import (
    LOAD_ACK,
    OBS_DUMP_TAG,
    OBS_PULL_TAG,
    LblFrameDispatcher,
    pack_load,
)
from repro.types import Request, StoreConfig


# ``LblProxy.prepare`` is the only way a request is prepared; this class exists
# because ``bench/tracing.py`` calls ``dep.prepare_engine.prepare_one`` /
# ``.prepare_batch``, until it calls ``proxy.prepare`` (ROADMAP item 1(b)).
class _SerialPrepare:
    """``proxy.prepare`` returning ``(wire_request, prepare_ops, epoch)``."""

    def __init__(self, proxy: LblProxy) -> None:
        self.proxy = proxy

    def prepare_one(self, request: Request) -> tuple[LblAccessRequest, OpCounts, int]:
        """Prepare one access; ``epoch`` is the counter it installs."""
        lbl_request, ops = self.proxy.prepare(request)
        return lbl_request, ops, self.proxy.counter(request.key)

    def prepare_batch(
        self, requests: list[Request]
    ) -> list[tuple[LblAccessRequest, OpCounts, int]]:
        """Prepare every request in order, so same-key epochs chain."""
        if not requests:
            raise ConfigurationError("prepare batch must contain at least one request")
        return [self.prepare_one(request) for request in requests]


class _KeyClaims:
    """The keys with a frame in flight, across every caller thread.

    Callers wait in :meth:`claim` only while they hold no claim, which is
    what makes the rule deadlock-free.
    """

    def __init__(self) -> None:
        self._held: set[str] = set()
        self._changed = threading.Condition(threading.Lock())

    def claim(self, keys: Iterable[str], wait: bool = True) -> bool:
        """Claim every key of ``keys`` once none is claimed — at once, or
        never when not ``wait``; returns whether it claimed."""
        with self._changed:
            free = self._changed.wait_for(
                lambda: self._held.isdisjoint(keys), None if wait else 0
            )
            if free:
                self._held.update(keys)
            return free

    def release(self, keys: Iterable[str]) -> None:
        """Give ``keys`` back and wake the callers waiting for them."""
        with self._changed:
            self._held.difference_update(keys)
            self._changed.notify_all()


@dataclass(slots=True)
class _Flight:
    """One single-request frame, from prepare to finalize."""

    index: int
    request: Request
    epoch: int
    prepare_ops: OpCounts
    future: Future
    request_bytes: int
    span: "Span | None"
    submitted_at: float
    resent: bool


class ShardedLblDeployment(OrtoaProtocol):
    """One trusted proxy over ``N`` shards, pipelined.

    Args:
        config: Store configuration.
        addresses: One entry per shard: the ``(host, port)`` of its
            :class:`~repro.transport.server.LblTcpServer` (a
            :class:`~repro.transport.pipeline.PipelinedLblClient` is opened
            to it), or a link object to use as it stands (anything with
            ``submit`` / ``close``, e.g. a
            :class:`~repro.transport.pipeline.LocalLink`).
        keychain: Key material — never leaves this process.
        rng: Accepted and unused.
        pipeline_depth: Default in-flight window of
            :meth:`access_pipelined`.
        pool_size: Sockets per TCP shard.
        timeout: Connect timeout and per-reply wait (seconds).
        wal_path: Keep the proxy's counters in a write-ahead log there
            (:mod:`repro.core.lbl.wal`).  A log that already holds counters
            is replayed: that is recovery, and it needs the crashed
            deployment's ``keychain``.

    **Refused requests.**  An OVERLOAD or error frame proves the shard
    refused before commit, so the key's counter goes back to the epoch the
    shard holds before :class:`~repro.errors.RefusedError` is raised: a
    retry is safe.  A timeout or a lost connection proves nothing; that is
    the write-ahead log's business.

    **The write-ahead log.**  Every path appends a request's epoch before
    the frame leaves.  A crash between the append and the shard's commit
    leaves the logged counter one epoch ahead; the refusal path resolves
    it: a refused frame's key goes back two epochs and the request is sent
    once more (counted in :attr:`recovered_resyncs` when that resend is
    answered).  A batch whose first entry for a key is refused gives that
    entry the same resync, as a single frame.
    """

    name = "lbl-ortoa-sharded"
    rounds = 1

    def __init__(
        self,
        config: StoreConfig,
        addresses: list,
        keychain: KeyChain | None = None,
        rng: object = None,  # unused: only the closed bench/ still passes it
        pipeline_depth: int = 8,
        pool_size: int = 1,
        timeout: float = 30.0,
        wal_path: str | os.PathLike | None = None,
    ) -> None:
        super().__init__(config)
        if not addresses:
            raise ConfigurationError("deployment needs at least one shard address")
        if pipeline_depth < 1:
            raise ConfigurationError("pipeline_depth must be >= 1")
        self.wal = CounterWal(wal_path) if wal_path is not None else None
        recovered = self.wal.replay() if self.wal is not None else {}
        if recovered and keychain is None:
            raise ConfigurationError("recovery requires the original keychain")
        self.keychain = keychain or KeyChain(label_bits=config.label_bits)
        self.proxy = LblProxy(config, self.keychain)
        if recovered:
            self.proxy.restore_counters(recovered)
        #: Resends that recovered a key logged one epoch ahead of its shard.
        self.recovered_resyncs = 0
        self._resyncs_lock = threading.Lock()
        self.prepare_engine = _SerialPrepare(self.proxy)
        self.router = ShardRouter(len(addresses))
        self.clients = [
            address
            if hasattr(address, "submit")
            else PipelinedLblClient(address, pool_size=pool_size, timeout=timeout)
            for address in addresses
        ]
        self.pipeline_depth = pipeline_depth
        self.timeout = timeout
        self._encoded: dict[str, bytes] = {}
        self._claims = _KeyClaims()
        if type(self) is ShardedLblDeployment:  # subclasses keep their name
            self.name = f"{self.name}-x{len(addresses)}"

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #

    @property
    def num_shards(self) -> int:
        """Storage shards in this deployment."""
        return len(self.clients)

    def encoded_key(self, key: str) -> bytes:
        """The PRF-encoded (server-visible) form of ``key``, cached."""
        encoded = self._encoded.get(key)
        if encoded is None:
            encoded = self.keychain.encode_key(key)
            self._encoded[key] = encoded
        return encoded

    def shard_of(self, key: str) -> int:
        """Which shard serves ``key`` (stable hash of the encoded key)."""
        return self.router.shard_of(self.encoded_key(key))

    def shard_sizes(self) -> list[int]:
        """Keys routed to each shard so far (balance diagnostic)."""
        sizes = [0] * self.num_shards
        for key in self._encoded:
            sizes[self.shard_of(key)] += 1
        return sizes

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Close every shard link and the write-ahead log."""
        for client in self.clients:
            client.close()
        if self.wal is not None:
            self.wal.close()

    def checkpoint(self) -> None:
        """Compact the write-ahead log into a snapshot of the counters."""
        if self.wal is None:
            raise ConfigurationError("checkpoint needs a deployment with wal_path")
        self.wal.checkpoint(self.proxy.counters())

    def collect_remote_obs(self) -> list[dict]:
        """Pull every shard's telemetry dump (spans + metrics) over the wire.

        Call before :meth:`close` when the shards are *process-backed*
        (each has its own tracer); merge the result with
        :meth:`merged_spans`.  Thread-backed shards share this process's
        global tracer, so pulling them would duplicate every span — skip
        the call there.
        """
        pending = [client.submit(bytes([OBS_PULL_TAG])) for client in self.clients]
        dumps = []
        for future in pending:
            reply = future.result(self.timeout)
            if reply[:1] != bytes([OBS_DUMP_TAG]):
                raise ProtocolError("shard answered obs pull with a non-dump frame")
            dumps.append(json.loads(reply[1:].decode("utf-8")))
        return dumps

    def merged_spans(self, remote_dumps: list[dict] | None = None) -> list[dict]:
        """One span list: this process's spans plus the shards' dumps.

        Remote span ids are rewritten into the local id space and the
        propagated parent links preserved
        (:func:`repro.obs.propagate.merge_span_dumps`), so every
        server-side span ends up a descendant of the client access span
        that caused it.
        """
        remote = [dump.get("spans", []) for dump in (remote_dumps or [])]
        return merge_span_dumps(TRACER.export(), remote)

    def __enter__(self) -> "ShardedLblDeployment":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Protocol interface
    # ------------------------------------------------------------------ #

    def initialize(self, records: dict[str, bytes]) -> None:
        """Bulk-load records, pipelining the LOAD frames across all shards."""
        pending = []
        for key, (encoded_key, labels) in zip(
            records, self.proxy.initial_records(records)
        ):
            self._encoded[key] = encoded_key  # primes the routing cache
            link = self.clients[self.router.shard_of(encoded_key)]
            pending.append(link.submit(pack_load(encoded_key, labels)))
        for future in pending:
            if future.result(self.timeout) != LOAD_ACK:
                raise ProtocolError("server rejected a load record")
        if self.wal is not None:
            self.wal.checkpoint(self.proxy.counters())

    def _send(self, index: int, request: Request, resent: bool = False) -> _Flight:
        """Prepare one request, log its epoch, and submit it to its shard.

        Under observability the access gets a ``sharded.access`` span whose
        context rides the mux frame, so the shard's spans parent under it.
        """
        capture = _obs.enabled
        started = time.perf_counter() if capture else 0.0
        lbl_request, prepare_ops, epoch = self.prepare_engine.prepare_one(request)
        payload = lbl_request.to_bytes()
        if self.wal is not None:
            self.wal.append(request.key, epoch)  # write-ahead: log, then send
        shard = self.shard_of(request.key)
        span = context = None
        submitted_at = 0.0
        if capture:
            REGISTRY.log_histogram("lbl.proxy.prepare.seconds").observe(
                time.perf_counter() - started
            )
            span = TRACER.start_span(
                "sharded.access", shard=shard, request_bytes=len(payload)
            )
            context = TraceContext.from_span(span).encode()
            REGISTRY.counter(f"sharded.shard{shard}.requests").inc()
            submitted_at = time.perf_counter()
        future = self.clients[shard].submit(payload, trace_context=context)
        return _Flight(
            index, request, epoch, prepare_ops, future, len(payload), span,
            submitted_at, resent,
        )

    def _refused(self, key: str, epoch: int, resent: bool, shed: bool) -> bool:
        """The one rollback of a refused request; returns whether to resend.

        A refusal proves the shard did not commit ``epoch``, so it still
        holds ``epoch - 1`` — unless the logged counter had run one epoch
        ahead of it (a crash between the log append and the send).  With a
        log, a refusal that is not a ``shed`` therefore goes back two epochs
        and resends once; if the resend is refused too, the key returns to
        the epoch it started from.
        """
        resync = self.wal is not None and not resent and epoch >= 2 and not shed
        back = 0 if resent else 2 if resync else 1
        self.proxy.force_counter(key, epoch - back)
        return resync

    def _receive(self, flight: _Flight) -> "AccessTranscript | _Flight":
        """Wait for one frame's reply and finalize it.

        Returns the transcript, or the resend a resync put in flight.
        """
        request, span = flight.request, flight.span
        try:
            reply = flight.future.result(self.timeout)
        except RefusedError as exc:
            if span is not None:
                TRACER.end(span)
            if self._refused(
                request.key, flight.epoch, flight.resent,
                isinstance(exc, OverloadError),
            ):
                return self._send(flight.index, request, resent=True)
            raise
        if span is not None:
            REGISTRY.log_histogram("sharded.access.roundtrip.seconds").observe(
                time.perf_counter() - flight.submitted_at
            )
            TRACER.end(span)
        response = LblAccessResponse.from_bytes(reply)
        value, finalize_ops = self.proxy.finalize(
            request.key, response, counter=flight.epoch
        )
        if flight.resent:
            with self._resyncs_lock:
                self.recovered_resyncs += 1
        return self.proxy.transcript(
            request,
            flight.prepare_ops,
            finalize_ops,
            RoundTrip(flight.request_bytes, len(reply)),
            value,
        )

    def access(self, request: Request) -> AccessTranscript:
        """One oblivious access routed to its shard, in lockstep: a
        pipeline of one.

        Raises:
            RefusedError: The shard refused the request; the key's counter
                is back in step with it, so the access can be retried.
        """
        return self._pipeline([request], 1)[0]

    def access_pipelined(
        self, requests: list[Request], depth: int | None = None
    ) -> list[AccessTranscript]:
        """Serve requests with up to ``depth`` frames in flight at once.

        Unlike :meth:`access_batch` (one frame per shard), every request
        travels as its own multiplexed frame, so the server's worker pool
        processes them in parallel and replies stream back continuously.
        Transcripts are returned in request order.

        Raises:
            RefusedError: A shard refused a request (OVERLOAD or error
                frame).  Nothing further is submitted; the frames already
                in flight are drained — finalized, or rolled back if
                refused too — and the first refusal is raised with every
                refused key's counter back in step with its shard.
        """
        if not requests:
            raise ProtocolError("pipeline needs at least one request")
        depth = self.pipeline_depth if depth is None else depth
        if depth < 1:
            raise ConfigurationError("pipeline depth must be >= 1")
        return self._pipeline(requests, depth)

    def _pipeline(self, requests: list[Request], depth: int) -> list[AccessTranscript]:
        claims = self._claims
        window: deque[_Flight] = deque()
        held: set[str] = set()
        transcripts: list = [None] * len(requests)
        refused: list[RefusedError] = []

        def drain_one() -> None:
            flight = window.popleft()
            try:
                done = self._receive(flight)
            except RefusedError as exc:
                refused.append(exc)
            else:
                if isinstance(done, _Flight):  # a resync's resend, key still held
                    window.append(done)
                    return
                transcripts[flight.index] = done
            key = flight.request.key
            held.discard(key)
            claims.release((key,))
            if _obs.enabled:
                REGISTRY.gauge("sharded.pipeline.in_flight").set(len(window))

        try:
            for index, request in enumerate(requests):
                while len(window) >= depth:
                    drain_one()
                key = (request.key,)
                # Drain this caller's own frames while the key is claimed;
                # wait for another caller's claim only when holding none.
                while not refused and not claims.claim(key, wait=False):
                    if window:
                        drain_one()
                    else:
                        claims.claim(key)
                        break
                if refused:  # nothing further is submitted (and key is not held)
                    break
                held.add(request.key)
                window.append(self._send(index, request))
                if _obs.enabled:
                    REGISTRY.gauge("sharded.pipeline.in_flight").set(len(window))
            while window:
                drain_one()
        finally:
            if held:
                claims.release(held)
        if refused:
            raise refused[0]
        return transcripts

    def access_batch(self, requests: list[Request]) -> list[AccessTranscript]:
        """Serve a batch with one concurrent sub-batch per shard.

        Requests are prepared in order (epochs recorded, so repeated keys
        decode correctly), partitioned by shard, shipped concurrently, and
        the per-shard replies are merged back into request order.  The
        batch claims all of its keys at once before it prepares.

        Raises:
            BatchPartialFailure: Some requests failed server-side — or a
                shard refused its whole sub-batch (OVERLOAD or error
                frame); see :class:`~repro.errors.BatchPartialFailure` for
                the retry contract.
        """
        if not requests:
            raise ProtocolError("batch must contain at least one request")
        keys = {request.key for request in requests}
        self._claims.claim(keys)
        try:
            if not _obs.enabled:
                return self._access_batch_inner(requests, None)
            with TRACER.span("sharded.batch", size=len(requests)) as batch_span:
                return self._access_batch_inner(
                    requests, TraceContext.from_span(batch_span).encode()
                )
        finally:
            self._claims.release(keys)

    def _access_batch_inner(
        self, requests: list[Request], batch_context: bytes | None
    ) -> list[AccessTranscript]:
        prepare_start = time.perf_counter()
        built = self.prepare_engine.prepare_batch(requests)
        if _obs.enabled:
            REGISTRY.log_histogram("lbl.proxy.prepare.seconds").observe(
                time.perf_counter() - prepare_start
            )
        by_shard: dict[int, list[int]] = {}
        for index, (request, (_, _, epoch)) in enumerate(zip(requests, built)):
            if self.wal is not None:
                self.wal.append(request.key, epoch)  # write-ahead: log, then send
            by_shard.setdefault(self.shard_of(request.key), []).append(index)

        # Ship every sub-batch before waiting on any reply: the shards
        # work concurrently while this thread blocks on the slowest one.
        shard_futures = {}
        shard_wire_bytes = {}
        for shard, indices in by_shard.items():
            wire = LblBatchRequest(tuple(built[i][0] for i in indices)).to_bytes()
            shard_wire_bytes[shard] = len(wire)
            shard_futures[shard] = self.clients[shard].submit(
                wire, trace_context=batch_context
            )
            if _obs.enabled:
                REGISTRY.counter(f"sharded.shard{shard}.requests").inc(len(indices))
                REGISTRY.gauge("sharded.batch.shards_in_flight").set(
                    len(shard_futures)
                )

        entries: list = [None] * len(requests)
        shares: list[tuple[int, int]] = [(0, 0)] * len(requests)
        shed: set[int] = set()
        for shard, indices in by_shard.items():
            try:
                reply = shard_futures[shard].result(self.timeout)
            except RefusedError as exc:
                # The shard refused this sub-batch whole, before commit:
                # each of its entries failed, and finalize_batch_entries
                # takes their keys back like any other failed entry.
                if isinstance(exc, OverloadError):
                    shed.update(indices)
                for index in indices:
                    entries[index] = LblErrorEntry(str(exc))
                continue
            response = LblBatchResponse.from_bytes(reply)
            if len(response.responses) != len(indices):
                raise ProtocolError("batch response count mismatch")
            share = (
                shard_wire_bytes[shard] // len(indices),
                len(reply) // len(indices),
            )
            for index, entry in zip(indices, response.responses):
                entries[index] = entry
                shares[index] = share

        transcripts, failures = finalize_batch_entries(
            self.proxy,
            [(request, ops, epoch) for request, (_, ops, epoch) in zip(requests, built)],
            tuple(entries),
            shares=shares,
        )
        if failures and self.wal is not None:
            self._resync_batch(requests, built, shed, transcripts, failures)
        if failures:
            raise BatchPartialFailure(failures, transcripts)
        return [transcripts[i] for i in range(len(requests))]

    def _resync_batch(
        self,
        requests: list[Request],
        built: list[tuple[LblAccessRequest, OpCounts, int]],
        shed: set[int],
        transcripts: dict[int, AccessTranscript],
        failures: dict[int, str],
    ) -> None:
        """Give a key whose first entry in the batch failed the resync of
        :meth:`_refused`, resending that entry once as a single frame.

        A key whose first entry was answered is in step with its shard;
        its later failures, like the later entries of a resynced key, stay
        in ``failures``.  Updates ``transcripts`` and ``failures`` in place.
        """
        first: dict[str, int] = {}
        for index, request in enumerate(requests):
            first.setdefault(request.key, index)
        for index in first.values():
            request = requests[index]
            if index not in failures or not self._refused(
                request.key, built[index][2], False, index in shed
            ):
                continue
            try:
                transcripts[index] = self._receive(
                    self._send(index, request, resent=True)
                )
            except RefusedError:
                continue
            del failures[index]


class LblOrtoa(ShardedLblDeployment):
    """One-round oblivious GET/PUT via PRF-derived bit labels, in one process.

    Args:
        config: Store configuration; ``group_bits`` selects §10.1's grouping.
        keychain: Key material (generated if omitted).
    """

    name = "lbl-ortoa"

    def __init__(
        self,
        config: StoreConfig,
        keychain: KeyChain | None = None,
    ) -> None:
        link = LocalLink(LblFrameDispatcher())
        super().__init__(config, [link], keychain=keychain)
        #: The shard's untrusted server, for inspection (the DES harness and
        #: the obliviousness checker read it).
        self.server = link.dispatcher.lbl


class RemoteLblOrtoa(ShardedLblDeployment):
    """LBL-ORTOA whose untrusted server lives across a TCP connection.

    Args:
        config: Store configuration.
        address: ``(host, port)`` of a running
            :class:`~repro.transport.server.LblTcpServer`.
        keychain: Key material — never leaves this process.
    """

    name = "lbl-ortoa-remote"

    def __init__(
        self,
        config: StoreConfig,
        address: tuple[str, int],
        keychain: KeyChain | None = None,
    ) -> None:
        super().__init__(config, [address], keychain=keychain)


__all__ = ["LblOrtoa", "RemoteLblOrtoa", "ShardedLblDeployment"]
