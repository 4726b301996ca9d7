"""Sharded, pipelined LBL-ORTOA over real sockets (paper §6.2.4 at scale).

The paper scales ORTOA by partitioning the key space across proxy/server
pairs.  :class:`ShardedLblDeployment` is the networked realization: one
trusted proxy fronting ``N`` independent
:class:`~repro.transport.server.LblTcpServer` shards, with three levers the
in-process :class:`~repro.core.deployment.ShardedDeployment` lacks:

* **routing** — :class:`~repro.storage.sharding.ShardRouter` maps the
  PRF-encoded key to a shard, so the routing tier sees exactly what each
  storage server already sees (no new leakage);
* **batching** — :meth:`access_batch` builds the batch's tables with
  :meth:`~repro.core.lbl.proxy.LblProxy.prepare` in request order, splits it
  into per-shard sub-batches, ships them concurrently over pipelined
  connections, and merges the replies back into request order;
* **pipelining** — :meth:`access_pipelined` keeps up to ``pipeline_depth``
  independent single-request frames in flight per deployment instead of
  paying one round trip of dead air per access.

Correctness under pipelining hinges on the same invariant as
:class:`~repro.core.lbl.concurrent.ConcurrentLblProxy`: two in-flight
accesses to one key would both build tables against the same label epoch
and the second would fail to decrypt.  :meth:`access_pipelined` therefore
never submits a request for a key that already has a frame in flight — it
drains the window to that key first.  Within a batch the server processes
sub-requests in order, so repeated keys inside one batch are always safe.

The deployment itself is single-threaded (one proxy, mutable counters);
wrap it in :class:`~repro.core.lbl.concurrent.ConcurrentLblProxy` to serve
many client threads.  The proxy's share of an access is one sequential table
build (§5.2 step 1); throughput is bought by adding proxy/server pairs
(§6.2.4), not by spreading one prepare over workers (``docs/performance.md``
has the measurement).
"""

from __future__ import annotations

import json
import random
import time
from collections import deque

from repro.core.base import (
    AccessTranscript,
    OpCounts,
    OrtoaProtocol,
    PhaseRecord,
    RoundTrip,
)
from repro.core.lbl.concurrent import finalize_batch_entries
from repro.core.lbl.proxy import LblProxy
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
    ProtocolError,
    RefusedError,
)
from repro.obs import _state as _obs
from repro.obs import ledger as _ledger
from repro.obs.exemplars import EXEMPLARS
from repro.obs.metrics import REGISTRY
from repro.obs.propagate import TraceContext, merge_span_dumps
from repro.obs.recorder import RECORDER, merge_recorder_dumps
from repro.obs.trace import TRACER
from repro.storage.sharding import ShardRouter
from repro.transport.pipeline import PipelinedLblClient
from repro.transport.server import LOAD_ACK, OBS_DUMP_TAG, OBS_PULL_TAG, pack_load
from repro.types import Request, Response, StoreConfig


# ``LblProxy.prepare`` is the only way a request is prepared.  This class
# exists because ``bench/tracing.py`` calls
# ``dep.prepare_engine.prepare_one`` / ``.prepare_batch``; the next benchmark
# PR calls ``proxy.prepare`` there and deletes it (ROADMAP item 3(e)).
class _SerialPrepare:
    """``proxy.prepare`` returning ``(wire_request, prepare_ops, epoch)``."""

    def __init__(self, proxy: LblProxy) -> None:
        self.proxy = proxy

    def prepare_one(self, request: Request) -> tuple[LblAccessRequest, OpCounts, int]:
        """Prepare one access; ``epoch`` is the counter it installs."""
        lbl_request, ops = self.proxy.prepare(request)
        return lbl_request, ops, self.proxy.counter(request.key)

    def prepare_batch(
        self,
        requests: list[Request],
        rows: "list[_ledger.LedgerRow] | None" = None,
    ) -> list[tuple[LblAccessRequest, OpCounts, int]]:
        """Prepare every request in order, so same-key epochs chain.

        Each request's crypto is credited to its entry of ``rows`` when
        given, to the caller's ambient ledger row otherwise.
        """
        if not requests:
            raise ConfigurationError("prepare batch must contain at least one request")
        if rows is None:
            return [self.prepare_one(request) for request in requests]
        built = []
        for request, row in zip(requests, rows):
            token = _ledger.activate(row)
            try:
                built.append(self.prepare_one(request))
            finally:
                _ledger.deactivate(token)
        return built


class ShardedLblDeployment(OrtoaProtocol):
    """One trusted proxy over ``N`` TCP storage shards, pipelined.

    Args:
        config: Store configuration (``point_and_permute`` must match the
            servers').
        addresses: ``(host, port)`` of each shard's
            :class:`~repro.transport.server.LblTcpServer`.
        keychain: Key material — never leaves this process.
        rng: Table-shuffle randomness.
        pipeline_depth: Default in-flight window of
            :meth:`access_pipelined`.
        pool_size: Sockets per shard.
        timeout: Connect timeout and per-reply wait (seconds).

    Access window fusion on the untrusted store is configured on the shard
    servers themselves (``server_batch`` / ``server_window`` on
    :class:`~repro.transport.server.LblTcpServer` and
    :class:`~repro.transport.cluster.ShardCluster`), not here: the client
    needs no changes for its concurrent frames to fuse server-side.

    **Refused requests.**  An OVERLOAD or error frame proves the shard
    refused before commit, so every access path takes the key's counter back
    to the epoch the server still holds before raising
    :class:`~repro.errors.RefusedError`: the request can be retried as it
    stands.  A timeout or a lost connection proves nothing — the counter
    stays advanced, and reconciling it is the write-ahead log's business
    (:mod:`repro.core.lbl.wal`).
    """

    name = "lbl-ortoa-sharded"
    rounds = 1

    def __init__(
        self,
        config: StoreConfig,
        addresses: list[tuple[str, int]],
        keychain: KeyChain | None = None,
        rng: random.Random | None = None,
        pipeline_depth: int = 8,
        pool_size: int = 1,
        timeout: float = 30.0,
    ) -> None:
        super().__init__(config)
        if not addresses:
            raise ConfigurationError("deployment needs at least one shard address")
        if pipeline_depth < 1:
            raise ConfigurationError("pipeline_depth must be >= 1")
        self.keychain = keychain or KeyChain(label_bits=config.label_bits)
        self.proxy = LblProxy(config, self.keychain, rng=rng)
        self.prepare_engine = _SerialPrepare(self.proxy)
        self.router = ShardRouter(len(addresses))
        self.clients = [
            PipelinedLblClient(address, pool_size=pool_size, timeout=timeout)
            for address in addresses
        ]
        self.pipeline_depth = pipeline_depth
        self.timeout = timeout
        self._encoded: dict[str, bytes] = {}
        self.name = f"lbl-ortoa-sharded-x{len(addresses)}"

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
        """Close every shard connection."""
        for client in self.clients:
            client.close()

    def collect_remote_obs(self) -> list[dict]:
        """Pull every shard's telemetry dump (spans + metrics) over the wire.

        Call before :meth:`close` when the shards are *process-backed*
        (each has its own tracer); merge the result with
        :meth:`merged_spans`.  Thread-backed shards share this process's
        global tracer, so pulling them would duplicate every span — skip
        the call there.
        """
        pending = [
            client.submit(bytes([OBS_PULL_TAG])) for client in self.clients
        ]
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

    def merged_recorder(self, remote_dumps: list[dict] | None = None) -> list[dict]:
        """One flight-recorder timeline: local ring plus the shards' rings.

        Each shard dump's events are tagged ``process="shard-<i>"``
        (:func:`repro.obs.recorder.merge_recorder_dumps`), so a post-mortem
        reads as a single ordered timeline across the whole deployment —
        the shed decision on shard 1 next to the window flush on shard 0
        that preceded it.
        """
        local = [event.to_dict() for event in RECORDER.events()]
        remote = [dump.get("recorder", {}) for dump in (remote_dumps or [])]
        return merge_recorder_dumps(local, remote)

    def __enter__(self) -> "ShardedLblDeployment":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Protocol interface
    # ------------------------------------------------------------------ #

    def initialize(self, records: dict[str, bytes]) -> None:
        """Bulk-load records, pipelining the LOAD frames across all shards."""
        for key in records:
            self.encoded_key(key)  # prime the routing cache for shard_sizes()
        pending = []
        for encoded_key, labels in self.proxy.initial_records(records):
            shard = self.router.shard_of(encoded_key)
            future = self.clients[shard].submit(pack_load(encoded_key, labels))
            pending.append(future)
        for future in pending:
            if future.result(self.timeout) != LOAD_ACK:
                raise ProtocolError("server rejected a load record")

    def _transcript(
        self,
        request: Request,
        proxy_ops: OpCounts,
        finalize_ops: OpCounts,
        request_bytes: int,
        reply_bytes: int,
        value: bytes,
    ) -> AccessTranscript:
        return AccessTranscript(
            op=request.op,
            phases=(
                PhaseRecord("proxy-build-tables", "proxy", proxy_ops),
                PhaseRecord("server-remote", "server", OpCounts(kv_ops=2)),
                PhaseRecord("proxy-decode", "proxy", finalize_ops),
            ),
            round_trips=(RoundTrip(request_bytes, reply_bytes),),
            response=Response(request.key, value),
        )

    def _prepare_timed(self, request: Request):
        """One prepare, timed when obs is on.

        Returns the ``(wire_request, prepare_ops, epoch)`` triple.
        """
        if not _obs.enabled:
            return self.prepare_engine.prepare_one(request)
        start = time.perf_counter()
        built = self.prepare_engine.prepare_one(request)
        REGISTRY.log_histogram("lbl.proxy.prepare.seconds").observe(
            time.perf_counter() - start
        )
        return built

    def _await_reply(self, future, key: str, epoch: int) -> bytes:
        """One access frame's reply; a refusal first takes ``key`` back to
        ``epoch - 1``, which the server that refused ``epoch`` still holds."""
        try:
            return future.result(self.timeout)
        except RefusedError:
            self.proxy.force_counter(key, epoch - 1)
            raise

    def access(self, request: Request) -> AccessTranscript:
        """One oblivious access routed to its shard (lockstep).

        With observability enabled the whole access runs under a
        ``sharded.access`` span whose context travels to the shard inside
        the mux frame (the pipelined client propagates the current span
        automatically), so the server-side spans parent under it; the
        client-observed round trip lands in the
        ``sharded.access.roundtrip.seconds`` log histogram.
        """
        if not _obs.enabled:
            shard = self.shard_of(request.key)
            lbl_request, proxy_ops, epoch = self._prepare_timed(request)
            payload = lbl_request.to_bytes()
            reply = self._await_reply(
                self.clients[shard].submit(payload), request.key, epoch
            )
            response = LblAccessResponse.from_bytes(reply)
            value, finalize_ops = self.proxy.finalize(
                request.key, response, counter=epoch
            )
            return self._transcript(
                request, proxy_ops, finalize_ops, len(payload), len(reply), value
            )
        with TRACER.span("sharded.access") as span:
            shard = self.shard_of(request.key)
            lbl_request, proxy_ops, epoch = self._prepare_timed(request)
            payload = lbl_request.to_bytes()
            # The pipelined client propagates this span's context, so the
            # frame travels with the 25-byte traced mux header; the reply
            # comes back under the plain 9-byte header.  Credit the ambient
            # row (if the caller is tracking) with exactly those bytes.
            _ledger.credit_wire(
                "access", "sent", _ledger.framed_mux_bytes(len(payload), traced=True)
            )
            submitted_at = time.perf_counter()
            reply = self._await_reply(
                self.clients[shard].submit(payload), request.key, epoch
            )
            roundtrip = time.perf_counter() - submitted_at
            REGISTRY.log_histogram("sharded.access.roundtrip.seconds").observe(
                roundtrip
            )
            _ledger.credit_wire(
                "access",
                "received",
                _ledger.framed_mux_bytes(len(reply), traced=False),
            )
            response = LblAccessResponse.from_bytes(reply)
            value, finalize_ops = self.proxy.finalize(
                request.key, response, counter=epoch
            )
            span.set_attributes(shard=shard, request_bytes=len(payload))
            REGISTRY.counter(f"sharded.shard{shard}.requests").inc()
            # Tail exemplar: if this round trip is in the window's tail the
            # store retains its trace id (the span tree is resolved lazily
            # at export, so the still-open access span is included) and the
            # ambient ledger row, letting ``repro trace`` open this exact
            # request later.
            ambient = _ledger.current_row()
            EXEMPLARS.consider(
                roundtrip,
                trace_id=span.trace_id,
                ledger_row=ambient.snapshot() if ambient is not None else None,
            )
        return self._transcript(
            request, proxy_ops, finalize_ops, len(payload), len(reply), value
        )

    def access_batch(self, requests: list[Request]) -> list[AccessTranscript]:
        """Serve a batch with one concurrent sub-batch per shard.

        Requests are prepared in order (epochs recorded, so repeated keys
        decode correctly), partitioned by shard, shipped concurrently, and
        the per-shard replies are merged back into request order.

        Raises:
            BatchPartialFailure: Some requests failed server-side — or a
                shard refused its whole sub-batch (OVERLOAD or error
                frame); see :class:`~repro.errors.BatchPartialFailure` for
                the retry contract.
        """
        if not requests:
            raise ProtocolError("batch must contain at least one request")
        if not _obs.enabled:
            return self._access_batch_inner(requests, None)
        with TRACER.span("sharded.batch", size=len(requests)) as batch_span:
            return self._access_batch_inner(
                requests, TraceContext.from_span(batch_span).encode()
            )

    def _access_batch_inner(
        self, requests: list[Request], batch_context: bytes | None
    ) -> list[AccessTranscript]:
        rows: "list[_ledger.LedgerRow] | None" = None
        if _obs.enabled:
            rows = [
                _ledger.LedgerRow(label=f"batched:{request.key}")
                for request in requests
            ]
        prepare_start = time.perf_counter()
        built = self.prepare_engine.prepare_batch(requests, rows=rows)
        if _obs.enabled:
            REGISTRY.log_histogram("lbl.proxy.prepare.seconds").observe(
                time.perf_counter() - prepare_start
            )
        prepared = []
        by_shard: dict[int, list[int]] = {}
        for index, (request, (lbl_request, proxy_ops, epoch)) in enumerate(
            zip(requests, built)
        ):
            prepared.append((request, lbl_request, proxy_ops, epoch))
            by_shard.setdefault(self.shard_of(request.key), []).append(index)

        # Ship every sub-batch before waiting on any reply: the shards
        # work concurrently while this thread blocks on the slowest one.
        shard_futures = {}
        shard_wire_bytes = {}
        for shard, indices in by_shard.items():
            sub_messages = [prepared[i][1].to_bytes() for i in indices]
            sub = LblBatchRequest(tuple(prepared[i][1] for i in indices))
            wire = sub.to_bytes()
            shard_wire_bytes[shard] = len(wire)
            shard_futures[shard] = self.clients[shard].submit(
                wire, trace_context=batch_context
            )
            if rows is not None:
                # Exact attribution: each request owns its length-prefixed
                # sub-message; the shard envelope (batch tag + frame length
                # + traced mux header) goes to the sub-batch's first row, so
                # per-row sums equal the transport totals to the byte.
                envelope = _ledger.framed_mux_bytes(1, traced=True)
                for position, index in enumerate(indices):
                    share = 4 + len(sub_messages[position])
                    if position == 0:
                        share += envelope
                    rows[index].credit_wire("batch", "sent", share)
            if _obs.enabled:
                REGISTRY.counter(f"sharded.shard{shard}.requests").inc(len(indices))
                REGISTRY.gauge("sharded.batch.shards_in_flight").set(
                    len(shard_futures)
                )

        entries: list = [None] * len(requests)
        shares: list[tuple[int, int]] = [(0, 0)] * len(requests)
        for shard, indices in by_shard.items():
            try:
                reply = shard_futures[shard].result(self.timeout)
            except RefusedError as exc:
                # The shard refused this sub-batch whole, before commit:
                # each of its entries failed, and finalize_batch_entries
                # takes their keys back like any other failed entry.
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
            for position, (index, entry) in enumerate(zip(indices, response.responses)):
                entries[index] = entry
                shares[index] = share
                if rows is not None:
                    nbytes = 4 + len(entry.to_bytes())
                    if position == 0:
                        # Reply envelope: batch tag + frame length + plain
                        # mux header (server replies untraced).
                        nbytes += _ledger.framed_mux_bytes(1, traced=False)
                    rows[index].credit_wire("batch", "received", nbytes)

        transcripts, failures = finalize_batch_entries(
            self.proxy,
            [(request, proxy_ops, epoch) for request, _, proxy_ops, epoch in prepared],
            tuple(entries),
            shares=shares,
            rows=rows,
        )
        if rows is not None:
            for row in rows:
                _ledger.retire(row)
        if failures:
            raise BatchPartialFailure(failures, transcripts)
        return [transcripts[i] for i in range(len(requests))]

    def access_pipelined(
        self, requests: list[Request], depth: int | None = None
    ) -> list[AccessTranscript]:
        """Serve requests with up to ``depth`` frames in flight at once.

        Unlike :meth:`access_batch` (one frame per shard), every request
        travels as its own multiplexed frame, so the server's worker pool
        processes them in parallel and replies stream back continuously.
        Transcripts are returned in request order.

        When the shard servers run with ``server_batch > 1``, these
        concurrent in-flight frames are exactly what fills the server-side
        access windows (:class:`~repro.core.lbl.server_coalesce.\
ServerAccessCoalescer`): a depth-8 pipeline against a ``server_batch=8``
        shard lands its whole window in one fused ``process_many``.  The
        per-key in-flight exclusion below also guarantees a pipelined
        client never puts two same-key frames into one server window, so
        the server's same-key chaining is only exercised by *distinct*
        clients colliding on a key.

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

        window: deque = deque()
        keys_in_flight: set[str] = set()
        transcripts: list[AccessTranscript] = []
        refused: list[RefusedError] = []

        def drain_one() -> None:
            (
                request,
                epoch,
                proxy_ops,
                future,
                request_bytes,
                span,
                submitted_at,
                row,
            ) = window.popleft()
            try:
                reply = self._await_reply(future, request.key, epoch)
            except RefusedError as exc:
                refused.append(exc)
                if span is not None:
                    TRACER.end(span)
                if row is not None:
                    _ledger.retire(row)
                return
            finally:
                keys_in_flight.discard(request.key)
            if _obs.enabled:
                REGISTRY.gauge("sharded.pipeline.in_flight").set(len(window))
            roundtrip = 0.0
            if span is not None:
                roundtrip = time.perf_counter() - submitted_at
                REGISTRY.log_histogram("sharded.access.roundtrip.seconds").observe(
                    roundtrip
                )
                TRACER.end(span)
            response = LblAccessResponse.from_bytes(reply)
            # Reactivate this request's row for the finalize crypto: up to
            # ``depth`` request lifetimes interleave on this thread, so the
            # ambient row must follow the request being drained, not the one
            # most recently submitted.
            token = _ledger.activate(row) if row is not None else None
            try:
                value, finalize_ops = self.proxy.finalize(
                    request.key, response, counter=epoch
                )
            finally:
                if token is not None:
                    _ledger.deactivate(token)
            if row is not None:
                row.credit_wire(
                    "access",
                    "received",
                    _ledger.framed_mux_bytes(len(reply), traced=False),
                )
                _ledger.retire(row)
            if span is not None:
                # Consider after the row is fully credited so a retained
                # exemplar's ledger snapshot matches the transport totals.
                EXEMPLARS.consider(
                    roundtrip,
                    trace_id=span.trace_id,
                    label="pipelined",
                    ledger_row=row.snapshot() if row is not None else None,
                )
            transcripts.append(
                self._transcript(
                    request, proxy_ops, finalize_ops, request_bytes, len(reply), value
                )
            )

        for request in requests:
            # Same-key ordering: never two in-flight epochs for one key.
            while request.key in keys_in_flight or len(window) >= depth:
                drain_one()
            if refused:
                break
            shard = self.shard_of(request.key)
            row = token = None
            if _obs.enabled:
                row = _ledger.LedgerRow(label=f"pipelined:{request.key}")
                token = _ledger.activate(row)
            try:
                lbl_request, proxy_ops, epoch = self._prepare_timed(request)
            finally:
                if token is not None:
                    _ledger.deactivate(token)
            payload = lbl_request.to_bytes()
            # The span is manual (start/end) because up to ``depth`` access
            # lifetimes interleave on this one thread; its context rides the
            # mux frame so the shard's spans parent under it.
            span = context = None
            if _obs.enabled:
                span = TRACER.start_span(
                    "sharded.access", shard=shard, request_bytes=len(payload)
                )
                context = TraceContext.from_span(span).encode()
                row.trace_id = span.trace_id
                row.credit_wire(
                    "access",
                    "sent",
                    _ledger.framed_mux_bytes(len(payload), traced=True),
                )
            future = self.clients[shard].submit(payload, trace_context=context)
            window.append(
                (
                    request,
                    epoch,
                    proxy_ops,
                    future,
                    len(payload),
                    span,
                    time.perf_counter() if _obs.enabled else 0.0,
                    row,
                )
            )
            keys_in_flight.add(request.key)
            if _obs.enabled:
                REGISTRY.counter(f"sharded.shard{shard}.requests").inc()
                REGISTRY.gauge("sharded.pipeline.in_flight").set(len(window))
        while window:
            drain_one()
        if refused:
            raise refused[0]
        return transcripts


__all__ = ["ShardedLblDeployment"]
