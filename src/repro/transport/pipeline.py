"""The links a deployment reaches its shards through.

A *link* moves opaque payloads (serialized :mod:`repro.core.messages`
frames or LOAD records) to one shard: ``submit(payload, trace_context=None)``
returns a :class:`concurrent.futures.Future` of the reply bytes, ``close()``
lets go of the shard.  It interprets nothing but the refusal frames, which
fail the future with :class:`~repro.errors.RefusedError` (one decoder for
both links, :func:`settle`).  Epoch ordering for same-key requests is the
caller's job (see :class:`repro.core.sharded.ShardedLblDeployment`), because
only the trusted side knows which payloads touch the same key.

* :class:`PipelinedLblClient` — the TCP link.  It wraps each request in a
  multiplexed frame (:func:`repro.transport.framing.wrap_mux`), returns the
  future at once, and a reader thread per pooled connection completes the
  futures as replies arrive, in whatever order the server finishes them.
  :meth:`~PipelinedLblClient.submit` may be called from many threads; each
  connection has independent send/pending locks and request ids come from
  one atomic counter.
* :class:`LocalLink` — a shard in this process: the same payload bytes go
  to an :class:`~repro.transport.server.LblFrameDispatcher` on the caller's
  thread, with no socket and no framing.
"""

from __future__ import annotations

import itertools
import socket
import threading
import time
from concurrent.futures import Future

from repro.errors import OverloadError, ProtocolError, RefusedError
from repro.obs import _state as _obs
from repro.obs import ledger as _ledger
from repro.obs.metrics import REGISTRY
from repro.obs.propagate import TraceContext
from repro.obs.trace import TRACER
from repro.transport import framing
from repro.transport.server import ERROR_TAG, OVERLOAD_FRAME, LblFrameDispatcher

#: Requests one connection keeps in flight; :meth:`PipelinedLblClient.submit`
#: blocks beyond it.  Half the server's default per-connection window: the
#: server returns a slot just after it writes the reply, so a client that ran
#: at the window's edge would be shed on its own replies' bookkeeping — and a
#: bulk load that pipelines every record must not trip admission control.
MAX_IN_FLIGHT_PER_CONNECTION = 64


def settle(future: Future, reply: bytes) -> None:
    """Complete ``future`` with one shard reply: its bytes, or the
    :class:`~repro.errors.RefusedError` an OVERLOAD or error frame means."""
    if reply == OVERLOAD_FRAME:
        if _obs.enabled:
            REGISTRY.counter("transport.overload_frames_received").inc()
        future.set_exception(OverloadError("server shed this request (overloaded)"))
    elif reply[:1] == bytes([ERROR_TAG]):
        if _obs.enabled:
            REGISTRY.counter("transport.error_frames_received").inc()
        future.set_exception(
            RefusedError(f"server error: {reply[1:].decode('utf-8', 'replace')}")
        )
    else:
        future.set_result(reply)


class _Connection:
    """One socket plus its reader thread and pending-future table."""

    def __init__(self, address: tuple[str, int], timeout: float) -> None:
        self.sock = socket.create_connection(address, timeout=timeout)
        # The reader blocks on recv indefinitely between replies; request
        # timeouts are enforced by callers waiting on futures instead.
        self.sock.settimeout(None)
        # Bursts of small frames must not wait for ACKs of earlier ones:
        # Nagle + delayed ACK turns a full pipeline window into ~40ms
        # stalls, erasing exactly the overlap pipelining exists for.
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.send_lock = threading.Lock()
        self.pending: dict[int, Future] = {}
        # Guards ``pending``; notified whenever an entry leaves it.
        self.pending_lock = threading.Condition(threading.Lock())
        self.dead = False
        self.reader = threading.Thread(
            target=self._read_loop, name="lbl-pipeline-reader", daemon=True
        )
        self.reader.start()

    def _read_loop(self) -> None:
        while True:
            try:
                payload = framing.recv_frame(self.sock)
                request_id, inner = framing.unwrap_mux(payload)
            except (ProtocolError, OSError):
                break  # closed, truncated mid-frame, or protocol violation
            if _obs.enabled:
                _ledger.count_wire(
                    _ledger.frame_type(payload), "received", 4 + len(payload)
                )
            with self.pending_lock:
                future = self.pending.pop(request_id, None)
                self.pending_lock.notify()
            if future is not None:  # else: a reply nobody is waiting on
                settle(future, inner)
        self.fail_pending(ProtocolError("connection lost with requests in flight"))

    def fail_pending(self, error: ProtocolError) -> None:
        """Mark the connection dead and fail every outstanding future."""
        self.dead = True
        with self.pending_lock:
            orphans = list(self.pending.values())
            self.pending.clear()
            self.pending_lock.notify_all()
        for future in orphans:
            # A future may have completed in a race with the reader; only
            # fail ones still waiting.
            if not future.done():
                future.set_exception(error)

    def close(self) -> None:
        """Close the socket; the reader exits and fails any stragglers."""
        self.dead = True
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()


class PipelinedLblClient:
    """A connection pool speaking the multiplexed LBL wire format.

    Args:
        address: ``(host, port)`` of a running
            :class:`~repro.transport.server.LblTcpServer`.
        pool_size: Sockets to open; submissions round-robin across them.
        timeout: Connect timeout per socket (seconds).
    """

    #: Bytes the wire adds to one payload, ``(sent, received)``: the frame
    #: length, and the mux header — traced when sent, plain when received.
    overhead = (
        _ledger.framed_mux_bytes(0, traced=True),
        _ledger.framed_mux_bytes(0, traced=False),
    )

    def __init__(
        self,
        address: tuple[str, int],
        pool_size: int = 1,
        timeout: float = 30.0,
    ) -> None:
        if pool_size < 1:
            raise ProtocolError("pool_size must be >= 1")
        self.address = address
        self._connections = [_Connection(address, timeout) for _ in range(pool_size)]
        self._ids = itertools.count(1)
        self._rr = itertools.cycle(range(pool_size))
        self._closed = False

    @property
    def num_connections(self) -> int:
        """Sockets in the pool (dead ones included)."""
        return len(self._connections)

    @property
    def in_flight(self) -> int:
        """Requests submitted but not yet completed."""
        return sum(len(c.pending) for c in self._connections)

    def _pick(self) -> _Connection:
        for _ in range(len(self._connections)):
            conn = self._connections[next(self._rr)]
            if not conn.dead:
                return conn
        raise ProtocolError(f"all connections to {self.address} are closed")

    def submit(self, payload: bytes, trace_context: bytes | None = None) -> Future:
        """Send one payload; the future completes with the reply bytes.

        Blocks while the chosen connection already has
        :data:`MAX_IN_FLIGHT_PER_CONNECTION` requests in flight.
        ``trace_context`` is the optional 16-byte extension produced by
        :meth:`~repro.obs.propagate.TraceContext.encode`; when omitted and
        observability is enabled, the calling context's current span (if
        any) is propagated automatically, so server-side spans parent
        under the client span that caused them.  The client-observed round
        trip (submit to reply) lands in the
        ``transport.pipeline.roundtrip.seconds`` log histogram.

        The future fails with :class:`~repro.errors.RefusedError` if the
        server answered with an error frame
        (:class:`~repro.errors.OverloadError` for an OVERLOAD frame), and
        with a plain :class:`~repro.errors.ProtocolError` if the connection
        died with the request in flight.
        """
        if self._closed:
            raise ProtocolError("client is closed")
        if _obs.enabled and trace_context is None:
            span = TRACER.current_span()
            if span is not None:
                trace_context = TraceContext.from_span(span).encode()
        conn = self._pick()
        request_id = next(self._ids)
        # Before anything is registered: a malformed trace context raises here.
        wrapped = framing.wrap_mux(request_id, payload, trace_context)
        future: Future = Future()
        with conn.pending_lock:
            while len(conn.pending) >= MAX_IN_FLIGHT_PER_CONNECTION:
                conn.pending_lock.wait()
            conn.pending[request_id] = future
        if _obs.enabled:
            # Timestamp (and register the done callback) BEFORE the send:
            # the reader thread may complete the future the instant the
            # frame hits the wire, and a timestamp taken after sendall()
            # would then record a near-zero "round trip".
            submitted_at = time.perf_counter()
            roundtrip = REGISTRY.log_histogram("transport.pipeline.roundtrip.seconds")

            def _observe(f: Future) -> None:
                if not f.cancelled() and f.exception() is None:
                    roundtrip.observe(time.perf_counter() - submitted_at)

            future.add_done_callback(_observe)
        try:
            if _obs.enabled:
                _ledger.count_wire(
                    _ledger.frame_type(payload), "sent", 4 + len(wrapped)
                )
            with conn.send_lock:
                framing.send_frame(conn.sock, wrapped)
        except (ProtocolError, OSError) as exc:
            with conn.pending_lock:
                conn.pending.pop(request_id, None)
            if isinstance(exc, ProtocolError):
                raise  # refused by the framing (too large) before a byte went out
            conn.fail_pending(ProtocolError(f"send failed: {exc}"))
            raise ProtocolError(f"send to {self.address} failed: {exc}") from exc
        if _obs.enabled:
            REGISTRY.counter("transport.pipeline.submitted").inc()
            REGISTRY.gauge("transport.pipeline.in_flight").set(self.in_flight)
        return future

    def request(self, payload: bytes, timeout: float | None = 30.0) -> bytes:
        """Submit and block for the reply (lockstep convenience)."""
        return self.submit(payload).result(timeout)

    def close(self) -> None:
        """Close every socket and fail any still-pending futures."""
        self._closed = True
        for conn in self._connections:
            conn.close()
        for conn in self._connections:
            conn.reader.join(timeout=5.0)
            conn.fail_pending(ProtocolError("client closed with requests in flight"))

    def __enter__(self) -> "PipelinedLblClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class LocalLink:
    """A shard in this process: each payload is dispatched on the caller's
    thread (so the shard's work lands in the caller's ledger row) and
    metered unframed under ``role="local"``.

    Args:
        dispatcher: The shard; a fresh one if omitted.
    """

    #: No wire, so no framing: a payload costs its own length.
    overhead = (0, 0)

    def __init__(self, dispatcher: LblFrameDispatcher | None = None) -> None:
        self.dispatcher = dispatcher or LblFrameDispatcher()

    def submit(self, payload: bytes, trace_context: bytes | None = None) -> Future:
        """Dispatch one payload; the returned future is already complete."""
        reply = self.dispatcher.safe_dispatch(payload)
        if _obs.enabled:
            for direction, data in (("sent", payload), ("received", reply)):
                frame = _ledger.frame_type(data)
                _ledger.count_wire(frame, direction, len(data), role="local")
        future: Future = Future()
        settle(future, reply)
        return future

    def close(self) -> None:
        """Nothing to let go of."""


__all__ = ["LocalLink", "PipelinedLblClient", "settle"]
