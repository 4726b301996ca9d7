"""The links a deployment reaches its shards through.

A *link* moves opaque payloads (serialized :mod:`repro.core.messages`
frames or LOAD records) to one shard: ``submit(payload, trace_context=None)``
returns a :class:`concurrent.futures.Future` of the reply bytes, ``close()``
lets go of the shard.  A payload is bytes, or ``(size, pieces)`` for one
streamed as it is made, which a link may :func:`joined` first.  It interprets nothing but the refusal frames, which
fail the future with :class:`~repro.errors.RefusedError` (one decoder for
both links, :func:`settle`).  Epoch ordering for same-key requests is the
caller's job (see :class:`repro.core.sharded.ShardedLblDeployment`), because
only the trusted side knows which payloads touch the same key.

* :class:`PipelinedLblClient` — the TCP link.  It wraps each request in a
  multiplexed frame (:func:`repro.transport.framing.wrap_mux`) and returns
  the future at once.  No thread reads for it: whoever waits on a reply
  (``result()`` / ``exception()``) reads the connection until that reply is
  in, settling the futures of other replies on the way, while any other
  waiters wait for its settles.  :meth:`~PipelinedLblClient.submit` may be
  called from many threads; request ids come from one atomic counter.
* :class:`LocalLink` — a shard in this process: the same payload bytes go
  to an :class:`~repro.transport.server.LblFrameDispatcher` on the caller's
  thread, with no socket and no framing.
* :class:`DelayedLink` — any link, with an emulated round trip.

A wrapping link does its own work in the waiting thread through :func:`relay`.
"""

from __future__ import annotations

import itertools
import select
import socket
import threading
import time
from concurrent.futures import Future
from typing import Callable, Iterable

from repro.errors import OverloadError, ProtocolError, RefusedError
from repro.obs import _state as _obs
from repro.obs import ledger as _ledger
from repro.obs.metrics import REGISTRY
from repro.obs.propagate import TraceContext
from repro.obs.trace import TRACER
from repro.transport import framing
from repro.transport.server import ERROR_TAG, OVERLOAD_FRAME, LblFrameDispatcher

#: Requests one connection keeps in flight; :meth:`PipelinedLblClient.submit`
#: reads replies beyond it, so a caller that pipelines a whole bulk load
#: keeps reading while the shard writes to it.
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


def joined(payload: "bytes | tuple[int, Iterable[bytes]]") -> bytes:
    """A payload whole: a streamed one's ``(size, pieces)`` joined."""
    return b"".join(payload[1]) if isinstance(payload, tuple) else payload


class _Waited(Future):
    """A future completed in the thread that waits on it: ``result()`` and
    ``exception()`` first run ``drive(done, timeout)``."""

    def __init__(self, drive: Callable[[Callable[[], bool], float | None], None]) -> None:
        super().__init__()
        self._drive = drive

    def result(self, timeout: float | None = None):
        """The outcome, once this thread or another has brought it in."""
        self._drive(self.done, timeout)
        return super().result(0)

    def exception(self, timeout: float | None = None):
        """The failure, once this thread or another has brought it in."""
        self._drive(self.done, timeout)
        return super().exception(0)


def relay(forwarded: Future, then: Callable[[Future], None]) -> Future:
    """``forwarded``'s outcome, completed in the first thread that waits on
    it after ``then(forwarded)`` has run there."""
    lock = threading.Lock()

    def drive(done: Callable[[], bool], timeout: float | None) -> None:
        error = forwarded.exception(timeout)  # TimeoutError if it lapses
        with lock:
            if not done():
                then(forwarded)
                if error is None:
                    relayed.set_result(forwarded.result())
                else:
                    relayed.set_exception(error)

    relayed = _Waited(drive)
    return relayed


class _Connection:
    """One socket, its frame reader and its pending-future table."""

    def __init__(self, address: tuple[str, int], timeout: float) -> None:
        self.sock = socket.create_connection(address, timeout=timeout)
        # Reads block; a waiter's own timeout is kept by polling first.
        self.sock.settimeout(None)
        # Bursts of small frames must not wait for ACKs of earlier ones:
        # Nagle + delayed ACK turns a full pipeline window into ~40ms
        # stalls, erasing exactly the overlap pipelining exists for.
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.frames = framing.FrameReader(self.sock)
        self._poll = select.poll()
        self._poll.register(self.sock, select.POLLIN)
        self.send_lock = threading.Lock()
        self.pending: dict[int, Future] = {}
        # ``lock`` guards ``pending``, ``reading`` and ``dead``; ``turn`` is
        # notified after each read's settles (their done-callbacks included)
        # and on death.
        self.lock = threading.Lock()
        self.turn = threading.Condition(self.lock)
        self.reading = False
        self.dead = False

    def wait(self, done: Callable[[], bool], timeout: float | None) -> None:
        """Read replies until ``done()``, the connection's death or the
        timeout; while another thread reads, wait for its settles."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self.lock:
                while self.reading and not done():
                    if not self.turn.wait(
                        None if deadline is None else deadline - time.monotonic()
                    ):
                        return
                if done() or self.dead:
                    return
                self.reading = True
            try:
                ms = None if deadline is None else max(0.0, deadline - time.monotonic())
                if not self._poll.poll(None if ms is None else ms * 1000):
                    return  # timed out; a partial frame stays buffered
                self._read()
            finally:
                with self.lock:
                    self.reading = False
                    self.turn.notify_all()

    def _read(self) -> None:
        """Read one burst and settle the future of every reply in it."""
        try:
            for payload in self.frames.read():
                request_id, inner = framing.unwrap_mux(payload)
                if _obs.enabled:
                    _ledger.count_wire(
                        _ledger.frame_type(payload), "received", 4 + len(payload)
                    )
                with self.lock:
                    future = self.pending.pop(request_id, None)
                if future is not None:  # else: a reply nobody is waiting on
                    settle(future, inner)
        except (ProtocolError, OSError):  # closed, truncated, or a violation
            self.fail_pending(ProtocolError("connection lost with requests in flight"))

    def fail_pending(self, error: ProtocolError) -> None:
        """Mark the connection dead and fail every outstanding future."""
        with self.lock:
            self.dead = True
            orphans = list(self.pending.values())
            self.pending.clear()
            self.turn.notify_all()
        for future in orphans:
            future.set_exception(error)

    def close(self, reason: str = "client closed with requests in flight") -> None:
        """Close the socket and fail any stragglers."""
        try:
            self.sock.shutdown(socket.SHUT_RDWR)  # wakes a reading waiter
        except OSError:
            pass
        self.fail_pending(ProtocolError(reason))
        self.sock.close()


class PipelinedLblClient:
    """A connection pool speaking the multiplexed LBL wire format.

    Args:
        address: ``(host, port)`` of a running
            :class:`~repro.transport.server.LblTcpServer`.
        pool_size: Sockets to open; submissions round-robin across them.
        timeout: Connect timeout per socket (seconds).
    """

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

    def submit(
        self, payload: "bytes | tuple[int, Iterable[bytes]]", trace_context: bytes | None = None
    ) -> Future:
        """Send one payload; the future completes with the reply bytes.

        A payload streamed as it is made is ``(size, pieces)``: the first
        piece is pulled before anything is registered, the others under the
        send lock, each written as soon as it is yielded.  A piece that
        raises, or pieces that miss ``size``, close the connection.
        While the chosen connection already has
        :data:`MAX_IN_FLIGHT_PER_CONNECTION` requests in flight, reads its
        replies until one is in.
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
        size, pieces = payload if isinstance(payload, tuple) else (len(payload), ())
        if pieces:
            pieces = iter(pieces)
            payload = next(pieces)
        if _obs.enabled and trace_context is None:
            span = TRACER.current_span()
            if span is not None:
                trace_context = TraceContext.from_span(span).encode()
        conn = self._pick()
        request_id = next(self._ids)
        # Before anything is registered: a bad trace context or size raises.
        wrapped = framing.wrap_mux(request_id, payload, trace_context)
        size += len(wrapped) - len(payload)
        if size > framing.MAX_FRAME_BYTES:
            raise ProtocolError(f"frame of {size} bytes exceeds the maximum")
        future = _Waited(conn.wait)

        def room() -> bool:
            return len(conn.pending) < MAX_IN_FLIGHT_PER_CONNECTION

        while True:
            with conn.lock:
                if conn.dead:
                    raise ProtocolError(f"connection to {self.address} is closed")
                if room():
                    conn.pending[request_id] = future
                    break
            conn.wait(room, None)
        if _obs.enabled:
            # Timestamp (and register the done callback) BEFORE the send:
            # another waiter may complete the future the instant the frame
            # hits the wire.
            submitted_at = time.perf_counter()
            roundtrip = REGISTRY.log_histogram("transport.pipeline.roundtrip.seconds")

            def _observe(f: Future) -> None:
                if not f.cancelled() and f.exception() is None:
                    roundtrip.observe(time.perf_counter() - submitted_at)

            future.add_done_callback(_observe)
        try:
            if _obs.enabled:
                _ledger.count_wire(_ledger.frame_type(payload), "sent", 4 + size)
            with conn.send_lock:
                framing.send_frame(conn.sock, wrapped, size, pieces)
        except BaseException as exc:
            with conn.lock:
                conn.pending.pop(request_id, None)
            conn.close(f"send failed: {exc}")
            if isinstance(exc, OSError):
                raise ProtocolError(f"send to {self.address} failed: {exc}") from exc
            raise
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

    def __enter__(self) -> "PipelinedLblClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class LocalLink:
    """A shard in this process: each payload is dispatched on the caller's
    thread and metered unframed under ``role="local"``.

    Args:
        dispatcher: The shard; a fresh one if omitted.
    """

    def __init__(self, dispatcher: LblFrameDispatcher | None = None) -> None:
        self.dispatcher = dispatcher or LblFrameDispatcher()

    def submit(self, payload, trace_context: bytes | None = None) -> Future:
        """Dispatch one payload, joined; the future is already complete."""
        payload = joined(payload)
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


class DelayedLink:
    """``link``, with each reply reaching its waiter no sooner than
    ``rtt_s`` seconds after its submit: an emulated network round trip,
    which pipelined frames overlap as they would a real one."""

    def __init__(self, link, rtt_s: float) -> None:
        self.link, self.rtt_s = link, rtt_s

    def submit(self, payload, trace_context: bytes | None = None) -> Future:
        """Forward one payload; its waiter sleeps out the rest of the trip."""
        due = time.monotonic() + self.rtt_s
        return relay(
            self.link.submit(payload, trace_context),
            lambda _forwarded: time.sleep(max(0.0, due - time.monotonic())),
        )

    def close(self) -> None:
        """Close the wrapped link."""
        self.link.close()


__all__ = ["DelayedLink", "LocalLink", "PipelinedLblClient", "joined", "relay", "settle"]
