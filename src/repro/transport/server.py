"""The storage-host side: an LBL-ORTOA server behind a TCP listener.

The server is the *untrusted* party, so this process needs no key material
whatsoever — it stores labels, opens the one ciphertext it can per group,
and rotates state, exactly as :class:`~repro.core.lbl.server.LblServer`
does in-process.

Wire protocol (within the framing of :mod:`repro.transport.framing`).
Every request rides in a multiplexed frame (below); a frame that is not
mux-wrapped is answered with one error frame and nothing is dispatched.
The payloads a mux frame may carry:

* a serialized :class:`~repro.core.messages.LblAccessRequest` (tag 0x20)
  → a serialized :class:`~repro.core.messages.LblAccessResponse`;
* a :class:`~repro.core.messages.LblBatchRequest` (tag 0x22) → a
  :class:`~repro.core.messages.LblBatchResponse` whose entries are
  per-request — a failing request yields an
  :class:`~repro.core.messages.LblErrorEntry` at its position while the
  rest of the batch is still applied.  It is served as it arrives: the
  sub-requests each received burst completes are one window, and the reply
  goes out when the frame's last byte is in;
* a LOAD frame (tag 0x40: encoded key + label blob) during bulk
  initialization → a 1-byte ack (0x41);
* a multiplexed frame (tag 0x50: request id + any of these) → the
  reply wrapped under the same request id.  A connection's frames are
  served in order on its own thread; the ids let a client keep many in
  flight on one connection and match the replies;
* a traced multiplexed frame (tag 0x51: request id + 16-byte trace
  context + inner payload) → handled exactly like 0x50, but the server's
  request span parents under the propagated client span
  (:mod:`repro.obs.propagate`), so a merged trace shows the whole round
  trip.  The extension is fixed-size and content-independent — GET and PUT
  frames stay identically shaped;
* an obs-pull control frame (tag 0x60) → a dump frame (tag 0x61 + JSON of
  this process's finished spans and metrics snapshot).  Process-backed
  shards answer it at shutdown so the client can merge every process's
  telemetry into one trace;
* on any handling error → an error frame (tag 0x7F + UTF-8 message, mux
  wrapped whenever the request carried an id), so clients fail with a
  described exception instead of a dead socket;
* on load shedding → an overload frame (tag 0x7E, exactly one byte, wrapped
  under the request id).  A mux frame read while ``max_in_flight``
  connections are serving one, or while the server drains, is refused at
  once and never queued; the frame carries no request-derived content, so a
  shed GET and a shed PUT are byte-identical on the wire (``docs/scaling.md``,
  "Backpressure and admission control").

With ``metrics_port=`` the server additionally exposes its metrics
registry as Prometheus text on an HTTP scrape endpoint
(:func:`repro.obs.export.start_metrics_server`) — ``repro doctor`` and any
Prometheus scraper read it live.

Concurrency: one thread per connection reads, admits or sheds, serves and
writes its frames in order, so a pipelining client's later frames wait in
TCP's buffers, not in a server queue.  Requests for the *same* encoded key
are serialized by a striped lock
(:func:`~repro.core.lbl.concurrent.hold_stripes`); distinct keys on
different connections run beside each other.
"""

from __future__ import annotations

import json
import socket
import socketserver
import struct
import threading
import time

from repro.core.lbl.concurrent import hold_stripes
from repro.core.lbl.server import LblServer
from repro.core.messages import (
    LblAccessRequest,
    LblBatchRequest,
    LblBatchResponse,
    LblErrorEntry,
)
from repro.errors import ConfigurationError, OrtoaError, ProtocolError, StorageError
from repro.obs import _state as _obs
from repro.obs import ledger as _ledger
from repro.obs.logging import get_logger
from repro.obs.metrics import REGISTRY
from repro.obs.propagate import REMOTE_PARENT_ATTR, TraceContext, remote_parent
from repro.obs.trace import TRACER
from repro.storage.persistence import LabelListCodec
from repro.transport import framing

LOAD_TAG = 0x40
LOAD_ACK = bytes([0x41])
#: Control frame asking this process for its telemetry (spans + metrics).
OBS_PULL_TAG = 0x60
#: Reply to :data:`OBS_PULL_TAG`: the tag followed by a UTF-8 JSON dump.
OBS_DUMP_TAG = 0x61
ERROR_TAG = 0x7F
#: Load-shed reply: the server refused to queue the request.  The frame is
#: exactly this one tag byte — no message, no request-derived content — so
#: a shed GET and a shed PUT answer with byte-identical frames and load
#: shedding cannot become an operation-type side channel.
OVERLOAD_TAG = 0x7E
OVERLOAD_FRAME = bytes([OVERLOAD_TAG])

#: How long one reply write may stall on a peer that has stopped reading
#: before the server drops the connection.
SEND_TIMEOUT_S = 30.0
#: How long :meth:`LblTcpServer.close` waits for admitted requests to be
#: served before it closes the listener anyway.
DRAIN_TIMEOUT_S = 10.0

_log = get_logger("transport.server")

#: The one reply to a frame that is not mux-wrapped: every request goes
#: through :meth:`LblTcpServer.serve_mux`, admission and the drain.
_PLAIN_FRAME = ProtocolError("plain frames are not served: wrap the request in a mux frame")


def pack_load(encoded_key: bytes, record) -> bytes:
    """Serialize one bulk-load record (an encoded key and its label run)."""
    blob = LabelListCodec().encode(record)
    return (
        bytes([LOAD_TAG])
        + len(encoded_key).to_bytes(4, "big")
        + encoded_key
        + blob
    )


def unpack_load(payload: bytes):
    """Parse a bulk-load record back into ``(encoded_key, record)``."""
    if len(payload) < 5 or payload[0] != LOAD_TAG:
        raise ProtocolError("malformed load record")
    key_len = int.from_bytes(payload[1:5], "big")
    encoded_key = payload[5:5 + key_len]
    if len(encoded_key) != key_len:
        raise ProtocolError("truncated load record key")
    try:
        record = LabelListCodec().decode(payload[5 + key_len:])
    except StorageError as exc:
        raise ProtocolError(f"malformed load record labels: {exc}") from None
    return encoded_key, record


class LblFrameDispatcher:
    """Socket-free frame router over one :class:`LblServer`.

    Owns the routing (LOAD / access / batch / obs-pull → reply bytes) and
    the striped per-key locks that serialize same-key requests, so
    :class:`LblTcpServer` is sockets, threads and admission only.

    Args:
        num_stripes: Per-key lock stripes; collisions only cost
            parallelism, never correctness.
        point_and_permute: Accepted only as ``True`` (§10.2 is the one LBL
            protocol).

    A server window forms one way: the sub-requests of a batch frame that
    one burst completes are one
    :meth:`~repro.core.lbl.server.LblServer.process_many` (a whole frame is
    one burst), and a lone access frame is a window of one.
    """

    def __init__(self, num_stripes: int = 64, *, point_and_permute: bool = True) -> None:
        # ``point_and_permute`` is here only because the closed bench/ passes it.
        if not point_and_permute:
            raise ConfigurationError(
                "point_and_permute=False is the §5.2 base protocol, which only "
                "tests/lbl_reference.py builds"
            )
        if num_stripes < 1:
            raise ConfigurationError("num_stripes must be >= 1")
        self.lbl = LblServer()
        self._stripes = [threading.Lock() for _ in range(num_stripes)]

    def _stripe_for(self, encoded_key: bytes):
        return self._stripes[hash(encoded_key) % len(self._stripes)]

    def safe_dispatch(self, payload: bytes) -> bytes:
        """Dispatch one frame, converting failures into error frames."""
        try:
            return self.dispatch(payload)
        except OrtoaError as exc:
            return self.error_frame(exc)

    def error_frame(self, exc: OrtoaError) -> bytes:
        """The described-failure reply for a request that raised ``exc``."""
        _log.warning("request failed, returning error frame: %s", exc)
        if _obs.enabled:
            REGISTRY.counter("transport.error_frames_sent").inc()
        return bytes([ERROR_TAG]) + str(exc).encode("utf-8")

    def dispatch(self, payload: bytes) -> bytes:
        """Route one decoded frame — a batch frame maybe still arriving
        (:class:`~repro.transport.framing.Arriving`); returns the reply."""
        if _obs.enabled:
            REGISTRY.counter("transport.requests_dispatched").inc()
        if not payload:
            raise ProtocolError("empty frame")
        if payload[0] == OBS_PULL_TAG:
            return self.obs_dump()
        if payload[0] == LOAD_TAG:
            encoded_key, record = unpack_load(payload)
            with self._stripe_for(encoded_key):
                self.lbl.load(encoded_key, record)
            return LOAD_ACK
        if payload[0] == LblAccessRequest.TAG:
            request = LblAccessRequest.from_bytes(payload)
            with self._stripe_for(request.encoded_key):
                response, _ops = self.lbl.process(request)
            return response.to_bytes()
        if payload[0] == LblBatchRequest.TAG:
            return self._serve_batch(payload)
        raise ProtocolError(f"unknown frame tag {payload[0]:#x}")

    def _serve_batch(self, payload: "bytes | framing.Arriving") -> bytes:
        """Serve a batch frame as it arrives: the sub-requests each burst
        completes (all of them, for a whole payload) are one window, under
        every stripe it touches (sorted — see hold_stripes).  Errors are
        isolated per request: its window-mates still rotate their labels,
        and it gets an error entry.  A sub-request that does not parse ends
        the serving: the frame is read to its end and refused."""
        entries: list = []
        error, at, stripes = None, 1, self._stripes
        whole = not isinstance(payload, framing.Arriving)
        for burst in (memoryview(payload),) if whole else payload.bursts():
            window = []
            while error is None and len(burst) - at >= 4:
                stop = at + 4 + int.from_bytes(burst[at:at + 4], "big")
                if stop > len(burst):
                    break
                try:  # parsed off the reader's buffer: the fields are its one copy
                    window.append(LblAccessRequest.from_bytes(burst[at + 4:stop]))
                except ProtocolError as exc:
                    error = str(exc)
                at = stop
            if not window:
                continue
            with hold_stripes(
                stripes, (hash(request.encoded_key) % len(stripes) for request in window)
            ):
                results = self.lbl.process_many(window)
            for result in results:
                if isinstance(result, OrtoaError):
                    _log.warning("batch request failed: %s", result)
                    if _obs.enabled:
                        REGISTRY.counter("transport.batch_error_entries").inc()
                    entries.append(LblErrorEntry(str(result)))
                else:
                    entries.append(result[0])
        if error is None and at != len(payload):
            error = "truncated batch entry"
        if error is not None or not entries:
            raise ProtocolError(error or "empty batch")
        return LblBatchResponse(tuple(entries)).to_bytes()

    def obs_dump(self) -> bytes:
        """This process's telemetry as an obs-dump frame.

        Ships finished spans and the metrics snapshot back to the trusted
        side, which merges them via
        :func:`repro.obs.propagate.merge_span_dumps`.  Meaningful for
        process-backed shards (a thread-backed shard already shares the
        client's tracer); returns whatever this process recorded — an
        empty dump when observability was never enabled here.
        """
        bundle = {"spans": TRACER.export(), "metrics": REGISTRY.snapshot()}
        return bytes([OBS_DUMP_TAG]) + json.dumps(bundle, default=str).encode("utf-8")

    def traced_dispatch(self, inner: bytes, trace_context: bytes | None) -> bytes:
        """:meth:`safe_dispatch` as one traced request: span and service
        histogram.

        The span parents under the propagated client context and marks
        itself :data:`~repro.obs.propagate.REMOTE_PARENT_ATTR` so a
        cross-process merge keeps its parent link pointing at the client
        span; making it the context's current span lets the nested
        ``lbl.server.process`` span parent locally under it.  Service
        time lands in the ``transport.server.service.seconds`` log
        histogram.
        """
        start = time.perf_counter()
        parent = None
        attributes = {}
        if trace_context is not None:
            try:
                parent = remote_parent(TraceContext.decode(trace_context))
                attributes[REMOTE_PARENT_ATTR] = True
            except ProtocolError:
                parent = None  # unparseable context: serve the request anyway
        try:
            with TRACER.span("transport.server.request", parent=parent, **attributes):
                return self.safe_dispatch(inner)
        finally:
            REGISTRY.log_histogram("transport.server.service.seconds").observe(
                time.perf_counter() - start
            )


class _Handler(socketserver.BaseRequestHandler):
    """One accepted connection: this thread reads, admits or sheds, serves
    and writes each of its frames in turn."""

    def setup(self) -> None:  # noqa: D401 - socketserver interface
        sock = self.request
        # Without NODELAY, Nagle holds a small reply until the client ACKs
        # the previous one and pipelined replies serialize on delayed ACKs.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # A send timeout only: reads stay blocking, so an idle pooled
        # connection lives as long as its client keeps it open.
        seconds = int(SEND_TIMEOUT_S)
        timeout = struct.pack("ll", seconds, int((SEND_TIMEOUT_S - seconds) * 1e6))
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, timeout)
        self.server.count_connection(1)

    def finish(self) -> None:  # noqa: D401 - socketserver interface
        self.server.count_connection(-1)

    def handle(self) -> None:  # noqa: D401 - socketserver interface
        server: "LblTcpServer" = self.server  # type: ignore[assignment]
        frames = framing.FrameReader(self.request)
        try:
            while True:
                for payload in frames.read():
                    if framing.is_mux(payload):
                        reply = server.serve_mux(payload)
                    else:  # a plain frame is refused: nothing is dispatched
                        reply = server.dispatcher.error_frame(_PLAIN_FRAME)
                    # A write that fails, or stalls past SEND_TIMEOUT_S, may
                    # leave half a frame on the wire: drop the connection.
                    framing.send_frame(self.request, reply)
                inner = framing.arriving_mux(frames, LblBatchRequest.TAG)
                if inner is not None:  # a batch frame is served while it arrives
                    reply = server.serve_mux(inner.header, inner)
                    inner.finish()  # a shed or refused frame is read to its end
                    framing.send_frame(self.request, reply)
        except BlockingIOError:  # SO_SNDTIMEO lapsed
            _log.warning(
                "reply write stalled > %.1fs; dropping slow consumer", SEND_TIMEOUT_S
            )
        except (ProtocolError, OSError):
            pass  # connection closed (possibly mid-frame; that's fine)


class LblTcpServer(socketserver.ThreadingTCPServer):
    """A threaded TCP front over one :class:`LblServer` instance.

    Args:
        host: Bind address (use ``127.0.0.1`` for tests).
        port: Bind port (0 picks an ephemeral one; read ``address``).
        num_stripes: Per-key lock stripes; collisions only cost
            parallelism, never correctness.
        response_delay_s: Service time slept inside every admitted request,
            emulating a slow store (benchmarks only; keep 0.0 in production
            use).
        metrics_port: When not ``None``, serve this process's metrics
            registry as Prometheus text on ``http://host:metrics_port``
            (0 picks an ephemeral port; read ``metrics_address``).
        max_in_flight: Bound on the connections serving a mux frame at
            once; a frame read while it is reached is shed with OVERLOAD.

    Attributes (read-only for callers; all guarded by one lock):
        in_flight: Mux frames being served.
        peak_in_flight: High-water mark of ``in_flight`` since start.
        overloads_sent: Requests shed with an OVERLOAD frame since start.
        num_connections: Accepted connections whose handler still runs.
        draining: Whether :meth:`close` has begun refusing new work.
    """

    allow_reuse_address = True
    daemon_threads = True
    # socketserver's default backlog of 5 overflows when a proxy's pool (or
    # several proxies) connect at once, and each dropped SYN costs its
    # sender a one-second retransmit.
    request_queue_size = 128

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        num_stripes: int = 64,
        response_delay_s: float = 0.0,
        metrics_port: int | None = None,
        max_in_flight: int = 1024,
    ) -> None:
        if response_delay_s < 0:
            raise ConfigurationError("response_delay_s cannot be negative")
        if max_in_flight < 1:
            raise ConfigurationError("max_in_flight must be >= 1")
        super().__init__((host, port), _Handler)
        self.dispatcher = LblFrameDispatcher(num_stripes)
        self.lbl = self.dispatcher.lbl
        self.response_delay_s = response_delay_s
        self.max_in_flight = max_in_flight
        self.metrics_server = None
        if metrics_port is not None:
            from repro.obs.export import start_metrics_server

            self.metrics_server = start_metrics_server(host, metrics_port)
        # ``_lock`` guards every counter below; ``_drained`` is notified as
        # requests complete while close() drains.
        self._lock = threading.Lock()
        self._drained = threading.Condition(self._lock)
        self.in_flight = 0
        self.peak_in_flight = 0
        self.overloads_sent = 0
        self.num_connections = 0
        self.draining = False
        self._serve_thread: threading.Thread | None = None
        self._closed = False

    @property
    def address(self) -> tuple[str, int]:
        """The (host, port) the server is bound to."""
        return self.socket.getsockname()

    @property
    def metrics_address(self) -> tuple[str, int] | None:
        """The (host, port) of the Prometheus scrape endpoint, if enabled."""
        if self.metrics_server is None:
            return None
        return self.metrics_server.server_address

    def count_connection(self, change: int) -> None:
        """Count one accepted connection in (``1``) or out (``-1``)."""
        with self._lock:
            self.num_connections += change

    # ------------------------------------------------------------------ #
    # Multiplexed (pipelined) frames
    # ------------------------------------------------------------------ #

    def serve_mux(self, payload: bytes, arriving: "framing.Arriving | None" = None) -> bytes:
        """Serve one mux frame on the calling connection's thread, or shed
        it; returns the reply frame.  ``payload`` is the whole frame, or its
        envelope while the batch inside is still ``arriving``.

        Admission is decided before the inner payload is parsed, so nothing
        about a shed reply — bytes, timing, ordering — depends on the
        operation type.
        """
        try:
            request_id, inner, trace_context = framing.unwrap_mux_traced(payload)
        except ProtocolError as exc:
            return self.dispatcher.error_frame(exc)  # no id to mirror: unwrapped
        frame_bytes = 4 + len(payload)
        if arriving is not None:
            inner, frame_bytes = arriving, arriving.stop
        with self._lock:
            admitted = not self.draining and self.in_flight < self.max_in_flight
            if admitted:
                self.in_flight += 1
                self.peak_in_flight = max(self.peak_in_flight, self.in_flight)
            else:
                self.overloads_sent += 1
            depth = self.in_flight
        if _obs.enabled:
            REGISTRY.counter("transport.mux_frames_received").inc()
            _ledger.count_wire(
                _ledger.frame_type(inner), "received", frame_bytes, role="server"
            )
            # The limit rides along so a scraper (``repro doctor``'s
            # occupancy) can divide by it from one snapshot.
            REGISTRY.gauge("transport.server.max_in_flight").set(self.max_in_flight)
            REGISTRY.gauge("transport.server.in_flight").set(depth)
        if not admitted:
            reply = framing.wrap_mux(request_id, OVERLOAD_FRAME)
            if _obs.enabled:
                REGISTRY.counter("transport.overload_frames_sent").inc()
                _ledger.count_wire("overload", "sent", 4 + len(reply), role="server")
            return reply
        try:
            if self.response_delay_s:
                time.sleep(self.response_delay_s)
            if _obs.enabled:
                reply = self.dispatcher.traced_dispatch(inner, trace_context)
            else:
                reply = self.dispatcher.safe_dispatch(inner)
        finally:  # the slot goes back even if dispatch raised
            with self._lock:
                self.in_flight -= 1
                if self.draining:
                    self._drained.notify_all()
                depth = self.in_flight
        wrapped = framing.wrap_mux(request_id, reply)
        if _obs.enabled:
            REGISTRY.gauge("transport.server.in_flight").set(depth)
            _ledger.count_wire(
                _ledger.frame_type(reply), "sent", 4 + len(wrapped), role="server"
            )
        return wrapped

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def serve_in_background(self) -> threading.Thread:
        """Start serving on a background thread; returns the thread.

        The thread is kept (and joined by :meth:`close`) so a shutdown
        actually waits for the accept loop to exit instead of leaking a
        daemon thread holding the listener socket.  Idempotent: calling it
        again returns the already-running thread.
        """
        if self._serve_thread is None:
            self._serve_thread = threading.Thread(
                target=self.serve_forever, name="lbl-tcp-serve", daemon=True
            )
            self._serve_thread.start()
        return self._serve_thread

    def close(self, drain_timeout: float = DRAIN_TIMEOUT_S) -> None:
        """Graceful drain, then release every resource (idempotent).

        Stops accepting and starts shedding new mux frames with OVERLOAD,
        waits up to ``drain_timeout`` seconds for the admitted ones to be
        served, then closes the listener and the scrape endpoint.
        Connections stay open through the drain so the replies have
        somewhere to go; their clients close them.
        """
        if self._closed:
            return
        self._closed = True
        with self._lock:
            self.draining = True
        if self._serve_thread is not None:
            self.shutdown()
            self._serve_thread.join(timeout=5.0)
            self._serve_thread = None
        self.socket.close()  # refuse new connections at once, not after the wait
        with self._lock:
            if not self._drained.wait_for(
                lambda: self.in_flight == 0, timeout=drain_timeout
            ):
                _log.warning(
                    "drain timed out with %d requests in flight", self.in_flight
                )
        self.server_close()

    def server_close(self) -> None:
        """Close the listener and the scrape endpoint."""
        super().server_close()
        if self.metrics_server is not None:
            self.metrics_server.shutdown()
            self.metrics_server.server_close()
            self.metrics_server = None

    def __enter__(self) -> "LblTcpServer":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


__all__ = [
    "LblFrameDispatcher",
    "LblTcpServer",
    "pack_load",
    "unpack_load",
    "LOAD_TAG",
    "LOAD_ACK",
    "OBS_PULL_TAG",
    "OBS_DUMP_TAG",
    "ERROR_TAG",
    "OVERLOAD_TAG",
    "OVERLOAD_FRAME",
]
