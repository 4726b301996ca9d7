"""Asyncio LBL transport server: one event loop, tens of thousands of conns.

:class:`~repro.transport.server.LblTcpServer` is thread-per-connection with
a worker pool for mux frames — solid at hundreds of connections, dead at
thousands (every connection pins a stack, every reply crosses a lock).
:class:`AsyncLblServer` serves the *same wire protocol* (every tag, every
reply byte-identical — the frame routing is literally the shared
:class:`~repro.transport.server.LblFrameDispatcher`) from a single event
loop, so one shard process holds 10k+ connections in a few MB of state.

What the event loop adds beyond scale:

* **Bounded in-flight windows.**  ``max_in_flight`` (global) and
  ``max_in_flight_per_conn`` cap how many multiplexed requests may be
  queued or executing at once.  The threaded server's pool queue is
  unbounded — a flood parks requests forever and p99 explodes; here the
  window is the contract.
* **Admission control.**  A mux frame arriving over a full window is shed
  *immediately* with the one-byte OVERLOAD frame
  (:data:`~repro.transport.server.OVERLOAD_FRAME`) wrapped under its
  request id.  The shed happens before the inner payload is parsed and the
  frame carries no request-derived content, so a shed GET and a shed PUT
  are byte-identical — load shedding cannot leak the operation type.
* **Graceful drain.**  :meth:`close` stops accepting, answers new requests
  with OVERLOAD, lets in-flight requests finish (bounded by
  ``drain_timeout``), then closes every connection and the loop.
* **Slow-consumer protection.**  Replies are written under a bounded write
  buffer; a peer that stops reading stalls its own connection's writes
  until ``write_timeout_s`` expires, then the connection is aborted —
  one stuck client can never wedge the loop or hold window slots forever.

Ledger attribution survives the event loop because it was built on
:mod:`contextvars`, not threads: every mux request runs in its own
:class:`asyncio.Task`, every task owns a copy of the context, and the
dispatcher's ``ledger.track`` row therefore never bleeds between
interleaved requests on the one loop thread.

The server runs its loop on a dedicated background thread so the
synchronous lifecycle (``start`` / ``close`` / context manager) matches
:class:`~repro.transport.server.LblTcpServer` — a :class:`ShardCluster`
boots either transport through the same calls.
"""

from __future__ import annotations

import asyncio
import socket
import threading
from contextlib import nullcontext

from repro.core.lbl.server_coalesce import (
    DEFAULT_WINDOW_SECONDS as DEFAULT_SERVER_WINDOW_SECONDS,
)
from repro.core.messages import LblAccessRequest
from repro.errors import ConfigurationError, OrtoaError, ProtocolError
from repro.obs import _state as _obs
from repro.obs import ledger as _ledger
from repro.obs.logging import get_logger
from repro.obs.metrics import REGISTRY
from repro.obs.recorder import RECORDER
from repro.transport import framing
from repro.transport.framing import MAX_FRAME_BYTES, _LEN
from repro.transport.server import (
    ERROR_TAG,
    LblFrameDispatcher,
    OVERLOAD_FRAME,
)

_log = get_logger("transport.async_server")

#: How often the event-loop lag probe reschedules itself.  The probe asks
#: the loop to wake it after exactly this long; any excess is time the loop
#: spent busy (or blocked) instead of polling — the classic saturation
#: signal for a single-threaded event loop.
LOOP_LAG_PROBE_INTERVAL_S = 0.25


class _ConnState:
    """Book-keeping for one live connection on the loop."""

    __slots__ = ("writer", "write_lock", "in_flight", "dead")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.write_lock = asyncio.Lock()
        self.in_flight = 0
        self.dead = False


class AsyncLblServer:
    """An asyncio front over one LBL server instance (one event loop).

    Args:
        host: Bind address (use ``127.0.0.1`` for tests).
        port: Bind port (0 picks an ephemeral one; read ``address``).
        point_and_permute: Must match the clients' configuration.
        max_in_flight: Global bound on multiplexed requests queued or
            executing; frames beyond it are shed with OVERLOAD.
        max_in_flight_per_conn: The same bound per connection, so one
            greedy client cannot monopolize the global window.
        response_delay_s: Artificial delay before every mux reply,
            emulating a WAN round trip on loopback (benchmarks only).
        write_timeout_s: How long one reply write may stall on a
            non-reading peer before the connection is aborted.
        write_buffer_bytes: When set, caps the kernel send buffer and the
            transport's write high-water mark, so slow-consumer tests hit
            the write-timeout path with small payloads.
        backlog: Listen backlog (raise for C10K-style connect storms).
        metrics_port: When not ``None``, serve this process's metrics
            registry as Prometheus text on ``http://host:metrics_port``
            (0 picks an ephemeral port; read ``metrics_address``).
        server_batch: Access-window fusion size (see
            :class:`~repro.transport.server.LblFrameDispatcher`); ``1``
            disables fusion.  Above 1, access frames always dispatch as
            their own Task — an inline await would park the connection's
            read loop on the window future and stop later frames from the
            same connection from ever filling the window.
        server_window: Flush timer (seconds) for a partially filled access
            window, armed via ``loop.call_later`` (an event loop cannot
            block in the coalescer's leader poll).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        point_and_permute: bool = True,
        max_in_flight: int = 1024,
        max_in_flight_per_conn: int = 128,
        response_delay_s: float = 0.0,
        write_timeout_s: float = 30.0,
        write_buffer_bytes: int | None = None,
        backlog: int = 2048,
        metrics_port: int | None = None,
        server_batch: int = 1,
        server_window: float = DEFAULT_SERVER_WINDOW_SECONDS,
    ) -> None:
        if max_in_flight < 1:
            raise ConfigurationError("max_in_flight must be >= 1")
        if max_in_flight_per_conn < 1:
            raise ConfigurationError("max_in_flight_per_conn must be >= 1")
        if response_delay_s < 0:
            raise ConfigurationError("response_delay_s cannot be negative")
        if write_timeout_s <= 0:
            raise ConfigurationError("write_timeout_s must be positive")
        self._host = host
        self._port = port
        self._backlog = backlog
        self._metrics_port = metrics_port
        self.max_in_flight = max_in_flight
        self.max_in_flight_per_conn = max_in_flight_per_conn
        self.response_delay_s = response_delay_s
        self.write_timeout_s = write_timeout_s
        self.write_buffer_bytes = write_buffer_bytes
        # drain() only blocks once the transport's buffer passes its high
        # water mark (the explicit cap, or asyncio's 64 KiB default); below
        # that the whole wait_for+drain round is a guaranteed no-op, and
        # skipping it saves a Task per reply on the hot path.
        self._write_high_water = (
            write_buffer_bytes if write_buffer_bytes is not None else 64 * 1024
        )
        # One loop means dispatches never overlap mid-mutation: tasks only
        # yield at awaits, and the dispatcher never awaits — so no locks.
        # Window fusion keeps that invariant: a coalesced access awaits a
        # future, but the flush itself (process_many) never awaits, so the
        # store still mutates atomically between yield points.
        self.dispatcher = LblFrameDispatcher(
            point_and_permute=point_and_permute,
            locking=False,
            server_batch=server_batch,
            server_window=server_window,
        )
        self.lbl = self.dispatcher.lbl
        self.metrics_server = None

        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.Server | None = None
        self._thread: threading.Thread | None = None
        self._address: tuple[str, int] | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self._closed = False
        self._draining = False
        self._in_flight = 0
        self._peak_in_flight = 0
        self._overloads_sent = 0
        self._idle: asyncio.Event | None = None  # created on the loop
        self._conns: set[_ConnState] = set()
        self._tasks: set[asyncio.Task] = set()
        self._window_full = False

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def address(self) -> tuple[str, int]:
        """The (host, port) the server is bound to."""
        if self._address is None:
            raise ConfigurationError("server not started; call start() first")
        return self._address

    @property
    def metrics_address(self) -> tuple[str, int] | None:
        """The (host, port) of the Prometheus scrape endpoint, if enabled."""
        if self.metrics_server is None:
            return None
        return self.metrics_server.server_address

    @property
    def in_flight(self) -> int:
        """Multiplexed requests currently queued or executing."""
        return self._in_flight

    @property
    def peak_in_flight(self) -> int:
        """High-water mark of :attr:`in_flight` since start."""
        return self._peak_in_flight

    @property
    def overloads_sent(self) -> int:
        """Requests shed with an OVERLOAD frame since start."""
        return self._overloads_sent

    @property
    def num_connections(self) -> int:
        """Connections currently open on the loop."""
        return len(self._conns)

    @property
    def draining(self) -> bool:
        """Whether the server is refusing new work for shutdown."""
        return self._draining

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> "AsyncLblServer":
        """Bind and serve on a dedicated event-loop thread (idempotent)."""
        if self._thread is not None:
            return self
        if self._closed:
            raise ConfigurationError("server already closed")
        self._thread = threading.Thread(
            target=self._run_loop, name="lbl-async-serve", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=30.0):
            raise ProtocolError("async server failed to start within 30s")
        if self._startup_error is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
            raise self._startup_error
        if self._metrics_port is not None:
            from repro.obs.export import start_metrics_server

            self.metrics_server = start_metrics_server(
                self._host, self._metrics_port
            )
        return self

    def serve_in_background(self) -> threading.Thread:
        """Alias for :meth:`start` returning the loop thread, mirroring
        :meth:`~repro.transport.server.LblTcpServer.serve_in_background`."""
        self.start()
        assert self._thread is not None
        return self._thread

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            server = loop.run_until_complete(
                asyncio.start_server(
                    self._handle_conn,
                    self._host,
                    self._port,
                    backlog=self._backlog,
                )
            )
        except BaseException as exc:  # bind failure: surface it in start()
            self._startup_error = exc
            self._started.set()
            loop.close()
            return
        self._server = server
        self._idle = asyncio.Event()
        self._idle.set()
        self._address = server.sockets[0].getsockname()[:2]
        self._started.set()
        loop.create_task(self._lag_probe())
        try:
            loop.run_forever()
        finally:
            # Cancel anything the drain left behind, then let cancellations
            # unwind before closing the loop.
            for task in asyncio.all_tasks(loop):
                task.cancel()
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    def close(self, drain_timeout: float = 10.0) -> None:
        """Graceful drain then shutdown (idempotent).

        Stops accepting, sheds new requests with OVERLOAD, waits up to
        ``drain_timeout`` seconds for in-flight requests to finish, closes
        every connection, and stops the loop thread.
        """
        if self._closed:
            return
        self._closed = True
        if self._loop is not None and self._thread is not None:
            try:
                done = asyncio.run_coroutine_threadsafe(
                    self._shutdown(drain_timeout), self._loop
                )
                done.result(timeout=drain_timeout + 30.0)
            except Exception:  # loop died mid-shutdown: still join below
                _log.warning("async server drain did not complete cleanly")
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10.0)
            self._thread = None
        if self.metrics_server is not None:
            self.metrics_server.shutdown()
            self.metrics_server.server_close()
            self.metrics_server = None

    async def _shutdown(self, drain_timeout: float) -> None:
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        assert self._idle is not None
        try:
            await asyncio.wait_for(self._idle.wait(), timeout=drain_timeout)
        except asyncio.TimeoutError:
            _log.warning(
                "drain timed out with %d requests in flight", self._in_flight
            )
        for conn in list(self._conns):
            conn.dead = True
            conn.writer.close()

    def __enter__(self) -> "AsyncLblServer":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Connection handling (loop side)
    # ------------------------------------------------------------------ #

    async def _lag_probe(self) -> None:
        """Measure event-loop scheduling lag at a fixed cadence.

        Sleeps a fixed interval and gauges how late the loop woke it —
        the direct measure of dispatch saturation on a one-loop server.
        The probe also refreshes the window-limit gauges so scrapers
        (``repro top`` / ``repro doctor``) can compute occupancy ratios
        from one snapshot.
        """
        loop = asyncio.get_running_loop()
        while True:
            scheduled = loop.time()
            await asyncio.sleep(LOOP_LAG_PROBE_INTERVAL_S)
            lag_s = max(0.0, loop.time() - scheduled - LOOP_LAG_PROBE_INTERVAL_S)
            if _obs.enabled:
                REGISTRY.gauge("transport.async.loop_lag_ms").set(lag_s * 1e3)
                REGISTRY.gauge("transport.server.max_in_flight").set(
                    self.max_in_flight
                )
                REGISTRY.gauge("transport.server.max_in_flight_per_conn").set(
                    self.max_in_flight_per_conn
                )

    def _track_in_flight(self, delta: int) -> None:
        self._in_flight += delta
        assert self._idle is not None
        if self._in_flight == 0:
            self._idle.set()
        else:
            self._idle.clear()
            if self._in_flight > self._peak_in_flight:
                self._peak_in_flight = self._in_flight
        if _obs.enabled:
            REGISTRY.gauge("transport.server.in_flight").set(self._in_flight)
            # Window-occupancy *transitions* go to the flight recorder:
            # the gauge says how full the window is now, the events say
            # exactly when it saturated and when it recovered.
            full = self._in_flight >= self.max_in_flight
            if full != self._window_full:
                self._window_full = full
                RECORDER.record(
                    "transport.window.full" if full else "transport.window.available",
                    in_flight=self._in_flight,
                    max_in_flight=self.max_in_flight,
                )
        elif self._window_full and self._in_flight < self.max_in_flight:
            self._window_full = False

    async def _write_frame(self, conn: _ConnState, payload: bytes) -> None:
        """Write one frame, bounded by the write timeout.

        The lock orders frames from concurrent tasks; ``drain()`` under the
        bounded write buffer is the backpressure point — a non-reading peer
        stalls here until the timeout aborts its connection.
        """
        if conn.dead:
            raise ConnectionResetError("connection already aborted")
        if len(payload) > MAX_FRAME_BYTES:
            raise ProtocolError(
                f"frame of {len(payload)} bytes exceeds the maximum"
            )
        async with conn.write_lock:
            if conn.dead:
                raise ConnectionResetError("connection already aborted")
            conn.writer.write(_LEN.pack(len(payload)) + payload)
            if (
                conn.writer.transport.get_write_buffer_size()
                > self._write_high_water
            ):
                try:
                    await asyncio.wait_for(
                        conn.writer.drain(), timeout=self.write_timeout_s
                    )
                except asyncio.TimeoutError:
                    _log.warning(
                        "reply write stalled > %.1fs; aborting slow consumer",
                        self.write_timeout_s,
                    )
                    if _obs.enabled:
                        REGISTRY.counter(
                            "transport.async.slow_consumer_aborts"
                        ).inc()
                        RECORDER.record(
                            "transport.slow_consumer_abort",
                            write_timeout_s=self.write_timeout_s,
                            in_flight=self._in_flight,
                            conn_in_flight=conn.in_flight,
                        )
                        RECORDER.trigger("slow-consumer-abort")
                    conn.dead = True
                    conn.writer.transport.abort()
                    raise ConnectionResetError("slow consumer aborted") from None
        if _obs.enabled:
            REGISTRY.counter("transport.frames_sent").inc()
            REGISTRY.counter("transport.bytes_sent").inc(_LEN.size + len(payload))

    async def _send_overload(self, conn: _ConnState, request_id: int | None) -> None:
        """Shed one request: constant one-byte OVERLOAD frame, mux-wrapped
        under the request id when the request was multiplexed.

        Runs *before* the inner payload is parsed, so nothing about the
        reply — bytes, timing, ordering — depends on the operation type.
        """
        self._overloads_sent += 1
        if _obs.enabled:
            REGISTRY.counter("transport.overload_frames_sent").inc()
        reply = (
            OVERLOAD_FRAME
            if request_id is None
            else framing.wrap_mux(request_id, OVERLOAD_FRAME)
        )
        if _obs.enabled:
            _ledger.count_wire("overload", "sent", 4 + len(reply), role="server")
        try:
            await self._write_frame(conn, reply)
        except (ConnectionError, OSError):
            pass  # peer gone; the shed already freed the slot

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        sock = writer.get_extra_info("socket")
        if sock is not None:
            # Replies from independent tasks are small frames; without
            # NODELAY, Nagle holds each until the client ACKs the previous
            # one and pipelined replies serialize on delayed ACKs.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self.write_buffer_bytes is not None:
                sock.setsockopt(
                    socket.SOL_SOCKET, socket.SO_SNDBUF, self.write_buffer_bytes
                )
        if self.write_buffer_bytes is not None:
            writer.transport.set_write_buffer_limits(high=self.write_buffer_bytes)
        conn = _ConnState(writer)
        self._conns.add(conn)
        if _obs.enabled:
            REGISTRY.gauge("transport.async.connections").set(len(self._conns))
        try:
            await self._read_loop(reader, conn)
        finally:
            self._conns.discard(conn)
            if _obs.enabled:
                REGISTRY.gauge("transport.async.connections").set(len(self._conns))
            conn.dead = True
            try:
                writer.close()
            except Exception:  # transport already aborted
                pass

    async def _read_loop(self, reader: asyncio.StreamReader, conn: _ConnState) -> None:
        while True:
            try:
                header = await reader.readexactly(_LEN.size)
            except (asyncio.IncompleteReadError, ConnectionError, OSError):
                return  # closed (possibly mid-header; that's fine)
            (length,) = _LEN.unpack(header)
            if length > MAX_FRAME_BYTES:
                # A hostile length would force an unbounded allocation (or
                # an unbounded skip); describe the refusal, then hang up.
                try:
                    await self._write_frame(
                        conn,
                        bytes([ERROR_TAG])
                        + f"peer announced a {length}-byte frame; refusing".encode(),
                    )
                except (ConnectionError, OSError):
                    pass
                return
            try:
                payload = await reader.readexactly(length)
            except (asyncio.IncompleteReadError, ConnectionError, OSError):
                return  # truncated mid-frame
            if _obs.enabled:
                REGISTRY.counter("transport.frames_received").inc()
                REGISTRY.counter("transport.bytes_received").inc(
                    _LEN.size + length
                )
            if framing.is_mux(payload):
                await self._admit_mux(conn, payload)
                continue
            # Plain (lockstep) frames: strict request/reply on this
            # connection, dispatched inline on the loop.
            if _obs.enabled:
                _ledger.count_wire(
                    _ledger.frame_type(payload),
                    "received",
                    4 + len(payload),
                    role="server",
                )
            if self._draining:
                await self._send_overload(conn, request_id=None)
                continue
            if self._coalesce_access(payload):
                # Lockstep connections are strict request/reply anyway, so
                # awaiting the window future here only parks this
                # connection — frames from other connections keep filling
                # the window while we wait.
                reply = await self._safe_dispatch_coalesced(payload)
            else:
                reply = self.dispatcher.safe_dispatch(payload)
            if _obs.enabled:
                _ledger.count_wire(
                    _ledger.frame_type(reply), "sent", 4 + len(reply), role="server"
                )
            try:
                await self._write_frame(conn, reply)
            except (ConnectionError, OSError):
                return

    async def _admit_mux(self, conn: _ConnState, payload: bytes) -> None:
        """Admission control: window check *before* touching the payload."""
        try:
            request_id, inner, trace_context = framing.unwrap_mux_traced(payload)
        except ProtocolError as exc:
            # No id to mirror: reply with a plain error frame so the client
            # at least sees a described failure.
            try:
                await self._write_frame(
                    conn, bytes([ERROR_TAG]) + str(exc).encode("utf-8")
                )
            except (ConnectionError, OSError):
                pass
            return
        if _obs.enabled:
            REGISTRY.counter("transport.mux_frames_received").inc()
            _ledger.count_wire(
                _ledger.frame_type(payload), "received", 4 + len(payload),
                role="server",
            )
        if (
            self._draining
            or self._in_flight >= self.max_in_flight
            or conn.in_flight >= self.max_in_flight_per_conn
        ):
            if _obs.enabled:
                # The three causes are only distinguishable here, before
                # the shed; the event carries window state, never request
                # content (the inner payload is still unparsed), so shed
                # GET and shed PUT events are shape-identical.
                cause = (
                    "draining"
                    if self._draining
                    else "global-window"
                    if self._in_flight >= self.max_in_flight
                    else "per-conn-window"
                )
                RECORDER.record_shed(
                    cause,
                    in_flight=self._in_flight,
                    conn_in_flight=conn.in_flight,
                    max_in_flight=self.max_in_flight,
                    max_per_conn=self.max_in_flight_per_conn,
                )
            await self._send_overload(conn, request_id)
            return
        conn.in_flight += 1
        self._track_in_flight(+1)
        if not self.response_delay_s and not self._coalesce_access(inner):
            # The dispatcher is synchronous and the reply write buffers
            # without blocking below the high-water mark, so at zero delay
            # a Task per request buys no concurrency — handling inline
            # keeps admission accounting identical and skips the Task.
            # Coalesced access frames are the exception: they await the
            # window future, and an inline await would park this
            # connection's read loop, stopping its later frames from ever
            # filling the window — so they always get their own Task.
            await self._handle_mux(conn, request_id, inner, trace_context)
            return
        task = asyncio.get_running_loop().create_task(
            self._handle_mux(conn, request_id, inner, trace_context)
        )
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    # ------------------------------------------------------------------ #
    # Access-window fusion (loop side)
    # ------------------------------------------------------------------ #

    def _coalesce_access(self, inner: bytes) -> bool:
        """Whether this frame routes through the access coalescer."""
        return (
            self.dispatcher.coalescer is not None
            and bool(inner)
            and inner[0] == LblAccessRequest.TAG
        )

    async def _dispatch_coalesced(self, inner: bytes) -> bytes:
        """Submit one access frame into the window; await its result.

        The async half of the coalescer protocol: enqueue, then either
        flush immediately (window filled) or arm a ``loop.call_later``
        timer for this window's generation — a stale timer no-ops once the
        window has flushed.  The flush runs synchronously on the loop (it
        never awaits), resolving every entry's future in turn.
        """
        if _obs.enabled:
            REGISTRY.counter("transport.requests_dispatched").inc()
        request = LblAccessRequest.from_bytes(inner)
        coalescer = self.dispatcher.coalescer
        assert coalescer is not None
        loop = asyncio.get_running_loop()
        future: "asyncio.Future" = loop.create_future()

        def _resolve(entry) -> None:
            if not future.done():
                future.set_result(entry)

        entry, is_leader, is_full, generation = coalescer.submit(
            request, _ledger.current_row(), on_done=_resolve
        )
        if is_full:
            coalescer.flush_pending("size", generation)
        elif is_leader:
            loop.call_later(
                coalescer.window, coalescer.flush_pending, "timer", generation
            )
        entry = await future
        if entry.error is not None:
            raise entry.error
        return entry.result[0].to_bytes()

    async def _safe_dispatch_coalesced(self, inner: bytes) -> bytes:
        """Coalesced dispatch with ``safe_dispatch`` error semantics."""
        try:
            return await self._dispatch_coalesced(inner)
        except OrtoaError as exc:
            return self.dispatcher.error_frame(exc)

    async def _handle_mux(
        self,
        conn: _ConnState,
        request_id: int,
        inner: bytes,
        trace_context: bytes | None,
    ) -> None:
        try:
            if self.response_delay_s:
                await asyncio.sleep(self.response_delay_s)
            # Attribution on one loop thread: when this runs as its own
            # task it owns a copy of the context; when it runs inline the
            # dispatcher never awaits, so its ledger row (contextvars) is
            # activated and retired with no interleaving point in between.
            # Either way the row belongs to exactly this request.
            # The scope (span + ledger row) stays open across a coalesced
            # frame's window await, so the fused flush credits this
            # request's closed-form share to exactly this row.
            scope = (
                self.dispatcher.request_scope(trace_context)
                if _obs.enabled
                else nullcontext()
            )
            with scope:
                if self._coalesce_access(inner):
                    reply = await self._safe_dispatch_coalesced(inner)
                else:
                    reply = self.dispatcher.safe_dispatch(inner)
            try:
                wrapped = framing.wrap_mux(request_id, reply)
                if _obs.enabled:
                    _ledger.count_wire(
                        _ledger.frame_type(reply),
                        "sent",
                        4 + len(wrapped),
                        role="server",
                    )
                await self._write_frame(conn, wrapped)
            except (ConnectionError, OSError):
                pass  # client vanished mid-flight; nothing left to tell it
        finally:
            conn.in_flight -= 1
            self._track_in_flight(-1)


__all__ = ["AsyncLblServer", "LOOP_LAG_PROBE_INTERVAL_S"]
