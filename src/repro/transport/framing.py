"""Length-prefixed framing over stream sockets, plus request multiplexing.

One frame = 4-byte big-endian payload length + payload.  The payload is a
serialized :mod:`repro.core.messages` message (the first byte is its tag),
so the framing layer stays completely protocol-agnostic.

Requests are *multiplexed* frames: a mux frame's payload is
``[MUX_TAG][8-byte big-endian request id][inner payload]``.  The id lets a
client keep many requests in flight over one socket and match each reply
to its request, instead of the strict request/reply lockstep of plain
frames.  :class:`FrameReader` reads both ends' frames a burst at a time; a
frame may be sent piece by piece as it is made (:func:`send_frame`) and
read as it arrives (:func:`arriving_mux`).
"""

from __future__ import annotations

import socket
import struct
from typing import Iterable, Iterator

from repro.errors import ProtocolError
from repro.obs import _state as _obs
from repro.obs.metrics import REGISTRY

_LEN = struct.Struct(">I")

#: Upper bound on a single frame; a 600 B-value LBL request is ~500 kB, so
#: 64 MiB leaves orders of magnitude of headroom while bounding a hostile
#: peer's allocation.
MAX_FRAME_BYTES = 64 * 1024 * 1024


def send_frame(
    sock: socket.socket, payload: bytes, size: int | None = None, rest: Iterable[bytes] = ()
) -> None:
    """Write one frame of ``size`` bytes: ``payload``, then each piece of
    ``rest`` as soon as it is yielded.  Raises ProtocolError on an oversize
    frame, or on pieces that miss ``size`` (before any surplus is written)."""
    size = len(payload) if size is None else size
    if size > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {size} bytes exceeds the maximum")
    sock.sendall(_LEN.pack(size) + payload)
    sent = len(payload)
    for piece in rest:
        sent += len(piece)
        if sent > size:
            break
        sock.sendall(piece)
    if sent != size:
        raise ProtocolError(f"frame pieces add up past or short of the {size} bytes declared")
    if _obs.enabled:
        REGISTRY.counter("transport.frames_sent").inc()
        REGISTRY.counter("transport.bytes_sent").inc(_LEN.size + size)


def recv_exact(sock: socket.socket, count: int) -> bytes:
    """Read exactly ``count`` bytes or raise on a closed connection."""
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> bytes:
    """Read one frame; raises ProtocolError on malformed lengths."""
    (length,) = _LEN.unpack(recv_exact(sock, _LEN.size))
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"peer announced a {length}-byte frame; refusing")
    payload = recv_exact(sock, length)
    if _obs.enabled:
        REGISTRY.counter("transport.frames_received").inc()
        REGISTRY.counter("transport.bytes_received").inc(_LEN.size + length)
    return payload


class FrameReader:
    """Frames off one stream socket: :meth:`read` returns every whole frame
    buffered, receiving once first if there is none.  A partial frame stays
    at the front of the buffer (grown to fit it) for the next call, or is
    taken as it arrives (:func:`arriving_mux`); one thread reads at a time."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.buf = bytearray(1 << 16)
        self.end = 0  # bytes buffered; the first frame starts at 0

    def receive(self) -> None:
        """One ``recv_into`` after the buffered bytes; raises ProtocolError
        on EOF."""
        received = self.sock.recv_into(memoryview(self.buf)[self.end:])
        if not received:
            raise ProtocolError("connection closed" + " mid-frame" * (self.end > 0))
        self.end += received

    def drop(self, count: int) -> None:
        """Forget the first ``count`` bytes buffered."""
        self.buf[:self.end - count] = self.buf[count:self.end]
        self.end -= count

    def read(self) -> list[bytes]:
        """Every whole frame; raises ProtocolError on EOF or an oversize frame."""
        buf = self.buf
        if self.end < _LEN.size or self.end < _LEN.size + _LEN.unpack_from(buf)[0]:
            self.receive()
        start, end = 0, self.end
        frames = []
        need = _LEN.size  # bytes the partial frame at ``start`` still spans
        with memoryview(buf) as view:
            while end - start >= _LEN.size:
                (length,) = _LEN.unpack_from(buf, start)
                if length > MAX_FRAME_BYTES:
                    raise ProtocolError(f"peer announced a {length}-byte frame; refusing")
                if end - start < _LEN.size + length:
                    need = _LEN.size + length
                    break
                frames.append(bytes(view[start + _LEN.size:start + _LEN.size + length]))
                start += _LEN.size + length
        if start:  # what is left (a partial frame, or nothing) to the front
            self.drop(start)
        if need > len(buf):
            buf.extend(bytes(need - len(buf)))
        if _obs.enabled and frames:
            REGISTRY.counter("transport.frames_received").inc(len(frames))
            REGISTRY.counter("transport.bytes_received").inc(
                sum(_LEN.size + len(frame) for frame in frames)
            )
        return frames


# --------------------------------------------------------------------- #
# Request multiplexing (pipelined connections)
# --------------------------------------------------------------------- #

#: Tag byte marking a multiplexed frame payload.
MUX_TAG = 0x50
#: Tag byte marking a multiplexed frame that also carries a trace context.
MUX_TRACED_TAG = 0x51
#: Width of the request id carried by every mux frame.
REQUEST_ID_BYTES = 8
#: Width of the optional trace-context extension (8-byte trace id + 8-byte
#: span id, see :mod:`repro.obs.propagate`).  Fixed-size by design: the
#: extension must not vary with anything about the request, or telemetry
#: itself would become a side channel.
TRACE_CONTEXT_BYTES = 16
#: Request ids are unsigned and must fit :data:`REQUEST_ID_BYTES`.
MAX_REQUEST_ID = 2 ** (8 * REQUEST_ID_BYTES) - 1
_MUX_HEADER = 1 + REQUEST_ID_BYTES
_TRACED_HEADER = _MUX_HEADER + TRACE_CONTEXT_BYTES


def wrap_mux(request_id: int, payload: bytes, trace_context: bytes | None = None) -> bytes:
    """Prefix ``payload`` with the mux tag, ``request_id``, and optionally
    a :data:`TRACE_CONTEXT_BYTES`-byte trace context.

    The framing layer treats the context as opaque bytes — producing and
    consuming it is :mod:`repro.obs.propagate`'s job — but enforces the
    fixed width so a traced GET and a traced PUT frame stay identically
    shaped.
    """
    if not 0 <= request_id <= MAX_REQUEST_ID:
        raise ProtocolError(f"request id {request_id} out of range")
    encoded_id = request_id.to_bytes(REQUEST_ID_BYTES, "big")
    if trace_context is None:
        return bytes([MUX_TAG]) + encoded_id + payload
    if len(trace_context) != TRACE_CONTEXT_BYTES:
        raise ProtocolError(
            f"trace context must be {TRACE_CONTEXT_BYTES} bytes, "
            f"got {len(trace_context)}"
        )
    return bytes([MUX_TRACED_TAG]) + encoded_id + trace_context + payload


def unwrap_mux_traced(payload: bytes) -> tuple[int, bytes, bytes | None]:
    """Split a mux frame into (request id, inner payload, trace context).

    The context is ``None`` for plain :data:`MUX_TAG` frames, so servers
    handle traced and untraced peers through one code path.
    """
    if len(payload) < _MUX_HEADER:
        raise ProtocolError("malformed multiplexed frame")
    request_id = int.from_bytes(payload[1:_MUX_HEADER], "big")
    if payload[0] == MUX_TAG:
        return request_id, payload[_MUX_HEADER:], None
    if payload[0] == MUX_TRACED_TAG:
        if len(payload) < _TRACED_HEADER:
            raise ProtocolError("truncated trace context on multiplexed frame")
        return (
            request_id,
            payload[_TRACED_HEADER:],
            payload[_MUX_HEADER:_TRACED_HEADER],
        )
    raise ProtocolError("malformed multiplexed frame")


def unwrap_mux(payload: bytes) -> tuple[int, bytes]:
    """Split a mux frame payload into (request id, inner payload).

    Accepts both plain and traced frames, discarding the trace context —
    reply paths that never look at telemetry keep their old signature.
    """
    request_id, inner, _context = unwrap_mux_traced(payload)
    return request_id, inner


def is_mux(payload: bytes) -> bool:
    """Whether a frame payload carries a mux tag (traced or not)."""
    return bool(payload) and payload[0] in (MUX_TAG, MUX_TRACED_TAG)


class Arriving:
    """The inner payload of the mux frame at a :class:`FrameReader`'s front
    while it still arrives (:func:`arriving_mux`): ``len`` and ``[0]`` read
    as on the whole, and :meth:`bursts` receives the rest."""

    def __init__(self, frames: FrameReader, start: int) -> None:
        self.frames, self.start = frames, start
        self.stop = _LEN.size + _LEN.unpack_from(frames.buf)[0]
        self.header = bytes(frames.buf[_LEN.size:start])  # the mux envelope

    def __len__(self) -> int:
        return self.stop - self.start

    def __getitem__(self, index: int) -> int:
        return self.frames.buf[self.start + index]

    def bursts(self) -> Iterator[memoryview]:
        """The payload received so far, once per receive: whole the last time."""
        while True:
            yield memoryview(self.frames.buf)[self.start:min(self.frames.end, self.stop)]
            if self.frames.end >= self.stop:
                return
            self.frames.receive()

    def finish(self) -> None:
        """Receive whatever of the frame is still unread, and drop it."""
        while self.frames.end < self.stop:
            self.frames.receive()
        self.frames.drop(self.stop)
        if _obs.enabled:
            REGISTRY.counter("transport.frames_received").inc()
            REGISTRY.counter("transport.bytes_received").inc(self.stop)


def arriving_mux(frames: FrameReader, tag: int) -> Arriving | None:
    """The partial mux frame at the front of ``frames``, once its headers
    are in, if its inner payload starts with ``tag``."""
    buf, end = frames.buf, frames.end
    if end <= _LEN.size + _MUX_HEADER or buf[_LEN.size] not in (MUX_TAG, MUX_TRACED_TAG):
        return None
    start = _LEN.size + (_MUX_HEADER if buf[_LEN.size] == MUX_TAG else _TRACED_HEADER)
    return Arriving(frames, start) if end > start and buf[start] == tag else None


__all__ = [
    "send_frame",
    "recv_frame",
    "recv_exact",
    "MAX_FRAME_BYTES",
    "MUX_TAG",
    "MUX_TRACED_TAG",
    "REQUEST_ID_BYTES",
    "TRACE_CONTEXT_BYTES",
    "MAX_REQUEST_ID",
    "wrap_mux",
    "unwrap_mux",
    "unwrap_mux_traced",
    "is_mux",
]
