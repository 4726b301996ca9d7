"""A batch frame is served while it still arrives.

``access_batch`` writes each sub-request onto its shard's frame as soon as
it is prepared, and the shard serves the sub-requests each received burst
completes as one window.  What must not change: the bytes of the frame,
the reply (byte-identical to dispatching the whole frame at once), the
epochs a cut frame leaves behind, load shedding at the mux header, and the
emulated service time (once per admitted frame).
"""

import socket
import time

import pytest

from repro.core.lbl.proxy import LblProxy
from repro.core.messages import LblAccessRequest, LblBatchRequest
from repro.core.sharded import ShardedLblDeployment
from repro.crypto.keys import KeyChain
from repro.errors import ProtocolError
from repro.transport import framing
from repro.transport import server as server_module
from repro.transport.framing import _LEN
from repro.transport.server import OVERLOAD_FRAME, LblFrameDispatcher
from repro.types import Request, StoreConfig
from tests.test_admission import PING, is_pong, serving, wait_in_flight

pytestmark = pytest.mark.timeout(60)

CONFIG = StoreConfig(value_len=16, group_bits=2)
KEYS = [f"key-{i}" for i in range(6)]
OLD = {key: CONFIG.pad(key.encode()) for key in KEYS}
NEW = {key: CONFIG.pad(b"new " + key.encode()) for key in KEYS}


class Tap:
    """A shard link whose streamed frames pass ``before(i)`` before their
    ``i``-th piece is handed on (after it was prepared)."""

    def __init__(self, link, before=lambda index: None) -> None:
        self.link, self.before = link, before
        self.pieces: list[bytes] = []
        self.futures: list = []

    def _gated(self, pieces):
        for index, piece in enumerate(pieces):
            self.before(index)
            self.pieces.append(piece)
            yield piece

    def submit(self, payload, trace_context=None):
        if isinstance(payload, tuple):
            payload = (payload[0], self._gated(payload[1]))
        self.futures.append(self.link.submit(payload, trace_context))
        return self.futures[-1]

    def close(self) -> None:
        self.link.close()


def stored(server, dep, key):
    """The shard's record for ``key``, read without counting."""
    return server.lbl.store._data[dep.encoded_key(key)]


def wait_until(condition, what: str) -> None:
    deadline = time.monotonic() + 10.0
    while not condition():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.001)


def committed_in_turn(server, dep, records: dict):
    """A gate that holds piece ``i`` until sub-request ``i - 1`` is
    committed at the shard: each sub-request then arrives in its own burst."""

    def before(index: int) -> None:
        if index:
            key = KEYS[index - 1]
            wait_until(lambda: stored(server, dep, key) != records[key], f"{key} committed")

    return before


@pytest.fixture()
def cluster():
    with serving() as server:
        dep = ShardedLblDeployment(CONFIG, [server.address])
        dep.initialize(dict(OLD))
        yield server, dep
        dep.close()


def test_streamed_frame_is_the_batch_frame_and_its_reply_the_whole_frames(monkeypatch):
    """(a) The bytes the shard receives are ``LblBatchRequest(...).to_bytes()``
    under the mux envelope, and the reply equals a whole-frame dispatch of
    them on a replica of the shard's store."""
    received = bytearray()
    receive = framing.FrameReader.receive

    def recording(reader) -> None:
        before = reader.end
        receive(reader)
        if reader.sock.getsockname()[1] == server.address[1]:  # the shard's end
            received.extend(reader.buf[before:reader.end])

    monkeypatch.setattr(framing.FrameReader, "receive", recording)
    with serving() as server:
        dep = ShardedLblDeployment(CONFIG, [server.address])
        dep.initialize(dict(OLD))
        replica = LblFrameDispatcher()
        for encoded_key, record in server.lbl.store._data.items():
            replica.lbl.store.put_new(encoded_key, record)
        records = {key: stored(server, dep, key) for key in KEYS}
        tap = dep.clients[0] = Tap(dep.clients[0], committed_in_turn(server, dep, records))
        transcripts = dep.access_batch([Request.write(key, NEW[key]) for key in KEYS])
        try:
            frames, at = [], 0
            while at < len(received):
                (length,) = _LEN.unpack_from(received, at)
                frames.append(bytes(received[at + _LEN.size:at + _LEN.size + length]))
                at += _LEN.size + length
            assert at == len(received)
            _request_id, inner = framing.unwrap_mux(frames[-1])  # the batch, last
            batch = LblBatchRequest.from_bytes(inner)
            assert inner == LblBatchRequest(batch.requests).to_bytes() == b"".join(tap.pieces)
            assert [r.encoded_key for r in batch.requests] == [
                dep.encoded_key(key) for key in KEYS
            ]
            assert replica.dispatch(inner) == tap.futures[-1].result()
            assert replica.lbl.store._data == server.lbl.store._data
            assert [t.response.value for t in transcripts] == [NEW[key] for key in KEYS]
            assert [dep.read(key) for key in KEYS] == [NEW[key] for key in KEYS]
        finally:
            dep.close()


def test_the_shard_opens_the_first_request_before_the_last_is_written(
    cluster, monkeypatch
):
    """(b) The overlap is real: sub-request 0 is committed at the shard
    while the proxy still holds the last one."""
    server, dep = cluster
    first, last = KEYS[0], len(KEYS) - 1
    before_batch = stored(server, dep, first)
    windows: list[int] = []
    process_many = server.lbl.process_many
    monkeypatch.setattr(
        server.lbl, "process_many",
        lambda requests: windows.append(len(requests)) or process_many(requests),
    )

    def before(index: int) -> None:
        if index == last:
            wait_until(lambda: stored(server, dep, first) != before_batch, "key 0 committed")
            assert sum(windows) < len(KEYS)

    dep.clients[0] = Tap(dep.clients[0], before)
    dep.access_batch([Request.read(key) for key in KEYS])
    assert len(windows) >= 2 and sum(windows) == len(KEYS)
    assert [dep.read(key) for key in KEYS] == [OLD[key] for key in KEYS]


def test_a_frame_cut_part_way_leaves_each_key_committed_or_one_epoch_behind(
    tmp_path,
):
    """(c) A cut after ``k`` sub-requests: those ``k`` are committed, the
    one prepared when the cut came is one epoch behind at the shard (as a
    lost lone frame leaves its key), the rest untouched — and with a
    write-ahead log the next access resyncs the one behind."""
    k = 3
    wal = tmp_path / "counters.wal"
    with serving() as server:
        dep = ShardedLblDeployment(CONFIG, [server.address], wal_path=wal)
        dep.initialize(dict(OLD))
        records = {key: stored(server, dep, key) for key in KEYS}

        def cut(index: int) -> None:
            committed_in_turn(server, dep, records)(index)
            if index == k:
                raise ConnectionResetError("link cut mid-frame")

        dep.clients[0] = Tap(dep.clients[0], cut)
        with pytest.raises(ProtocolError, match="link cut mid-frame"):
            dep.access_batch([Request.write(key, NEW[key]) for key in KEYS])
        counters = dep.proxy.counters()
        dep.close()
        assert [counters[key] for key in KEYS] == [1] * (k + 1) + [0] * (len(KEYS) - k - 1)
        wait_until(lambda: server.num_connections == 0, "the cut connection to close")
        changed = [stored(server, dep, key) != records[key] for key in KEYS]
        assert changed == [True] * k + [False] * (len(KEYS) - k)

        recovered = ShardedLblDeployment(
            CONFIG, [server.address], keychain=dep.keychain, wal_path=wal
        )
        try:
            values = [recovered.read(key) for key in KEYS]
            assert values == [NEW[key] for key in KEYS[:k]] + [OLD[key] for key in KEYS[k:]]
            assert recovered.recovered_resyncs == 1
        finally:
            recovered.close()


def test_a_batch_frame_shed_at_its_header_is_drained_and_the_next_frame_served():
    """(d) Shed while it arrives: the rest of the frame is read and dropped,
    the reply is the one OVERLOAD frame, and the next frame is served."""
    proxy = LblProxy(CONFIG, KeyChain(label_bits=CONFIG.label_bits))
    proxy.initial_records(dict(OLD))
    batch = LblBatchRequest(
        tuple(proxy.prepare(Request.read(key))[0] for key in KEYS)
    ).to_bytes()
    frame = framing.wrap_mux(7, batch)
    data = _LEN.pack(len(frame)) + frame
    with serving(max_in_flight=1, response_delay_s=0.3) as server:
        blocker = socket.create_connection(server.address, timeout=30)
        sock = socket.create_connection(server.address, timeout=30)
        try:
            framing.send_frame(blocker, framing.wrap_mux(1000, PING))
            wait_in_flight(server, 1)
            sock.sendall(data[:64])  # the envelope, the tag and part of a request
            wait_until(lambda: server.overloads_sent == 1, "the batch frame shed")
            sock.sendall(data[64:])
            assert is_pong(framing.unwrap_mux(framing.recv_frame(blocker))[1])
            framing.send_frame(sock, framing.wrap_mux(8, PING))
            assert framing.recv_frame(sock) == framing.wrap_mux(7, OVERLOAD_FRAME)
            request_id, reply = framing.unwrap_mux(framing.recv_frame(sock))
            assert request_id == 8 and is_pong(reply)
            assert server.overloads_sent == 1
        finally:
            sock.close()
            blocker.close()


def test_service_time_is_slept_once_per_admitted_streamed_frame(cluster, monkeypatch):
    """(e) ``response_delay_s`` sleeps once per admitted frame, not once per
    received burst."""
    server, dep = cluster
    delay = 0.0123
    server.response_delay_s = delay
    slept: list[float] = []
    sleep = time.sleep
    monkeypatch.setattr(
        server_module.time, "sleep", lambda s: (s == delay and slept.append(s)) or sleep(s)
    )
    windows: list[int] = []
    process_many = server.lbl.process_many
    monkeypatch.setattr(
        server.lbl, "process_many",
        lambda requests: windows.append(len(requests)) or process_many(requests),
    )
    records = {key: stored(server, dep, key) for key in KEYS}
    dep.clients[0] = Tap(dep.clients[0], committed_in_turn(server, dep, records))
    dep.access_batch([Request.write(key, NEW[key]) for key in KEYS])
    assert len(windows) == len(KEYS)
    assert slept == [delay]


def test_sub_request_size_is_known_before_it_is_built():
    """The frame's length is declared before the first prepare."""
    proxy = LblProxy(CONFIG, KeyChain(label_bits=CONFIG.label_bits))
    proxy.initial_records(dict(OLD))
    built = proxy.prepare(Request.read(KEYS[0]))[0]
    codec = proxy.codec
    assert len(built.to_bytes()) == LblAccessRequest.wire_len(
        len(built.encoded_key), codec.num_groups, codec.table_size, codec.label_len
    )
