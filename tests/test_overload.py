"""Fault injection against the TCP server: misbehaving clients and the
security contract of load shedding.

The obliviousness claim extends to overload: a shed request's reply is a
single constant tag byte, produced *before* the inner payload is parsed,
so shedding a GET and shedding a PUT are byte-identical on the wire and in
the ledger — an adversary timing or sizing OVERLOAD replies learns
nothing about the operation type.  The rest of the file throws broken
clients at the server (stalled readers, half-closes, mid-request
disconnects) and requires it to keep serving everyone else.
"""

import socket
import struct
import time

import pytest

from repro import obs
from repro.core.lbl.proxy import LblProxy
from repro.crypto.keys import KeyChain
from repro.errors import OverloadError
from repro.obs import ledger
from repro.transport import framing
from repro.transport import server as server_module
from repro.transport.framing import _LEN
from repro.transport.pipeline import PipelinedLblClient
from repro.transport.server import (
    LOAD_ACK,
    OBS_DUMP_TAG,
    OVERLOAD_FRAME,
    OVERLOAD_TAG,
    pack_load,
)
from repro.types import Request, StoreConfig
from tests.test_admission import PING, serving, wait_in_flight

pytestmark = pytest.mark.timeout(120)

CONFIG = StoreConfig(value_len=16, group_bits=2)


def make_proxy() -> LblProxy:
    return LblProxy(CONFIG, KeyChain(label_bits=CONFIG.label_bits))


def occupy_window(server) -> socket.socket:
    """Open a raw connection and park one request in the server's window."""
    sock = socket.create_connection(server.address, timeout=30)
    framing.send_frame(sock, framing.wrap_mux(1000, PING))
    # Each connection has its own thread: later connections' frames are
    # only sure to find the window taken once this one is admitted.
    wait_in_flight(server, 1)
    return sock


# --------------------------------------------------------------------- #
# OVERLOAD byte-identity: shedding must not leak the operation type
# --------------------------------------------------------------------- #


def test_overload_frame_identical_for_get_and_put():
    """The raw shed reply for a GET equals the raw shed reply for a PUT.

    Byte-for-byte, same request id, captured off the wire — the strongest
    form of the no-leak claim for the load-shedding path.
    """
    proxy = make_proxy()
    with serving(max_in_flight=1, response_delay_s=1.0) as server:
        proxy.initial_records({"k": bytes(16)})  # register the key
        get_request, _ = proxy.prepare(Request.read("k"))
        put_request, _ = proxy.prepare(Request.write("k", b"\x07" * 16))

        blocker = occupy_window(server)
        try:
            raw_replies = []
            for payload in (get_request.to_bytes(), put_request.to_bytes()):
                sock = socket.create_connection(server.address, timeout=30)
                try:
                    framing.send_frame(sock, framing.wrap_mux(42, payload))
                    raw_replies.append(framing.recv_frame(sock))
                finally:
                    sock.close()
        finally:
            blocker.close()

    shed_get, shed_put = raw_replies
    assert shed_get == shed_put, "shed GET and shed PUT must be byte-identical"
    assert shed_get == framing.wrap_mux(42, OVERLOAD_FRAME)
    # The whole reply is the mux header plus exactly one constant tag byte:
    # nothing derived from the request (which differs between GET and PUT
    # far beyond the op bit) survives into the shed reply.
    request_id, inner = framing.unwrap_mux(shed_get)
    assert request_id == 42
    assert inner == bytes([OVERLOAD_TAG])
    assert len(inner) == 1


def test_shed_path_ledger_rows_identical_for_get_and_put():
    """The wire ledger of a shed GET equals the wire ledger of a shed PUT.

    GET and PUT requests are already size-identical (the protocol's core
    claim); the shed reply is constant; so the per-frame byte counters
    must match exactly between a shed-GET run and a shed-PUT run.
    """
    proxy = make_proxy()
    proxy.initial_records({"k": bytes(16)})
    get_request, _ = proxy.prepare(Request.read("k"))
    put_request, _ = proxy.prepare(Request.write("k", b"\x07" * 16))

    snapshots = []
    for payload in (get_request.to_bytes(), put_request.to_bytes()):
        with serving(max_in_flight=1, response_delay_s=1.0) as server:
            blocker = occupy_window(server)
            try:
                obs.reset()
                obs.enable()
                try:
                    with PipelinedLblClient(server.address) as client:
                        with pytest.raises(OverloadError):
                            client.submit(payload).result(30)
                    snapshot = ledger.registry_wire_snapshot()
                finally:
                    obs.disable()
            finally:
                blocker.close()
        # Only the access/overload traffic matters (the blocker's PING
        # frames race the obs.enable() window nondeterministically).
        snapshots.append(
            {
                name: value
                for name, value in snapshot.items()
                if "access" in name or "overload" in name
            }
        )

    shed_get, shed_put = snapshots
    assert shed_get == shed_put, (shed_get, shed_put)
    assert shed_get.get("client.overload.received", 0) > 0
    assert shed_get.get("server.overload.sent", 0) > 0


# --------------------------------------------------------------------- #
# Misbehaving clients must not wedge the server
# --------------------------------------------------------------------- #


@pytest.fixture()
def server():
    with serving() as srv:
        yield srv


def assert_server_alive(server) -> None:
    """A well-behaved request on a fresh connection completes promptly."""
    with PipelinedLblClient(server.address) as probe:
        assert probe.submit(PING).result(30)[:1] == bytes([OBS_DUMP_TAG])


def test_mid_request_disconnect_does_not_leak_window_slots():
    """Clients that vanish with requests in flight free their slots."""
    with serving(max_in_flight=4, response_delay_s=0.3) as server:
        socks = [socket.create_connection(server.address, timeout=30) for _ in range(4)]
        for request_id, sock in enumerate(socks):  # fill the whole window
            framing.send_frame(sock, framing.wrap_mux(request_id, PING))
        wait_in_flight(server, 4)
        for sock in socks:
            sock.close()  # vanish mid-request: replies have nowhere to go

        # The slots must come back once the in-flight dispatches finish.
        deadline = time.time() + 10.0
        while server.in_flight > 0 and time.time() < deadline:
            time.sleep(0.01)
        assert server.in_flight == 0
        assert_server_alive(server)


def test_half_closed_client_is_cleaned_up(server):
    """SHUT_WR mid-stream: the server finishes what it read, then reaps."""
    sock = socket.create_connection(server.address, timeout=30)
    framing.send_frame(sock, framing.wrap_mux(7, PING))
    sock.shutdown(socket.SHUT_WR)  # half-close: we still read
    reply = framing.recv_frame(sock)
    request_id, inner = framing.unwrap_mux(reply)
    assert request_id == 7 and inner[:1] == bytes([OBS_DUMP_TAG])
    sock.close()
    deadline = time.time() + 5.0
    while server.num_connections > 0 and time.time() < deadline:
        time.sleep(0.01)
    assert server.num_connections == 0
    assert_server_alive(server)


def test_client_closing_mid_frame_is_harmless(server):
    """A connection dying between the length header and the body."""
    sock = socket.create_connection(server.address, timeout=30)
    sock.sendall(_LEN.pack(500) + b"partial")  # promise 500 B, send 7
    sock.close()
    assert_server_alive(server)


def test_stalled_reader_is_aborted_not_waited_on(monkeypatch):
    """A peer that stops reading cannot hold mux workers or its slots.

    A short send timeout: replies to the stalled connection jam its socket
    buffers, the write times out, the server drops that one connection —
    and serves others before and after.
    """
    monkeypatch.setattr(server_module, "SEND_TIMEOUT_S", 0.5)
    with serving() as server:
        stalled = socket.socket()
        stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1024)
        stalled.connect(server.address)
        stalled.settimeout(0.5)
        # Never read a byte.  Keep requesting until our own writes stall:
        # by then the server's reply writes have jammed and its read loop
        # sits behind them.
        frames = (framing.wrap_mux(i, PING) for i in range(500))
        burst = b"".join(_LEN.pack(len(frame)) + frame for frame in frames)
        deadline = time.time() + 30.0
        try:
            while time.time() < deadline:
                stalled.sendall(burst)
        except OSError:
            pass
        assert time.time() < deadline, "the server kept reading a stalled peer"

        # While the stalled connection is wedged, others are served.
        assert_server_alive(server)

        deadline = time.time() + 15.0
        while server.num_connections > 0 and time.time() < deadline:
            time.sleep(0.05)
        assert server.num_connections == 0, "stalled consumer must be aborted"
        assert server.in_flight == 0
        assert_server_alive(server)
        stalled.close()


def test_slow_reader_with_healthy_pace_is_served(server):
    """Slow-but-reading clients are backpressured, not punished."""
    sock = socket.create_connection(server.address, timeout=30)
    try:
        for request_id in range(5):
            framing.send_frame(sock, framing.wrap_mux(request_id, PING))
            time.sleep(0.05)  # slow, but reading every reply
            reply_id, inner = framing.unwrap_mux(framing.recv_frame(sock))
            assert reply_id == request_id
            assert inner[:1] == bytes([OBS_DUMP_TAG])
    finally:
        sock.close()


def test_many_faulty_clients_do_not_starve_good_ones(server):
    """A pile of connect-and-abandon clients alongside real traffic."""
    proxy = make_proxy()
    faulty = []
    for _ in range(50):
        sock = socket.create_connection(server.address, timeout=30)
        sock.sendall(_LEN.pack(100))  # promise a frame, never deliver
        faulty.append(sock)
    try:
        with PipelinedLblClient(server.address) as client:
            records = {f"good-{i}": bytes(16) for i in range(16)}
            pending = [
                client.submit(pack_load(ek, labels))
                for ek, labels in proxy.initial_records(records)
            ]
            assert all(f.result(30) == LOAD_ACK for f in pending)
    finally:
        for sock in faulty:
            sock.close()


def test_abrupt_reset_storm(server):
    """Connections RST-ing at random points must never take the server down."""
    for index in range(60):
        sock = socket.create_connection(server.address, timeout=30)
        try:
            frame = framing.wrap_mux(index, PING)
            blob = _LEN.pack(len(frame)) + frame
            cut = index % (len(blob) + 1)
            sock.sendall(blob[:cut])
            if cut == len(blob) and index % 3 == 0:
                framing.recv_exact(sock, _LEN.size)  # then vanish mid-reply
        finally:
            if index % 2 == 0:
                # Hard RST instead of FIN for half the storm.
                sock.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                )
            sock.close()
    assert_server_alive(server)
