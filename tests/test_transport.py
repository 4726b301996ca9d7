"""Tests for LBL-ORTOA over real TCP sockets."""

import socket
import threading

import pytest

from repro.core.lbl.server import LblServer
from repro.errors import ProtocolError
from repro.transport import LblTcpServer, RemoteLblOrtoa
from repro.transport.framing import MAX_FRAME_BYTES, recv_frame, send_frame
from repro.transport.server import pack_load, unpack_load
from repro.types import Request, StoreConfig

CONFIG = StoreConfig(value_len=16, group_bits=2)


@pytest.fixture()
def server():
    tcp = LblTcpServer()
    tcp.serve_in_background()
    yield tcp
    tcp.close()


@pytest.fixture()
def client(server):
    remote = RemoteLblOrtoa(CONFIG, server.address)
    remote.initialize({"k1": b"value-one", "k2": b"value-two"})
    yield remote
    remote.close()


# --------------------------------------------------------------------- #
# Framing
# --------------------------------------------------------------------- #

def test_framing_roundtrip():
    a, b = socket.socketpair()
    try:
        send_frame(a, b"hello framing")
        assert recv_frame(b) == b"hello framing"
        send_frame(b, b"")
        assert recv_frame(a) == b""
    finally:
        a.close()
        b.close()


def test_framing_rejects_oversize():
    a, b = socket.socketpair()
    try:
        with pytest.raises(ProtocolError):
            send_frame(a, b"x" * (MAX_FRAME_BYTES + 1))
        # A peer announcing an absurd length is refused before allocation.
        a.sendall((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
        with pytest.raises(ProtocolError):
            recv_frame(b)
    finally:
        a.close()
        b.close()


def test_framing_detects_closed_connection():
    a, b = socket.socketpair()
    a.sendall(b"\x00\x00\x00\x10partial")
    a.close()
    with pytest.raises(ProtocolError):
        recv_frame(b)
    b.close()


def test_load_record_roundtrip():
    record = b"l" * 16 + b"m" * 16
    encoded_key, decoded = unpack_load(pack_load(b"ek-bytes", record))
    assert encoded_key == b"ek-bytes"
    assert decoded == record


# --------------------------------------------------------------------- #
# End-to-end over TCP
# --------------------------------------------------------------------- #

def test_read_write_over_tcp(client):
    assert client.read("k1") == CONFIG.pad(b"value-one")
    client.write("k2", b"updated!")
    assert client.read("k2") == CONFIG.pad(b"updated!")


def test_transcripts_report_real_wire_bytes(client):
    transcript = client.access(Request.read("k1"))
    assert transcript.num_rounds == 1
    # Same shape as the in-process protocol at this configuration.
    from repro.core.lbl import LblOrtoa

    local = LblOrtoa(CONFIG)
    local.initialize({"k1": bytes(16)})
    local_transcript = local.access(Request.read("k1"))
    assert transcript.request_bytes == local_transcript.request_bytes
    assert transcript.response_bytes == local_transcript.response_bytes


def test_read_and_write_identical_on_the_wire(client):
    t_read = client.access(Request.read("k1"))
    t_write = client.access(Request.write("k1", CONFIG.pad(b"w")))
    assert t_read.request_bytes == t_write.request_bytes
    assert t_read.response_bytes == t_write.response_bytes


def test_server_error_propagates_as_protocol_error(server, client):
    # Desynchronize: roll the server's labels back behind the proxy.
    encoded = client.keychain.encode_key("k1")
    stale = server.lbl.store.get(encoded)
    client.read("k1")
    server.lbl.store.put(encoded, stale)
    with pytest.raises(ProtocolError, match="server error"):
        client.read("k1")


def test_multiple_clients_share_one_server(server):
    clients = []
    for i in range(3):
        remote = RemoteLblOrtoa(CONFIG, server.address)
        remote.initialize({f"tenant{i}": bytes([i]) * 16})
        clients.append(remote)
    try:
        for i, remote in enumerate(clients):
            assert remote.read(f"tenant{i}") == bytes([i]) * 16
    finally:
        for remote in clients:
            remote.close()


def test_concurrent_clients_over_tcp(server):
    errors: list[Exception] = []

    def worker(worker_id: int) -> None:
        try:
            remote = RemoteLblOrtoa(CONFIG, server.address)
            remote.initialize({f"w{worker_id}-k": bytes(16)})
            for round_no in range(8):
                remote.write(f"w{worker_id}-k", bytes([round_no]) * 16)
                assert remote.read(f"w{worker_id}-k") == bytes([round_no]) * 16
            remote.close()
        except Exception as exc:  # noqa: BLE001 - collected for assertion
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors


def test_unknown_frame_tag_rejected(server):
    sock = socket.create_connection(server.address, timeout=5)
    try:
        send_frame(sock, b"\xeejunk")
        reply = recv_frame(sock)
        assert reply[0] == 0x7F  # error frame
    finally:
        sock.close()


def test_server_requires_load_before_access(server):
    remote = RemoteLblOrtoa(CONFIG, server.address)
    remote.proxy._counters["ghost"] = 0  # skip initialize on purpose
    try:
        with pytest.raises(ProtocolError, match="server error"):
            remote.read("ghost")
    finally:
        remote.close()


def test_direct_dispatch_matches_in_process_server():
    """The TCP dispatch layer adds nothing semantic over LblServer."""
    tcp = LblTcpServer()
    direct = LblServer()
    from repro.core.lbl import LblOrtoa

    config = StoreConfig(value_len=8)
    protocol = LblOrtoa(config)
    records = protocol.proxy.initial_records({"k": b"v"})
    for encoded_key, labels in records:
        tcp.dispatcher.dispatch(pack_load(encoded_key, labels))
        direct.load(encoded_key, labels)
    request, _ = protocol.proxy.prepare(Request.read("k"))
    from repro.core.messages import LblAccessResponse

    via_tcp = LblAccessResponse.from_bytes(tcp.dispatcher.dispatch(request.to_bytes()))
    tcp.server_close()
    # Both servers opened the same entry (deterministic: same labels).
    direct_response, _ = direct.process(request)
    assert via_tcp == direct_response


# --------------------------------------------------------------------- #
# Batched accesses over one physical round trip
# --------------------------------------------------------------------- #

def test_batch_over_tcp(client):
    transcripts = client.access_batch(
        [
            Request.read("k1"),
            Request.write("k2", CONFIG.pad(b"batched")),
            Request.read("k2"),
        ]
    )
    assert len(transcripts) == 3
    assert transcripts[0].response.value == CONFIG.pad(b"value-one")
    assert transcripts[2].response.value == CONFIG.pad(b"batched")
    assert client.read("k2") == CONFIG.pad(b"batched")


def test_batch_over_tcp_with_repeated_key(client):
    transcripts = client.access_batch(
        [
            Request.write("k1", CONFIG.pad(b"first")),
            Request.read("k1"),
            Request.write("k1", CONFIG.pad(b"second")),
        ]
    )
    assert transcripts[1].response.value == CONFIG.pad(b"first")
    assert client.read("k1") == CONFIG.pad(b"second")


def test_empty_batch_rejected_client_side(client):
    with pytest.raises(ProtocolError):
        client.access_batch([])


def test_batch_wire_messages_roundtrip():
    from repro.core.messages import (
        LblAccessRequest,
        LblAccessResponse,
        LblBatchRequest,
        LblBatchResponse,
    )

    batch = LblBatchRequest(
        (
            LblAccessRequest.from_tables(b"k1", ((b"a" * 17, b"b" * 17),), b"n" * 16),
            LblAccessRequest(b"k2", b"cdef" + bytes(32), 2, 1, b"n" * 16),
        )
    )
    assert LblBatchRequest.from_bytes(batch.to_bytes()) == batch
    resp = LblBatchResponse(
        (LblAccessResponse(b"\x1b", 2, b"d" * 16), LblAccessResponse(b"\x01\x02", 1, b"e" * 16))
    )
    assert LblBatchResponse.from_bytes(resp.to_bytes()) == resp
    with pytest.raises(ProtocolError):
        LblBatchRequest(()).to_bytes()
