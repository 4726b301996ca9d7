"""Tests for the multiplexed wire format and the pipelined LBL client."""

import socket
import threading

import pytest

from repro.core.messages import LblAccessResponse
from repro.core.lbl.proxy import LblProxy
from repro.crypto.keys import KeyChain
from repro.errors import ProtocolError
from repro.transport import framing
from repro.transport.framing import (
    MAX_REQUEST_ID,
    is_mux,
    recv_frame,
    send_frame,
    unwrap_mux,
    wrap_mux,
)
from repro.transport.pipeline import MAX_IN_FLIGHT_PER_CONNECTION, PipelinedLblClient
from repro.transport.server import (
    ERROR_TAG,
    LOAD_ACK,
    OBS_DUMP_TAG,
    OBS_PULL_TAG,
    LblTcpServer,
    pack_load,
)
from repro.types import Request, StoreConfig

pytestmark = pytest.mark.timeout(30)

CONFIG = StoreConfig(value_len=16, group_bits=2)


@pytest.fixture()
def server():
    tcp = LblTcpServer()
    tcp.serve_in_background()
    yield tcp
    tcp.close()


def make_proxy() -> LblProxy:
    keychain = KeyChain(label_bits=CONFIG.label_bits)
    return LblProxy(CONFIG, keychain)


def load_keys(client: PipelinedLblClient, proxy: LblProxy, records: dict) -> None:
    futures = [
        client.submit(pack_load(encoded_key, labels))
        for encoded_key, labels in proxy.initial_records(records)
    ]
    for future in futures:
        assert future.result(10) == LOAD_ACK


# --------------------------------------------------------------------- #
# Mux framing
# --------------------------------------------------------------------- #

def test_mux_wrap_unwrap_roundtrip():
    wrapped = wrap_mux(42, b"payload")
    assert is_mux(wrapped)
    assert unwrap_mux(wrapped) == (42, b"payload")
    assert unwrap_mux(wrap_mux(MAX_REQUEST_ID, b"")) == (MAX_REQUEST_ID, b"")


def test_mux_rejects_out_of_range_ids():
    with pytest.raises(ProtocolError):
        wrap_mux(-1, b"x")
    with pytest.raises(ProtocolError):
        wrap_mux(MAX_REQUEST_ID + 1, b"x")


def test_unwrap_mux_rejects_short_or_untagged():
    with pytest.raises(ProtocolError):
        unwrap_mux(b"")
    with pytest.raises(ProtocolError):
        unwrap_mux(b"\x50\x00\x00")  # tag but truncated id
    with pytest.raises(ProtocolError):
        unwrap_mux(b"\x20" + bytes(12))  # not the mux tag
    assert not is_mux(b"")
    assert not is_mux(b"\x20abc")


# --------------------------------------------------------------------- #
# Pipelined client end to end
# --------------------------------------------------------------------- #

def test_pipelined_replies_pair_with_their_requests(server):
    """Every future resolves to *its* request's reply, not just any reply.

    A pairing bug would hand key A's labels to key B's finalize, which
    fails to decode — so checking the decoded values proves id matching.
    """
    proxy = make_proxy()
    with PipelinedLblClient(server.address) as client:
        records = {f"k{i}": bytes([i]) * 16 for i in range(12)}
        load_keys(client, proxy, records)
        submitted = []
        for key in records:
            request, _ops = proxy.prepare(Request.read(key))
            submitted.append((key, client.submit(request.to_bytes())))
        for key, future in submitted:
            response = LblAccessResponse.from_bytes(future.result(10))
            value, _ops = proxy.finalize(key, response)
            assert value == records[key]


def test_pipelined_many_in_flight(server):
    proxy = make_proxy()
    with PipelinedLblClient(server.address) as client:
        records = {f"k{i}": bytes(16) for i in range(32)}
        load_keys(client, proxy, records)
        futures = []
        for key in records:
            request, _ops = proxy.prepare(Request.read(key))
            futures.append(client.submit(request.to_bytes()))
        assert client.in_flight <= 32
        for future in futures:
            future.result(10)
        assert client.in_flight == 0


def test_pipelined_pool_distributes_connections(server):
    proxy = make_proxy()
    with PipelinedLblClient(server.address, pool_size=3) as client:
        assert client.num_connections == 3
        records = {f"k{i}": bytes(16) for i in range(6)}
        load_keys(client, proxy, records)
        for key in records:
            request, _ops = proxy.prepare(Request.read(key))
            client.submit(request.to_bytes()).result(10)


def test_server_error_fails_only_that_future(server):
    proxy = make_proxy()
    with PipelinedLblClient(server.address) as client:
        load_keys(client, proxy, {"good": bytes(16)})
        bad_request, _ = proxy.prepare(Request.read("good"))
        proxy.force_counter("good", 0)  # desync: same tables twice
        good_future = client.submit(bad_request.to_bytes())
        good_future.result(10)  # first use of the tables succeeds
        replayed, _ = proxy.prepare(Request.read("good"))
        failing = client.submit(replayed.to_bytes())
        with pytest.raises(ProtocolError, match="server error"):
            failing.result(10)
        # The connection survives an error frame, and the failed attempt
        # left proxy (counter 1) and server (epoch 1) in agreement.
        request, _ = proxy.prepare(Request.read("good"))
        assert client.submit(request.to_bytes()).result(10)


def test_oversize_submit_leaves_no_pending_future(server, monkeypatch):
    """A payload the framing refuses is not owed a reply: nothing stays
    registered, and the connection serves the next request."""
    proxy = make_proxy()
    with PipelinedLblClient(server.address) as client:
        load_keys(client, proxy, {"k": b"\x07" * 16})
        monkeypatch.setattr(framing, "MAX_FRAME_BYTES", 64)
        with pytest.raises(ProtocolError, match="exceeds the maximum"):
            client.submit(b"\x20" + bytes(100))
        assert client.in_flight == 0
        monkeypatch.undo()
        request, _ = proxy.prepare(Request.read("k"))
        client.request(request.to_bytes(), timeout=10)
        assert client.in_flight == 0


def test_unbounded_burst_stays_inside_the_per_connection_window(server):
    """A caller that pipelines everything (a bulk load does) is held at the
    client's own bound, so its burst is never shed by the server."""
    server.response_delay_s = 0.001  # replies slower than submissions
    with PipelinedLblClient(server.address) as client:
        futures = [client.submit(bytes([OBS_PULL_TAG])) for _ in range(400)]
        assert all(f.result(30)[:1] == bytes([OBS_DUMP_TAG]) for f in futures)
    assert server.overloads_sent == 0
    # The server hands a slot back just before writing the reply, so its
    # count never runs above the client's.
    assert server.peak_in_flight <= MAX_IN_FLIGHT_PER_CONNECTION


def test_submit_after_close_raises(server):
    client = PipelinedLblClient(server.address)
    client.close()
    with pytest.raises(ProtocolError):
        client.submit(b"\x00")


def test_request_convenience_is_lockstep(server):
    proxy = make_proxy()
    with PipelinedLblClient(server.address) as client:
        load_keys(client, proxy, {"k": b"\x07" * 16})
        request, _ = proxy.prepare(Request.read("k"))
        reply = client.request(request.to_bytes(), timeout=10)
        value, _ = proxy.finalize("k", LblAccessResponse.from_bytes(reply))
        assert value == b"\x07" * 16


def test_mux_and_plain_frames_share_a_connection(server):
    """A plain (non-mux) frame is refused with one error frame; a mux frame
    on the same connection is served after it."""
    proxy = make_proxy()
    with PipelinedLblClient(server.address) as client:
        load_keys(client, proxy, {"k": bytes(16)})
    sock = socket.create_connection(server.address, timeout=5)
    try:
        send_frame(sock, bytes([OBS_PULL_TAG]))  # plain, not mux-wrapped
        reply = recv_frame(sock)
        assert not is_mux(reply)
        assert reply[:1] == bytes([ERROR_TAG]) and b"mux" in reply
        send_frame(sock, wrap_mux(3, bytes([OBS_PULL_TAG])))
        request_id, inner = unwrap_mux(recv_frame(sock))
        assert request_id == 3 and inner[:1] == bytes([OBS_DUMP_TAG])
    finally:
        sock.close()


def test_plain_access_frame_leaves_the_stored_record_byte_identical(server):
    """A plain access frame is dispatched nowhere: the record it names keeps
    its bytes, so the proxy's counter stays in step and the key still reads."""
    proxy = make_proxy()
    with PipelinedLblClient(server.address) as client:
        load_keys(client, proxy, {"k": b"\x05" * 16})
        (encoded_key,) = list(server.lbl.store)
        before = server.lbl.store.get(encoded_key)
        request, _ = proxy.prepare(Request.write("k", b"\x09" * 16))
        sock = socket.create_connection(server.address, timeout=5)
        try:
            send_frame(sock, request.to_bytes())  # plain, not mux-wrapped
            reply = recv_frame(sock)
        finally:
            sock.close()
        assert reply[:1] == bytes([ERROR_TAG])
        assert server.lbl.store.get(encoded_key) == before
        proxy.force_counter("k", 0)  # the refused write never committed
        request, _ = proxy.prepare(Request.read("k"))
        reply = client.request(request.to_bytes(), timeout=10)
        value, _ = proxy.finalize("k", LblAccessResponse.from_bytes(reply))
        assert value == b"\x05" * 16


def test_pipelined_same_server_from_many_threads(server):
    proxy = make_proxy()
    lock = threading.Lock()
    errors: list[Exception] = []
    with PipelinedLblClient(server.address, pool_size=2) as client:
        records = {f"t{i}": bytes([i]) * 16 for i in range(8)}
        load_keys(client, proxy, records)

        def worker(key: str) -> None:
            try:
                with lock:  # proxy is single-threaded; the client is not
                    request, _ = proxy.prepare(Request.read(key))
                reply = client.submit(request.to_bytes()).result(10)
                with lock:
                    value, _ = proxy.finalize(key, LblAccessResponse.from_bytes(reply))
                assert value == records[key]
            except Exception as exc:  # noqa: BLE001 - collected for assertion
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(key,)) for key in records
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    assert not errors
