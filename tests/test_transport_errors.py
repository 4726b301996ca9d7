"""Tests for the TCP server's error-frame path (tag 0x7F).

A malformed or unserviceable request must come back as a described error
frame — the client raises a :class:`~repro.errors.ProtocolError` carrying the
server's message — and the connection must remain usable afterwards, not die.
Raw-socket cases send mux frames, the only frames the server serves.
"""

import socket

import pytest

from repro import obs
from repro.core.messages import LblAccessRequest
from repro.errors import ProtocolError
from repro.transport import LblTcpServer, RemoteLblOrtoa
from repro.transport.framing import recv_frame, send_frame, unwrap_mux, wrap_mux
from repro.transport.server import ERROR_TAG, LOAD_TAG
from repro.types import Request, StoreConfig

CONFIG = StoreConfig(value_len=16, group_bits=2)


@pytest.fixture()
def server():
    tcp = LblTcpServer()
    tcp.serve_in_background()
    yield tcp
    tcp.close()


@pytest.fixture()
def raw_conn(server):
    sock = socket.create_connection(server.address, timeout=10.0)
    yield sock
    sock.close()


def _expect_error(sock, payload: bytes, request_id: int = 7) -> str:
    """Send one mux frame, assert the reply is an error frame under its id,
    return its text."""
    send_frame(sock, wrap_mux(request_id, payload))
    reply_id, reply = unwrap_mux(recv_frame(sock))
    assert reply_id == request_id
    assert reply[0] == ERROR_TAG
    return reply[1:].decode("utf-8")


def test_unknown_tag_yields_described_error_frame(raw_conn):
    message = _expect_error(raw_conn, bytes([0xEE]) + b"junk")
    assert "unknown frame tag" in message
    assert "0xee" in message


def test_empty_frame_yields_error_frame(raw_conn):
    assert "empty frame" in _expect_error(raw_conn, b"")


def test_truncated_load_record_yields_error_frame(raw_conn):
    # Claims a 100-byte key but carries only 3 bytes.
    payload = bytes([LOAD_TAG]) + (100).to_bytes(4, "big") + b"abc"
    assert "truncated" in _expect_error(raw_conn, payload)


def test_malformed_access_request_yields_error_frame(raw_conn):
    # Correct tag, garbage body: the request parser must fail loudly.
    payload = bytes([LblAccessRequest.TAG]) + b"\x00\x01garbage"
    message = _expect_error(raw_conn, payload)
    assert message  # described, not empty


def test_access_for_key_unknown_to_server_yields_error_frame(server):
    """A valid request for a key the *server* never loaded → error frame."""
    remote = RemoteLblOrtoa(CONFIG, server.address)
    try:
        # Register the key in the local proxy only: the load records are
        # built but deliberately never shipped, so the server has no state.
        remote.proxy.initial_records({"ghost": b"v"})
        with pytest.raises(ProtocolError, match="server error:"):
            remote.access(Request.read("ghost"))
    finally:
        remote.close()


def test_connection_survives_an_error_frame(server):
    """The same socket keeps serving valid requests after a bad one."""
    remote = RemoteLblOrtoa(CONFIG, server.address)
    try:
        remote.initialize({"k": b"hello"})
        with pytest.raises(ProtocolError):
            remote.clients[0].submit(bytes([0xEE])).result(10)
        # Same connection, next request succeeds.
        assert remote.read("k").rstrip(b"\x00") == b"hello"
    finally:
        remote.close()


def test_raw_connection_survives_interleaved_errors(raw_conn):
    for request_id in range(3):
        _expect_error(raw_conn, bytes([0xEE]), request_id)
    # Socket still open: a further frame still gets a (error) reply.
    assert "empty frame" in _expect_error(raw_conn, b"")


def test_error_counters_increment_under_capture(server):
    remote = RemoteLblOrtoa(CONFIG, server.address)
    try:
        remote.initialize({"k": b"v"})
        with obs.capture():
            with pytest.raises(ProtocolError):
                remote.clients[0].submit(bytes([0xEE])).result(10)
            counters = obs.REGISTRY.snapshot()["counters"]
        obs.reset()
        assert counters["transport.error_frames_sent"] >= 1
        assert counters["transport.error_frames_received"] >= 1
        assert counters["transport.frames_sent"] >= 1
        assert counters["transport.frames_received"] >= 1
    finally:
        remote.close()
