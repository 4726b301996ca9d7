"""Fault injection: short reads, mid-frame disconnects, vanished peers.

The framing layer is exercised against a scripted socket (dribbling one
byte per ``recv``, truncating mid-frame), and the real server/client pair
against abrupt disconnects at every awkward moment: half a header, a full
request with the reply never read, and a server that dies with client
requests still in flight.
"""

import socket
import threading

import pytest

from repro.core.sharded import ShardedLblDeployment
from repro.errors import (
    BatchPartialFailure,
    OverloadError,
    ProtocolError,
    RefusedError,
)
from repro.transport import LblTcpServer, RemoteLblOrtoa
from repro.transport.framing import (
    MAX_FRAME_BYTES,
    recv_exact,
    recv_frame,
    send_frame,
    unwrap_mux,
    wrap_mux,
)
from repro.transport.pipeline import PipelinedLblClient
from repro.transport.server import ERROR_TAG, LOAD_ACK, pack_load
from repro.types import Request, StoreConfig
from tests.test_overload import occupy_window
from tests.test_admission import wait_idle

pytestmark = pytest.mark.timeout(30)

CONFIG = StoreConfig(value_len=16, group_bits=2)
#: The smallest record a point-and-permute server loads: one label, one slot.
RECORD = b"l" * 16


class ScriptedSocket:
    """A fake socket whose recv() dribbles out a pre-programmed byte stream."""

    def __init__(self, stream: bytes, chunk: int = 1):
        self._stream = stream
        self._chunk = chunk
        self._pos = 0

    def recv(self, count: int) -> bytes:
        take = min(count, self._chunk, len(self._stream) - self._pos)
        data = self._stream[self._pos:self._pos + take]
        self._pos += take
        return data


@pytest.fixture()
def server():
    tcp = LblTcpServer()
    tcp.serve_in_background()
    yield tcp
    tcp.close()


def assert_server_alive(server):
    """A fresh client can still complete a full access round trip."""
    client = RemoteLblOrtoa(CONFIG, server.address)
    try:
        client.initialize({"alive": b"\x05" * 16})
        assert client.read("alive") == b"\x05" * 16
    finally:
        client.close()


# --------------------------------------------------------------------- #
# Framing against scripted byte streams
# --------------------------------------------------------------------- #

def test_recv_exact_reassembles_one_byte_reads():
    sock = ScriptedSocket(b"abcdefgh", chunk=1)
    assert recv_exact(sock, 8) == b"abcdefgh"


def test_recv_exact_raises_on_mid_read_close():
    sock = ScriptedSocket(b"abc", chunk=1)
    with pytest.raises(ProtocolError, match="closed mid-frame"):
        recv_exact(sock, 8)


def test_recv_frame_reassembles_dribbled_frame():
    payload = b"\x20" + bytes(40)
    stream = len(payload).to_bytes(4, "big") + payload
    assert recv_frame(ScriptedSocket(stream, chunk=3)) == payload


def test_recv_frame_rejects_oversized_announcement():
    stream = (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
    with pytest.raises(ProtocolError, match="refusing"):
        recv_frame(ScriptedSocket(stream, chunk=4))


def test_recv_frame_truncated_payload_is_mid_frame_close():
    stream = (100).to_bytes(4, "big") + b"only-this"
    with pytest.raises(ProtocolError, match="closed mid-frame"):
        recv_frame(ScriptedSocket(stream, chunk=5))


# --------------------------------------------------------------------- #
# Server resilience to misbehaving clients
# --------------------------------------------------------------------- #

def test_server_survives_half_header_then_close(server):
    sock = socket.create_connection(server.address, timeout=5)
    sock.sendall(b"\x00\x00")  # two bytes of a four-byte length prefix
    sock.close()
    assert_server_alive(server)


def test_server_survives_client_vanishing_before_reply(server):
    """Client sends a pipelined request, then disappears without reading."""
    sock = socket.create_connection(server.address, timeout=5)
    keychain_key = b"\xaa" * 16
    send_frame(sock, wrap_mux(7, pack_load(keychain_key, RECORD)))
    sock.close()  # the worker's reply hits a dead socket
    assert_server_alive(server)


def test_server_survives_mid_frame_disconnect(server):
    sock = socket.create_connection(server.address, timeout=5)
    sock.sendall((500).to_bytes(4, "big") + b"partial payload only")
    sock.close()
    assert_server_alive(server)


def test_malformed_mux_frame_gets_plain_error_reply(server):
    """A mux tag with a truncated id has no id to mirror — plain error."""
    sock = socket.create_connection(server.address, timeout=5)
    try:
        send_frame(sock, b"\x50\x00")  # MUX_TAG but no full request id
        reply = recv_frame(sock)
        assert reply[0] == ERROR_TAG
        assert b"multiplexed" in reply[1:]
    finally:
        sock.close()


def test_unknown_tag_gets_error_frame_not_disconnect(server):
    sock = socket.create_connection(server.address, timeout=5)
    try:
        send_frame(sock, b"\x33garbage")
        reply = recv_frame(sock)
        assert reply[0] == ERROR_TAG
        # And the connection still works afterwards.
        send_frame(sock, wrap_mux(8, pack_load(b"\xbb" * 16, RECORD)))
        assert unwrap_mux(recv_frame(sock)) == (8, LOAD_ACK)
    finally:
        sock.close()


# --------------------------------------------------------------------- #
# Pipelined client against dying servers
# --------------------------------------------------------------------- #

@pytest.fixture()
def accepting_listener():
    """A bare listener that accepts one connection and hands it over."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    accepted: list[socket.socket] = []
    done = threading.Event()

    def accept_one():
        conn, _addr = listener.accept()
        accepted.append(conn)
        done.set()

    thread = threading.Thread(target=accept_one, daemon=True)
    thread.start()
    yield listener.getsockname(), accepted, done
    for conn in accepted:
        conn.close()
    listener.close()


def test_pending_futures_fail_on_disconnect(accepting_listener):
    address, accepted, done = accepting_listener
    client = PipelinedLblClient(address)
    try:
        future_a = client.submit(b"\x01")
        future_b = client.submit(b"\x02")
        assert client.in_flight == 2
        assert done.wait(5)
        accepted[0].close()  # server dies with both requests in flight
        with pytest.raises(ProtocolError, match="connection lost"):
            future_a.result(10)
        with pytest.raises(ProtocolError, match="connection lost"):
            future_b.result(10)
        assert client.in_flight == 0
        # The pool's only connection is dead; further submits must refuse
        # rather than silently queue onto a corpse.
        with pytest.raises(ProtocolError, match="closed"):
            client.submit(b"\x03")
    finally:
        client.close()


def test_close_fails_stragglers(accepting_listener):
    address, _accepted, done = accepting_listener
    client = PipelinedLblClient(address)
    future = client.submit(b"\x01")
    assert done.wait(5)
    client.close()
    with pytest.raises(ProtocolError):
        future.result(10)
    assert client.in_flight == 0


def test_pipelined_survives_server_error_burst(server):
    """A window full of failing requests fails each future, kills nothing."""
    with PipelinedLblClient(server.address) as client:
        futures = [client.submit(b"\x33nonsense") for _ in range(8)]
        for future in futures:
            with pytest.raises(ProtocolError, match="server error"):
                future.result(10)
        # The connection survived eight error frames.
        assert client.submit(pack_load(b"\xcc" * 16, RECORD)).result(10) == LOAD_ACK


def test_remote_client_reports_connection_refused():
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    address = listener.getsockname()
    listener.close()  # nobody listening here any more
    with pytest.raises(OSError):
        RemoteLblOrtoa(CONFIG, address)


def test_server_survives_abandoned_batch(server):
    """A client that sends a batch and vanishes must not wedge the server."""
    client = RemoteLblOrtoa(CONFIG, server.address)
    client.initialize({"a": bytes(16), "b": bytes(16)})
    # Build a real batch frame via a second client's proxy, then abandon it.
    sock = socket.create_connection(server.address, timeout=5)
    sock.sendall((1 << 20).to_bytes(4, "big"))  # promise 1 MiB, send nothing
    sock.close()
    assert client.read("a") == bytes(16)
    client.close()


# --------------------------------------------------------------------- #
# A refused access must leave its key usable
# --------------------------------------------------------------------- #

VALUES = {f"r{i}": bytes([i + 1]) * 16 for i in range(4)}


@pytest.fixture()
def sharded(server):
    deployment = ShardedLblDeployment(CONFIG, [server.address])
    deployment.initialize(VALUES)
    yield deployment
    deployment.close()


def test_shed_access_can_be_retried(server, sharded):
    """Sheds on a window of one — a lone access, then a whole sub-batch:
    each retry reads the right value."""
    wait_idle(server)  # initialize's last slot comes back after its reply
    server.max_in_flight = 1
    server.response_delay_s = 1.0
    blocker = occupy_window(server)  # one slow PING fills the window
    try:
        with pytest.raises(OverloadError):
            sharded.access(Request.read("r0"))
        with pytest.raises(BatchPartialFailure) as shed_batch:
            sharded.access_batch([Request.read("r1"), Request.read("r2")])
        assert set(shed_batch.value.failures) == {0, 1}
    finally:
        blocker.close()
    server.max_in_flight, server.response_delay_s = 1024, 0.0
    assert sharded.read("r0") == VALUES["r0"]
    sharded.write("r0", b"\x09" * 16)
    assert sharded.read("r0") == b"\x09" * 16
    batch = sharded.access_batch([Request.read("r1"), Request.read("r2")])
    assert [t.response.value for t in batch] == [VALUES["r1"], VALUES["r2"]]


def test_shed_in_the_middle_of_a_pipelined_window_can_be_retried(server, sharded):
    """Depth 3 on one connection, and a second connection takes the window
    of one just before the third frame: that frame is shed while its
    neighbours are served; only its key is rolled back."""
    wait_idle(server)
    server.max_in_flight = 1
    server.response_delay_s = 0.3
    link = sharded.clients[0]
    sent, blockers = [], []

    class Choreographed:
        """The deployment's link, with the window taken around the third frame."""

        def submit(self, payload, trace_context=None):
            if len(sent) == 2:  # r0 and r1 served, then the window is taken
                for future in sent:
                    assert future.exception(30) is None
                blockers.append(occupy_window(server))
            elif len(sent) == 3:  # r2 was shed; r3 goes out once the window is free
                assert isinstance(sent[2].exception(30), OverloadError)
                wait_idle(server)
            sent.append(link.submit(payload, trace_context))
            return sent[-1]

        def close(self):
            link.close()

    sharded.clients = [Choreographed()]
    requests = [Request.write(key, b"\x0a" * 16) for key in VALUES]
    try:
        with pytest.raises(OverloadError):
            sharded.access_pipelined(requests, depth=3)
    finally:
        for blocker in blockers:
            blocker.close()
    assert server.overloads_sent == 1
    sharded.clients = [link]
    server.max_in_flight = 1024
    server.response_delay_s = 0.0
    # r2 was shed; r3 went out before r2's reply was read, and was served.
    reads = sharded.access_pipelined([Request.read(key) for key in VALUES])
    assert [t.response.value for t in reads] == [
        b"\x0a" * 16, b"\x0a" * 16, VALUES["r2"], b"\x0a" * 16
    ]


@pytest.mark.parametrize("client_class", [ShardedLblDeployment, RemoteLblOrtoa])
def test_error_frame_refusal_can_be_retried(server, client_class, monkeypatch):
    """A request the server refuses with an error frame did not rotate its
    labels, so the proxy takes the counter back and the retry succeeds."""
    address = server.address if client_class is RemoteLblOrtoa else [server.address]
    client = client_class(CONFIG, address)
    try:
        client.initialize({"k": b"\x05" * 16})

        def refuse(_request):
            monkeypatch.undo()
            raise ProtocolError("injected refusal")

        monkeypatch.setattr(server.lbl, "process", refuse)
        with pytest.raises(RefusedError, match="injected refusal"):
            client.access(Request.read("k"))
        assert client.read("k") == b"\x05" * 16
    finally:
        client.close()
