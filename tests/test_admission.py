"""The server's bounds: the in-flight window, admission control, graceful drain.

* The in-flight window is a *bound*, not a suggestion: no more than
  ``max_in_flight`` connections serve a request at once, no matter how
  many are thrown at the server, and a frame read while it is full is shed
  with OVERLOAD — never queued.  A connection serves its own frames one at
  a time, so the window is held from other connections.
* ``close()`` drains gracefully: admitted requests finish, later ones are
  shed, and every admitted request is served before the listener closes.
"""

import socket
import sys
import threading
import time
from contextlib import contextmanager

import pytest

from repro.errors import ConfigurationError, OverloadError
from repro.transport import framing
from repro.transport.pipeline import PipelinedLblClient
from repro.transport.server import (
    OBS_DUMP_TAG,
    OBS_PULL_TAG,
    OVERLOAD_FRAME,
    LblTcpServer,
)

pytestmark = pytest.mark.timeout(120)

#: Idempotent control frame: repeatable at will (a LOAD of the same key
#: would be rejected as a duplicate), dispatched through the same mux
#: admission path as accesses, with a small constant-ish reply.
PING = bytes([OBS_PULL_TAG])


def is_pong(reply: bytes) -> bool:
    return reply[:1] == bytes([OBS_DUMP_TAG])


@contextmanager
def serving(**kwargs):
    """A started :class:`LblTcpServer`, drained and closed on exit."""
    server = LblTcpServer(**kwargs)
    server.serve_in_background()
    try:
        yield server
    finally:
        server.close()


@contextmanager
def clients(address, count: int):
    """``count`` clients, one connection each, closed on exit."""
    opened = [PipelinedLblClient(address) for _ in range(count)]
    try:
        yield opened
    finally:
        for client in opened:
            client.close()


def wait_idle(server) -> None:
    """Wait until no connection holds a window slot."""
    deadline = time.time() + 5.0
    while server.in_flight and time.time() < deadline:
        time.sleep(0.005)
    assert server.in_flight == 0


def test_config_validation():
    with pytest.raises(ConfigurationError):
        LblTcpServer(max_in_flight=0)
    with pytest.raises(ConfigurationError):
        LblTcpServer(response_delay_s=-1)


def test_close_without_start_is_safe():
    LblTcpServer().close()


def test_sync_client_rejects_dead_server():
    server = LblTcpServer()
    address = server.address
    server.close()
    with pytest.raises(OSError):
        PipelinedLblClient(address, timeout=2.0)


# --------------------------------------------------------------------- #
# Bounded in-flight windows + admission control
# --------------------------------------------------------------------- #


def wait_in_flight(server, count: int) -> None:
    """Wait until ``count`` connections hold window slots: each connection
    has its own thread, so a frame sent is not yet a frame admitted."""
    deadline = time.time() + 5.0
    while server.in_flight < count and time.time() < deadline:
        time.sleep(0.005)
    assert server.in_flight == count


def test_global_in_flight_window_enforced():
    """More submissions than the window: excess shed, bound never exceeded."""
    with serving(max_in_flight=4, response_delay_s=0.5) as server:
        with clients(server.address, 4) as holders:
            with clients(server.address, 12) as others:
                held = [holder.submit(PING) for holder in holders]
                wait_in_flight(server, 4)
                futures = held + [other.submit(PING) for other in others]
                outcomes = {"served": 0, "shed": 0}
                for future in futures:
                    try:
                        assert is_pong(future.result(30))
                        outcomes["served"] += 1
                    except OverloadError:
                        outcomes["shed"] += 1
        # The delay holds the first admissions in their window slots while
        # the rest arrive, so the excess must have been shed, not queued.
        assert outcomes == {"served": 4, "shed": 12}, outcomes
        assert server.peak_in_flight <= 4
        assert server.overloads_sent == outcomes["shed"]


def test_per_connection_window_isolates_greedy_client():
    """One connection's burst cannot eat the whole global window: its
    frames are served one at a time, so it holds one slot, and another
    connection is served beside it."""
    with serving(max_in_flight=2, response_delay_s=0.05) as server:
        with PipelinedLblClient(server.address) as greedy:
            with PipelinedLblClient(server.address) as polite:
                greedy_futures = [greedy.submit(PING) for _ in range(10)]
                wait_in_flight(server, 1)  # the burst reached the server first
                polite_future = polite.submit(PING)
                assert is_pong(polite_future.result(30))
                # The burst waited in TCP's buffers, not a queue: all served.
                assert all(is_pong(future.result(30)) for future in greedy_futures)
    assert server.peak_in_flight <= 2
    assert server.overloads_sent == 0


def test_window_bound_holds_under_64_thread_flood():
    """Many more submitters than cores racing one small window: admission
    is check-then-act on shared counters, and a lost update would show as
    a peak over the bound, a slot never returned, or a shed uncounted."""
    outcomes: list[str] = []  # list.append is atomic

    def flood(address) -> None:
        with PipelinedLblClient(address) as client:
            for _ in range(20):
                try:
                    assert is_pong(client.request(PING))
                    outcomes.append("served")
                except OverloadError:
                    outcomes.append("shed")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with serving(max_in_flight=8) as server:
            threads = [
                threading.Thread(target=flood, args=(server.address,))
                for _ in range(64)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert len(outcomes) == 64 * 20  # every request answered
            assert outcomes.count("served") > 0
            assert server.peak_in_flight <= 8
            assert server.overloads_sent == outcomes.count("shed")
            wait_idle(server)
    finally:
        sys.setswitchinterval(interval)


# --------------------------------------------------------------------- #
# Graceful drain
# --------------------------------------------------------------------- #


def test_graceful_drain_finishes_in_flight_and_sheds_new():
    """close(): admitted requests complete; requests after drain get
    OVERLOAD; close() returns."""
    # The delay must comfortably outlast drain-start latency on a loaded
    # single-core machine: the late submit has to land while the admitted
    # requests are still holding the drain open.
    server = LblTcpServer(response_delay_s=1.0, max_in_flight=16)
    server.serve_in_background()
    holders = [PipelinedLblClient(server.address) for _ in range(3)]
    # Connected before the drain: the drain closes the listener at once.
    late_client = PipelinedLblClient(server.address)
    try:
        in_flight = [holder.submit(PING) for holder in holders]
        wait_in_flight(server, 3)
        deadline = time.time() + 5.0
        while server.num_connections < 4 and time.time() < deadline:
            time.sleep(0.005)
        assert server.num_connections == 4

        closer = threading.Thread(target=server.close)
        closer.start()
        while not server.draining and closer.is_alive():
            time.sleep(0.005)
        # Draining: existing connections stay open, but new work is shed.
        late = late_client.submit(PING)
        with pytest.raises(OverloadError):
            late.result(30)
        # The in-flight requests still complete with real replies.
        for future in in_flight:
            assert is_pong(future.result(30))
        closer.join(timeout=30)
        assert not closer.is_alive()
    finally:
        for holder in holders:
            holder.close()
        late_client.close()
        server.close()
    assert server.in_flight == 0


def test_drain_shed_is_overload_frame_not_error():
    """The drain path sheds with the same constant OVERLOAD frame as the
    window path — a drain must not leak anything either."""
    # Wide delay for the same reason as the drain test above: frame 6 must
    # arrive while frame 5 still holds the drain open.
    server = LblTcpServer(response_delay_s=1.0)
    server.serve_in_background()
    sock = socket.create_connection(server.address, timeout=10)
    try:
        framing.send_frame(sock, framing.wrap_mux(5, PING))  # occupy
        # Wait until frame 5 is actually admitted: if the drain starts
        # before the server accepts this connection, the listener closes
        # with the connection still in the accept queue and no reply can
        # ever arrive.
        deadline = time.time() + 5.0
        while server.in_flight < 1 and time.time() < deadline:
            time.sleep(0.005)
        assert server.in_flight == 1
        closer = threading.Thread(target=server.close)
        closer.start()
        while not server.draining and closer.is_alive():
            time.sleep(0.005)
        framing.send_frame(sock, framing.wrap_mux(6, PING))
        replies = {}
        for _ in range(2):
            request_id, inner = framing.unwrap_mux(framing.recv_frame(sock))
            replies[request_id] = inner
        assert is_pong(replies[5])  # admitted before drain: completed
        assert replies[6] == OVERLOAD_FRAME  # shed during drain
        closer.join(timeout=30)
    finally:
        sock.close()
        server.close()
