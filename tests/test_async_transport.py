"""The asyncio transport's scale contract: C1K, windows, graceful drain.

Three claims from ROADMAP item 1, each load-bearing for the
millions-of-users front door:

* One event loop really holds 1000+ concurrent connections and completes
  real GET/PUT accesses on all of them (the threaded server would need a
  thousand stacks for this).
* The in-flight windows are *bounds*, not suggestions: the server never
  holds more than ``max_in_flight`` admitted requests no matter how many
  are thrown at it, and excess is shed with OVERLOAD — never queued.
* ``close()`` drains gracefully: admitted requests finish, later ones are
  shed, and the loop thread actually exits.
"""

import asyncio
import random
import threading
import time

import pytest

from repro.core.lbl.proxy import LblProxy
from repro.core.messages import LblAccessResponse
from repro.crypto.keys import KeyChain
from repro.errors import ConfigurationError, OverloadError
from repro.transport import framing
from repro.transport.async_client import (
    AsyncPipelinedLblClient,
    SyncAsyncLblClient,
    make_pipelined_client,
)
from repro.transport.async_server import AsyncLblServer
from repro.transport.framing import _LEN
from repro.transport.server import (
    LOAD_ACK,
    OBS_DUMP_TAG,
    OBS_PULL_TAG,
    OVERLOAD_FRAME,
    pack_load,
)
from repro.types import Request, StoreConfig

pytestmark = pytest.mark.timeout(120)

CONFIG = StoreConfig(value_len=16, group_bits=2, point_and_permute=True)

#: Idempotent control frame: repeatable at will (a LOAD of the same key
#: would be rejected as a duplicate), dispatched through the same mux
#: admission path as accesses, with a small constant-ish reply.
PING = bytes([OBS_PULL_TAG])


def is_pong(reply: bytes) -> bool:
    return reply[:1] == bytes([OBS_DUMP_TAG])


def make_proxy(seed: int = 1) -> LblProxy:
    return LblProxy(
        CONFIG, KeyChain(label_bits=CONFIG.label_bits), rng=random.Random(seed)
    )


@pytest.fixture()
def server():
    with AsyncLblServer(point_and_permute=True) as srv:
        yield srv


def load_keys(client, proxy, records: dict, window: int = 64) -> None:
    """Load records with a bounded client-side window.

    An unbounded blast of loads would (correctly!) trip the server's
    admission control; a real loader respects the window.
    """
    pending = []
    for encoded_key, labels in proxy.initial_records(records):
        if len(pending) >= window:
            assert pending.pop(0).result(30) == LOAD_ACK
        pending.append(client.submit(pack_load(encoded_key, labels)))
    for future in pending:
        assert future.result(30) == LOAD_ACK


# --------------------------------------------------------------------- #
# Construction and lifecycle basics
# --------------------------------------------------------------------- #


def test_config_validation():
    with pytest.raises(ConfigurationError):
        AsyncLblServer(max_in_flight=0)
    with pytest.raises(ConfigurationError):
        AsyncLblServer(max_in_flight_per_conn=0)
    with pytest.raises(ConfigurationError):
        AsyncLblServer(response_delay_s=-1)
    with pytest.raises(ConfigurationError):
        AsyncLblServer(write_timeout_s=0)
    with pytest.raises(ConfigurationError):
        make_pipelined_client(("127.0.0.1", 1), transport="carrier-pigeon")


def test_address_requires_start():
    server = AsyncLblServer()
    with pytest.raises(ConfigurationError):
        _ = server.address
    server.start()
    try:
        host, _port = server.address
        assert host == "127.0.0.1"
    finally:
        server.close()


def test_close_is_idempotent_and_start_after_close_rejected():
    server = AsyncLblServer()
    server.start()
    server.close()
    server.close()  # second close is a no-op
    with pytest.raises(ConfigurationError):
        server.start()


def test_close_without_start_is_safe():
    AsyncLblServer().close()


def test_sync_client_rejects_dead_server():
    server = AsyncLblServer()
    server.start()
    address = server.address
    server.close()
    with pytest.raises(Exception):
        SyncAsyncLblClient(address, timeout=2.0)


# --------------------------------------------------------------------- #
# C1K: 1000 concurrent connections complete real GET/PUT accesses
# --------------------------------------------------------------------- #


def test_c1k_connections_complete_get_and_put(server):
    """1000 connections on one event loop, each completing a real access.

    Every connection carries its own key, half GETs and half PUTs, all in
    flight simultaneously; every reply must decode and finalize under the
    proxy, proving replies were paired with their own requests across a
    thousand interleaved connections.
    """
    num_conns = 1000
    proxy = make_proxy()
    keys = [f"c1k-{i}" for i in range(num_conns)]

    # Load via one pipelined client, then prepare all requests up front so
    # the storm measures the transport, not proxy-side crypto.
    with SyncAsyncLblClient(server.address, pool_size=4) as loader:
        load_keys(loader, proxy, {key: bytes(16) for key in keys})
    prepared = []
    rng = random.Random(9)
    for key in keys:
        if rng.random() < 0.5:
            request = Request.read(key)
        else:
            request = Request.write(key, bytes([rng.randrange(1, 255)]) * 16)
        lbl_request, _ops = proxy.prepare(request)
        prepared.append((key, lbl_request.to_bytes()))

    host, port = server.address

    async def one_conn(key: str, payload: bytes, barrier: asyncio.Barrier):
        reader, writer = await asyncio.open_connection(host, port)
        try:
            await barrier.wait()  # all 1000 sockets open before any sends
            wrapped = framing.wrap_mux(1, payload)
            writer.write(_LEN.pack(len(wrapped)) + wrapped)
            await writer.drain()
            header = await reader.readexactly(_LEN.size)
            (length,) = _LEN.unpack(header)
            reply = await reader.readexactly(length)
            _rid, inner = framing.unwrap_mux(reply)
            return key, inner
        finally:
            writer.close()

    async def storm():
        barrier = asyncio.Barrier(len(prepared))
        return await asyncio.gather(
            *(one_conn(key, payload, barrier) for key, payload in prepared)
        )

    replies = asyncio.run(storm())
    assert len(replies) == num_conns
    for key, inner in replies:
        response = LblAccessResponse.from_bytes(inner)
        proxy.finalize(key, response)  # raises if replies were mispaired
    assert server.in_flight == 0
    # The clients have closed; the server loop reaps their connections as it
    # reads each EOF, which 1,000 of them do not all reach at once.
    deadline = time.time() + 10.0
    while server.num_connections > 0 and time.time() < deadline:
        time.sleep(0.01)
    assert server.num_connections == 0


def test_async_client_multiplexes_many_in_flight(server):
    """The pure-async client keeps a deep window on few sockets."""
    proxy = make_proxy()
    records = {f"mux-{i}": bytes(16) for i in range(48)}

    async def run():
        async with AsyncPipelinedLblClient(server.address, pool_size=2) as client:
            loads = [
                client.submit(pack_load(ek, labels))
                for ek, labels in proxy.initial_records(records)
            ]
            assert all(r == LOAD_ACK for r in await asyncio.gather(*loads))
            futures = []
            for key in records:
                request, _ops = proxy.prepare(Request.read(key))
                futures.append(client.submit(request.to_bytes()))
            assert client.in_flight <= len(records)
            return await asyncio.gather(*futures)

    replies = asyncio.run(run())
    for key, reply in zip(records, replies):
        value, _ops = proxy.finalize(key, LblAccessResponse.from_bytes(reply))
        assert value == records[key]


# --------------------------------------------------------------------- #
# Bounded in-flight windows + admission control
# --------------------------------------------------------------------- #


def test_global_in_flight_window_enforced():
    """More submissions than the window: excess shed, bound never exceeded."""
    with AsyncLblServer(
        max_in_flight=4, max_in_flight_per_conn=64, response_delay_s=0.15
    ) as server:
        with SyncAsyncLblClient(server.address) as client:
            futures = [client.submit(PING) for _ in range(16)]
            outcomes = {"served": 0, "shed": 0}
            for future in futures:
                try:
                    assert is_pong(future.result(30))
                    outcomes["served"] += 1
                except OverloadError:
                    outcomes["shed"] += 1
        # The delay holds the first admissions in their window slots while
        # the rest arrive, so the excess must have been shed, not queued.
        assert outcomes["shed"] >= 8, outcomes
        assert outcomes["served"] >= 4, outcomes
        assert server.peak_in_flight <= 4
        assert server.overloads_sent == outcomes["shed"]


def test_per_connection_window_isolates_greedy_client():
    """One connection's burst cannot eat the whole global window."""
    with AsyncLblServer(
        max_in_flight=64, max_in_flight_per_conn=2, response_delay_s=0.15
    ) as server:
        with SyncAsyncLblClient(server.address, pool_size=1) as greedy:
            with SyncAsyncLblClient(server.address, pool_size=1) as polite:
                greedy_futures = [greedy.submit(PING) for _ in range(10)]
                time.sleep(0.02)  # let the burst reach the server first
                polite_future = polite.submit(PING)
                # The polite client's single request fits its own per-conn
                # window even while the greedy one is saturated.
                assert is_pong(polite_future.result(30))
                shed = 0
                for future in greedy_futures:
                    try:
                        future.result(30)
                    except OverloadError:
                        shed += 1
                assert shed >= 6  # 10 submitted, window of 2


# --------------------------------------------------------------------- #
# Graceful drain
# --------------------------------------------------------------------- #


def test_graceful_drain_finishes_in_flight_and_sheds_new():
    """close(): admitted requests complete; requests after drain get
    OVERLOAD; the loop thread exits."""
    # The delay must comfortably outlast drain-start latency on a loaded
    # single-core machine: the late submit has to land while the admitted
    # requests are still holding the drain open.
    server = AsyncLblServer(response_delay_s=1.0, max_in_flight=16)
    server.start()
    client = SyncAsyncLblClient(server.address)
    try:
        in_flight = [client.submit(PING) for _ in range(3)]
        deadline = time.time() + 5.0
        while server.in_flight < 3 and time.time() < deadline:
            time.sleep(0.005)
        assert server.in_flight == 3

        closer = threading.Thread(target=server.close)
        closer.start()
        while not server.draining and closer.is_alive():
            time.sleep(0.005)
        # Draining: existing connection stays open, but new work is shed.
        late = client.submit(PING)
        with pytest.raises(OverloadError):
            late.result(30)
        # The in-flight requests still complete with real replies.
        for future in in_flight:
            assert is_pong(future.result(30))
        closer.join(timeout=30)
        assert not closer.is_alive()
    finally:
        client.close()
        server.close()
    assert server.in_flight == 0


def test_drain_shed_is_overload_frame_not_error():
    """The drain path sheds with the same constant OVERLOAD frame as the
    window path — a drain must not leak anything either."""
    # Wide delay for the same reason as the drain test above: frame 6 must
    # arrive while frame 5 still holds the drain open.
    server = AsyncLblServer(response_delay_s=1.0)
    server.start()
    import socket as socket_mod

    sock = socket_mod.create_connection(server.address, timeout=10)
    try:
        framing.send_frame(sock, framing.wrap_mux(5, PING))  # occupy
        # Wait until frame 5 is actually admitted: if the drain starts
        # before the loop accepts this connection, the listener closes
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
