"""Tests for concurrent access and batching over LBL-ORTOA deployments."""

import random
import sys
import threading

import pytest

from repro import obs
from repro.core.lbl import LblOrtoa
from repro.core.sharded import ShardedLblDeployment
from repro.errors import ProtocolError
from repro.obs import ledger
from repro.transport import LblTcpServer
from repro.types import Request, StoreConfig

CONFIG = StoreConfig(value_len=8, group_bits=2, point_and_permute=True)


def make(pnp=True, num_keys=16):
    config = CONFIG if pnp else StoreConfig(value_len=8)
    protocol = LblOrtoa(config, rng=random.Random(1))
    protocol.initialize({f"k{i}": bytes([i]) * 8 for i in range(num_keys)})
    return protocol


# --------------------------------------------------------------------- #
# Batching
# --------------------------------------------------------------------- #

def test_batch_serves_multiple_keys_in_one_round():
    protocol = make()
    batch = protocol.access_batch(
        [Request.read("k0"), Request.read("k1"), Request.write("k2", bytes(8))],
    )
    assert len(batch) == 3
    assert batch[0].response.value == bytes([0]) * 8
    assert batch[1].response.value == bytes([1]) * 8


def test_batch_shares_add_up_to_the_frame():
    """Each transcript carries its share of the one frame each way: the
    shares add up to the frame, to within one byte per request."""
    protocol = make()
    with obs.capture():
        batch = protocol.access_batch([Request.read("k0"), Request.read("k1")])
        wire = ledger.registry_wire_snapshot()
    for direction, share in (
        ("sent", sum(t.request_bytes for t in batch)),
        ("received", sum(t.response_bytes for t in batch)),
    ):
        assert 0 <= wire[f"local.batch.{direction}"] - share < len(batch)


def test_batch_with_repeated_key_applies_in_order():
    protocol = make()
    batch = protocol.access_batch(
        [
            Request.write("k0", b"11111111"),
            Request.read("k0"),
            Request.write("k0", b"22222222"),
        ],
    )
    assert batch[1].response.value == b"11111111"
    assert protocol.read("k0") == b"22222222"


def test_batch_counters_advance_once_per_request():
    protocol = make()
    protocol.access_batch([Request.read("k0")] * 4)
    assert protocol.proxy.counter("k0") == 4


def test_empty_batch_rejected():
    with pytest.raises(ProtocolError):
        make().access_batch([])


def test_state_consistent_after_batches():
    protocol = make()
    protocol.access_batch([Request.write("k3", b"batched!"), Request.read("k4")])
    assert protocol.read("k3") == b"batched!"
    assert protocol.read("k4") == bytes([4]) * 8


# --------------------------------------------------------------------- #
# Concurrency
# --------------------------------------------------------------------- #

def run_threads(worker, count):
    threads = [threading.Thread(target=worker, args=(i,)) for i in range(count)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def test_concurrent_reads_same_key_stay_consistent():
    """Label rotation under a read storm must never desynchronize counters."""
    front = make()
    errors = []
    completed = []

    def reader(_):
        try:
            for _ in range(20):
                assert front.read("k0") == bytes([0]) * 8
                completed.append(1)
        except Exception as exc:  # noqa: BLE001 - collecting for the assert
            errors.append(exc)

    run_threads(reader, 8)
    assert not errors
    assert len(completed) == 160


def test_concurrent_disjoint_writers():
    """Each thread owns one key; all writes must land."""
    front = make()

    def writer(i):
        for round_no in range(10):
            front.write(f"k{i}", bytes([round_no]) * 8)

    run_threads(writer, 8)
    for i in range(8):
        assert front.read(f"k{i}") == bytes([9]) * 8


def test_concurrent_mixed_readers_and_writers():
    front = make()
    observed = []

    def worker(i):
        rng = random.Random(i)
        for _ in range(15):
            key = f"k{rng.randrange(4)}"
            if i % 2 == 0:
                front.write(key, bytes([i]) * 8)
            else:
                observed.append(front.read(key))

    run_threads(worker, 6)
    # Every observed value is one of the legal states (initial or a write).
    legal = {bytes([i]) * 8 for i in range(16)} | {bytes([i]) * 8 for i in range(6)}
    assert all(value in legal for value in observed)


def test_concurrent_shuffled_variant_serializes_safely():
    front = make(pnp=False)
    completed = []

    def worker(i):
        for _ in range(10):
            front.read(f"k{i % 4}")
            completed.append(1)

    run_threads(worker, 4)
    assert len(completed) == 40


# --------------------------------------------------------------------- #
# Overlapping pipelines: one same-key rule across caller threads
# --------------------------------------------------------------------- #

SHARED = [f"shared{i}" for i in range(4)]
ROUNDS = 12


def _own(thread: int) -> list[str]:
    return [f"own{thread}-{i}" for i in range(3)]


def _value(thread: int, key: str, round_no: int) -> bytes:
    return CONFIG.pad(f"{thread}{key[-1]}r{round_no}".encode())


@pytest.fixture(params=["local", "tcp"])
def deployment(request):
    if request.param == "local":
        yield LblOrtoa(CONFIG, rng=random.Random(3))
        return
    with LblTcpServer(point_and_permute=True) as server:
        server.serve_in_background()
        with ShardedLblDeployment(
            CONFIG, [server.address], rng=random.Random(3)
        ) as dep:
            yield dep


def test_overlapping_pipelines_finish_and_match_the_oracle(deployment):
    """Two threads pipeline over overlapping key sets (and a third batches
    the shared keys): nobody deadlocks, every reply matches a dict oracle.

    Each pipeline writes its own keys and then reads them back in the same
    call, so it also drains its own window for a key it holds; the shared
    keys are only read, so their oracle stays exact under any interleaving.
    """
    oracle = {key: CONFIG.pad(key.encode()) for key in SHARED}
    for thread in range(2):
        oracle.update({key: bytes(8) for key in _own(thread)})
    deployment.initialize(dict(oracle))
    errors: list[BaseException] = []

    def pipeliner(thread: int) -> None:
        rng = random.Random(thread)
        try:
            for round_no in range(ROUNDS):
                writes = [
                    Request.write(key, _value(thread, key, round_no))
                    for key in _own(thread)
                ]
                reads = [Request.read(key) for key in SHARED + _own(thread)]
                rng.shuffle(reads)
                requests = writes + reads
                replies = deployment.access_pipelined(requests, depth=4)
                for request, transcript in zip(requests, replies):
                    expected = (
                        _value(thread, request.key, round_no)
                        if request.key.startswith("own")
                        else oracle[request.key]
                    )
                    assert transcript.response.value == expected, request
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    def batcher(_thread: int) -> None:
        try:
            for _ in range(ROUNDS):
                replies = deployment.access_batch([Request.read(k) for k in SHARED])
                assert [t.response.value for t in replies] == [oracle[k] for k in SHARED]
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=pipeliner, args=(t,)) for t in range(2)]
    threads.append(threading.Thread(target=batcher, args=(2,)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the three callers finely
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads), "a caller deadlocked"
    assert not errors, errors
    for thread in range(2):
        for key in _own(thread):
            assert deployment.read(key) == _value(thread, key, ROUNDS - 1)
