"""Concurrency stress: overlapping keys from many threads on one deployment.

Barrier-synchronised rounds create real contention on shared keys while
keeping the set of acceptable observations small enough to check:

* in round ``r`` exactly one thread writes each key while every other
  thread reads it, so a read may legitimately observe the round ``r-1``
  value or the round ``r`` value — anything else is a lost update or a
  torn epoch;
* the barrier guarantees round ``r-1`` writes finished before round ``r``
  starts, so values older than one round can never appear;
* after all threads join, a sequential read-back must equal the oracle:
  the value written by each key's final-round writer.

The same scenario runs against the in-process deployment and against a
sharded TCP cluster, which drives the striped-lock worker-pool server
with genuinely concurrent overlapping-key traffic.  The deployment's own
same-key rule is what serializes the threads; nothing wraps it.
"""

import random
import threading

import pytest

from repro.core.lbl import LblOrtoa
from repro.core.sharded import ShardedLblDeployment
from repro.transport.cluster import ShardCluster
from repro.types import StoreConfig

pytestmark = pytest.mark.timeout(30)

CONFIG = StoreConfig(value_len=32, group_bits=2)

NUM_THREADS = 4
NUM_KEYS = 8
NUM_ROUNDS = 3
KEYS = [f"key{i}" for i in range(NUM_KEYS)]


def value_at(key: str, round_no: int) -> bytes:
    if round_no < 0:
        return CONFIG.pad(f"{key}:init".encode())
    return CONFIG.pad(f"{key}:round{round_no}".encode())


def writer_of(key_index: int, round_no: int) -> int:
    return (key_index + round_no) % NUM_THREADS


def run_stress(proxy: ShardedLblDeployment, seed: int) -> None:
    barrier = threading.Barrier(NUM_THREADS)
    errors: list[Exception] = []
    completed: list[int] = []

    def worker(thread_id: int) -> None:
        # Each thread visits the keys in its own order so lock stripes see
        # readers and the writer arriving interleaved, not in lockstep.
        order = list(range(NUM_KEYS))
        random.Random(seed + thread_id).shuffle(order)
        try:
            for round_no in range(NUM_ROUNDS):
                barrier.wait(timeout=20)
                for key_index in order:
                    key = KEYS[key_index]
                    if writer_of(key_index, round_no) == thread_id:
                        proxy.write(key, value_at(key, round_no))
                        completed.append(1)
                    else:
                        observed = proxy.read(key)
                        completed.append(1)
                        allowed = {
                            value_at(key, round_no - 1),
                            value_at(key, round_no),
                        }
                        if observed not in allowed:
                            raise AssertionError(
                                f"{key} round {round_no}: read {observed!r},"
                                f" expected one of the last two writes"
                            )
        except Exception as exc:  # noqa: BLE001 - re-raised in the main thread
            errors.append(exc)
            barrier.abort()

    threads = [
        threading.Thread(target=worker, args=(tid,)) for tid in range(NUM_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=25)
    assert not errors, errors
    assert not any(thread.is_alive() for thread in threads)

    # Every thread touched every key every round, exactly once.
    assert len(completed) == NUM_THREADS * NUM_KEYS * NUM_ROUNDS

    # Sequential oracle: the final-round writer's value must have stuck.
    for key_index, key in enumerate(KEYS):
        assert proxy.read(key) == value_at(key, NUM_ROUNDS - 1), key


def test_stress_in_process_deployment():
    ortoa = LblOrtoa(CONFIG)
    ortoa.initialize({key: value_at(key, -1) for key in KEYS})
    run_stress(ortoa, seed=11)


def test_stress_sharded_cluster_striped_server():
    """Overlapping keys across a 2-shard cluster hit the striped TCP server."""
    with ShardCluster(2, in_process=True) as cluster:
        deployment = ShardedLblDeployment(CONFIG, cluster.addresses)
        try:
            deployment.initialize({key: value_at(key, -1) for key in KEYS})
            run_stress(deployment, seed=17)
        finally:
            deployment.close()
