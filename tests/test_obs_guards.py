"""The disabled-path guard budget is counted, not asserted.

``benchmarks/test_obs_overhead.py`` charges ``GUARDS_PER_ACCESS`` reads of
``repro.obs._state.enabled`` to every access.  This test counts the reads
with capture off — the module's class is swapped for one whose ``enabled``
is a counting property — over each access path at the paper point, both
sides of the wire together, and requires the constant to cover the largest
count.
"""

import ast
import math
import pathlib
import random
import time
import types

import pytest

from repro.core.sharded import LblOrtoa, ShardedLblDeployment
from repro.obs import _state
from repro.transport.cluster import ShardCluster
from repro.types import Request, StoreConfig

pytestmark = pytest.mark.timeout(120)

OVERHEAD_BENCHMARK = (
    pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "test_obs_overhead.py"
)

#: Paper §6 operating point, as in the overhead benchmark.
POINT = {"value_len": 160, "group_bits": 2, "point_and_permute": True}

#: Accesses per measured run; ``access_batch`` sends them as one batch.
ROUNDS = 16


def _guards_per_access_constant() -> int:
    tree = ast.parse(OVERHEAD_BENCHMARK.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "GUARDS_PER_ACCESS"
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("GUARDS_PER_ACCESS not found")


class _CountingState(types.ModuleType):
    reads: list = []  # append is atomic: server and reader threads read too

    @property
    def enabled(self) -> bool:
        _CountingState.reads.append(None)
        return False


def _settled_reads() -> int:
    """The read count once reader and server threads have gone quiet."""
    last = len(_CountingState.reads)
    while True:
        time.sleep(0.05)
        now = len(_CountingState.reads)
        if now == last:
            return now
        last = now


def _guards(run) -> int:
    """Reads of the flag per access over one ``run`` of ``ROUNDS`` accesses."""
    run()  # warm: label cache, connection pool, worker threads
    _state.__class__ = _CountingState
    try:
        start = _settled_reads()
        run()
        return math.ceil((_settled_reads() - start) / ROUNDS)
    finally:
        _state.__class__ = types.ModuleType


def _paths(deployment: ShardedLblDeployment) -> dict:
    keys = [f"g-{i}" for i in range(ROUNDS)]
    deployment.initialize({key: b"v" for key in keys})

    def lockstep() -> None:
        for key in keys:
            deployment.access(Request.read(key))

    return {
        "access": lockstep,
        "access_pipelined": lambda: deployment.access_pipelined(
            [Request.read(key) for key in keys]
        ),
        "access_batch": lambda: deployment.access_batch(
            [Request.read(key) for key in keys]
        ),
    }


@pytest.mark.parametrize("cache", [None, -1], ids=["no-cache", "auto-cache"])
def test_guards_per_access_covers_every_counted_path(cache):
    assert not _state.enabled
    config = StoreConfig(**POINT, label_cache_entries=cache)
    counts = {}
    in_process = LblOrtoa(config, rng=random.Random(0))
    try:
        for name, run in _paths(in_process).items():
            counts[f"in-process {name}"] = _guards(run)
    finally:
        in_process.close()
    with ShardCluster(1, in_process=True) as cluster:
        deployment = ShardedLblDeployment(
            config, cluster.addresses, rng=random.Random(0)
        )
        try:
            for name, run in _paths(deployment).items():
                counts[f"tcp {name}"] = _guards(run)
        finally:
            deployment.close()
    assert all(count > 0 for count in counts.values()), counts
    assert _guards_per_access_constant() >= max(counts.values()), counts
