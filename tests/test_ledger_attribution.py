"""Property test: interleaved concurrent requests never cross-attribute.

The ledger's attribution claim is per-request exactness under concurrency:
with many requests in flight — the pipelined window's worker/reader thread
hops, the batch path's per-request row activation — every row must equal
the cost model for *its own* key and epoch, and the rows must sum to the
transport's independently metered socket totals.  A single misplaced
contextvar would show up as one row over-counting and its neighbour
under-counting.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.analysis.costmodel import LblCostModel
from repro.core.sharded import ShardedLblDeployment
from repro.obs import ledger
from repro.transport.cluster import ShardCluster
from repro.types import Request, StoreConfig

pytestmark = pytest.mark.timeout(300)

CONFIG = StoreConfig(value_len=8, group_bits=2)
KEYS = tuple(f"h{i}" for i in range(6))

#: Each drawn element is one request: (key index, is_write).
WORKLOADS = st.lists(
    st.tuples(st.integers(min_value=0, max_value=len(KEYS) - 1), st.booleans()),
    min_size=2,
    max_size=12,
)

SETTINGS = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(scope="module")
def pipelined_deployment():
    with ShardCluster(2, in_process=True) as cluster:
        deployment = ShardedLblDeployment(CONFIG, cluster.addresses, pipeline_depth=4)
        deployment.initialize({key: b"\x01" * 8 for key in KEYS})
        yield deployment
        deployment.close()


@pytest.fixture(scope="module")
def batch_deployment():
    with ShardCluster(2, in_process=True) as cluster:
        deployment = ShardedLblDeployment(CONFIG, cluster.addresses)
        deployment.initialize({key: b"\x02" * 8 for key in KEYS})
        yield deployment
        deployment.close()


def _requests(workload):
    return [
        Request.read(KEYS[index])
        if not is_write
        else Request.write(KEYS[index], bytes([i % 250 + 1]) * 8)
        for i, (index, is_write) in enumerate(workload)
    ]


def _expected_epochs(deployment, requests):
    """The epoch each request will consume: accesses to one key serialize
    in issue order, so the i-th access of a key sees counter + i."""
    seen: dict[str, int] = {}
    epochs = []
    for request in requests:
        base = deployment.proxy.counter(request.key)
        epochs.append(base + seen.get(request.key, 0))
        seen[request.key] = seen.get(request.key, 0) + 1
    return epochs


def _assert_rows_match_model(rows, requests, epochs, wire_frame):
    # Requests to the same key serialize in order, so pair rows with
    # requests per key in issue order.
    by_key: dict[str, list] = {}
    for row in rows:
        by_key.setdefault(row["label"].split(":", 1)[1], []).append(row)
    position: dict[str, int] = {}
    for request, epoch in zip(requests, epochs):
        key = request.key
        row = by_key[key][position.get(key, 0)]
        position[key] = position.get(key, 0) + 1
        model = LblCostModel.from_config(CONFIG, key=key, counter=epoch)
        expected = model.ops(include_server=False)
        actual = {name: row["ops"].get(name, 0) for name in expected}
        assert actual == expected, (key, epoch, row)
        if wire_frame == "access":
            assert row["wire"] == {
                "access.sent": model.framed_request_bytes(traced=True),
                "access.received": model.framed_response_bytes(),
            }, (key, epoch)


def _assert_rows_sum_to_registry(rows, frame):
    totals = ledger.registry_wire_snapshot()
    for direction in ("sent", "received"):
        assert totals.get(f"client.{frame}.{direction}", 0) == sum(
            row["wire"].get(f"{frame}.{direction}", 0) for row in rows
        )


@SETTINGS
@given(workload=WORKLOADS)
def test_pipelined_rows_never_cross_attribute(pipelined_deployment, workload):
    deployment = pipelined_deployment
    obs.reset()
    obs.enable()
    try:
        requests = _requests(workload)
        epochs = _expected_epochs(deployment, requests)
        deployment.access_pipelined(requests, depth=4)
    finally:
        obs.disable()
    rows = [
        row.snapshot()
        for row in ledger.completed_rows()
        if row.label.startswith("pipelined:")
    ]
    assert len(rows) == len(requests)
    _assert_rows_match_model(rows, requests, epochs, wire_frame="access")
    _assert_rows_sum_to_registry(rows, frame="access")


@SETTINGS
@given(workload=WORKLOADS)
def test_batch_rows_never_cross_attribute(batch_deployment, workload):
    deployment = batch_deployment
    obs.reset()
    obs.enable()
    try:
        requests = _requests(workload)
        epochs = _expected_epochs(deployment, requests)
        deployment.access_batch(requests)
    finally:
        obs.disable()
    rows = [
        row.snapshot()
        for row in ledger.completed_rows()
        if row.label.startswith("batched:")
    ]
    assert len(rows) == len(requests)
    _assert_rows_match_model(rows, requests, epochs, wire_frame="batch")
    _assert_rows_sum_to_registry(rows, frame="batch")
