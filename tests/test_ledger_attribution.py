"""Property test: concurrent requests cost exactly what the model says.

Each access's own account is its transcript; the ledger keeps the process
totals.  With many requests in flight — the pipelined window's worker and
reader thread hops, a batch frame per shard — the registry's client wire
totals and its op totals must equal the sum of every request's
:class:`LblCostModel`, at *its own* key and epoch, and each pipelined
transcript must carry its own request's bytes.  A lost, doubled or invented
byte or primitive call shows up as a mismatch.
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


def _models(deployment, requests):
    """Each request's model at the epoch it will consume: accesses to one
    key serialize in issue order, so the i-th access of a key sees
    counter + i."""
    seen: dict[str, int] = {}
    models = []
    for request in requests:
        epoch = deployment.proxy.counter(request.key) + seen.get(request.key, 0)
        seen[request.key] = seen.get(request.key, 0) + 1
        models.append(LblCostModel.from_config(CONFIG, key=request.key, counter=epoch))
    return models


def _assert_ops_match_models(models):
    """The shards run in this process, so the registry holds both sides'
    primitive calls: the sum of every request's full model."""
    expected: dict[str, int] = {}
    for model in models:
        for name, count in model.ops(include_server=True).items():
            expected[name] = expected.get(name, 0) + count
    totals = ledger.registry_ops_snapshot()
    assert {name: totals.get(name, 0) for name in expected} == expected


@SETTINGS
@given(workload=WORKLOADS)
def test_pipelined_rows_never_cross_attribute(pipelined_deployment, workload):
    deployment = pipelined_deployment
    obs.reset()
    obs.enable()
    try:
        requests = _requests(workload)
        models = _models(deployment, requests)
        transcripts = deployment.access_pipelined(requests, depth=4)
    finally:
        obs.disable()
    for transcript, model in zip(transcripts, models):
        assert (transcript.request_bytes, transcript.response_bytes) == (
            model.request_bytes,
            model.response_bytes,
        )
    totals = ledger.registry_wire_snapshot()
    assert totals.get("client.access.sent", 0) == sum(
        model.framed_request_bytes(traced=True) for model in models
    )
    assert totals.get("client.access.received", 0) == sum(
        model.framed_response_bytes() for model in models
    )
    _assert_ops_match_models(models)


@SETTINGS
@given(workload=WORKLOADS)
def test_batch_rows_never_cross_attribute(batch_deployment, workload):
    deployment = batch_deployment
    obs.reset()
    obs.enable()
    try:
        requests = _requests(workload)
        models = _models(deployment, requests)
        deployment.access_batch(requests)
    finally:
        obs.disable()
    per_shard: dict[int, int] = {}
    for request in requests:
        shard = deployment.shard_of(request.key)
        per_shard[shard] = per_shard.get(shard, 0) + 1
    model = models[0]  # frame sizes depend on the configuration alone
    totals = ledger.registry_wire_snapshot()
    assert totals.get("client.batch.sent", 0) == sum(
        model.batch_request_bytes(n, traced=True) for n in per_shard.values()
    )
    assert totals.get("client.batch.received", 0) == sum(
        model.batch_response_bytes(n) for n in per_shard.values()
    )
    _assert_ops_match_models(models)
