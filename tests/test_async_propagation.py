"""Obs control-frame coverage over the *async* transport.

``tests/test_propagation.py`` proves the 0x60/0x61 span-dump round trip
and the merged-forest property over the threaded transport; this file
mirrors it for :class:`AsyncLblServer` — the dump is assembled inline on
the event loop, so it deserves its own proof that (a) the control frame
answers over an event-loop server, (b) the bundle carries every obs
section (spans, metrics, recorder, exemplars), and (c) a process-backed
async cluster's dumps merge into one orphan-free forest.
"""

import json
import random

import pytest

from repro import obs
from repro.core.sharded import ShardedLblDeployment
from repro.crypto.keys import KeyChain
from repro.obs.propagate import (
    REMOTE_PARENT_ATTR,
    ancestor_chain,
    orphan_spans,
    spans_by_id,
)
from repro.transport.async_client import SyncAsyncLblClient
from repro.transport.async_server import AsyncLblServer
from repro.transport.cluster import ShardCluster
from repro.types import Request, StoreConfig

pytestmark = pytest.mark.timeout(180)

CONFIG = StoreConfig(value_len=16, group_bits=2, point_and_permute=True)
# Routing hashes the PRF-encoded key, so under a random master key the 8
# workload keys all land on one shard once in 128 runs.  This one splits
# them 4/4 over two shards.
MASTER_KEY = b"\x2a" * 32


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _run_traced_workload(deployment, num_keys=8):
    records = {f"p-{i}": f"v{i}".encode() for i in range(num_keys)}
    deployment.initialize(records)
    obs.enable()
    requests = [
        Request.read(key) if i % 2 else Request.write(key, bytes(16))
        for i, key in enumerate(records)
    ]
    deployment.access_pipelined(requests)
    return requests


def _assert_servers_descend_from_accesses(spans, expected):
    index = spans_by_id(spans)
    traced = [
        s
        for s in spans
        if s["name"] == "transport.server.request"
        and s["attributes"].get(REMOTE_PARENT_ATTR)
    ]
    assert len(traced) == expected, "one traced server span per access"
    for span in traced:
        chain = ancestor_chain(span, index)
        assert any(s["name"] == "sharded.access" for s in chain), (
            f"server span {span['span_id']} ({span['attributes']}) is not a "
            f"descendant of any client access span"
        )
    assert orphan_spans(spans) == []


def test_async_obs_pull_round_trip_carries_full_bundle():
    """0x60 over the async transport answers 0x61 with every obs section."""
    from repro.transport.server import OBS_DUMP_TAG, OBS_PULL_TAG

    obs.enable()
    with AsyncLblServer(point_and_permute=True) as server:
        with SyncAsyncLblClient(server.address) as client:
            reply = client.submit(bytes([OBS_PULL_TAG])).result(30)
    assert reply[:1] == bytes([OBS_DUMP_TAG])
    bundle = json.loads(reply[1:].decode("utf-8"))
    assert set(bundle) >= {"spans", "metrics", "recorder", "exemplars"}
    assert bundle["recorder"]["capacity"] > 0
    assert "exemplars" in bundle["exemplars"]


def test_async_inprocess_sharded_trace_links_server_to_client():
    with ShardCluster(
        2, point_and_permute=True, in_process=True, transport="async"
    ) as cluster:
        deployment = ShardedLblDeployment(
            CONFIG,
            cluster.addresses,
            rng=random.Random(0),
            pipeline_depth=4,
            transport="async",
        )
        try:
            requests = _run_traced_workload(deployment)
            spans = deployment.merged_spans()
        finally:
            deployment.close()
    _assert_servers_descend_from_accesses(spans, expected=len(requests))


def test_async_process_backed_trace_merges_into_one_forest():
    """The satellite's acceptance: dumps pulled over the async transport,
    ids remapped, merged forest has no orphans, both shard processes
    represented — mirroring the threaded-transport proof exactly."""
    with ShardCluster(
        2,
        point_and_permute=True,
        in_process=False,
        enable_obs=True,
        transport="async",
    ) as cluster:
        deployment = ShardedLblDeployment(
            CONFIG,
            cluster.addresses,
            rng=random.Random(0),
            pipeline_depth=4,
            transport="async",
            keychain=KeyChain(MASTER_KEY, label_bits=CONFIG.label_bits),
        )
        try:
            requests = _run_traced_workload(deployment)
            remote = deployment.collect_remote_obs()
            spans = deployment.merged_spans(remote)
            timeline = deployment.merged_recorder(remote)
        finally:
            deployment.close()
    assert len(remote) == 2
    _assert_servers_descend_from_accesses(spans, expected=len(requests))
    processes = {
        s["attributes"].get("process")
        for s in spans
        if s["name"] == "transport.server.request"
    }
    assert processes == {"shard-0", "shard-1"}
    # The same pull carries each shard's recorder ring; the merged
    # timeline is time-ordered and process-tagged.
    assert all("process" in event for event in timeline)
    times = [event["time"] for event in timeline]
    assert times == sorted(times)
