"""Trace-context propagation: wire format, span-dump merging, end to end.

The headline property: a sharded run with tracing enabled produces ONE
merged trace in which every server-side request span is a descendant of
the client access span that caused it — in-process (shared tracer) and
across processes (dumps pulled over the obs control frame and merged) —
and each access call leaves one tree, its prepare and its shard's span
inside it.
"""

from concurrent.futures import Future
from contextlib import ExitStack

import pytest

from repro import obs
from repro.core.sharded import LblOrtoa, ShardedLblDeployment
from repro.crypto.keys import KeyChain
from repro.errors import ProtocolError, TamperDetectedError
from repro.obs.propagate import (
    REMOTE_PARENT_ATTR,
    TRACE_CONTEXT_BYTES,
    TraceContext,
    ancestor_chain,
    merge_span_dumps,
    orphan_spans,
    remote_parent,
    spans_by_id,
    trace_roots,
)
from repro.obs.trace import TRACER
from repro.transport import framing
from repro.transport.cluster import ShardCluster
from repro.types import Request, StoreConfig

CONFIG = StoreConfig(value_len=16, group_bits=2)
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


# --------------------------------------------------------------------- #
# Wire format
# --------------------------------------------------------------------- #

def test_trace_context_encode_decode_roundtrip():
    ctx = TraceContext(trace_id=123456789, span_id=2**63 - 1)
    wire = ctx.encode()
    assert len(wire) == TRACE_CONTEXT_BYTES
    assert TraceContext.decode(wire) == ctx


def test_trace_context_rejects_bad_sizes_and_ranges():
    with pytest.raises(ProtocolError):
        TraceContext.decode(b"short")
    with pytest.raises(ProtocolError):
        TraceContext(trace_id=-1, span_id=0).encode()
    with pytest.raises(ProtocolError):
        TraceContext(trace_id=0, span_id=2**64).encode()


def test_traced_mux_frame_roundtrip():
    ctx = TraceContext(trace_id=5, span_id=6).encode()
    frame = framing.wrap_mux(42, b"payload", ctx)
    assert frame[0] == framing.MUX_TRACED_TAG
    request_id, inner, decoded = framing.unwrap_mux_traced(frame)
    assert (request_id, inner, decoded) == (42, b"payload", ctx)
    # The context-discarding unwrap accepts the same frame.
    assert framing.unwrap_mux(frame) == (42, b"payload")


def test_plain_mux_frame_has_no_context():
    frame = framing.wrap_mux(7, b"payload")
    assert frame[0] == framing.MUX_TAG
    assert framing.unwrap_mux_traced(frame) == (7, b"payload", None)


def test_wrap_mux_enforces_context_width():
    with pytest.raises(ProtocolError):
        framing.wrap_mux(1, b"x", b"too-short")


def test_truncated_traced_frame_rejected():
    frame = framing.wrap_mux(1, b"", TraceContext(1, 2).encode())
    with pytest.raises(ProtocolError):
        framing.unwrap_mux_traced(frame[:-1])


def test_remote_parent_stub_carries_the_context():
    stub = remote_parent(TraceContext(trace_id=10, span_id=11))
    assert (stub.trace_id, stub.span_id, stub.parent_id) == (10, 11, None)


# --------------------------------------------------------------------- #
# Merging span dumps
# --------------------------------------------------------------------- #

def _span(span_id, trace_id, parent_id=None, name="s", **attributes):
    return {
        "name": name,
        "span_id": span_id,
        "trace_id": trace_id,
        "parent_id": parent_id,
        "start": 0.0,
        "end": 1.0,
        "duration": 1.0,
        "attributes": attributes,
    }


def test_merge_remaps_colliding_remote_ids():
    local = [_span(1, 1, name="client")]
    # The remote process also numbered its spans from 1.
    remote = [
        _span(1, 1, parent_id=1, name="server", **{REMOTE_PARENT_ATTR: True}),
        _span(2, 1, parent_id=1, name="server.child"),
    ]
    merged = merge_span_dumps(local, [remote])
    by_name = {s["name"]: s for s in merged}
    assert by_name["client"]["span_id"] == 1  # local ids untouched
    server = by_name["server"]
    assert server["span_id"] == 2  # remapped above the local max
    assert server["parent_id"] == 1  # remote-flagged link kept verbatim
    assert server["trace_id"] == 1  # propagated trace id preserved
    assert server["attributes"]["process"] == "shard-0"
    child = by_name["server.child"]
    assert child["parent_id"] == server["span_id"]  # intra-dump link moved
    assert orphan_spans(merged) == []


def test_merge_keeps_unpropagated_remote_roots_separate():
    local = [_span(1, 1, name="client")]
    # A server-local root trace (e.g. a LOAD served before any client span
    # existed) whose raw trace id collides with the client's.
    remote = [_span(1, 1, name="server.load")]
    merged = merge_span_dumps(local, [remote])
    by_name = {s["name"]: s for s in merged}
    assert by_name["server.load"]["trace_id"] != by_name["client"]["trace_id"]
    assert len(trace_roots(merged)) == 2


def test_merge_tags_each_dump_with_its_process():
    merged = merge_span_dumps([], [[_span(1, 1)], [_span(1, 1)]])
    assert [s["attributes"]["process"] for s in merged] == ["shard-0", "shard-1"]


def test_ancestor_chain_stops_on_cycles():
    a = _span(1, 1, parent_id=2)
    b = _span(2, 1, parent_id=1)
    # a -> b -> a would loop forever; the walk stops when it revisits b.
    chain = ancestor_chain(a, spans_by_id([a, b]))
    assert [s["span_id"] for s in chain] == [2, 1]


# --------------------------------------------------------------------- #
# End to end: one merged trace for a sharded deployment
# --------------------------------------------------------------------- #

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
    """Every server span that served a *traced* frame (the access workload;
    LOAD frames during initialize carry no context and stay roots) must be
    a descendant of a client access span after the merge."""
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


def test_obs_pull_round_trip_carries_full_bundle():
    """0x60 over the wire answers 0x61 with every obs section."""
    obs.enable()
    with ShardCluster(1, in_process=True) as cluster:
        deployment = ShardedLblDeployment(CONFIG, cluster.addresses)
        try:
            (bundle,) = deployment.collect_remote_obs()
        finally:
            deployment.close()
    assert set(bundle) == {"spans", "metrics"}


def test_inprocess_sharded_trace_links_server_to_client():
    with ShardCluster(2, in_process=True) as cluster:
        deployment = ShardedLblDeployment(CONFIG, cluster.addresses, pipeline_depth=4)
        try:
            requests = _run_traced_workload(deployment)
            spans = deployment.merged_spans()
        finally:
            deployment.close()
    _assert_servers_descend_from_accesses(spans, expected=len(requests))
    access_spans = [s for s in spans if s["name"] == "sharded.access"]
    assert len(access_spans) == len(requests)


def test_process_backed_sharded_trace_merges_into_one_forest():
    """The acceptance criterion: dumps pulled over the wire, ids remapped,
    every server span still a descendant of its client access span."""
    obs.enable()  # before the boot: a process-backed shard captures from it
    with ShardCluster(2, in_process=False) as cluster:
        deployment = ShardedLblDeployment(
            CONFIG,
            cluster.addresses,
            pipeline_depth=4,
            keychain=KeyChain(MASTER_KEY, label_bits=CONFIG.label_bits),
        )
        try:
            requests = _run_traced_workload(deployment)
            remote = deployment.collect_remote_obs()
            spans = deployment.merged_spans(remote)
        finally:
            deployment.close()
    assert len(remote) == 2
    _assert_servers_descend_from_accesses(spans, expected=len(requests))
    processes = {
        s["attributes"].get("process")
        for s in spans
        if s["name"] == "transport.server.request"
    }
    assert processes == {"shard-0", "shard-1"}  # spans from both processes


@pytest.mark.parametrize("path", ["access", "access_pipelined", "access_batch"])
@pytest.mark.parametrize("link", ["tcp", "local"])
def test_each_call_leaves_one_tree(link, path):
    """Over a thread-backed TCP shard and over :class:`LblOrtoa`'s local
    link, every prepare and every access or batch frame's server span sits
    under its call's root: one ``sharded.access`` root per request, one
    ``sharded.batch`` root per batch, and no other root."""
    records = {f"t-{i}": f"v{i}".encode() for i in range(4)}
    requests = [
        Request.read(key) if i % 2 else Request.write(key, bytes(16))
        for i, key in enumerate(records)
    ]
    with ExitStack() as stack:
        if link == "tcp":
            cluster = stack.enter_context(ShardCluster(1))
            deployment = ShardedLblDeployment(CONFIG, cluster.addresses)
        else:
            deployment = LblOrtoa(CONFIG)
        stack.callback(deployment.close)
        deployment.initialize(records)
        obs.enable()
        if path == "access":
            for request in requests:
                deployment.access(request)
        else:
            getattr(deployment, path)(requests)
        obs.disable()
    spans = TRACER.export()
    root = "sharded.batch" if path == "access_batch" else "sharded.access"
    frames = 1 if path == "access_batch" else len(requests)
    assert [span["name"] for span in trace_roots(spans)] == [root] * frames
    index = spans_by_id(spans)
    for name, count in (
        ("lbl.proxy.prepare", len(requests)),
        ("transport.server.request", frames),
    ):
        layer = [span for span in spans if span["name"] == name]
        assert len(layer) == count, name
        for span in layer:
            assert ancestor_chain(span, index)[-1]["name"] == root, span


def test_an_access_that_fails_finalize_still_closes_its_tree():
    """A reply that fails its integrity check ends the access's span too, so
    the prepare and server spans under it are not left orphaned."""
    deployment = LblOrtoa(CONFIG)
    deployment.initialize({"k": b"v"})
    link = deployment.clients[0]

    class _FlipLastReplyBit:
        def submit(self, payload, trace_context=None):
            reply = link.submit(payload, trace_context).result()
            future: Future = Future()
            future.set_result(reply[:-1] + bytes([reply[-1] ^ 1]))
            return future

        def close(self):
            link.close()

    deployment.clients[0] = _FlipLastReplyBit()
    obs.enable()
    try:
        with pytest.raises(TamperDetectedError):
            deployment.access(Request.read("k"))
    finally:
        obs.disable()
        deployment.close()
    spans = TRACER.export()
    assert [span["name"] for span in trace_roots(spans)] == ["sharded.access"]
    assert len(spans) == 3 and orphan_spans(spans) == []
