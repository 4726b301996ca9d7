"""Batch partial-failure semantics: per-request errors, counter rollback.

A batch is not transactional — the server applies each sub-request
independently and slots an :class:`~repro.core.messages.LblErrorEntry` at
any failing position.  The client contract under test:

* successes in the same batch are applied and their transcripts returned
  (riding on :class:`~repro.errors.BatchPartialFailure`);
* each failed key's proxy counter is rolled back to the epoch before its
  *first* failure, so once the underlying cause is repaired a retry
  decrypts correctly (the stale-epoch regression this file pins down);
* failure of one key never disturbs other keys' epochs.

Server side, a batch frame is a ready-made window: the dispatcher of
either transport hands it whole to the server's one access path
(``LblServer.process_many``), so the last section pins that a mixed batch
(repeated key, corrupt entry, unknown key) keeps its per-entry semantics
there, and that the audit's leaky negative control is still caught when
its accesses ride batch windows of several requests.
"""

import dataclasses

import pytest

from repro import obs
from repro.core.base import OpCounts
from repro.core.lbl import LblOrtoa
from repro.core.messages import (
    LblAccessRequest,
    LblAccessResponse,
    LblBatchRequest,
    LblBatchResponse,
    LblErrorEntry,
)
from repro.core.sharded import ShardedLblDeployment
from repro.errors import (
    BatchPartialFailure,
    KeyNotFoundError,
    OrtoaError,
    ProtocolError,
)
from repro.security.audit import LeakyLblOrtoa, record_links, shape_identity
from repro.transport import LblTcpServer, RemoteLblOrtoa
from repro.transport.cluster import ShardCluster
from repro.transport.server import LOAD_ACK, pack_load
from repro.types import Request, StoreConfig

pytestmark = pytest.mark.timeout(30)

CONFIG = StoreConfig(value_len=16, group_bits=2)


@pytest.fixture()
def server():
    tcp = LblTcpServer()
    tcp.serve_in_background()
    yield tcp
    tcp.close()


@pytest.fixture()
def client(server):
    remote = RemoteLblOrtoa(CONFIG, server.address)
    remote.initialize({key: key.encode().ljust(16, b"\x00") for key in ("k1", "k2", "k3")})
    yield remote
    remote.close()


def corrupt_key(server, client, key):
    """Garble the server's stored labels for one key; returns the snapshot."""
    encoded = client.keychain.encode_key(key)
    good = server.lbl.store.get(encoded)
    server.lbl.store.put(encoded, bytes(len(good)))
    return encoded, good


# --------------------------------------------------------------------- #
# Wire format
# --------------------------------------------------------------------- #

def test_error_entry_roundtrip():
    entry = LblErrorEntry("no table entry opened at group 3")
    assert LblErrorEntry.from_bytes(entry.to_bytes()) == entry


def test_batch_response_with_mixed_entries_roundtrips():
    response = LblBatchResponse(
        (
            LblAccessResponse(b"\x1b", 2, b"d" * 16),
            LblErrorEntry("stale label"),
            LblAccessResponse(b"\x01\x02", 1, b"e" * 16),
        )
    )
    decoded = LblBatchResponse.from_bytes(response.to_bytes())
    assert decoded == response
    assert decoded.error_indices == (1,)


# --------------------------------------------------------------------- #
# Remote client semantics
# --------------------------------------------------------------------- #

def test_refused_batch_frame_rolls_every_key_back(server, client):
    """The server answers a whole batch frame with an error frame: every
    request of it failed before commit, so every key is taken back and a
    retry of the same batch succeeds."""
    dispatch = server.dispatcher.dispatch

    def refuse_batch_once(payload):
        if payload[0] == LblBatchRequest.TAG:
            server.dispatcher.dispatch = dispatch
            raise ProtocolError("batch frame refused")
        return dispatch(payload)

    server.dispatcher.dispatch = refuse_batch_once
    requests = [Request.read("k1"), Request.write("k2", CONFIG.pad(b"two"))]
    with pytest.raises(BatchPartialFailure) as excinfo:
        client.access_batch(requests)
    assert set(excinfo.value.failures) == {0, 1}
    retried = client.access_batch(requests)
    assert [t.response.value for t in retried] == [
        CONFIG.pad(b"k1"), CONFIG.pad(b"two")
    ]
    assert client.read("k2") == CONFIG.pad(b"two")


def test_partial_failure_reports_only_failed_indices(server, client):
    corrupt_key(server, client, "k2")
    with pytest.raises(BatchPartialFailure) as excinfo:
        client.access_batch(
            [
                Request.read("k1"),
                Request.read("k2"),
                Request.write("k3", CONFIG.pad(b"three")),
            ]
        )
    failure = excinfo.value
    assert set(failure.failures) == {1}
    assert set(failure.transcripts) == {0, 2}
    assert failure.transcripts[0].response.value.startswith(b"k1")
    # The successes were really applied, and their epochs stayed in sync.
    assert client.read("k1").startswith(b"k1")
    assert client.read("k3") == CONFIG.pad(b"three")


def test_failed_key_retries_after_repair(server, client):
    """The stale-epoch regression: rollback makes a post-repair retry work.

    Without the counter rollback the proxy would prepare the retry against
    epoch N+2 while the repaired server still holds epoch N, and the retry
    would fail to decrypt forever.
    """
    encoded, snapshot = corrupt_key(server, client, "k2")
    with pytest.raises(BatchPartialFailure):
        client.access_batch([Request.read("k1"), Request.read("k2")])
    server.lbl.store.put(encoded, snapshot)  # operator repairs the shard
    assert client.read("k2").startswith(b"k2")


def test_repeated_failed_key_rolls_back_to_first_epoch(server, client):
    """Several failures of one key in a batch roll back to the FIRST epoch."""
    encoded, snapshot = corrupt_key(server, client, "k2")
    with pytest.raises(BatchPartialFailure) as excinfo:
        client.access_batch(
            [
                Request.read("k2"),
                Request.write("k2", CONFIG.pad(b"w")),
                Request.read("k1"),
            ]
        )
    assert set(excinfo.value.failures) == {0, 1}
    server.lbl.store.put(encoded, snapshot)
    # Rolled back to before the first failed epoch — not the second — so
    # the retry's tables are built against the server's actual labels.
    assert client.read("k2").startswith(b"k2")


def test_partial_failure_message_names_indices(server, client):
    corrupt_key(server, client, "k3")
    with pytest.raises(BatchPartialFailure, match=r"1 of 2 batch requests"):
        client.access_batch([Request.read("k1"), Request.read("k3")])


def test_fully_successful_batch_unaffected(client):
    transcripts = client.access_batch(
        [Request.read("k1"), Request.write("k2", CONFIG.pad(b"two"))]
    )
    assert len(transcripts) == 2


# --------------------------------------------------------------------- #
# Sharded deployment semantics
# --------------------------------------------------------------------- #

def test_sharded_batch_partial_failure_and_retry():
    with ShardCluster(2, in_process=True) as cluster:
        dep = ShardedLblDeployment(CONFIG, cluster.addresses)
        try:
            dep.initialize({f"k{i}": bytes([i]) * 16 for i in range(6)})
            victim = "k4"
            shard = dep.shard_of(victim)
            encoded = dep.encoded_key(victim)
            store = cluster.servers[shard].lbl.store
            snapshot = store.get(encoded)
            store.put(encoded, bytes(len(snapshot)))
            requests = [Request.read(f"k{i}") for i in range(6)]
            with pytest.raises(BatchPartialFailure) as excinfo:
                dep.access_batch(requests)
            assert set(excinfo.value.failures) == {4}
            for index, transcript in excinfo.value.transcripts.items():
                assert transcript.response.value == bytes([index]) * 16
            store.put(encoded, snapshot)  # repair
            assert dep.read(victim) == bytes([4]) * 16
            # Untouched keys kept their epochs through the whole episode.
            assert dep.read("k0") == bytes([0]) * 16
        finally:
            dep.close()


def test_batch_error_does_not_kill_connection(server, client):
    corrupt_key(server, client, "k1")
    with pytest.raises(BatchPartialFailure):
        client.access_batch([Request.read("k1"), Request.read("k2")])
    # The same socket still serves follow-up traffic.
    assert client.read("k2").startswith(b"k2")


def test_whole_batch_failing_still_partial_not_error_frame(server, client):
    """Even all-failed batches use per-entry errors, not one error frame."""
    corrupt_key(server, client, "k1")
    corrupt_key(server, client, "k2")
    with pytest.raises(BatchPartialFailure) as excinfo:
        client.access_batch([Request.read("k1"), Request.read("k2")])
    assert set(excinfo.value.failures) == {0, 1}
    assert excinfo.value.transcripts == {}
    with pytest.raises(ProtocolError):
        raise excinfo.value  # BatchPartialFailure IS a ProtocolError


# --------------------------------------------------------------------- #
# Batch frames ride the server's one fused access path
# --------------------------------------------------------------------- #

@pytest.fixture()
def captured():
    obs.reset()
    obs.enable()
    yield
    obs.disable()
    obs.reset()


def test_mixed_batch_frame_through_the_dispatcher(captured, monkeypatch):
    """Repeated key + corrupt entry + unknown key in one batch frame."""
    values = {f"k{i}": bytes([i]) * 16 for i in range(1, 6)}
    local = LblOrtoa(CONFIG)
    server = LblTcpServer()  # never started: no traffic
    try:
        dispatcher = server.dispatcher
        for encoded_key, labels in local.proxy.initial_records(values):
            assert dispatcher.dispatch(pack_load(encoded_key, labels)) == LOAD_ACK
        store = dispatcher.lbl.store
        prepare = local.proxy.prepare

        first = prepare(Request.read("k1"))[0]
        corrupt = prepare(Request.read("k2"))[0]
        # Flip the last byte — a check byte — of every group-0 row: the
        # designated one, whichever it is, no longer opens to zeros.
        group0 = tuple(ct[:-1] + bytes([ct[-1] ^ 0xFF]) for ct in corrupt.tables[0])
        corrupt = LblAccessRequest.from_tables(
            corrupt.encoded_key, (group0,) + corrupt.tables[1:], corrupt.nonce
        )
        again = prepare(Request.write("k1", CONFIG.pad(b"rewritten")))[0]
        unknown = dataclasses.replace(
            prepare(Request.read("k3"))[0], encoded_key=b"\xee" * 16
        )
        last = prepare(Request.read("k4"))[0]
        untouched = store.get(corrupt.encoded_key)

        windows: list = []
        real_process_many = dispatcher.lbl.process_many

        def spy(requests):
            results = real_process_many(requests)
            windows.append(results)
            return results

        monkeypatch.setattr(dispatcher.lbl, "process_many", spy)
        gets, puts = store.get_count, store.put_count
        frame = LblBatchRequest((first, corrupt, again, unknown, last)).to_bytes()
        decoded = LblBatchResponse.from_bytes(dispatcher.dispatch(frame))

        assert decoded.error_indices == (1, 3)
        assert decoded.responses[1] == LblErrorEntry(
            "designated entry failed to open at group 0"
        )
        assert decoded.responses[3] == LblErrorEntry(
            "lbl-server: key eeeeeeeeeeeeeeee… not found"
        )
        counters = obs.REGISTRY.snapshot()["counters"]
        assert counters.get("transport.batch_error_entries", 0) == 2
        # One get per access (the miss included), one put per success.
        assert store.get_count - gets == 5
        assert store.put_count - puts == 3
        # The dispatcher made one call; the repeated key was that call's
        # second window, served after the first one's commit.
        assert len(windows) == 2 and len(windows[0]) == 1
        ok = OpCounts(kv_ops=2, aead_dec=first.num_groups)
        assert [
            type(result) if isinstance(result, OrtoaError) else result[1]
            for result in windows[-1]
        ] == [ok, ProtocolError, ok, KeyNotFoundError, ok]
        # The failed key kept its labels; the repeated key chained in order
        # (its second access opened what its first one installed).
        assert store.get(corrupt.encoded_key) == untouched
        assert local.proxy.finalize("k1", decoded.responses[0], counter=1)[0] == values["k1"]
        assert local.proxy.finalize("k1", decoded.responses[2], counter=2)[0] == CONFIG.pad(
            b"rewritten"
        )
        assert local.proxy.finalize("k4", decoded.responses[4], counter=1)[0] == values["k4"]

        # A distinct-key batch is exactly one storage multi-get/multi-put.
        multi_gets, multi_puts = store.multi_get_count, store.multi_put_count
        distinct = LblBatchRequest(
            tuple(prepare(Request.read(key))[0] for key in ("k1", "k4", "k5"))
        )
        reply = LblBatchResponse.from_bytes(dispatcher.dispatch(distinct.to_bytes()))
        assert reply.error_indices == ()
        assert store.multi_get_count - multi_gets == 1
        assert store.multi_put_count - multi_puts == 1
    finally:
        server.close()


def test_leaky_control_is_flagged_through_a_fused_window():
    """The negative control leaks in its commit hook — which every window,
    not just a lone ``process``, must run through: here two batch frames
    of eight, one all reads and one all writes, so the leak knows the op."""
    leaky = LeakyLblOrtoa(CONFIG)
    (link,) = record_links(leaky)
    keys = [f"audit-{i}" for i in range(16)]
    leaky.initialize({key: bytes(16) for key in keys})
    reads = [Request.read(key) for key in keys[:8]]
    writes = [Request.write(key, bytes([7]) * 16) for key in keys[8:]]
    loaded = len(link.frames)
    for batch in (reads, writes):
        leaky.server.current_op = batch[0].op
        leaky.access_batch(batch)
    read_frame, write_frame = link.frames[loaded:]  # one frame per batch
    ops = [request.op for request in reads + writes]
    check = shape_identity(
        "access_batch", "storage", list(zip(ops, read_frame.storage + write_frame.storage))
    )
    assert check.passed is False
    assert check.detail == (
        "reads saw [(1024, 1024, False)], writes saw [(1024, 1024, True)]"
    )
