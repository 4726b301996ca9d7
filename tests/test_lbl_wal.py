"""Crash-recovery tests for a deployment whose counters live in a WAL
(write-ahead log + one-epoch resync), in process and over TCP."""

import random
import threading

import pytest

from repro.core.lbl.wal import CounterWal
from repro.core.messages import LblAccessRequest
from repro.core.sharded import ShardedLblDeployment
from repro.crypto.keys import KeyChain
from repro.errors import ConfigurationError, KeyNotFoundError, ProtocolError
from repro.transport import LblTcpServer
from repro.transport.pipeline import LocalLink
from repro.types import Request, StoreConfig

CONFIG = StoreConfig(value_len=8, group_bits=2, point_and_permute=True)
RECORDS = {"a": b"val-a", "b": b"val-b", "c": b"val-c"}


def make(tmp_path, keychain=None):
    protocol = ShardedLblDeployment(
        CONFIG,
        [LocalLink()],
        keychain=keychain,
        rng=random.Random(1),
        wal_path=tmp_path / "proxy.wal",
    )
    protocol.initialize(RECORDS)
    return protocol


# --------------------------------------------------------------------- #
# The WAL itself
# --------------------------------------------------------------------- #

def test_wal_append_replay(tmp_path):
    wal = CounterWal(tmp_path / "log.wal")
    wal.append("k1", 1)
    wal.append("k2", 1)
    wal.append("k1", 2)
    assert wal.replay() == {"k1": 2, "k2": 1}


def test_wal_checkpoint_compacts(tmp_path):
    wal = CounterWal(tmp_path / "log.wal")
    for i in range(10):
        wal.append("k", i)
    wal.checkpoint({"k": 9})
    assert (tmp_path / "log.wal").stat().st_size == 0
    assert wal.replay() == {"k": 9}
    wal.append("k", 10)
    assert wal.replay() == {"k": 10}


def test_wal_survives_torn_tail_record(tmp_path):
    """A crash mid-append leaves a torn record; replay must discard it."""
    wal = CounterWal(tmp_path / "log.wal")
    wal.append("good-key", 5)
    wal.close()
    with open(tmp_path / "log.wal", "ab") as f:
        f.write(b"\x00\x00\x00\x10\x00\x00")  # header promising more bytes
    assert CounterWal(tmp_path / "log.wal").replay() == {"good-key": 5}


def test_wal_unicode_keys(tmp_path):
    wal = CounterWal(tmp_path / "log.wal")
    wal.append("clé-λ", 3)
    assert wal.replay() == {"clé-λ": 3}


# --------------------------------------------------------------------- #
# A deployment with a WAL: normal operation
# --------------------------------------------------------------------- #

def test_durable_protocol_works_normally(tmp_path):
    protocol = make(tmp_path)
    protocol.write("a", b"new")
    assert protocol.read("a") == CONFIG.pad(b"new")
    assert protocol.recovered_resyncs == 0


def test_wal_tracks_every_access(tmp_path):
    protocol = make(tmp_path)
    protocol.read("a")
    protocol.read("a")
    protocol.write("b", b"x")
    # The init checkpoint contributes every key at epoch 0.
    assert protocol.wal.replay() == {"a": 2, "b": 1, "c": 0}


# --------------------------------------------------------------------- #
# Crash recovery
# --------------------------------------------------------------------- #

def crash_and_recover(protocol, tmp_path, keychain):
    """Simulate a proxy crash: drop the proxy, keep the server — the link to
    it — and build a deployment over it from the replayed WAL."""
    return ShardedLblDeployment(
        CONFIG,
        protocol.clients,
        keychain=keychain,
        rng=random.Random(2),
        wal_path=tmp_path / "proxy.wal",
    )


def test_clean_crash_recovery(tmp_path):
    keychain = KeyChain(b"m" * 32)
    protocol = make(tmp_path, keychain)
    protocol.write("a", b"survives")
    protocol.read("b")

    recovered = crash_and_recover(protocol, tmp_path, keychain)
    assert recovered.read("a") == CONFIG.pad(b"survives")
    assert recovered.read("b") == CONFIG.pad(b"val-b")
    assert recovered.recovered_resyncs == 0


def test_crash_in_uncertainty_window_resyncs(tmp_path):
    """Crash after the WAL append but before the server applied the message:
    the logged epoch is one ahead; recovery must roll back and retry."""
    keychain = KeyChain(b"m" * 32)
    protocol = make(tmp_path, keychain)
    protocol.write("a", b"done")
    # Simulate the half-finished access: log the next epoch, never send.
    protocol.wal.append("a", protocol.proxy.counter("a") + 1)

    recovered = crash_and_recover(protocol, tmp_path, keychain)
    assert recovered.read("a") == CONFIG.pad(b"done")
    assert recovered.recovered_resyncs == 1
    # Subsequent accesses are clean again.
    assert recovered.read("a") == CONFIG.pad(b"done")
    assert recovered.recovered_resyncs == 1


def test_batch_resyncs_a_key_recovered_one_epoch_ahead(tmp_path):
    """The same half-finished access, healed by a batch: the refused entry
    goes back two epochs and is resent once, and later batches are clean."""
    keychain = KeyChain(b"m" * 32)
    protocol = make(tmp_path, keychain)
    protocol.write("a", b"done")
    protocol.wal.append("a", protocol.proxy.counter("a") + 1)

    recovered = crash_and_recover(protocol, tmp_path, keychain)
    batch = [Request.read("a"), Request.read("b")]
    values = [t.response.value for t in recovered.access_batch(batch)]
    assert values == [CONFIG.pad(b"done"), CONFIG.pad(b"val-b")]
    assert recovered.recovered_resyncs == 1
    values = [t.response.value for t in recovered.access_batch(batch)]
    assert values == [CONFIG.pad(b"done"), CONFIG.pad(b"val-b")]
    assert recovered.recovered_resyncs == 1


def test_recovery_after_checkpoint(tmp_path):
    keychain = KeyChain(b"m" * 32)
    protocol = make(tmp_path, keychain)
    for _ in range(5):
        protocol.read("c")
    protocol.checkpoint()
    protocol.write("c", b"ckpt+1")

    recovered = crash_and_recover(protocol, tmp_path, keychain)
    assert recovered.read("c") == CONFIG.pad(b"ckpt+1")


def test_recovery_requires_keychain(tmp_path):
    protocol = make(tmp_path, KeyChain(b"m" * 32))
    with pytest.raises(ConfigurationError):
        ShardedLblDeployment(
            CONFIG, protocol.clients, keychain=None, wal_path=tmp_path / "proxy.wal"
        )


def test_recovery_with_wrong_keychain_fails_loudly(tmp_path):
    """Recovering with the wrong master key must not silently corrupt."""
    protocol = make(tmp_path, KeyChain(b"m" * 32))
    protocol.read("a")
    recovered = ShardedLblDeployment(
        CONFIG,
        protocol.clients,
        keychain=KeyChain(b"x" * 32),  # wrong key
        rng=random.Random(3),
        wal_path=tmp_path / "proxy.wal",
    )
    with pytest.raises((ProtocolError, KeyNotFoundError)):
        recovered.read("a")


def test_force_counter_validation(tmp_path):
    protocol = make(tmp_path)
    with pytest.raises(ProtocolError):
        protocol.proxy.force_counter("a", -1)
    with pytest.raises(KeyNotFoundError):
        protocol.proxy.force_counter("never", 0)
    with pytest.raises(ProtocolError):
        protocol.proxy.restore_counters({"a": -2})


# --------------------------------------------------------------------- #
# Over TCP: the WAL covers the networked deployment too
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("applied", [False, True], ids=["frame-lost", "frame-applied"])
def test_wal_recovers_a_tcp_deployment(tmp_path, applied):
    """The proxy dies after logging an access to "a" whose reply never came
    back — the frame lost on the way, or applied by the server.  A
    deployment recovered from the same log and keychain against the same
    server reads every value right, resyncing "a" only if the frame was lost."""
    keychain = KeyChain(b"m" * 32)
    wal_path = tmp_path / "proxy.wal"
    with LblTcpServer(point_and_permute=True) as server:
        server.serve_in_background()
        primary = ShardedLblDeployment(
            CONFIG, [server.address], keychain=keychain, rng=random.Random(1),
            timeout=0.5, wal_path=wal_path,
        )
        primary.initialize(RECORDS)
        primary.write("a", b"before")

        dispatch = server.dispatcher.dispatch
        release = threading.Event()

        def stall(payload):
            """Hold the next access's reply until the proxy is gone."""
            if payload[0] != LblAccessRequest.TAG:
                return dispatch(payload)
            reply = dispatch(payload) if applied else None
            release.wait(10)
            if reply is None:
                raise ProtocolError("frame lost")
            return reply

        server.dispatcher.dispatch = stall
        with pytest.raises(TimeoutError):
            primary.write("a", b"inflight")
        primary.close()  # the crash: in-flight frames die with the proxy
        release.set()
        server.dispatcher.dispatch = dispatch

        recovered = ShardedLblDeployment(
            CONFIG, [server.address], keychain=keychain, rng=random.Random(2),
            wal_path=wal_path,
        )
        try:
            expected = {"a": b"inflight" if applied else b"before", "b": b"val-b",
                        "c": b"val-c"}
            for key, value in expected.items():
                assert recovered.read(key) == CONFIG.pad(value)
            assert recovered.recovered_resyncs == (0 if applied else 1)
            recovered.write("a", b"after")
            assert recovered.read("a") == CONFIG.pad(b"after")
        finally:
            recovered.close()
