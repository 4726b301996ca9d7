"""Tests for server-store snapshots and full deployment resume."""

import pytest

from repro.core import FheOrtoa, LblOrtoa, TwoRoundBaseline
from repro.crypto.fhe import FheParams
from repro.crypto.keys import KeyChain
from repro.errors import StorageError
from repro.storage import KeyValueStore
from repro.storage.persistence import (
    BytesCodec,
    FheCiphertextCodec,
    LabelListCodec,
    load_store,
    save_store,
)
from repro.types import StoreConfig

CONFIG = StoreConfig(value_len=8, group_bits=2)


# --------------------------------------------------------------------- #
# Raw codec round trips
# --------------------------------------------------------------------- #

def test_bytes_store_roundtrip(tmp_path):
    store = KeyValueStore()
    store.put(b"k1", b"ciphertext-1")
    store.put(b"k2", b"")
    save_store(store, tmp_path / "snap.bin", BytesCodec())
    restored = load_store(tmp_path / "snap.bin", BytesCodec())
    assert restored.get(b"k1") == b"ciphertext-1"
    assert restored.get(b"k2") == b""
    assert len(restored) == 2


def test_label_store_roundtrip(tmp_path):
    from repro.crypto.labels import StoredRecord
    from repro.errors import StorageError

    store = KeyValueStore()
    store.put(b"pnp", StoredRecord(b"l" * 16 + b"m" * 16, b"\x03\x00"))
    store.put(b"base", StoredRecord(b"n" * 16))
    save_store(store, tmp_path / "snap.bin", LabelListCodec())
    restored = load_store(tmp_path / "snap.bin", LabelListCodec())
    assert restored.get(b"pnp") == (b"l" * 16 + b"m" * 16, b"\x03\x00")
    assert restored.get(b"base") == StoredRecord(b"n" * 16, b"")
    codec = LabelListCodec()
    assert codec.encode(StoredRecord(b"ab", b"\x01")) == b"\x00\x00\x00\x02ab\x01"
    for damaged in (b"", b"\x00\x00", b"\x00\x00\x00\x03ab"):
        with pytest.raises(StorageError):
            codec.decode(damaged)


def test_fhe_store_roundtrip(tmp_path):
    params = FheParams(n=32, q_bits=100)
    protocol = FheOrtoa(StoreConfig(value_len=8), fhe_params=params)
    protocol.initialize({"k": b"value"})
    save_store(protocol.store, tmp_path / "snap.bin", FheCiphertextCodec(params))
    restored = load_store(tmp_path / "snap.bin", FheCiphertextCodec(params))
    encoded = protocol.keychain.encode_key("k")
    ct = restored.get(encoded)
    assert protocol.scheme.decrypt_bytes(ct, 8) == StoreConfig(value_len=8).pad(b"value")


def test_load_errors(tmp_path):
    with pytest.raises(StorageError):
        load_store(tmp_path / "missing.bin", BytesCodec())
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOTASNAPSHOT")
    with pytest.raises(StorageError):
        load_store(bad, BytesCodec())


def test_truncated_snapshot_rejected(tmp_path):
    store = KeyValueStore()
    store.put(b"key", b"value-bytes")
    save_store(store, tmp_path / "snap.bin", BytesCodec())
    data = (tmp_path / "snap.bin").read_bytes()
    (tmp_path / "cut.bin").write_bytes(data[:-4])
    with pytest.raises(StorageError):
        load_store(tmp_path / "cut.bin", BytesCodec())


def test_snapshot_is_atomic(tmp_path):
    """Saving over an existing snapshot must never leave a partial file."""
    store = KeyValueStore()
    store.put(b"k", b"v1")
    path = tmp_path / "snap.bin"
    save_store(store, path, BytesCodec())
    store.put(b"k", b"v2-longer")
    save_store(store, path, BytesCodec())
    assert load_store(path, BytesCodec()).get(b"k") == b"v2-longer"
    assert not path.with_suffix(".bin.tmp").exists()


# --------------------------------------------------------------------- #
# Full deployment resume
# --------------------------------------------------------------------- #

def test_baseline_server_restart(tmp_path):
    keychain = KeyChain(b"m" * 32)
    protocol = TwoRoundBaseline(StoreConfig(value_len=8), keychain)
    protocol.initialize({"k": b"alpha"})
    protocol.write("k", b"beta")
    save_store(protocol.store, tmp_path / "server.bin", BytesCodec())

    # "Restart": fresh protocol object, same keys, restored store.
    resumed = TwoRoundBaseline(StoreConfig(value_len=8), KeyChain(b"m" * 32))
    resumed.store = load_store(tmp_path / "server.bin", BytesCodec())
    assert resumed.read("k") == StoreConfig(value_len=8).pad(b"beta")


def test_lbl_full_deployment_resume(tmp_path):
    """Server snapshot + proxy counters + keychain = a resumable deployment."""
    keychain = KeyChain(b"m" * 32)
    protocol = LblOrtoa(CONFIG, keychain=keychain)
    protocol.initialize({"k1": b"one", "k2": b"two"})
    protocol.write("k1", b"1.1")
    protocol.read("k2")
    save_store(protocol.server.store, tmp_path / "server.bin", LabelListCodec())
    counters = protocol.proxy.counters()

    resumed = LblOrtoa(CONFIG, keychain=KeyChain(b"m" * 32))
    resumed.server.store = load_store(tmp_path / "server.bin", LabelListCodec())
    resumed.proxy.restore_counters(counters)
    assert resumed.read("k1") == CONFIG.pad(b"1.1")
    assert resumed.read("k2") == CONFIG.pad(b"two")
    resumed.write("k1", b"1.2")
    assert resumed.read("k1") == CONFIG.pad(b"1.2")
