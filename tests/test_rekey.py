"""Tests for LBL master-key rotation."""

import pytest

from repro.core.lbl import LblOrtoa
from repro.core.lbl.rekey import rekey
from repro.crypto.keys import KeyChain
from repro.crypto.labels import StoredRecord
from repro.errors import ConfigurationError, TamperDetectedError
from repro.types import StoreConfig

CONFIG = StoreConfig(value_len=8, group_bits=2)


def make():
    protocol = LblOrtoa(CONFIG, keychain=KeyChain(b"old-master-key-0123456789abcdef!"))
    protocol.initialize({f"k{i}": bytes([i]) * 8 for i in range(5)})
    return protocol


def test_rekey_preserves_all_values():
    old = make()
    old.write("k2", b"modified")
    new = rekey(old)
    for i in range(5):
        expected = CONFIG.pad(b"modified") if i == 2 else bytes([i]) * 8
        assert new.read(f"k{i}") == expected


def test_rekey_changes_every_server_encoding():
    old = make()
    new = rekey(old)
    old_keys = set(old.server.store)
    new_keys = set(new.server.store)
    assert old_keys.isdisjoint(new_keys)


def test_rekey_resets_counters():
    old = make()
    for _ in range(3):
        old.read("k0")
    new = rekey(old)
    assert new.proxy.counter("k0") == 0


def test_rekey_with_explicit_keychain():
    old = make()
    target = KeyChain(b"new-master-key-0123456789abcdef!")
    new = rekey(old, new_keychain=target)
    assert new.keychain is target
    assert new.read("k0") == bytes([0]) * 8


def test_rekey_rejects_same_keychain():
    old = make()
    with pytest.raises(ConfigurationError):
        rekey(old, new_keychain=KeyChain(b"old-master-key-0123456789abcdef!"))


def test_rekey_is_an_integrity_audit():
    """Tampered server state must abort the rotation loudly."""
    old = make()
    encoded = old.keychain.encode_key("k3")
    labels, slots = old.server.store.get(encoded)
    old.server.store.put(encoded, StoredRecord(bytes(16) + labels[16:], slots))
    with pytest.raises((TamperDetectedError, Exception)):
        rekey(old)


def test_new_deployment_fully_functional():
    old = make()
    new = rekey(old)
    new.write("k4", b"after-rk")
    assert new.read("k4") == CONFIG.pad(b"after-rk")
    # And the old deployment still works until cut-over.
    assert old.read("k4") == bytes([4]) * 8
