"""Tests for KeyChain key derivation."""

import pytest

from repro.crypto.keys import KeyChain
from repro.errors import ConfigurationError


def _squeeze(xof, message: bytes = b"x") -> bytes:
    keyed = xof.copy()
    keyed.update(message)
    return keyed.digest(32)


def test_same_master_same_keys():
    a = KeyChain(b"m" * 32)
    b = KeyChain(b"m" * 32)
    assert a.data_key == b.data_key
    assert a.encode_key("k") == b.encode_key("k")
    assert _squeeze(a.label_xof) == _squeeze(b.label_xof)


def test_different_master_different_keys():
    a = KeyChain(b"a" * 32)
    b = KeyChain(b"b" * 32)
    assert a.data_key != b.data_key
    assert a.encode_key("k") != b.encode_key("k")


def test_random_master_generated():
    assert KeyChain().data_key != KeyChain().data_key


def test_subkeys_are_domain_separated():
    kc = KeyChain(b"m" * 32)
    outputs = {
        bytes(kc.data_key),
        kc.key_encoding_prf.evaluate("x", out_bytes=32),
        _squeeze(kc.label_xof),
    }
    assert len(outputs) == 3
    # The XOF is keyed: the same message under another master differs, and
    # copying leaves the keychain's own state untouched.
    assert _squeeze(kc.label_xof) != _squeeze(KeyChain(b"n" * 32).label_xof)
    assert _squeeze(kc.label_xof) == _squeeze(kc.label_xof)


def test_label_bits_config():
    kc = KeyChain(b"m" * 32, label_bits=256)
    assert kc.label_bits == 256
    with pytest.raises(ConfigurationError):
        KeyChain(b"m" * 32, label_bits=12)


def test_short_master_rejected():
    with pytest.raises(ConfigurationError):
        KeyChain(b"short")


def test_key_encoding_is_deterministic_and_distinct():
    kc = KeyChain(b"m" * 32)
    assert kc.encode_key("user:1") == kc.encode_key("user:1")
    assert kc.encode_key("user:1") != kc.encode_key("user:2")
