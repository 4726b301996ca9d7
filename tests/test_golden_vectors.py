"""Golden vectors + reference cross-checks for the crypto kernels.

The batched fast paths (precomputed HMAC key state, one-call label epochs,
batch AEAD and rows) must be drop-in: byte-identical to the documented
constructions.  Two independent nets catch a silent change:

* **pinned vectors** — exact outputs of :meth:`Prf.evaluate`, the labels
  and offsets of :meth:`LabelCodec.epochs` / :meth:`LabelCodec.record`,
  :func:`aead.encrypt` (fixed nonce), the point-and-permute row kernel
  :func:`rows.seal_rows` and a whole LBL reply frame, plus a live
  re-derivation of each from the bare calls (``hmac``, ``hashlib.shake_256``,
  ``Cipher(AES(key), ECB)``) and from ``tests/lbl_reference.py``, so a
  vector can only move if the documented construction itself changes;
* **Hypothesis cross-checks** — every batch entry point agrees with its
  scalar counterpart on arbitrary inputs, and :meth:`LblProxy.prepare`
  agrees with the row-at-a-time reference of ``tests/lbl_reference.py``.
"""

from __future__ import annotations

import hashlib
import hmac
import random

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.lbl.proxy import LblProxy
from repro.core.lbl.server import LblServer
from repro.core.messages import LblAccessRequest
from repro.crypto import aead, rows
from repro.crypto.keys import KeyChain
from repro.crypto.prf import Prf, PrfContext, encode_components
from repro.errors import ProtocolError
from repro.types import Request, StoreConfig
from tests import lbl_reference
from tests.lbl_reference import seal_row as _ref_row, slab as _slab, xor as _xor

# --------------------------------------------------------------------- #
# Stdlib references for the documented constructions
# --------------------------------------------------------------------- #


def _ref_prf(key: bytes, components: tuple, out_bytes: int) -> bytes:
    """RFC 2104 HMAC-SHA256 expand-and-truncate via the stdlib only."""
    message = encode_components(*components)
    out = b""
    counter = 0
    while len(out) < out_bytes:
        block = hmac.new(
            key, counter.to_bytes(4, "big") + message, hashlib.sha256
        ).digest()
        out += block
        counter += 1
    return out[:out_bytes]


def _ref_block(master: bytes, shape: tuple, key: str, counter: int, encoding: bytes) -> bytes:
    """One documented label or offset block: ``AES_{K_L}(W ⊕ encoding)``,
    ``W`` 16 bytes of prefix-keyed SHAKE-256 (stdlib) and both subkeys
    HMAC-derived from ``master``."""
    label_key = _ref_prf(master, ("subkey", "labels"), 32)
    w = hashlib.shake_256(
        label_key.ljust(136, b"\x00") + encode_components(*shape) + encode_components(key, counter)
    ).digest(16)
    block_key = _ref_prf(master, ("subkey", "label-blocks"), 32)[:16]
    aes = Cipher(algorithms.AES(block_key), modes.ECB()).encryptor()
    return aes.update(bytes(a ^ b for a, b in zip(w, encoding)))


def _ref_encrypt(key: bytes, plaintext: bytes, nonce: bytes) -> bytes:
    """The documented AEAD: domain-separated HMAC keystream + truncated tag."""
    keystream = b""
    counter = 0
    while len(keystream) < len(plaintext):
        keystream += hmac.new(
            key, b"aead-enc" + nonce + counter.to_bytes(4, "big"), hashlib.sha256
        ).digest()
        counter += 1
    body = bytes(p ^ k for p, k in zip(plaintext, keystream))
    tag = hmac.new(key, b"aead-mac" + nonce + body, hashlib.sha256).digest()[:16]
    return nonce + body + tag


# --------------------------------------------------------------------- #
# Pinned vectors
# --------------------------------------------------------------------- #

_PRF_KEY = bytes(range(32))
_PRF16_VECTOR = bytes.fromhex("9d82c4c8b2446fe0c51bfb4124cef4c6")
_PRF48_VECTOR = bytes.fromhex(
    "ebde6f4e985cefde836f68d3c658e98dfe79698f062bac4a9c344c6876a91792"
    "27848d77f07f933c8a11ff0c70798110"
)
# Under master key 01…01, "obj" at epoch 7 with 4-byte values at y = 2:
# entries (2, 1) and (2, 3), each one AES block of W ⊕ ⟨0, 2, slot, 0⟩ with
# the low two bits of byte 15 set to the slot (f7 → f5, 08 → 0b) — the
# labels of values 1 ⊕ r_2 = 1 and 3 ⊕ r_2 = 3 (r_2 = 0).
_LABEL_VECTOR = bytes.fromhex("fdc8f7b0f78fd4057a28c59d417ebef5")
_LABEL_VECTOR_SLOT3 = bytes.fromhex("c1263e6bf6d0c22c2ac69983505be10b")
# 10-byte values, 40 groups: bytes 0-15 of offset blocks 0, 1, 2 (W ⊕
# ⟨1, i, 0, 0⟩), the first 40 of them, each mod 4.
_OFFSETS_VECTOR = bytes.fromhex(
    "03010202030303000100020102030000000000010301010003020002000203000302010100020100"
)
_AEAD_KEY = b"k" * 16
_AEAD_PLAINTEXT = b"hello world label"
_AEAD_VECTOR = bytes.fromhex(
    "00000000000000000000000033b7dab508d89c4da72c107b77b07062"
    "a53d5281cb5e812fa1e5ebed11ae8851b9"
)


def test_prf_vector_single_block():
    assert Prf(_PRF_KEY, out_bytes=16).evaluate("label", "key-0", 3, 1, 42) == (
        _PRF16_VECTOR
    )
    assert _ref_prf(_PRF_KEY, ("label", "key-0", 3, 1, 42), 16) == _PRF16_VECTOR


def test_prf_vector_multi_block():
    """48 output bytes span two SHA-256 blocks (the counter-expansion path)."""
    assert Prf(_PRF_KEY, out_bytes=48).evaluate("x") == _PRF48_VECTOR
    assert _ref_prf(_PRF_KEY, ("x",), 48) == _PRF48_VECTOR


def test_label_vector():
    config, keychain = StoreConfig(value_len=4, group_bits=2), KeyChain(b"\x01" * 32)
    shape = (16, 4, 16)
    for slot, vector in ((1, _LABEL_VECTOR), (3, _LABEL_VECTOR_SLOT3)):
        assert lbl_reference.entry(keychain, config, "obj", 7, 2, slot) == vector
        position = bytes([0]) + (2).to_bytes(4, "big") + bytes([slot, 0]) + bytes(9)
        block = _ref_block(b"\x01" * 32, shape, "obj", 7, position)
        assert block[:15] == vector[:15] and block[15] & ~3 | slot == vector[15]
    # Slot order: the value a slot holds is the slot XOR the group's offset.
    codec = LblProxy(config, keychain).codec
    (epoch,) = codec.epochs("obj", 7)
    assert epoch[1][2] == 0
    for value, vector in ((1, _LABEL_VECTOR), (3, _LABEL_VECTOR_SLOT3)):
        record = codec.record(epoch, (0,) * 2 + (value,) + (0,) * 13)
        assert (record[32:48], record[47] % 4) == (vector, value)


def test_permute_offsets_vector():
    config, keychain = StoreConfig(value_len=10, group_bits=2), KeyChain(b"\x01" * 32)
    (epoch,) = LblProxy(config, keychain).codec.epochs("obj", 7)
    assert epoch[1] == _OFFSETS_VECTOR
    assert bytes(lbl_reference.offsets(keychain, config, "obj", 7)) == _OFFSETS_VECTOR
    blocks = b"".join(
        _ref_block(b"\x01" * 32, (40, 4, 16), "obj", 7, bytes([1]) + i.to_bytes(4, "big") + bytes(11))
        for i in range(3)
    )
    assert bytes(b % 4 for b in blocks[:40]) == _OFFSETS_VECTOR


def test_aead_vector_fixed_nonce():
    ct = aead.encrypt(_AEAD_KEY, _AEAD_PLAINTEXT, nonce=bytes(12))
    assert ct == _AEAD_VECTOR
    assert _ref_encrypt(_AEAD_KEY, _AEAD_PLAINTEXT, bytes(12)) == _AEAD_VECTOR
    assert aead.decrypt(_AEAD_KEY, ct) == _AEAD_PLAINTEXT


# --------------------------------------------------------------------- #
# Hypothesis: batch entry points == scalar counterparts
# --------------------------------------------------------------------- #

_keys = st.binary(min_size=16, max_size=64)
_components = st.lists(
    st.one_of(
        st.integers(min_value=0, max_value=2**31),
        st.binary(max_size=24),
        st.text(max_size=12),
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=50, deadline=None)
@given(key=_keys, message=st.binary(max_size=200), out_bytes=st.sampled_from([8, 16, 32, 48, 80]))
def test_prf_matches_stdlib_hmac(key, message, out_bytes):
    """The manual two-stage HMAC is exactly RFC 2104 at every output size."""
    assert Prf(key, out_bytes=out_bytes).evaluate(message) == _ref_prf(
        key, (message,), out_bytes
    )


@settings(max_examples=30, deadline=None)
@given(key=_keys, suffixes=st.lists(_components, min_size=1, max_size=8))
def test_evaluate_many_matches_scalar(key, suffixes):
    prf = Prf(key, out_bytes=16)
    batch = prf.evaluate_many(("prefix", 7), suffixes)
    scalar = [prf.evaluate("prefix", 7, *suffix) for suffix in suffixes]
    assert batch == scalar


@settings(max_examples=30, deadline=None)
@given(key=_keys, tails=st.lists(st.binary(max_size=40), min_size=1, max_size=8))
def test_context_tails_match_scalar(key, tails):
    prf = Prf(key, out_bytes=16)
    ctx = prf.context("ctx-prefix")
    batch = ctx.evaluate_tails(tails)
    head = (0).to_bytes(4, "big") + encode_components("ctx-prefix")
    assert batch == [
        hmac.new(key, head + tail, hashlib.sha256).digest()[:16] for tail in tails
    ]
    assert ctx.evaluate_tails([encode_components(7, "s")]) == [
        prf.evaluate("ctx-prefix", 7, "s")
    ]


@settings(max_examples=30, deadline=None)
@given(
    entries=st.lists(
        st.tuples(st.binary(min_size=16, max_size=32), st.binary(max_size=64)),
        min_size=1,
        max_size=8,
    )
)
def test_encrypt_many_matches_scalar(entries):
    keys = [key for key, _ in entries]
    payloads = [payload for _, payload in entries]
    nonces = [bytes([i]) * aead.NONCE_LEN for i in range(len(entries))]
    batch = aead.encrypt_many(keys, payloads, nonces=nonces)
    scalar = [
        aead.encrypt(key, payload, nonce=nonce)
        for key, payload, nonce in zip(keys, payloads, nonces)
    ]
    assert batch == scalar
    for key, ciphertext, payload in zip(keys, batch, payloads):
        assert aead.decrypt(key, ciphertext) == payload


@st.composite
def _open_case(draw):
    """One ``(key, ciphertext)`` pair the point-and-permute server might see."""
    kind = draw(
        st.sampled_from(
            ["valid", "wrong-key", "bit-flip", "truncated", "empty-body", "long-body"]
        )
    )
    key = draw(st.binary(min_size=16, max_size=80))
    if kind == "empty-body":
        payload = b""
    elif kind == "long-body":
        payload = draw(st.binary(min_size=33, max_size=80))
    else:
        payload = draw(st.binary(min_size=1, max_size=32))
    ciphertext = aead.encrypt(key, payload)
    if kind == "wrong-key":
        key = bytes([key[0] ^ 1]) + key[1:]
    elif kind == "bit-flip":
        bit = draw(st.integers(min_value=0, max_value=len(ciphertext) * 8 - 1))
        flipped = bytearray(ciphertext)
        flipped[bit // 8] ^= 1 << (bit % 8)
        ciphertext = bytes(flipped)
    elif kind == "truncated":
        cut = draw(st.integers(min_value=0, max_value=aead.NONCE_LEN + aead.TAG_LEN - 1))
        ciphertext = ciphertext[:cut]
    return key, ciphertext


def _aead_counts() -> tuple[int, int]:
    return (
        obs.REGISTRY.counter("crypto.aead.decrypts").value,
        obs.REGISTRY.counter("crypto.aead.decrypt_failures").value,
    )


@settings(max_examples=60, deadline=None)
@given(cases=st.lists(_open_case(), max_size=10))
def test_open_many_matches_try_decrypt(cases):
    """Same verdicts, plaintexts and metered counts as a ``try_decrypt`` loop."""
    keys = [key for key, _ in cases]
    ciphertexts = [ciphertext for _, ciphertext in cases]
    with obs.capture():
        batch = aead.open_many(keys, ciphertexts)
        batch_counts = _aead_counts()
    with obs.capture():
        scalar = [aead.try_decrypt(k, c) for k, c in zip(keys, ciphertexts)]
        scalar_counts = _aead_counts()
    assert batch == scalar
    assert batch_counts == scalar_counts
    assert sum(batch_counts) == len(cases)


# The reply to a PUT of a5 3c at 2 B, y = 3, under master key 05…05: slots
# 0 4 5 3 7 1 as 000 100 101 011 111 001 and six zero pad bits (12 be 40),
# then SHA-256 of the six new labels cut to 16 bytes (each label names its
# slot in the low three bits of its byte 15).
_REPLY_VECTOR = bytes.fromhex("21000312be40d52e873fc3935f46c13ebe11aee22b02")


def test_reply_frame_vector():
    """A whole reply frame, which pins its bit order, its pad and what its
    digest is taken over; independent of the request's random nonce."""
    config = StoreConfig(value_len=2, group_bits=3)
    keychain = KeyChain(b"\x05" * 32)
    proxy, server = LblProxy(config, keychain), LblServer()
    for encoded, record in proxy.initial_records({"obj": b"\x00\x00"}):
        server.load(encoded, record)
    built, _ops = proxy.prepare(Request.write("obj", b"\xa5\x3c"))
    response, _server_ops = server.process(built)
    assert response.to_bytes() == _REPLY_VECTOR
    labels, offsets = lbl_reference.epoch(keychain, config, "obj", 1)
    groups = lbl_reference.value_to_groups(b"\xa5\x3c", 3)
    assert bytes(g ^ r for g, r in zip(groups, offsets)) == bytes([0, 4, 5, 3, 7, 1])
    stored = b"".join(labels[i][g] for i, g in enumerate(groups))
    assert _REPLY_VECTOR[-16:] == hashlib.sha256(stored).digest()[:16]
    assert bytes(label[15] % 8 for label in [stored[i : i + 16] for i in range(0, 96, 16)]) == (
        bytes([0, 4, 5, 3, 7, 1])
    )
    assert _REPLY_VECTOR == lbl_reference.reply(stored, 16, 3)
    assert proxy.finalize("obj", response)[0] == b"\xa5\x3c"


@settings(max_examples=60, deadline=None)
@given(
    value_len=st.integers(min_value=1, max_value=24),
    group_bits=st.sampled_from([1, 2, 3, 8]),
    label_bits=st.sampled_from([128, 256, 440]),
    counter=st.integers(min_value=0, max_value=300),
    data=st.data(),
)
def test_prepare_matches_the_reference_row_for_row(
    value_len, group_bits, label_bits, counter, data
):
    """The kernel's request is the paper's, byte for byte, under the nonce
    it drew: every label, offset, slot and pad lands where §10.2 puts it."""
    shape = dict(value_len=value_len, group_bits=group_bits, label_bits=label_bits)
    config = StoreConfig(**shape)
    proxy = LblProxy(config, KeyChain(b"\x05" * 32, label_bits=label_bits))
    proxy.initial_records({"k": bytes(value_len)})
    proxy.force_counter("k", counter)
    value = data.draw(st.none() | st.binary(min_size=value_len, max_size=value_len))
    built, _ops = proxy.prepare(Request.read("k") if value is None else Request.write("k", value))
    expected = lbl_reference.build_request(
        proxy.keychain, config, "k", counter, value, nonce=built.nonce
    )
    assert built.to_bytes() == expected.to_bytes()


@settings(max_examples=6, deadline=None)
@given(
    group_bits=st.integers(min_value=1, max_value=8),
    label_bits=st.sampled_from([128, 136, 256, 440]),
    value_len=st.sampled_from([1, 2, 50, 160, 600]),
    seed=st.integers(min_value=0, max_value=2**32),
)
@example(group_bits=1, label_bits=128, value_len=600, seed=1)
@example(group_bits=8, label_bits=440, value_len=2, seed=2)
@example(group_bits=2, label_bits=136, value_len=160, seed=3)
@example(group_bits=5, label_bits=256, value_len=50, seed=4)
@example(group_bits=7, label_bits=136, value_len=1, seed=5)
@example(group_bits=3, label_bits=440, value_len=50, seed=6)
@example(group_bits=4, label_bits=128, value_len=160, seed=7)
@example(group_bits=6, label_bits=256, value_len=2, seed=8)
def test_an_access_equals_the_reference_end_to_end(group_bits, label_bits, value_len, seed):
    """``initial_records``, ``prepare``, the shard's open and ``finalize``
    equal the one-block-at-a-time reference, byte for byte, across every
    ``y`` and label width (shapes of at most 10,000 rows, so the reference
    stays quick)."""
    config = StoreConfig(value_len=value_len, group_bits=group_bits, label_bits=label_bits)
    assume(config.num_groups << group_bits <= 10_000)
    keychain = KeyChain(b"\x09" * 32, label_bits=label_bits)
    proxy, server = LblProxy(config, keychain), LblServer()
    rng = random.Random(seed)
    value = rng.randbytes(value_len)
    ((encoded, record),) = proxy.initial_records({"k": value})
    assert record == lbl_reference.record(keychain, config, "k", 0, value)
    server.load(encoded, record)
    for counter in range(2):
        written = rng.randbytes(value_len) if counter else None
        request = Request.read("k") if written is None else Request.write("k", written)
        built, _ops = proxy.prepare(request)
        expected = lbl_reference.build_request(
            keychain, config, "k", counter, written, nonce=built.nonce
        )
        assert built.to_bytes() == expected.to_bytes()
        opened = lbl_reference.open_request(server.store.get(encoded), built)
        response, _server_ops = server.process(built)
        assert server.store.get(encoded) == opened
        value = value if written is None else written
        assert opened == lbl_reference.record(keychain, config, "k", counter + 1, value)
        frame = response.to_bytes()
        assert frame == lbl_reference.reply(opened, label_bits // 8, group_bits)
        new_epoch = lbl_reference.epoch(keychain, config, "k", counter + 1)
        assert lbl_reference.finalize(
            new_epoch, frame, group_bits=group_bits, value_len=value_len
        ) == proxy.finalize("k", response)[0] == value


@settings(max_examples=20, deadline=None)
@given(
    group_bits=st.sampled_from([1, 2, 3, 8]),
    values=st.lists(st.none() | st.binary(min_size=3, max_size=3), min_size=1, max_size=4),
)
def test_reference_base_tables_open_at_the_server(group_bits, values):
    """§5.2: the reference's shuffled ``aead.encrypt`` tables open under the
    trial scan of :func:`lbl_reference.open_base` and decode to the right
    value, access after access."""
    config = StoreConfig(value_len=3, group_bits=group_bits)
    _base_accesses(config, KeyChain(b"\x06" * 32), b"abc", values, random.Random(2))


@pytest.mark.parametrize("group_bits", [1, 2, 3])
def test_reference_base_get_and_put_round_trip_and_stale_labels_fail(group_bits):
    """The paper's base protocol as the reference keeps it: a GET keeps the
    value and a PUT installs the new one; a group whose stored label is one
    epoch stale opens nothing, and the scan names that group."""
    config = StoreConfig(value_len=4, group_bits=group_bits)
    keychain, rng = KeyChain(b"\x07" * 32), random.Random(3)
    history = _base_accesses(config, keychain, b"wxyz", (None, b"abcd", None), rng)
    stale = list(history[-1])
    stale[5] = history[-2][5]
    tables = lbl_reference.build_request(keychain, config, "k", 3, base=True, rng=rng)
    with pytest.raises(ProtocolError, match="at group 5"):
        lbl_reference.open_base(stale, tables)


def _base_accesses(config, keychain, value, writes, rng) -> "list[list[bytes]]":
    """Run ``writes`` (``None`` a GET, else the value a PUT writes) through
    the reference's §5.2 tables from ``value`` at epoch 0, checking every
    access opens one label per group and decodes to the expected value;
    returns the stored labels of every epoch."""
    history = [lbl_reference.record_labels(keychain, config, "k", 0, value)]
    for counter, written in enumerate(writes):
        tables = lbl_reference.build_request(
            keychain, config, "k", counter, written, base=True, rng=rng
        )
        labels, attempts, failures = lbl_reference.open_base(history[-1], tables)
        assert attempts - failures == len(labels) == config.num_groups
        value = value if written is None else written
        candidates, _offsets = lbl_reference.epoch(keychain, config, "k", counter + 1)
        assert lbl_reference.decode(
            candidates, b"".join(labels), label_len=config.label_bits // 8,
            group_bits=config.group_bits, value_len=config.value_len,
        ) == value
        history.append(labels)
    return history


def test_prf_context_class_exported():
    """PrfContext is part of the public kernel API."""
    ctx = Prf(b"\x07" * 32, out_bytes=16).context("p")
    assert isinstance(ctx, PrfContext)


# --------------------------------------------------------------------- #
# Point-and-permute rows: a fixed-key AES pad per row, a zero check block
# on the head rows
# --------------------------------------------------------------------- #


def _blob(items) -> bytes:
    return b"".join(items)


_ROW_KEY = bytes(range(16, 32))
_ROW_NONCE = bytes(range(16))
# A 128-bit label: a 32-byte head row, the label and its check block — pad
# blocks 0 and 1, each π⁻¹(x ⊕ N_j) ⊕ π⁻¹(x), N_j = π⁻¹(nonce ⊕ j).
_ROW_LABEL = bytes(range(100, 116))
_ROW_VECTOR = bytes.fromhex(
    "d57a877c374a4c23328778122e8f73ad11c13ff42cf7074c19abcd40332c4799"
)
# A 256-bit label: a 48-byte head row, three blocks of pad.
_ROW_LABEL_WIDE = bytes(range(200, 232))
_ROW_VECTOR_WIDE = bytes.fromhex(
    "79d62bd093eee8878e3bc4ae8a2bd709c918e52ff02ad993f94a2fa3d7c9a17e"
    "ae440d573ca363fdefbe73f1813a148f"
)
# The widest label: a 55-byte label's 71-byte head row — four blocks of pad
# cut to 55 bytes, then the check block, pad block 4 — under a 55-byte key
# of which the pad sees the first 16.
_ROW_VECTOR_WIDEST = bytes.fromhex(
    "e6b872b3ea317f136988d2f0e8ed7bd2358f2c2dc90c1269ae6b0a5808076019"
    "d90c64d5246e08e1c00846bbce53cf10a6d71f9d6d7b7e1a95950a3a7f2d8072"
    "9e6ccd6bbc5666"
)


def _seal(keys, labels, nonce, head=1) -> bytes:
    """The batch kernel over per-row labels of one width, the first ``head``
    rows with check blocks."""
    return rows.seal_rows(_blob(keys), _blob(labels), len(labels[0]), nonce, head)


def _stored(keys, label_len) -> bytes:
    """Stored labels of ``label_len`` bytes whose first 16 are each key's."""
    return _blob(k[:16].ljust(label_len, b"\0") for k in keys)


def _open(keys, slab, nonce, label_len):
    """The server's open of a slab of one-row tables (each row its own group,
    sealed with one head row) under stored labels seeded by ``keys``: the
    labels, or ``None`` where refused."""
    (opened,) = rows.open_rows([(nonce, _stored(keys, label_len), slab, label_len, 1)])
    if opened is None:
        return [None] * len(keys)
    return [opened[i * label_len : (i + 1) * label_len] for i in range(len(keys))]


def test_row_vector_single_block():
    assert _ref_row(_ROW_KEY, _ROW_LABEL, _ROW_NONCE) == _ROW_VECTOR
    assert _seal([_ROW_KEY], [_ROW_LABEL], _ROW_NONCE) == _ROW_VECTOR
    assert _open([_ROW_KEY], _ROW_VECTOR, _ROW_NONCE, 16) == [_ROW_LABEL]
    assert lbl_reference.open_row(_ROW_KEY, _ROW_VECTOR, _ROW_NONCE, 16) == _ROW_LABEL


def test_row_vector_two_blocks():
    """A 48-byte head row — three blocks of pad — and the widest row there is."""
    assert _ref_row(_ROW_KEY, _ROW_LABEL_WIDE, _ROW_NONCE) == _ROW_VECTOR_WIDE
    assert _seal([_ROW_KEY], [_ROW_LABEL_WIDE], _ROW_NONCE) == _ROW_VECTOR_WIDE
    assert _open([_ROW_KEY], _ROW_VECTOR_WIDE, _ROW_NONCE, 32) == [_ROW_LABEL_WIDE]
    # Block j of a pad is a function of j, not of the row's width: a wider
    # row extends a narrower one's pad.
    narrow = _ref_row(_ROW_KEY, _ROW_LABEL_WIDE[:17], _ROW_NONCE)
    assert _xor(narrow, _ROW_VECTOR_WIDE)[:17] == bytes(17)
    assert _ref_row(b"k" * 55, b"p" * 55, _ROW_NONCE) == _ROW_VECTOR_WIDEST
    assert _seal([b"k" * 55], [b"p" * 55], _ROW_NONCE) == _ROW_VECTOR_WIDEST
    assert _seal([b"k" * 16], [b"p" * 55], _ROW_NONCE) == _ROW_VECTOR_WIDEST
    assert _open([b"k" * 55], _ROW_VECTOR_WIDEST, _ROW_NONCE, 55) == [b"p" * 55]


@st.composite
def _row_batch(draw, label_len=None):
    """Keys of one width (a label's, or any other from 16 bytes up), labels
    of one width, and how many leading rows are head rows."""
    if label_len is None:
        label_len = draw(st.sampled_from([16, 17, 20, 24, 32, 55]))
    count = draw(st.integers(min_value=1, max_value=9))
    other = draw(st.integers(min_value=0, max_value=9)) == 0
    key_len = draw(st.integers(16, 64)) if other else label_len
    keys = draw(
        st.lists(st.binary(min_size=key_len, max_size=key_len), min_size=count, max_size=count)
    )
    labels = draw(
        st.lists(
            st.binary(min_size=label_len, max_size=label_len), min_size=count, max_size=count
        )
    )
    nonce = draw(st.binary(min_size=16, max_size=16))
    head = draw(st.integers(min_value=1, max_value=count))
    return keys, labels, nonce, head


@settings(max_examples=60, deadline=None)
@given(batch=_row_batch())
def test_seal_rows_matches_scalar_and_stdlib(batch):
    keys, labels, nonce, head = batch
    slab = _seal(keys, labels, nonce, head)
    label_len = len(labels[0])
    assert len(slab) == len(keys) * label_len + head * rows.CHECK_LEN
    scalar = [_seal([k], [v], nonce) for k, v in zip(keys, labels)]
    assert scalar == [_ref_row(k, v, nonce) for k, v in zip(keys, labels)]
    # The slab is those rows' labels, then the head rows' check blocks; a
    # request's row-by-row view inverts it.
    assert slab == _slab(scalar, head, label_len)
    if len(keys) % head == 0:
        viewed = scalar[:head] + [row[:label_len] for row in scalar[head:]]
        request = LblAccessRequest(b"k", slab, head, label_len, nonce)
        assert [row for table in request.tables for row in table] == viewed
        assert LblAccessRequest.from_tables(b"k", request.tables, nonce) == request
    # open(seal(x)) == x: one row per group, every group opened, the first
    # checked; only a key's first 16 bytes reach the pad.
    assert _open(keys, _seal(keys, labels, nonce), nonce, label_len) == labels
    assert [
        lbl_reference.open_row(k, r, nonce, label_len) for k, r in zip(keys, scalar)
    ] == labels


@settings(max_examples=60, deadline=None)
@given(batch=_row_batch(), flip=st.integers(min_value=0, max_value=127))
def test_rows_do_not_open_under_a_wrong_key_or_nonce(batch, flip):
    keys, labels, nonce, _head = batch
    slab = _seal(keys, labels, nonce)
    label_len = len(labels[0])
    n = len(keys)
    wrong_nonce = bytearray(nonce)
    wrong_nonce[flip % 16] ^= 1 << (flip % 8)
    assert _open(keys, slab, bytes(wrong_nonce), label_len) == [None] * n
    assert _open(keys, slab, b"", label_len) == [None] * n
    wrong_keys = [bytes([k[0] ^ 0x80]) + k[1:] for k in keys]
    assert _open(wrong_keys, slab, nonce, label_len) == [None] * n
    # The verdict is the run's: a wrong key on the checked row refuses every
    # row, while a wrong key on a row without a check block opens it to noise.
    assert _open([wrong_keys[0]] + keys[1:], slab, nonce, label_len) == [None] * n
    if n > 1:
        noisy = _open(keys[:-1] + wrong_keys[-1:], slab, nonce, label_len)
        assert noisy[:-1] == labels[:-1] and noisy[-1] != labels[-1]
    # A slab that is no whole number of rows, a record of short labels, a
    # slab sealed for another width: nothing opens, whatever the key.
    assert _open(keys, slab[:-1], nonce, label_len) == [None] * n
    assert rows.open_rows([(nonce, _stored(keys, 15)[: 15 * n], slab, 15, 1)]) == [None]
    assert rows.open_rows([(nonce, _stored(keys, label_len), slab, label_len, 2)]) == [None]


@settings(max_examples=40, deadline=None)
@given(first=_row_batch(), second=_row_batch())
def test_open_rows_serves_a_window_of_requests_in_one_call(first, second):
    """Runs of rows, each under its own request's nonce — and, when two
    requests differ in row width, neither refuses the other's rows."""
    runs, expected = [], []
    for keys, labels, nonce, _head in (first, second):
        label_len = len(labels[0])
        stored = _stored(keys, label_len)
        runs.append((nonce, stored, _seal(keys, labels, nonce), label_len, 1))
        expected.append(_blob(labels))
    assert rows.open_rows(runs) == expected
    # A request with a damaged check byte in the window fails alone, whole.
    nonce, stored, slab, label_len, size = runs[0]
    damaged = slab[:-1] + bytes([slab[-1] ^ 1])
    window = rows.open_rows([(nonce, stored, damaged, label_len, size), runs[1]])
    assert window == [None, expected[1]]


def test_open_rows_picks_the_slot_each_stored_label_names():
    """Tables of four rows: group ``g`` opens the row at the low two bits of
    its stored label's byte 15, and no other, group 0's check included."""
    rng = random.Random(7)
    nonce = rng.randbytes(16)
    keys = [bytearray(rng.randbytes(16)) for _ in range(12)]
    for i, key in enumerate(keys):
        key[15] = key[15] & ~3 | i % 4  # row i sits at slot i mod 4
    labels = [rng.randbytes(16) for _ in keys]
    slab = _seal(keys, labels, nonce, 4)
    for picks in ([0, 5, 10], [3, 4, 11], [2, 6, 9]):
        stored = _blob(keys[p] for p in picks)
        assert rows.open_rows([(nonce, stored, slab, 16, 4)]) == [_blob(labels[p] for p in picks)]
        request = LblAccessRequest(b"k", slab, 4, 16, nonce)
        assert lbl_reference.open_request(stored, request) == _blob(labels[p] for p in picks)


def test_row_kernel_rejects_misuse():
    from repro.errors import ConfigurationError

    key, nonce = b"k" * 16, b"n" * 16
    # A nonce whose C ⊕ j is π(0) for a block j of the row would make N_j, and
    # pad j, zero.
    zero = Cipher(algorithms.AES(lbl_reference.PI_KEY), modes.ECB()).encryptor().update(bytes(16))
    assert lbl_reference.pad_block(key, zero, 0) == bytes(16)
    for j in (0, 1, 4):
        degenerate = zero[:15] + bytes([zero[15] ^ j])
        with pytest.raises(ConfigurationError, match="pad j zero"):
            rows.seal_rows(key, b"p" * 55, 55, degenerate, 1)
        assert rows.open_rows([(degenerate, key, bytes(71), 55, 1)]) == [None]
    assert len(rows.seal_rows(key, b"p" * 16, 16, zero[:15] + bytes([zero[15] ^ 2]), 1)) == 32
    assert rows.open_rows([]) == []
    assert rows.open_rows([(nonce, b"", b"", 16, 1)]) == [None]
    for keys, labels, width, at, head in [
        (b"", b"", 16, nonce, 1),  # no rows
        (key, b"ab", 16, nonce, 1),  # a label short of its width
        (key * 2, b"a" * 33, 16, nonce, 1),  # ragged labels
        (key * 2 + b"k", b"a" * 32, 16, nonce, 1),  # ragged keys
        (b"short", b"p" * 16, 16, nonce, 1),  # a key too short to seed a pad
        (key, b"p" * 16, 16, nonce[:15], 1),
        (key, b"p" * 16, 16, nonce + b"n", 1),
        (key, b"", 0, nonce, 1),  # a row carries a label
        (key * 2, b"a" * 32, 16, nonce, 0),  # no head row: nothing checks a key
        (key * 2, b"a" * 32, 16, nonce, 3),  # more head rows than rows
    ]:
        with pytest.raises(ConfigurationError):
            rows.seal_rows(keys, labels, width, at, head)
    # A CBC pass never sees a partial triple: its context is a stream.
    with pytest.raises(ConfigurationError):
        rows.seal(b"x" * 40, 16, 1)
    assert _open([key], _seal([key], [b"p" * 16], nonce), nonce, 16) == [b"p" * 16]


@pytest.mark.parametrize("label_bits", [128, 192, 256])
def test_rows_are_metered_as_aead_ops(label_bits):
    """One row, one ``aead.*`` count, and every block through π one
    ``aes.blocks``: two CBC passes over three blocks per label block and
    per check (the tweak blocks are the nonce XOR their index)."""
    from repro.obs import ledger

    label_len = label_bits // 8
    blocks = -(-label_len // 16)
    keys = [bytes([i]) * label_len for i in range(1, 5)]
    labels = [bytes([i]) * label_len for i in range(4)]
    nonce = b"n" * 16
    obs.reset()
    obs.enable()
    try:
        slab = _seal(keys, labels, nonce, 1)
        _seal(keys[:1], labels[:1], nonce)
        _open(keys, slab, nonce, label_len)
        rows.open_rows(
            [
                (nonce, _stored(keys[::-1], label_len), slab, label_len, 1),  # wrong keys
                (nonce, _stored(keys[1:], label_len), slab, label_len, 1),  # a short record
                (nonce[:8], _stored(keys, label_len), slab, label_len, 1),  # refused whole
            ]
        )
        metered = {op: n for op, n in ledger.registry_ops_snapshot().items() if n}
    finally:
        obs.disable()
        obs.reset()
    passes = 6 * ((4 * blocks + 1) + (blocks + 1) + (4 * blocks + 1) + (4 * blocks + 1))
    assert metered == {
        "aead.encrypts": 5,
        "aead.decrypts": 4,
        "aead.decrypt_failures": 4 + 3 + 4,
        "aes.blocks": passes,
    }
