"""Golden vectors + batch-vs-scalar cross-checks for the crypto kernels.

The batched fast paths (precomputed HMAC key state, fused label derivation,
batch AEAD) must be drop-in: byte-identical to the constructions they
replace.  Two independent nets catch a silent change:

* **pinned vectors** — exact outputs of :meth:`Prf.evaluate`,
  :meth:`LabelCodec.label`, :meth:`LabelCodec.permute_offsets`,
  :func:`aead.encrypt` (fixed nonce) and the point-and-permute row kernel
  :func:`rows.seal_row`, plus a live re-derivation of each from
  the *stdlib* ``hmac`` module, so a vector can only move if the documented
  construction itself changes;
* **Hypothesis cross-checks** — every batch entry point agrees with its
  scalar counterpart on arbitrary inputs.
"""

from __future__ import annotations

import hashlib
import hmac

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.crypto import aead, rows
from repro.crypto.labels import LabelCodec
from repro.crypto.prf import Prf, PrfContext, encode_components

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
# Labels are slices of one wide output per (key, group, epoch): value 1 is
# bytes 16..32 of block 0, value 3 is bytes 16..32 of block 1.
_LABEL_VECTOR = bytes.fromhex("19da51878a5875e4ab36fc3d6c7f8042")
_LABEL_VECTOR_BLOCK1 = bytes.fromhex("4d5a319048b9ae53139df7f3661505e5")
# 40 groups: the offset stream spans two HMAC blocks.
_OFFSETS_VECTOR = bytes.fromhex(
    "00000203020101010303000203030002020001020002020101000301020303000203000103010302"
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
    codec = LabelCodec(
        Prf(b"\x01" * 32, out_bytes=16),
        Prf(b"\x02" * 32, out_bytes=16),
        value_len=4,
        group_bits=2,
    )
    assert codec.label("obj", 2, 1, 7) == _LABEL_VECTOR
    assert codec.label("obj", 2, 3, 7) == _LABEL_VECTOR_BLOCK1
    wide = _ref_prf(b"\x01" * 32, ("label", "obj", 2, 7), 4 * 16)
    assert Prf(b"\x01" * 32).evaluate("label", "obj", 2, 7, out_bytes=64) == wide
    assert wide[16:32] == _LABEL_VECTOR
    assert wide[48:64] == _LABEL_VECTOR_BLOCK1


def test_permute_offsets_vector():
    codec = LabelCodec(
        Prf(b"\x01" * 32, out_bytes=16),
        Prf(b"\x02" * 32, out_bytes=16),
        value_len=10,
        group_bits=2,
    )
    assert bytes(codec.permute_offsets("obj", 7)) == _OFFSETS_VECTOR
    wide = _ref_prf(b"\x02" * 32, ("permute", "obj", 7), codec.num_groups)
    assert bytes(b % 4 for b in wide) == _OFFSETS_VECTOR


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
    assert batch == [ctx.evaluate_tail(tail) for tail in tails]


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


@settings(max_examples=30, deadline=None)
@given(
    keys=st.lists(st.binary(min_size=16, max_size=32), min_size=2, max_size=6, unique=True),
    winner=st.integers(min_value=0, max_value=5),
    payload=st.binary(min_size=1, max_size=64),
)
def test_open_any_matches_try_decrypt(keys, winner, payload):
    winner %= len(keys)
    table = [aead.encrypt(key, payload) for key in keys]
    hit = aead.open_any(keys[winner], table)
    assert hit == (winner, payload)
    scalar = next(
        (
            (index, aead.try_decrypt(keys[winner], ciphertext))
            for index, ciphertext in enumerate(table)
            if aead.try_decrypt(keys[winner], ciphertext) is not None
        ),
        None,
    )
    assert scalar == hit


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


@settings(max_examples=30, deadline=None)
@given(
    key=_keys,
    suffixes=st.lists(_components, min_size=1, max_size=5),
    blocks=st.integers(min_value=1, max_value=3),
    first=st.integers(min_value=0, max_value=3),
)
def test_block_digests_match_wide_evaluate(key, suffixes, blocks, first):
    """Digest ``c`` of a tail is bytes ``[32c, 32c + 32)`` of the wide output."""
    prf = Prf(key, out_bytes=16)
    ctx = prf.context("ctx-prefix", 7)
    digests = ctx.block_digests(
        [encode_components(*suffix) for suffix in suffixes], blocks, first
    )
    wide_len = 32 * (first + blocks)
    expected = []
    for suffix in suffixes:
        wide = prf.evaluate("ctx-prefix", 7, *suffix, out_bytes=wide_len)
        expected += [wide[32 * c : 32 * c + 32] for c in range(first, first + blocks)]
    assert digests == expected


@settings(max_examples=40, deadline=None)
@given(
    value_len=st.sampled_from([1, 4, 20]),
    group_bits=st.sampled_from([1, 2, 3, 4]),
    # 16: two labels per block; 32: one per block; 24: labels straddle blocks.
    label_len=st.sampled_from([16, 24, 32]),
    counter=st.integers(min_value=0, max_value=1000),
)
def test_labels_for_groups_matches_scalar(value_len, group_bits, label_len, counter):
    """Batched, fused and scalar derivations are slices of one wide output
    (``group_bits=3`` at 16 B: a table that is not a whole number of blocks)."""
    label_key = b"\x03" * 32
    codec = LabelCodec(
        Prf(label_key, out_bytes=label_len),
        Prf(b"\x04" * 32, out_bytes=16),
        value_len=value_len,
        group_bits=group_bits,
    )
    rows = codec.labels_for_groups("some-key", counter)
    assert rows == [
        codec.labels_for_group("some-key", index, counter)
        for index in range(codec.num_groups)
    ]
    table_size = 1 << group_bits
    for index in (0, codec.num_groups - 1):
        wide = _ref_prf(
            label_key, ("label", "some-key", index, counter), table_size * label_len
        )
        assert rows[index] == [
            wide[v * label_len : (v + 1) * label_len] for v in range(table_size)
        ]
    groups = [(index + counter) % table_size for index in range(codec.num_groups)]
    assert codec.encode_groups("some-key", groups, counter) == [
        rows[index][group] for index, group in enumerate(groups)
    ]


@settings(max_examples=30, deadline=None)
@given(
    # 8 B / y=2: 32 groups, one block; 10 B: 40 groups; 20 B / y=1: 160 groups.
    shape=st.sampled_from([(8, 2), (10, 2), (20, 1), (3, 3)]),
    counter=st.integers(min_value=0, max_value=1000),
)
def test_permute_offsets_match_scalar(shape, counter):
    value_len, group_bits = shape
    permute_key = b"\x06" * 32
    codec = LabelCodec(
        Prf(b"\x05" * 32, out_bytes=16),
        Prf(permute_key, out_bytes=16),
        value_len=value_len,
        group_bits=group_bits,
    )
    offsets = codec.permute_offsets("some-key", counter)
    assert offsets == [
        codec.permute_offset("some-key", index, counter)
        for index in range(codec.num_groups)
    ]
    wide = _ref_prf(permute_key, ("permute", "some-key", counter), codec.num_groups)
    assert offsets == [b % codec.table_size for b in wide]


def test_prf_context_class_exported():
    """PrfContext is part of the public kernel API."""
    ctx = Prf(b"\x07" * 32, out_bytes=16).context("p")
    assert isinstance(ctx, PrfContext)


# --------------------------------------------------------------------- #
# Point-and-permute rows: one HMAC pad per row, 8 zero check bytes
# --------------------------------------------------------------------- #


def _ref_row(key: bytes, payload: bytes, nonce: bytes) -> bytes:
    """The documented row: ``(payload ‖ 0^8) ⊕ HMAC(key, "lbl-row\\0" ‖ nonce ‖ ctr)``."""
    plain = payload + bytes(8)
    pad = b""
    counter = 0
    while len(pad) < len(plain):
        pad += hmac.new(
            key, b"lbl-row\0" + nonce + counter.to_bytes(4, "big"), hashlib.sha256
        ).digest()
        counter += 1
    return bytes(p ^ k for p, k in zip(plain, pad))


_ROW_KEY = bytes(range(16, 32))
_ROW_NONCE = bytes(range(16))
# A 128-bit label + slot byte: 25-byte row, one HMAC block.
_ROW_PAYLOAD = bytes(range(100, 117))
_ROW_VECTOR = bytes.fromhex("7bd43df9aa1084ddbd94a0aae11cea17506116d4f0a6751d7d")
# A 256-bit label + slot byte: 41-byte row, crosses into counter block 1.
_ROW_PAYLOAD_WIDE = bytes(range(200, 233))
_ROW_VECTOR_WIDE = bytes.fromhex(
    "d77891550eb4207901281c1645b84eb3fcb8cc0f2c7babc29d99c926d44ace97"
    "a79537f4a800ef2be3"
)


def test_row_vector_single_block():
    assert rows.seal_row(_ROW_KEY, _ROW_PAYLOAD, _ROW_NONCE) == _ROW_VECTOR
    assert _ref_row(_ROW_KEY, _ROW_PAYLOAD, _ROW_NONCE) == _ROW_VECTOR
    assert rows.seal_rows([_ROW_KEY], [_ROW_PAYLOAD], _ROW_NONCE) == _ROW_VECTOR
    assert rows.open_row(_ROW_KEY, _ROW_VECTOR, _ROW_NONCE) == _ROW_PAYLOAD


def test_row_vector_two_blocks():
    assert rows.seal_row(_ROW_KEY, _ROW_PAYLOAD_WIDE, _ROW_NONCE) == _ROW_VECTOR_WIDE
    assert _ref_row(_ROW_KEY, _ROW_PAYLOAD_WIDE, _ROW_NONCE) == _ROW_VECTOR_WIDE
    assert rows.seal_rows([_ROW_KEY], [_ROW_PAYLOAD_WIDE], _ROW_NONCE) == _ROW_VECTOR_WIDE
    assert rows.open_row(_ROW_KEY, _ROW_VECTOR_WIDE, _ROW_NONCE) == _ROW_PAYLOAD_WIDE


@st.composite
def _row_batch(draw):
    """Keys of one label width (or, rarely, ragged widths), equal-length payloads."""
    label_len = draw(st.sampled_from([16, 24, 32]))
    count = draw(st.integers(min_value=1, max_value=9))
    ragged = draw(st.integers(min_value=0, max_value=9)) == 0
    key_sizes = st.integers(16, 80) if ragged else st.just(label_len)
    keys = [
        draw(key_sizes.flatmap(lambda n: st.binary(min_size=n, max_size=n)))
        for _ in range(count)
    ]
    payloads = draw(
        st.lists(
            st.binary(min_size=label_len + 1, max_size=label_len + 1),
            min_size=count,
            max_size=count,
        )
    )
    nonce = draw(st.binary(min_size=16, max_size=16))
    return keys, payloads, nonce


@settings(max_examples=60, deadline=None)
@given(batch=_row_batch())
def test_seal_rows_matches_scalar_and_schedules_and_stdlib(batch):
    keys, payloads, nonce = batch
    slab = rows.seal_rows(keys, payloads, nonce)
    row_len = len(payloads[0]) + rows.CHECK_LEN
    assert len(slab) == len(keys) * row_len
    scalar = [rows.seal_row(k, p, nonce) for k, p in zip(keys, payloads)]
    assert slab == b"".join(scalar)
    assert scalar == [_ref_row(k, p, nonce) for k, p in zip(keys, payloads)]
    schedules = [aead.key_schedule(k) for k in keys]
    assert rows.seal_rows(keys, payloads, nonce, schedules=schedules) == slab
    assert rows.seal_rows(None, payloads, nonce, schedules=schedules) == slab
    # open(seal(x)) == x, batch and scalar.
    assert rows.open_rows(keys, scalar, [(nonce, len(keys))]) == payloads
    assert [rows.open_row(k, r, nonce) for k, r in zip(keys, scalar)] == payloads


@settings(max_examples=60, deadline=None)
@given(batch=_row_batch(), flip=st.integers(min_value=0, max_value=127))
def test_rows_do_not_open_under_a_wrong_key_or_nonce(batch, flip):
    keys, payloads, nonce = batch
    scalar = [rows.seal_row(k, p, nonce) for k, p in zip(keys, payloads)]
    n = len(keys)
    wrong_nonce = bytearray(nonce)
    wrong_nonce[flip % 16] ^= 1 << (flip % 8)
    assert rows.open_rows(keys, scalar, [(bytes(wrong_nonce), n)]) == [None] * n
    assert rows.open_rows(keys, scalar, [(b"", n)]) == [None] * n
    wrong_keys = [bytes([k[0] ^ 0x80]) + k[1:] for k in keys]
    assert rows.open_rows(wrong_keys, scalar, [(nonce, n)]) == [None] * n
    # Verdicts are per row: one wrong key refuses only its own row.
    mixed = [wrong_keys[0]] + keys[1:]
    assert rows.open_rows(mixed, scalar, [(nonce, n)]) == [None] + payloads[1:]
    # A row too short to hold check bytes opens to nothing, whatever the key.
    assert rows.open_row(keys[0], scalar[0][: rows.CHECK_LEN], nonce) is None


@settings(max_examples=40, deadline=None)
@given(first=_row_batch(), second=_row_batch())
def test_open_rows_serves_a_window_of_requests_in_one_call(first, second):
    """Runs of rows, each under its own request's nonce — and, when two
    requests differ in row width, neither refuses the other's rows."""
    sealed = [
        [rows.seal_row(k, p, nonce) for k, p in zip(keys, payloads)]
        for keys, payloads, nonce in (first, second)
    ]
    window = rows.open_rows(
        first[0] + second[0],
        sealed[0] + sealed[1],
        [(first[2], len(first[0])), (second[2], len(second[0]))],
    )
    assert window == first[1] + second[1]
    # A damaged request in the window fails alone, row for row.
    damaged = [row[:-1] + bytes([row[-1] ^ 1]) for row in sealed[0]]
    window = rows.open_rows(
        first[0] + second[0],
        damaged + sealed[1],
        [(first[2], len(first[0])), (second[2], len(second[0]))],
    )
    assert window == [None] * len(first[0]) + second[1]


def test_row_kernel_rejects_misuse():
    from repro.errors import ConfigurationError

    key, nonce = b"k" * 16, b"n" * 16
    assert rows.seal_rows([], [], nonce) == b""
    assert rows.open_rows([], [], []) == []
    with pytest.raises(ConfigurationError):
        rows.seal_rows([key], [b"a", b"b"], nonce)
    with pytest.raises(ConfigurationError):
        rows.seal_rows([key, key], [b"aa", b"b"], nonce)  # ragged payloads
    with pytest.raises(ConfigurationError):
        rows.seal_rows([b"short"], [b"payload"], nonce)
    with pytest.raises(ConfigurationError):
        rows.seal_rows([key], [b"payload"], nonce, schedules=[])
    with pytest.raises(ConfigurationError):
        rows.open_rows([key], [], [(nonce, 1)])
    with pytest.raises(ConfigurationError):
        rows.open_rows([key, key], [b"r" * 25] * 2, [(nonce, 1)])  # runs cover 1 of 2


@pytest.mark.parametrize("label_bits", [128, 192, 256])
def test_rows_are_metered_as_aead_ops(label_bits):
    """One row, one ``aead.*`` count — batch and scalar alike."""
    from repro.obs import ledger

    label_len = label_bits // 8
    keys = [bytes([i]) * label_len for i in range(1, 5)]
    payloads = [bytes([i]) * (label_len + 1) for i in range(4)]
    nonce = b"n" * 16
    obs.reset()
    obs.enable()
    try:
        with ledger.track(label="rows") as row:
            slab = rows.seal_rows(keys, payloads, nonce)
            rows.seal_row(keys[0], payloads[0], nonce)
            size = len(slab) // 4
            sealed = [slab[i * size : (i + 1) * size] for i in range(4)]
            rows.open_rows(keys, sealed, [(nonce, 4)])
            rows.open_rows(keys[::-1], sealed, [(nonce, 2), (nonce, 2)])
    finally:
        obs.disable()
        obs.reset()
    assert row.snapshot()["ops"] == {
        "aead.encrypts": 5,
        "aead.decrypts": 4,
        "aead.decrypt_failures": 4,
    }
