"""Golden vectors + reference cross-checks for the crypto kernels.

The batched fast paths (precomputed HMAC key state, one-call label epochs,
batch AEAD and rows) must be drop-in: byte-identical to the documented
constructions.  Two independent nets catch a silent change:

* **pinned vectors** — exact outputs of :meth:`Prf.evaluate`,
  :meth:`LabelCodec.labels`, :meth:`LabelCodec.offsets`,
  :func:`aead.encrypt` (fixed nonce) and the point-and-permute row kernel
  :func:`rows.seal_rows`, plus a live re-derivation of each from the bare
  calls (``hmac``, ``hashlib.shake_256``, ``Cipher(AES(key), ECB())``), so a
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
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.lbl.proxy import LblProxy
from repro.crypto import aead, rows
from repro.crypto.keys import KeyChain
from repro.crypto.labels import LabelCodec
from repro.crypto.prf import Prf, PrfContext, encode_components, keyed_xof
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


def _ref_epoch(label_key: bytes, codec: LabelCodec, key: str, counter: int) -> bytes:
    """The documented epoch: one prefix-keyed SHAKE-256 call via the stdlib only."""
    shape = (codec.num_groups, codec.table_size, codec.label_len)
    return hashlib.shake_256(
        label_key.ljust(136, b"\x00")
        + encode_components(*shape)
        + encode_components(key, counter)
    ).digest(codec.num_groups * codec.table_size * codec.label_len + codec.num_groups)


def _codec(label_key: bytes, value_len: int, group_bits: int, label_len: int = 16):
    return LabelCodec(
        keyed_xof(label_key),
        label_len=label_len,
        value_len=value_len,
        group_bits=group_bits,
    )


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
# Labels are slices of one epoch per (key, epoch): label v of group i is
# bytes [(4i + v)·16, +16) of the blob — here 144..160 and 176..192.
_LABEL_VECTOR = bytes.fromhex("f1675ea4fa4518aedd8a129686cd6761")
_LABEL_VECTOR_VALUE3 = bytes.fromhex("5cd63f01807e150207b26e6ce831a3c1")
# 40 groups: the offsets are the epoch's last 40 bytes, each mod 4.
_OFFSETS_VECTOR = bytes.fromhex(
    "01020101000000000203020302020002030002030003010203010001010301020301010101020003"
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
    codec = _codec(b"\x01" * 32, value_len=4, group_bits=2)
    labels = codec.labels(codec.epoch("obj", 7))
    assert (labels[2 * 4 + 1], labels[2 * 4 + 3]) == (_LABEL_VECTOR, _LABEL_VECTOR_VALUE3)
    blob = _ref_epoch(b"\x01" * 32, codec, "obj", 7)
    assert codec.epoch("obj", 7) == blob
    assert len(blob) == 16 * 4 * 16 + 16
    assert blob[(2 * 4 + 1) * 16 : (2 * 4 + 2) * 16] == _LABEL_VECTOR
    assert blob[(2 * 4 + 3) * 16 : (2 * 4 + 4) * 16] == _LABEL_VECTOR_VALUE3


def test_permute_offsets_vector():
    codec = _codec(b"\x01" * 32, value_len=10, group_bits=2)
    assert codec.offsets(codec.epoch("obj", 7)) == _OFFSETS_VECTOR
    blob = _ref_epoch(b"\x01" * 32, codec, "obj", 7)
    assert bytes(b % 4 for b in blob[-codec.num_groups :]) == _OFFSETS_VECTOR


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
        blob = lbl_reference.epoch_blob(keychain, config, "k", counter + 1)
        assert lbl_reference.decode(
            blob, b"".join(labels), label_len=config.label_bits // 8,
            group_bits=config.group_bits, value_len=config.value_len,
        ) == value
        history.append(labels)
    return history


def test_prf_context_class_exported():
    """PrfContext is part of the public kernel API."""
    ctx = Prf(b"\x07" * 32, out_bytes=16).context("p")
    assert isinstance(ctx, PrfContext)


# --------------------------------------------------------------------- #
# Point-and-permute rows: a fixed-key AES pad per row, 8 zero check bytes
# --------------------------------------------------------------------- #

def _blob(items) -> bytes:
    return b"".join(items)


_ROW_KEY = bytes(range(16, 32))
_ROW_NONCE = bytes(range(16))
# A 128-bit label + slot byte: 25-byte row, two blocks of pad.
_ROW_PAYLOAD = bytes(range(100, 117))
_ROW_VECTOR = bytes.fromhex("3dc73668a5f0a3272143a20a03ea2fa223e53095a71a7d4a6b")
# A 256-bit label + slot byte: 41-byte row, three blocks of pad.
_ROW_PAYLOAD_WIDE = bytes(range(200, 233))
_ROW_VECTOR_WIDE = bytes.fromhex(
    "916b9ac4015407839dff1eb6a74e8b068f3cea4e7bc7a3958bd3c191c41e2184"
    "a5fc8d27f38f63261f"
)
# The widest row: a 55-byte label's 64 bytes, four whole blocks of pad, under
# a 55-byte key of which the pad sees the first 16.
_ROW_VECTOR_WIDEST = bytes.fromhex(
    "a524bb2dbe2f537dc6ab476007ad45b2ba115ac7db3556829574ff10b1307f01"
    "d96145710e04ba6a24bd65af61abedd1e86e106346a5ae3e183bb20f5fef9a48"
)


def _seal(keys, payloads, nonce) -> bytes:
    """The batch kernel over per-row ``label ‖ slot byte`` payloads."""
    return rows.seal_rows(
        _blob(keys), _blob(p[:-1] for p in payloads), _blob(p[-1:] for p in payloads), nonce
    )


def _open(keys, slab, nonce, row_len, picks=None):
    """One run through the window kernel: its payloads, ``None`` where refused."""
    picks = list(range(len(keys))) if picks is None else picks
    ((labels, slots, failed),) = rows.open_rows(
        [(nonce, _blob(keys), slab, row_len, picks)]
    )
    width = len(labels) // len(keys) if labels else 0
    return [
        None if i in failed else labels[i * width : (i + 1) * width] + slots[i : i + 1]
        for i in range(len(keys))
    ]


def test_row_vector_single_block():
    assert _ref_row(_ROW_KEY, _ROW_PAYLOAD, _ROW_NONCE) == _ROW_VECTOR
    assert _seal([_ROW_KEY], [_ROW_PAYLOAD], _ROW_NONCE) == _ROW_VECTOR
    assert rows.open_row(_ROW_KEY, _ROW_VECTOR, _ROW_NONCE) == _ROW_PAYLOAD


def test_row_vector_two_blocks():
    """A 41-byte row — two blocks of the HMAC pad this format once was, three
    of this one — and the widest row there is."""
    assert _ref_row(_ROW_KEY, _ROW_PAYLOAD_WIDE, _ROW_NONCE) == _ROW_VECTOR_WIDE
    assert _seal([_ROW_KEY], [_ROW_PAYLOAD_WIDE], _ROW_NONCE) == _ROW_VECTOR_WIDE
    assert rows.open_row(_ROW_KEY, _ROW_VECTOR_WIDE, _ROW_NONCE) == _ROW_PAYLOAD_WIDE
    # Block j of a pad is a function of j, not of the row's width: a wider
    # row extends a narrower one's pad.
    narrow = _ref_row(_ROW_KEY, _ROW_PAYLOAD_WIDE[:17], _ROW_NONCE)
    assert _xor(narrow, _ROW_VECTOR_WIDE)[:17] == _xor(_ROW_PAYLOAD_WIDE[:17], _ROW_PAYLOAD_WIDE)
    assert _ref_row(b"k" * 55, b"p" * 56, _ROW_NONCE) == _ROW_VECTOR_WIDEST
    assert _seal([b"k" * 55], [b"p" * 56], _ROW_NONCE) == _ROW_VECTOR_WIDEST
    assert _seal([b"k" * 16], [b"p" * 56], _ROW_NONCE) == _ROW_VECTOR_WIDEST
    assert rows.open_row(b"k" * 55, _ROW_VECTOR_WIDEST, _ROW_NONCE) == b"p" * 56


@st.composite
def _row_batch(draw, label_len=None):
    """Keys of one width (a label's, or any other from 16 bytes up), payloads
    of one label width."""
    if label_len is None:
        label_len = draw(st.sampled_from([16, 20, 24, 32, 55]))
    count = draw(st.integers(min_value=1, max_value=9))
    other = draw(st.integers(min_value=0, max_value=9)) == 0
    key_len = draw(st.integers(16, 64)) if other else label_len
    keys = draw(
        st.lists(st.binary(min_size=key_len, max_size=key_len), min_size=count, max_size=count)
    )
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
def test_seal_rows_matches_scalar_and_stdlib(batch):
    keys, payloads, nonce = batch
    slab = _seal(keys, payloads, nonce)
    row_len = len(payloads[0]) + rows.CHECK_LEN
    assert len(slab) == len(keys) * row_len
    scalar = [_seal([k], [p], nonce) for k, p in zip(keys, payloads)]
    assert scalar == [_ref_row(k, p, nonce) for k, p in zip(keys, payloads)]
    # The slab is those rows as two runs; the row-by-row view inverts it.
    assert slab == _slab(scalar) == rows.join_rows(scalar)
    assert rows.split_rows(slab, row_len) == scalar
    # open(seal(x)) == x, batch and scalar — any subset, in any order.
    assert _open(keys, slab, nonce, row_len) == payloads
    picks = list(range(len(keys)))[::-2]
    assert _open([keys[i] for i in picks], slab, nonce, row_len, picks) == [
        payloads[i] for i in picks
    ]
    assert [rows.open_row(k, r, nonce) for k, r in zip(keys, scalar)] == payloads


@settings(max_examples=60, deadline=None)
@given(batch=_row_batch(), flip=st.integers(min_value=0, max_value=127))
def test_rows_do_not_open_under_a_wrong_key_or_nonce(batch, flip):
    keys, payloads, nonce = batch
    slab = _seal(keys, payloads, nonce)
    row_len = len(payloads[0]) + rows.CHECK_LEN
    n = len(keys)
    wrong_nonce = bytearray(nonce)
    wrong_nonce[flip % 16] ^= 1 << (flip % 8)
    assert _open(keys, slab, bytes(wrong_nonce), row_len) == [None] * n
    assert _open(keys, slab, b"", row_len) == [None] * n
    wrong_keys = [bytes([k[0] ^ 0x80]) + k[1:] for k in keys]
    assert _open(wrong_keys, slab, nonce, row_len) == [None] * n
    # Verdicts are per row: one wrong key refuses only its own row.
    mixed = [wrong_keys[0]] + keys[1:]
    assert _open(mixed, slab, nonce, row_len) == [None] + payloads[1:]
    # Only a key's first 16 bytes reach the pad.
    if len(keys[0]) > 16:
        tail = [k[:16] + bytes(len(k) - 16) for k in keys]
        assert _open(tail, slab, nonce, row_len) == payloads
    # A row too short to hold check bytes, a slab that is no whole number of
    # rows, a row the slab does not have, a short key: nothing opens, whatever
    # the key.
    row = _seal(keys[:1], payloads[:1], nonce)
    assert rows.open_row(keys[0], row[: rows.CHECK_LEN], nonce) is None
    assert rows.open_row(keys[0], row + bytes(64), nonce) is None
    assert rows.open_row(keys[0][:15], row, nonce) is None
    assert _open(keys, slab[:-1], nonce, row_len) == [None] * n
    assert _open(keys[:1], slab, nonce, row_len, [n]) == [None]
    assert _open(keys[:1], slab, nonce, row_len, [-1]) == [None]


@settings(max_examples=40, deadline=None)
@given(first=_row_batch(), second=_row_batch())
def test_open_rows_serves_a_window_of_requests_in_one_call(first, second):
    """Runs of rows, each under its own request's nonce — and, when two
    requests differ in row width, neither refuses the other's rows."""
    runs, expected = [], []
    for keys, payloads, nonce in (first, second):
        row_len = len(payloads[0]) + rows.CHECK_LEN
        picks = list(range(len(keys)))
        runs.append((nonce, _blob(keys), _seal(keys, payloads, nonce), row_len, picks))
        expected.append((_blob(p[:-1] for p in payloads), _blob(p[-1:] for p in payloads), []))
    assert rows.open_rows(runs) == expected
    # A damaged request in the window fails alone, row for row.
    nonce, keys, slab, row_len, picks = runs[0]
    damaged = [row[:-1] + bytes([row[-1] ^ 1]) for row in rows.split_rows(slab, row_len)]
    window = rows.open_rows([(nonce, keys, rows.join_rows(damaged), row_len, picks), runs[1]])
    assert window[0][2] == picks
    assert window[1] == expected[1]


def test_row_kernel_rejects_misuse():
    from repro.errors import ConfigurationError

    key, nonce = b"k" * 16, b"n" * 16
    assert rows.open_rows([]) == []
    assert rows.open_rows([(nonce, b"", b"", 25, [])]) == [(b"", b"", [])]
    for keys, labels, slots, at in [
        (b"", b"", b"", nonce),  # no rows
        (key, b"ab", b"", nonce),  # labels without slots
        (key * 2, b"aab", b"ss", nonce),  # ragged labels
        (key * 2 + b"k", b"aabb", b"ss", nonce),  # ragged keys
        (b"short", b"payload", b"s", nonce),
        (key, b"payload", b"s", nonce[:15]),
        (key, b"payload", b"s", nonce + b"n"),
        (key, b"", b"s", nonce),  # a row carries a label
    ]:
        with pytest.raises(ConfigurationError):
            rows.seal_rows(keys, labels, slots, at)
    # 64 bytes — four blocks — is the widest row: a 55-byte label's.
    assert len(_seal([b"k" * 55], [b"p" * 56], nonce)) == rows.MAX_ROW_LEN
    with pytest.raises(ConfigurationError):
        _seal([b"k" * 56], [b"p" * 57], nonce)
    # The permutation never sees a partial block: its context is a stream.
    with pytest.raises(ConfigurationError):
        rows._permute(b"x" * 17)
    assert rows.open_row(key, _seal([key], [b"payload"], nonce), nonce) == b"payload"


@pytest.mark.parametrize("label_bits", [128, 192, 256])
def test_rows_are_metered_as_aead_ops(label_bits):
    """One row, one ``aead.*`` count — batch and scalar alike — and every
    block the permutation is fed one ``aes.blocks``."""
    from repro.obs import ledger

    label_len = label_bits // 8
    keys = [bytes([i]) * label_len for i in range(1, 5)]
    payloads = [bytes([i]) * (label_len + 1) for i in range(4)]
    nonce = b"n" * 16
    row_len = label_len + 1 + rows.CHECK_LEN
    per_row = 1 + -(-row_len // 16)
    obs.reset()
    obs.enable()
    try:
        with ledger.track(label="rows") as row:
            slab = _seal(keys, payloads, nonce)
            _seal(keys[:1], payloads[:1], nonce)
            _open(keys, slab, nonce, row_len)
            rows.open_rows(
                [
                    (nonce, _blob(keys[:1:-1]), slab, row_len, [0, 1]),
                    (nonce, _blob(keys[1::-1]), slab, row_len, [2, 3]),
                    (nonce[:8], _blob(keys), slab, row_len, [0, 1, 2, 3]),  # refused whole
                ]
            )
    finally:
        obs.disable()
        obs.reset()
    assert row.snapshot()["ops"] == {
        "aead.encrypts": 5,
        "aead.decrypts": 4,
        "aead.decrypt_failures": 8,
        "aes.blocks": (5 + 4 + 4) * per_row,
    }
