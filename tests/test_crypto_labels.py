"""Tests for the LBL-ORTOA label codec (bit packing, derivation, inversion)."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.messages import LblAccessResponse
from repro.crypto.keys import KeyChain
from repro.crypto.labels import (
    LabelCodec, groups_to_value, pack_slots, reply_digest, value_to_groups,
)
from repro.errors import ConfigurationError, TamperDetectedError
from tests import lbl_reference


def make_codec(value_len=4, group_bits=1, label_bits=128):
    kc = KeyChain(b"m" * 32, label_bits=label_bits)
    return LabelCodec(
        kc.label_xof,
        label_len=label_bits // 8,
        value_len=value_len,
        group_bits=group_bits,
    )


# --------------------------------------------------------------------- #
# Group packing
# --------------------------------------------------------------------- #

def test_value_to_groups_bits():
    assert value_to_groups(b"\xa5", 1) == (1, 0, 1, 0, 0, 1, 0, 1)


def test_value_to_groups_pairs():
    assert value_to_groups(b"\xa5", 2) == (0b10, 0b10, 0b01, 0b01)


def test_value_to_groups_pads_last_group():
    # 8 bits into groups of 3 -> 3 groups, last padded with a zero bit.
    assert value_to_groups(b"\xff", 3) == (0b111, 0b111, 0b110)


def test_groups_roundtrip_various_y():
    value = bytes([0x12, 0x34, 0xAB, 0xFF])
    for y in (1, 2, 3, 4, 5, 8):
        groups = value_to_groups(value, y)
        assert groups_to_value(groups, y, len(value)) == value


def test_groups_to_value_validates_length_and_range():
    with pytest.raises(ConfigurationError):
        groups_to_value((0,) * 7, 1, 1)  # needs 8 groups
    with pytest.raises(ConfigurationError):
        groups_to_value((2,) * 8, 1, 1)  # bit group can't hold 2
    with pytest.raises(ConfigurationError):
        value_to_groups(b"x", 0)


@given(st.binary(min_size=1, max_size=64), st.integers(min_value=1, max_value=8))
@settings(max_examples=100)
def test_group_packing_roundtrip_property(value, y):
    assert groups_to_value(value_to_groups(value, y), y, len(value)) == value


@pytest.mark.parametrize("y", [0, 9])
def test_group_packing_refuses_y_outside_store_config_range(y):
    """StoreConfig's 1..8: a group value travels as one byte."""
    with pytest.raises(ConfigurationError):
        value_to_groups(b"x", y)
    with pytest.raises(ConfigurationError):
        groups_to_value((0,) * 8, y, 1)
    with pytest.raises(ConfigurationError):
        make_codec(value_len=1, group_bits=y)


# --------------------------------------------------------------------- #
# Label derivation
# --------------------------------------------------------------------- #

def test_num_groups():
    assert make_codec(value_len=4, group_bits=1).num_groups == 32
    assert make_codec(value_len=4, group_bits=2).num_groups == 16
    assert make_codec(value_len=4, group_bits=3).num_groups == 11


def _encode(codec, key: str, value: bytes, counter: int) -> bytes:
    """The labels the server stores for ``value`` at ``counter``."""
    return codec.select(codec.epoch(key, counter), value_to_groups(value, codec.group_bits))


def _reply(codec, blob: bytes, value: bytes, labels: "bytes | None" = None) -> tuple:
    """``(slot_bits, slots, digest)`` of the server that stores ``value`` at
    epoch ``blob``: its slots packed, and the digest of ``labels`` (by default
    the labels it stores)."""
    groups, bits = value_to_groups(value, codec.group_bits), codec.group_bits
    if labels is None:
        labels = codec.select(blob, groups)
    return bits, pack_slots(codec.slots(blob, groups), bits), reply_digest(labels)


def test_labels_deterministic_per_counter():
    codec = make_codec()
    assert codec.labels(codec.epoch("k", 7)) == codec.labels(codec.epoch("k", 7))
    assert codec.labels(codec.epoch("k", 7))[1] != codec.labels(codec.epoch("k", 8))[1]


def test_labels_distinct_across_dimensions():
    codec = make_codec(group_bits=2)
    labels = {
        label
        for k in ("a", "b")
        for ct in range(3)
        for label in codec.labels(codec.epoch(k, ct))[: 3 * 4]  # 3 groups x 4
    }
    assert len(labels) == 2 * 3 * 4 * 3


def test_encode_decode_roundtrip():
    codec = make_codec(value_len=8, group_bits=2)
    value = b"\x01\x02\x03\x04\x05\x06\x07\x08"
    labels = _encode(codec, "key", value, counter=3)
    assert len(labels) == codec.num_groups * codec.label_len
    blob = codec.epoch("key", 3)
    assert codec.decode(blob, *_reply(codec, blob, value)) == value


def test_decode_with_wrong_counter_detects_tamper():
    codec = make_codec()
    reply = _reply(codec, codec.epoch("key", 1), b"abcd")
    with pytest.raises(TamperDetectedError):
        codec.decode(codec.epoch("key", 2), *reply)


def test_decode_with_corrupted_label_detects_tamper():
    codec = make_codec()
    labels = _encode(codec, "key", b"abcd", counter=1)
    corrupt = labels[: 5 * 16] + bytes(16) + labels[6 * 16 :]
    blob = codec.epoch("key", 1)
    with pytest.raises(TamperDetectedError):
        codec.decode(blob, *_reply(codec, blob, b"abcd", corrupt))


def test_encode_value_rejects_wrong_length():
    codec = make_codec(value_len=4)
    with pytest.raises(ConfigurationError):
        _encode(codec, "k", b"toolongvalue", counter=0)
    with pytest.raises(TamperDetectedError):
        codec.decode(codec.epoch("k", 0), 1, b"x" * 16, bytes(16))


def test_label_group_value_range_checked():
    codec = make_codec(group_bits=2)
    with pytest.raises(ConfigurationError):
        codec.select(codec.epoch("k", 0), (4,) + (0,) * 15)


# --------------------------------------------------------------------- #
# Point-and-permute bits
# --------------------------------------------------------------------- #

def test_permute_offset_in_range_and_deterministic():
    codec = make_codec(group_bits=2)
    for ct in range(10):
        offsets = codec.offsets(codec.epoch("k", ct))
        assert len(offsets) == codec.num_groups and max(offsets) < 4
        assert offsets == codec.offsets(codec.epoch("k", ct))


def test_permute_offsets_vary():
    codec = make_codec(group_bits=2)
    offsets = {o for ct in range(8) for o in codec.offsets(codec.epoch("k", ct))[:8]}
    assert len(offsets) > 1


def test_decrypt_index_is_xor_link():
    codec = make_codec(group_bits=2)
    blob = codec.epoch("k", 5)
    groups = [index % 4 for index in range(codec.num_groups)]
    assert codec.slots(blob, groups) == bytes(
        v ^ r for v, r in zip(groups, codec.offsets(blob))
    )


def test_decrypt_index_is_permutation_over_group_values():
    """Distinct group values must map to distinct table slots (it's a XOR)."""
    codec = make_codec(group_bits=2)
    blob = codec.epoch("k", 9)
    rest = (0,) * (codec.num_groups - 1)
    assert {codec.slots(blob, (v,) + rest)[0] for v in range(4)} == {0, 1, 2, 3}


@given(st.binary(min_size=2, max_size=16), st.integers(min_value=0, max_value=50))
@settings(max_examples=50)
def test_codec_roundtrip_property(value, counter):
    codec = make_codec(value_len=len(value), group_bits=2)
    blob = codec.epoch("key", counter)
    assert codec.decode(blob, *_reply(codec, blob, value)) == value


# --------------------------------------------------------------------- #
# The epoch blob: one XOF call for its key, one AES-CTR keystream, and the
# only definition of every view
# --------------------------------------------------------------------- #

def _bare_epoch(codec, master: bytes, key: str, counter: int) -> bytes:
    """An epoch re-derived from the bare ``hashlib`` / ``hmac`` calls and an
    AES-CTR context of its own."""
    import hashlib
    import hmac

    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

    from repro.crypto.prf import encode_components

    def hmac_prf(prf_key: bytes, *components) -> bytes:
        message = (0).to_bytes(4, "big") + encode_components(*components)
        return hmac.new(prf_key, message, hashlib.sha256).digest()

    subkey = hmac_prf(master, "subkey", "labels")
    shape = (codec.num_groups, codec.table_size, codec.label_len)
    epoch_key = hashlib.shake_256(
        subkey.ljust(136, b"\x00")
        + encode_components(*shape)
        + encode_components(key, counter)
    ).digest(16)
    stream = Cipher(algorithms.AES(epoch_key), modes.CTR(bytes(12) + b"\0\0\0\2")).encryptor()
    return stream.update(bytes(codec.num_groups * codec.table_size * codec.label_len + codec.num_groups))


@pytest.mark.parametrize("label_bits", [128, 256])
@pytest.mark.parametrize("group_bits", [1, 2, 4, 8])
def test_epoch_is_one_shake_call_and_every_view_is_a_slice_of_it(group_bits, label_bits):
    """One SHAKE-256 call squeezes the epoch's AES key, whose CTR keystream
    is the blob; labels and offsets are slices of it."""
    codec = make_codec(value_len=3, group_bits=group_bits, label_bits=label_bits)
    blob = codec.epoch("obj", 7)
    assert blob == _bare_epoch(codec, b"m" * 32, "obj", 7)
    assert len(blob) == codec.epoch_len == codec.labels_len + codec.num_groups
    size, width = codec.table_size, codec.label_len
    labels = codec.labels(blob)
    assert len(labels) == codec.num_groups * size
    assert b"".join(labels) == blob[: codec.labels_len]
    assert all(len(label) == width for label in labels)
    assert codec.offsets(blob) == bytes(b % size for b in blob[codec.labels_len :])


def test_epochs_of_different_shapes_share_no_stream():
    """The header encodes ``(G, 2^y, label_len)``: a prefix of one shape's
    epoch is never another shape's epoch."""
    blobs = [
        make_codec(value_len=value_len, group_bits=group_bits).epoch("obj", 7)[:16]
        for value_len, group_bits in ((4, 1), (4, 2), (8, 2), (8, 4))
    ]
    blobs.append(make_codec(value_len=4, label_bits=256).epoch("obj", 7)[:16])
    assert len(set(blobs)) == len(blobs)


def test_select_and_slots_pick_one_label_and_one_slot_per_group():
    codec = make_codec(value_len=2, group_bits=2)
    blob = codec.epoch("obj", 3)
    groups = value_to_groups(b"\x1b\xe4", 2)
    stored = codec.select(blob, groups)
    offsets = blob[codec.labels_len :]
    assert codec.slots(blob, groups) == bytes(
        value ^ (offsets[index] % 4) for index, value in enumerate(groups)
    )
    # Slot order: a group's label of value v is its entry at slot v ⊕ r_i.
    assert stored == b"".join(
        blob[(index * 4 + slot) * 16 :][:16] for index, slot in enumerate(codec.slots(blob, groups))
    )
    with pytest.raises(ConfigurationError):
        codec.select(blob, groups[:-1])
    with pytest.raises(ConfigurationError):
        codec.select(blob, (4,) + groups[1:])


def test_decode_matches_at_label_boundaries_only():
    """A digest over a label that occurs in its group's window only *across*
    two candidates is refused (§5.4)."""
    codec = make_codec(value_len=1, group_bits=2)
    blob = codec.epoch("obj", 1)
    honest = codec.select(blob, value_to_groups(b"\x6c", 2))
    assert codec.decode(blob, *_reply(codec, blob, b"\x6c", honest)) == b"\x6c"
    straddling = blob[8:24] + honest[16:]
    with pytest.raises(TamperDetectedError):
        codec.decode(blob, *_reply(codec, blob, b"\x6c", straddling))
    # ...and so is one over another group's label in this group's place.
    swapped = honest[16:32] + honest[:16] + honest[32:]
    with pytest.raises(TamperDetectedError):
        codec.decode(blob, *_reply(codec, blob, b"\x6c", swapped))


# --------------------------------------------------------------------- #
# The slab packers and read-back against the loop oracles of lbl_reference
# --------------------------------------------------------------------- #

_Y = st.integers(min_value=1, max_value=8)  # every y, the ones not dividing 8 too


@given(st.binary(min_size=1, max_size=200), _Y)
@settings(max_examples=150)
def test_group_packing_matches_the_int_loop_oracle(value, y):
    groups = value_to_groups(value, y)
    assert list(groups) == lbl_reference.value_to_groups(value, y)
    assert groups_to_value(groups, y, len(value)) == value
    assert groups_to_value(list(groups), y, len(value)) == lbl_reference.groups_to_value(
        list(groups), y, len(value)
    )


@given(st.integers(min_value=1, max_value=200), _Y, st.data())
@settings(max_examples=100)
def test_groups_to_value_matches_the_int_loop_oracle_on_any_groups(value_len, y, data):
    """Groups whose pad bits are set too: both drop them."""
    count = -(-value_len * 8 // y)
    groups = data.draw(
        st.lists(st.integers(min_value=0, max_value=(1 << y) - 1), min_size=count, max_size=count)
    )
    expected = lbl_reference.groups_to_value(groups, y, value_len)
    assert groups_to_value(groups, y, value_len) == expected


def _honest(codec, blob: bytes, value: bytes) -> bytes:
    """The labels the server stores for ``value``: label ``g_i`` of group
    ``i``, sliced straight out of the epoch blob at slot ``g_i ⊕ r_i``."""
    width, size = codec.label_len, codec.table_size
    groups = lbl_reference.value_to_groups(value, codec.group_bits)
    offsets = blob[codec.labels_len :]
    return b"".join(
        blob[(i * size + (g ^ offsets[i] % size)) * width :][:width] for i, g in enumerate(groups)
    )


def _reference_finalize(codec, blob: bytes, bits: int, slots: bytes, digest: bytes) -> bytes:
    frame = LblAccessResponse(slots, bits, digest).to_bytes()
    return lbl_reference.finalize(
        blob, frame, label_len=codec.label_len, group_bits=codec.group_bits,
        value_len=codec.value_len,
    )


@given(st.binary(min_size=1, max_size=200), _Y, st.integers(min_value=0, max_value=9))
@settings(max_examples=80, deadline=None)
def test_decode_matches_the_group_loop_oracle(value, y, counter):
    codec = make_codec(value_len=len(value), group_bits=y)
    blob = codec.epoch("obj", counter)
    reply = _reply(codec, blob, value, _honest(codec, blob, value))
    assert codec.decode(blob, *reply) == value == _reference_finalize(codec, blob, *reply)


def _tampered(codec, blob: bytes, labels: bytes, group: int, label: bytes) -> bytes:
    width = codec.label_len
    assert len(label) == width
    return labels[: group * width] + label + labels[(group + 1) * width :]


def _both_refuse(codec, blob: bytes, value: bytes, labels: bytes) -> None:
    """The kernel and the oracle both refuse a reply for ``value`` whose
    digest is over ``labels``."""
    reply = _reply(codec, blob, value, labels)
    with pytest.raises(TamperDetectedError, match="reply digest"):
        codec.decode(blob, *reply)
    with pytest.raises(TamperDetectedError, match="reply digest"):
        _reference_finalize(codec, blob, *reply)


@given(st.binary(min_size=1, max_size=40), _Y, st.data())
@settings(max_examples=80, deadline=None)
def test_one_flipped_byte_in_any_group_is_refused(value, y, data):
    """A digest over one damaged label: the reply is refused, no group named
    (a digest cannot say which label differs)."""
    codec = make_codec(value_len=len(value), group_bits=y)
    blob = codec.epoch("obj", 1)
    labels = _honest(codec, blob, value)
    group = data.draw(st.integers(min_value=0, max_value=codec.num_groups - 1))
    at = data.draw(st.integers(min_value=0, max_value=codec.label_len - 1))
    label = bytearray(labels[group * codec.label_len :][: codec.label_len])
    label[at] ^= data.draw(st.integers(min_value=1, max_value=255))
    _both_refuse(codec, blob, value, _tampered(codec, blob, labels, group, bytes(label)))


@given(st.binary(min_size=1, max_size=40), _Y, st.data())
@settings(max_examples=80, deadline=None)
def test_a_label_spliced_from_two_adjacent_candidates_is_no_candidate(value, y, data):
    """It occurs in the group's window, across a candidate boundary."""
    codec = make_codec(value_len=len(value), group_bits=y)
    blob = codec.epoch("obj", 2)
    labels, width, size = _honest(codec, blob, value), codec.label_len, codec.table_size
    group = data.draw(st.integers(min_value=0, max_value=codec.num_groups - 1))
    slot = data.draw(st.integers(min_value=0, max_value=size - 2))
    shift = data.draw(st.integers(min_value=1, max_value=width - 1))
    start = (group * size + slot) * width + shift
    spliced = blob[start : start + width]
    assert spliced in blob[group * size * width : (group + 1) * size * width]
    _both_refuse(codec, blob, value, _tampered(codec, blob, labels, group, spliced))


@given(st.binary(min_size=1, max_size=40), _Y, st.data())
@settings(max_examples=80, deadline=None)
def test_a_label_copied_from_another_groups_window_is_no_candidate(value, y, data):
    codec = make_codec(value_len=len(value), group_bits=y)
    assume(codec.num_groups >= 2)
    blob = codec.epoch("obj", 3)
    labels, width, size = _honest(codec, blob, value), codec.label_len, codec.table_size
    group, other = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=codec.num_groups - 1),
            min_size=2, max_size=2, unique=True,
        )
    )
    slot = data.draw(st.integers(min_value=0, max_value=size - 1))
    copied = blob[(other * size + slot) * width :][:width]
    _both_refuse(codec, blob, value, _tampered(codec, blob, labels, group, copied))
