"""Tests for the LBL-ORTOA label codec (bit packing, derivation, inversion)."""

import random
import sys
import threading

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.messages import LblAccessResponse
from repro.core.lbl.proxy import LblProxy
from repro.crypto.keys import KeyChain
from repro.crypto.labels import (
    LabelCodec, groups_to_value, pack_slots, reply_digest, value_to_groups,
)
from repro.errors import ConfigurationError, TamperDetectedError
from repro.types import StoreConfig
from tests import lbl_reference


MASTER = b"m" * 32


def make_codec(value_len=4, group_bits=1, label_bits=128):
    kc = KeyChain(MASTER, label_bits=label_bits)
    return LabelCodec(
        kc.label_xof,
        kc.label_block_key,
        label_len=label_bits // 8,
        value_len=value_len,
        group_bits=group_bits,
    )


def _shape(codec):
    """The key chain and config the reference needs to re-derive ``codec``'s labels."""
    config = StoreConfig(
        value_len=codec.value_len, group_bits=codec.group_bits, label_bits=8 * codec.label_len
    )
    return KeyChain(MASTER, label_bits=config.label_bits), config


def _epoch(codec, key: str, counter: int):
    (epoch,) = codec.epochs(key, counter)
    return epoch


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
    return codec.record(_epoch(codec, key, counter), value_to_groups(value, codec.group_bits))


def _slots(codec, labels: bytes) -> bytes:
    """The slot each label names: the low ``y`` bits of its byte 15."""
    return bytes(b % codec.table_size for b in labels[15 :: codec.label_len])


def _reply(codec, epoch, value: bytes, labels: "bytes | None" = None) -> tuple:
    """``(slot_bits, slots, digest)`` of the server that stores ``value`` at
    ``epoch``: its slots packed, and the digest of ``labels`` (by default
    the labels it stores)."""
    bits = codec.group_bits
    record = codec.record(epoch, value_to_groups(value, bits))
    return bits, pack_slots(_slots(codec, record), bits), reply_digest(labels or record)


def _entries(codec, key: str, counter: int) -> "list[bytes]":
    """Every entry of an epoch in slot order: for each slot, that slot's
    entry of every group, cut to labels."""
    whitening, width = _epoch(codec, key, counter)[0], codec.label_len
    groups = codec.num_groups
    at_slot = [codec._selected(whitening, bytes([s]) * groups) for s in range(codec.table_size)]
    return [
        at_slot[s][g * width : (g + 1) * width]
        for g in range(codec.num_groups) for s in range(codec.table_size)
    ]


def test_labels_deterministic_per_counter():
    codec = make_codec()
    assert _encode(codec, "k", b"abcd", 7) == _encode(codec, "k", b"abcd", 7)
    assert _entries(codec, "k", 7) == _entries(codec, "k", 7)
    assert _encode(codec, "k", b"abcd", 7)[:16] != _encode(codec, "k", b"abcd", 8)[:16]


def test_labels_distinct_across_dimensions():
    codec = make_codec(group_bits=2)
    labels = {
        label
        for k in ("a", "b")
        for ct in range(3)
        for label in _entries(codec, k, ct)[: 3 * 4]  # 3 groups x 4
    }
    assert len(labels) == 2 * 3 * 4 * 3


def test_encode_decode_roundtrip():
    codec = make_codec(value_len=8, group_bits=2)
    value = b"\x01\x02\x03\x04\x05\x06\x07\x08"
    labels = _encode(codec, "key", value, counter=3)
    assert len(labels) == codec.num_groups * codec.label_len
    epoch = _epoch(codec, "key", 3)
    assert codec.decode(epoch, *_reply(codec, epoch, value)) == value


def test_decode_with_wrong_counter_detects_tamper():
    codec = make_codec()
    reply = _reply(codec, _epoch(codec, "key", 1), b"abcd")
    with pytest.raises(TamperDetectedError):
        codec.decode(_epoch(codec, "key", 2), *reply)


def test_decode_with_corrupted_label_detects_tamper():
    codec = make_codec()
    labels = _encode(codec, "key", b"abcd", counter=1)
    corrupt = labels[: 5 * 16] + bytes(16) + labels[6 * 16 :]
    epoch = _epoch(codec, "key", 1)
    with pytest.raises(TamperDetectedError):
        codec.decode(epoch, *_reply(codec, epoch, b"abcd", corrupt))


def test_encode_value_rejects_wrong_length():
    codec = make_codec(value_len=4)
    with pytest.raises(ConfigurationError):
        _encode(codec, "k", b"toolongvalue", counter=0)
    with pytest.raises(TamperDetectedError):
        codec.decode(_epoch(codec, "k", 0), 1, b"x" * 16, bytes(16))


def test_label_group_value_range_checked():
    codec = make_codec(group_bits=2)
    with pytest.raises(ConfigurationError):
        codec.record(_epoch(codec, "k", 0), (4,) + (0,) * 15)


# --------------------------------------------------------------------- #
# Point-and-permute bits
# --------------------------------------------------------------------- #

def test_permute_offset_in_range_and_deterministic():
    codec = make_codec(group_bits=2)
    for ct in range(10):
        offsets = _epoch(codec, "k", ct)[1]
        assert len(offsets) == codec.num_groups and max(offsets) < 4
        assert offsets == _epoch(codec, "k", ct)[1]


def test_permute_offsets_vary():
    codec = make_codec(group_bits=2)
    offsets = {o for ct in range(8) for o in _epoch(codec, "k", ct)[1][:8]}
    assert len(offsets) > 1


def test_decrypt_index_is_xor_link():
    codec = make_codec(group_bits=2)
    epoch = _epoch(codec, "k", 5)
    groups = [index % 4 for index in range(codec.num_groups)]
    expected = bytes(v ^ r for v, r in zip(groups, epoch[1]))
    assert _slots(codec, codec.record(epoch, groups)) == expected


def test_decrypt_index_is_permutation_over_group_values():
    """Distinct group values must map to distinct table slots (it's a XOR)."""
    codec = make_codec(group_bits=2)
    epoch = _epoch(codec, "k", 9)
    rest = (0,) * (codec.num_groups - 1)
    assert {_slots(codec, codec.record(epoch, (v,) + rest))[0] for v in range(4)} == {0, 1, 2, 3}


@given(st.binary(min_size=2, max_size=16), st.integers(min_value=0, max_value=50))
@settings(max_examples=50)
def test_codec_roundtrip_property(value, counter):
    codec = make_codec(value_len=len(value), group_bits=2)
    epoch = _epoch(codec, "key", counter)
    assert codec.decode(epoch, *_reply(codec, epoch, value)) == value


# --------------------------------------------------------------------- #
# The epoch: one XOF call for its whitening; every label and offset block
# one AES call under the label-block key
# --------------------------------------------------------------------- #

def _bare(codec, key: str, counter: int):
    """``(W, offsets, entry)`` re-derived from the bare ``hashlib`` / ``hmac``
    calls and an ECB context of its own, the subkeys from the master key."""
    import hashlib
    import hmac

    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

    from repro.crypto.prf import encode_components

    def subkey(purpose: str) -> bytes:
        message = (0).to_bytes(4, "big") + encode_components("subkey", purpose)
        return hmac.new(MASTER, message, hashlib.sha256).digest()

    shape = (codec.num_groups, codec.table_size, codec.label_len)
    w = hashlib.shake_256(
        subkey("labels").ljust(136, b"\x00")
        + encode_components(*shape)
        + encode_components(key, counter)
    ).digest(16)
    aes = Cipher(algorithms.AES(subkey("label-blocks")[:16]), modes.ECB()).encryptor()

    def block(domain: int, index: int, slot: int, part: int) -> bytes:
        encoding = bytes([domain]) + index.to_bytes(4, "big") + bytes([slot, part]) + bytes(9)
        return aes.update(bytes(a ^ b for a, b in zip(w, encoding)))

    offsets = bytes(
        block(1, g // 16, 0, 0)[g % 16] % codec.table_size for g in range(codec.num_groups)
    )

    def entry(group: int, slot: int) -> bytes:
        blocks = -(-codec.label_len // 16)
        raw = bytearray(b"".join(block(0, group, slot, c) for c in range(blocks)))
        raw = raw[: codec.label_len]
        raw[15] = raw[15] - raw[15] % codec.table_size + slot  # the slot it names
        return bytes(raw)

    return w, offsets, entry


@pytest.mark.parametrize("label_bits", [128, 256])
@pytest.mark.parametrize("group_bits", [1, 2, 4, 8])
def test_epoch_is_one_shake_call_and_every_view_is_a_slice_of_it(group_bits, label_bits):
    """One SHAKE-256 call squeezes the epoch's whitening; every offset is a
    byte, and every label a slice, of one AES call under the label-block
    key on ``W`` XOR its position, its slot in the low bits of byte 15."""
    codec = make_codec(value_len=3, group_bits=group_bits, label_bits=label_bits)
    w, offsets, entry = _bare(codec, "obj", 7)
    assert _epoch(codec, "obj", 7) == (w, offsets)
    size = codec.table_size
    assert _entries(codec, "obj", 7) == [
        entry(g, t) for g in range(codec.num_groups) for t in range(size)
    ]


def test_epochs_of_different_shapes_share_no_stream():
    """The header encodes ``(G, 2^y, label_len)``: two shapes never share a
    whitening, so never a label."""
    whitenings = [
        _epoch(make_codec(value_len=value_len, group_bits=group_bits), "obj", 7)[0]
        for value_len, group_bits in ((4, 1), (4, 2), (8, 2), (8, 4))
    ]
    whitenings.append(_epoch(make_codec(value_len=4, label_bits=256), "obj", 7)[0])
    assert len(set(whitenings)) == len(whitenings)


def test_epochs_derives_any_number_of_epochs_in_one_call():
    codec = make_codec(value_len=40, group_bits=2)
    assert codec.epochs("obj", 3, 4) == [_epoch(codec, "obj", 3), _epoch(codec, "obj", 4)]
    assert codec.epochs("obj") == []


def test_select_and_slots_pick_one_label_and_one_slot_per_group():
    codec = make_codec(value_len=2, group_bits=2)
    epoch = _epoch(codec, "obj", 3)
    groups = value_to_groups(b"\x1b\xe4", 2)
    record = codec.record(epoch, groups)
    slots = _slots(codec, record)
    assert slots == bytes(value ^ epoch[1][index] for index, value in enumerate(groups))
    # Slot order: a group's label of value v is its entry at slot v ⊕ r_i,
    # which names that slot.
    entries = _entries(codec, "obj", 3)
    assert record == b"".join(entries[index * 4 + slot] for index, slot in enumerate(slots))
    assert all(entry[15] % 4 == at % 4 for at, entry in enumerate(entries))
    with pytest.raises(ConfigurationError):
        codec.record(epoch, groups[:-1])
    with pytest.raises(ConfigurationError):
        codec.record(epoch, (4,) + groups[1:])


def test_decode_matches_at_label_boundaries_only():
    """A digest over a label made of the tail of one candidate and the head
    of the next — no label boundary — is refused (§5.4)."""
    codec = make_codec(value_len=1, group_bits=2)
    epoch = _epoch(codec, "obj", 1)
    honest = codec.record(epoch, value_to_groups(b"\x6c", 2))
    assert codec.decode(epoch, *_reply(codec, epoch, b"\x6c", honest)) == b"\x6c"
    straddling = b"".join(_entries(codec, "obj", 1)[:2])[8:24] + honest[16:]
    with pytest.raises(TamperDetectedError):
        codec.decode(epoch, *_reply(codec, epoch, b"\x6c", straddling))
    # ...and so is one over another group's label in this group's place.
    swapped = honest[16:32] + honest[:16] + honest[32:]
    with pytest.raises(TamperDetectedError):
        codec.decode(epoch, *_reply(codec, epoch, b"\x6c", swapped))


def test_threads_deriving_at_once_each_use_their_own_context():
    """An ECB context is not shareable: six threads on two cores, switching
    every microsecond, derive the same runs as one thread does."""
    codec = make_codec(value_len=40, group_bits=2)
    next_slots = bytes(range(4)) * codec.num_groups
    tweaks = bytes(range(32))

    def derive(counter: int) -> tuple:
        old, new = codec.epochs("k", counter, counter + 1)
        return old, new, bytes(codec.table_stream(old[0], new[0], next_slots, tweaks))

    expected = [derive(counter) for counter in range(6)]
    errors: list = []

    def worker(counter: int) -> None:
        try:
            for _ in range(200):
                assert derive(counter) == expected[counter]
        except Exception as error:  # reported below, with the thread's counter
            errors.append((counter, error))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


# --------------------------------------------------------------------- #
# The fast path against the block-at-a-time reference of lbl_reference
# --------------------------------------------------------------------- #

#: Rows and groups compared per example: all of them up to this many, else a
#: seeded sample (the reference derives one block per AES call).
_SAMPLE = 96


def _sample(count: int, data) -> "list[int]":
    if count <= _SAMPLE:
        return list(range(count))
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
    return sorted(random.Random(seed).sample(range(count), _SAMPLE))


@given(
    group_bits=st.integers(min_value=1, max_value=8),
    label_bits=st.sampled_from([128, 136, 256, 440]),
    value_len=st.sampled_from([1, 2, 50, 160, 600]),
    counter=st.integers(min_value=0, max_value=300),
    write=st.booleans(),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_fast_path_equals_the_reference(group_bits, label_bits, value_len, counter, write, data):
    """``initial_records``, the stream ``prepare`` seals — its row keys,
    carried labels and tweak blocks — and ``finalize`` derive exactly the
    labels and offsets the definition does, at every y, label width and
    value size."""
    config = StoreConfig(value_len=value_len, group_bits=group_bits, label_bits=label_bits)
    keychain = KeyChain(MASTER, label_bits=label_bits)
    proxy = LblProxy(config, keychain)
    value = data.draw(st.binary(min_size=value_len, max_size=value_len))
    ((_encoded, record),) = proxy.initial_records({"k": value})
    groups, size, width = config.num_groups, 1 << group_bits, label_bits // 8
    old_offsets = lbl_reference.offsets(keychain, config, "k", 0)
    slots = _slots(proxy.codec, record)
    assert list(slots) == [
        v ^ r for v, r in zip(lbl_reference.value_to_groups(value, group_bits), old_offsets)
    ]
    for g in _sample(groups, data):
        expected = lbl_reference.entry(keychain, config, "k", 0, g, slots[g])
        assert record[g * width : (g + 1) * width] == expected

    old = proxy.codec.epochs("k", counter)[0]
    new = proxy.codec.epochs("k", counter + 1)[0]
    assert old[1] == bytes(lbl_reference.offsets(keychain, config, "k", counter))
    assert new[1] == bytes(lbl_reference.offsets(keychain, config, "k", counter + 1))
    written = data.draw(st.binary(min_size=value_len, max_size=value_len)) if write else None
    new_value = None if written is None else bytes(value_to_groups(written, group_bits))
    next_slots = proxy._next_slots(old, new, new_value)
    blocks = -(-width // 16)
    tweaks = data.draw(st.binary(min_size=16 * (blocks + 1), max_size=16 * (blocks + 1)))
    stream = proxy.codec.table_stream(old[0], new[0], next_slots, tweaks)
    assert len(stream) == 48 * (groups * size * blocks + size)
    triples = [stream[at : at + 48] for at in range(0, len(stream), 48)]
    for row in _sample(groups * size, data):
        g, s = divmod(row, size)
        t = s ^ old[1][g] if written is None else new_value[g]
        assert next_slots[row] == t ^ new[1][g]
        mine = triples[row * blocks : (row + 1) * blocks]
        key = lbl_reference.entry(keychain, config, "k", counter, g, s)
        carried = lbl_reference.entry(keychain, config, "k", counter + 1, g, next_slots[row])
        assert [bytes(triple[16:32]) for triple in mine] == [key[:16]] * blocks
        assert b"".join(triple[:16] for triple in mine)[:width] == carried
        assert b"".join(triple[32:] for triple in mine) == tweaks[: 16 * blocks]
    # Then group 0's check triples: zero, the key of each head row, C_b.
    for s, triple in enumerate(triples[groups * size * blocks :]):
        key = lbl_reference.entry(keychain, config, "k", counter, 0, s)
        assert bytes(triple) == bytes(16) + key[:16] + tweaks[-16:]

    # finalize: the reply of a server that stores ``written`` (or ``value``)
    # at ``counter + 1``, its digest over the reference's labels.
    stored = value if written is None else written
    proxy.force_counter("k", counter + 1)
    slots = bytes(
        v ^ r for v, r in zip(lbl_reference.value_to_groups(stored, group_bits), new[1])
    )
    labels = b"".join(
        lbl_reference.entry(keychain, config, "k", counter + 1, g, slots[g]) for g in range(groups)
    )
    reply = LblAccessResponse.from_bytes(lbl_reference.reply(labels, width, group_bits))
    assert proxy.finalize("k", reply)[0] == stored


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


def _ref(codec, key: str, counter: int):
    """The reference's ``(labels, offsets)`` of ``codec``'s epoch."""
    keychain, config = _shape(codec)
    return lbl_reference.epoch(keychain, config, key, counter)


def _honest(codec, key: str, counter: int, value: bytes) -> bytes:
    """The labels the server stores for ``value``: label ``g_i`` of group
    ``i``, from the reference."""
    keychain, config = _shape(codec)
    return b"".join(lbl_reference.record_labels(keychain, config, key, counter, value))


def _reference_finalize(codec, key: str, counter: int, bits, slots, digest) -> bytes:
    frame = LblAccessResponse(slots, bits, digest).to_bytes()
    return lbl_reference.finalize(
        _ref(codec, key, counter), frame, group_bits=codec.group_bits, value_len=codec.value_len,
    )


@given(st.binary(min_size=1, max_size=200), _Y, st.integers(min_value=0, max_value=9))
@settings(max_examples=80, deadline=None)
def test_decode_matches_the_group_loop_oracle(value, y, counter):
    codec = make_codec(value_len=len(value), group_bits=y)
    epoch = _epoch(codec, "obj", counter)
    reply = _reply(codec, epoch, value, _honest(codec, "obj", counter, value))
    assert codec.decode(epoch, *reply) == value == _reference_finalize(
        codec, "obj", counter, *reply
    )


def _tampered(codec, labels: bytes, group: int, label: bytes) -> bytes:
    width = codec.label_len
    assert len(label) == width
    return labels[: group * width] + label + labels[(group + 1) * width :]


def _both_refuse(codec, counter: int, value: bytes, labels: bytes) -> None:
    """The kernel and the oracle both refuse a reply for ``value`` whose
    digest is over ``labels``."""
    epoch = _epoch(codec, "obj", counter)
    reply = _reply(codec, epoch, value, labels)
    with pytest.raises(TamperDetectedError, match="reply digest"):
        codec.decode(epoch, *reply)
    with pytest.raises(TamperDetectedError, match="reply digest"):
        _reference_finalize(codec, "obj", counter, *reply)


@given(st.binary(min_size=1, max_size=40), _Y, st.data())
@settings(max_examples=80, deadline=None)
def test_one_flipped_byte_in_any_group_is_refused(value, y, data):
    """A digest over one damaged label: the reply is refused, no group named
    (a digest cannot say which label differs)."""
    codec = make_codec(value_len=len(value), group_bits=y)
    labels = _honest(codec, "obj", 1, value)
    group = data.draw(st.integers(min_value=0, max_value=codec.num_groups - 1))
    at = data.draw(st.integers(min_value=0, max_value=codec.label_len - 1))
    label = bytearray(labels[group * codec.label_len :][: codec.label_len])
    label[at] ^= data.draw(st.integers(min_value=1, max_value=255))
    _both_refuse(codec, 1, value, _tampered(codec, labels, group, bytes(label)))


@given(st.binary(min_size=1, max_size=40), _Y, st.data())
@settings(max_examples=80, deadline=None)
def test_a_label_spliced_from_two_adjacent_candidates_is_no_candidate(value, y, data):
    """It occurs in the group's candidates laid end to end, across a
    boundary."""
    codec = make_codec(value_len=len(value), group_bits=y)
    labels, width, size = _honest(codec, "obj", 2, value), codec.label_len, codec.table_size
    group = data.draw(st.integers(min_value=0, max_value=codec.num_groups - 1))
    slot = data.draw(st.integers(min_value=0, max_value=size - 2))
    shift = data.draw(st.integers(min_value=1, max_value=width - 1))
    window = b"".join(_ref(codec, "obj", 2)[0][group])
    spliced = window[slot * width + shift :][:width]
    _both_refuse(codec, 2, value, _tampered(codec, labels, group, spliced))


@given(st.binary(min_size=1, max_size=40), _Y, st.data())
@settings(max_examples=80, deadline=None)
def test_a_label_copied_from_another_groups_window_is_no_candidate(value, y, data):
    codec = make_codec(value_len=len(value), group_bits=y)
    assume(codec.num_groups >= 2)
    labels = _honest(codec, "obj", 3, value)
    group, other = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=codec.num_groups - 1),
            min_size=2, max_size=2, unique=True,
        )
    )
    slot = data.draw(st.integers(min_value=0, max_value=codec.table_size - 1))
    copied = _ref(codec, "obj", 3)[0][other][slot]
    _both_refuse(codec, 3, value, _tampered(codec, labels, group, copied))
