"""Label codec for LBL-ORTOA (paper §5 and appendix §10).

LBL-ORTOA represents a plaintext value by one secret label per *group* of
``y`` plaintext bits (``y = 1`` is the base protocol of §5; ``y = 2`` is the
space-optimized optimum of §10.1).  Labels are deterministic PRF outputs, so
the proxy can regenerate the labels currently stored at the server from
nothing but the object's key and its access counter: an **epoch** is a
16-byte secret whitening ``W`` and the §10.2 offsets
(:meth:`LabelCodec.epochs`), and a label is keyed AES of ``W`` and its
position, derived where it is used.  The codec owns:

* bit/group packing between ``bytes`` values and group-value tuples,
* epochs and the label runs an access derives of them,
* the reply — packed slots and a digest of the opened labels — and its
  inversion to plaintext, the §5.4 check (:meth:`LabelCodec.decode`).
"""

from __future__ import annotations

import hashlib
import hmac
import threading
from functools import lru_cache
from math import gcd
from typing import NamedTuple

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from repro.crypto.prf import encode_components, xof_blocks
from repro.crypto.rows import BLOCK, TRIPLE, XOR_TABLES, gather, plan, to_bytes, to_int, xor
from repro.errors import ConfigurationError, TamperDetectedError
from repro.obs import _state as _obs
from repro.obs import ledger as _ledger


def _check_bits(group_bits: int) -> None:
    if not 1 <= group_bits <= 8:
        raise ConfigurationError("group_bits must be between 1 and 8")


@lru_cache(maxsize=None)
def _field_tables(width: int, unit: int) -> tuple[bytes, ...]:
    """Per ``unit``-bit field of a ``width``-bit symbol, most significant
    first, the ``translate`` table from a symbol byte to that field."""
    shifts = range(width - unit, -1, -unit)
    return tuple(bytes(b >> shift & (1 << unit) - 1 for b in range(256)) for shift in shifts)


def _regroup(symbols: bytes, width: int, new_width: int, count: int) -> bytes:
    """The bit string of ``symbols`` (``width`` bits each, one per byte) cut into
    ``count`` symbols of ``new_width`` bits, zero-filled or cut short at the end:
    a ``translate`` and a strided copy per field of the widths' gcd in, one
    integer out."""
    unit = gcd(width, new_width)
    per, fields = width // unit, new_width // unit
    parts = bytearray(max(len(symbols) * per, count * fields))
    for k, table in enumerate(_field_tables(width, unit)):
        parts[k : len(symbols) * per : per] = symbols.translate(table)
    total = 0
    for k, shift in enumerate(range(new_width - unit, -1, -unit)):
        total |= to_int(parts[k : count * fields : fields]) << shift
    return to_bytes(total, count)


def pack_slots(slots: bytes, bits: int) -> bytes:
    """A reply's slot run: ``slots`` at ``bits`` bits each (higher bits
    dropped), most significant first, zero-padded to whole bytes."""
    return _regroup(slots, bits, 8, -(-len(slots) * bits // 8))


#: Bytes of an epoch's whitening ``W``, squeezed from the keyed label XOF.
_WHITENING_LEN = 16

#: Bytes of a reply's digest of the labels its access opened.
REPLY_DIGEST_LEN = 16


def reply_digest(labels: bytes) -> bytes:
    """A reply's digest of the labels its access opened: truncated SHA-256."""
    return hashlib.sha256(labels).digest()[:REPLY_DIGEST_LEN]


def value_to_groups(value: bytes, group_bits: int) -> tuple[int, ...]:
    """Split ``value`` into big-endian groups of ``group_bits`` bits each
    (1 ≤ ``group_bits`` ≤ 8).

    The final group is zero-padded on the right when ``8*len(value)`` is not
    divisible by ``group_bits`` (paper §10.1 pads with a sentinel; zero bits
    are equivalent here because the value length is fixed and known).
    """
    _check_bits(group_bits)
    return tuple(_regroup(value, 8, group_bits, -(-len(value) * 8 // group_bits)))


def groups_to_value(groups: tuple[int, ...] | list[int], group_bits: int, value_len: int) -> bytes:
    """Inverse of :func:`value_to_groups` for a value of ``value_len`` bytes."""
    _check_bits(group_bits)
    num_groups = -(-value_len * 8 // group_bits)
    if len(groups) != num_groups:
        raise ConfigurationError(f"expected {num_groups} groups, got {len(groups)}")
    if groups and not 0 <= min(groups) <= max(groups) < 1 << group_bits:
        raise ConfigurationError(f"group value out of range for y={group_bits}")
    return _regroup(bytes(groups), group_bits, 8, value_len)


class StoredLabel(NamedTuple):
    """One group's label and slot as a pair; ``bench/micro.py`` times the
    store with lists of it (the server's record is its label run, the
    bytes :meth:`LabelCodec.record` returns)."""

    label: bytes
    decrypt_index: int | None = None


#: A block's encoding ``⟨domain, g, t, c⟩``: the domain (0 a label, 1 an
#: offset block) in byte 0, the group (an offset block's index) big-endian in
#: bytes 1–4, the slot in byte 5, the label's block counter in byte 6.
_GROUP, _SLOT, _PART, _OFFSETS = 1, 5, 6, 1


def _spread(values: bytes, times: int) -> bytes:
    """Each byte of ``values`` ``times`` times in a row."""
    if times == 1:
        return values
    out = bytearray(len(values) * times)
    for k in range(times):
        out[k::times] = values
    return bytes(out)


def _index_columns(count: int, repeat: int) -> "list[tuple[int, bytes]]":
    """``(position, column)`` of each index byte not zero for all ``i < count``,
    each ``i`` ``repeat`` blocks in a row."""
    return [
        (_GROUP + k, _spread(bytes(i >> shift & 255 for i in range(count)), repeat))
        for k, shift in enumerate((24, 16, 8, 0))
        if count - 1 >> shift
    ]


def _run(whitening: bytes, columns: "list[tuple[int, bytes]]", slots: bytes) -> bytearray:
    """``W ⊕ ⟨0, g, t, c⟩`` for one block per byte of ``slots`` (the ``t``
    column): ``W`` repeated, then one ``translate`` per column not constant."""
    run = bytearray(whitening) * len(slots)
    for at, column in [*columns, (_SLOT, slots)]:
        run[at::BLOCK] = column.translate(XOR_TABLES[whitening[at]])
    return run


class LabelCodec:
    """Derives, encodes, and inverts LBL-ORTOA labels for fixed-length values.

    **Derivation.**  The epoch of ``key`` at counter ``ct`` is ``(W, r)``::

        W          = xof.copy().update(header ‖ encode_components(key, ct)).digest(16)
        entry(g,t) = AES_{K_L}(W ⊕ ⟨0, g, t, c⟩) for c < ⌈L/16⌉, cut to L bytes,
                     the low y bits of its byte 15 set to t
        r_g        = byte g mod 16 of AES_{K_L}(W ⊕ ⟨1, ⌊g/16⌋, 0, 0⟩), mod 2^y

    ``header`` the shape ``(G, 2^y, L)``.  Entry ``(g, t)`` is the label of
    value ``t ⊕ r_g`` (**slot order**; ``docs/security-model.md``), so the
    old epoch's entries are a table's row keys, and a label names its own
    slot: the server reads the rows to open, and a reply's slots, off the
    labels it stores.  Each run of labels is one call of this thread's ECB
    context.

    Args:
        xof: The keyed label XOF (from :class:`~repro.crypto.keys.KeyChain`).
        block_key: ``K_L``, the 16-byte label-block AES key (ditto).
        label_len: Bytes per label, 16 or more.
        value_len: Fixed plaintext length in bytes.
        group_bits: ``y`` — plaintext bits represented by one label.
    """

    def __init__(
        self, xof, block_key: bytes, *, label_len: int, value_len: int, group_bits: int = 1
    ) -> None:
        if value_len <= 0:
            raise ConfigurationError("value_len must be positive")
        _check_bits(group_bits)
        if label_len < BLOCK:
            raise ConfigurationError("a label is 16 bytes or more: its byte 15 holds its slot")
        self._xof, self._block_key, self._local = xof, block_key, threading.local()
        self.value_len, self.group_bits, self.label_len = value_len, group_bits, label_len
        size = self.table_size = 1 << group_bits
        groups = self.num_groups = (value_len * 8 + group_bits - 1) // group_bits
        if groups >> 32:
            raise ConfigurationError("a value of 2^32 groups or more has no block encoding")
        #: AES blocks behind one label, and behind one epoch's offsets.
        blocks = self.label_blocks = -(-label_len // BLOCK)
        self.offset_blocks = -(-groups // BLOCK)
        #: Resident bytes of an epoch's ``(W, offsets)`` payload.
        self.epoch_bytes = _WHITENING_LEN + groups
        self._header = encode_components(groups, size, label_len)
        offsets = range(self.offset_blocks)  # ⟨1, i, 0, 0⟩ each, XORed on W at once
        self._offset_code = b"".join(bytes([_OFFSETS]) + to_bytes(i, 4) + bytes(11) for i in offsets)
        # One label per group: its columns that do not depend on the access,
        # and the cut of its blocks to labels.
        parts = [(_PART, bytes(range(blocks)) * groups)] if blocks > 1 else []
        self._columns = _index_columns(groups, blocks) + parts
        self._cut = plan(label_len, label_len, groups, 0, blocks * BLOCK, BLOCK)
        # table_stream's columns: the new entry's groups on every row triple;
        # the old entry's groups and slots on every triple, checks included.
        self._new_columns = _index_columns(groups, size * blocks)
        self._old_slots = _spread(bytes(range(size)) * groups, blocks) + bytes(range(size))
        self._old_columns = [(at, column + bytes(size)) for at, column in self._new_columns]
        self._old_columns.append((_SLOT, self._old_slots))
        self._rows_end = groups * size * blocks * TRIPLE
        #: ``AES_{K_L}⁻¹(0)``: the first block of a check triple, zero once encrypted.
        self._zero = Cipher(algorithms.AES(block_key), modes.ECB()).decryptor().update(bytes(BLOCK))
        #: Bytes of a reply's packed slots, and its pad bits in the last one.
        self.slot_bytes = -(-groups * group_bits // 8)
        self._pad_mask = (1 << 8 * self.slot_bytes - groups * group_bits) - 1
        self._reply_shape = (group_bits, self.slot_bytes, REPLY_DIGEST_LEN)
        # byte -> byte mod 2^y, applied to a whole offset run at C speed; and
        # byte -> its bits above y, a label byte 15 before its slot goes in.
        self._offset_table = bytes(b % size for b in range(256))
        self._clear = bytes(b - b % size for b in range(256))

    def _message(self, key: str, counter: int) -> bytes:
        return self._header + encode_components(key, counter)

    def _aes(self, blocks: bytes, ops: dict | None = None, *, invert: bool = False) -> bytes:
        """``AES_{K_L}`` (or, unmetered, its inverse) on this thread's own ECB
        context (a context is not shareable); the blocks and the caller's
        ``ops`` metered under one guard, ``ops`` overriding."""
        name = "invert" if invert else "update"
        try:
            update = getattr(self._local, name)
        except AttributeError:
            cipher = Cipher(algorithms.AES(self._block_key), modes.ECB())
            update = (cipher.decryptor() if invert else cipher.encryptor()).update
            setattr(self._local, name, update)
        if _obs.enabled and not invert:
            for op, n in {"aes.blocks": len(blocks) // BLOCK, **(ops or {})}.items():
                _ledger.add_op(op, n)
        return update(blocks)

    def _force(self, run: bytearray, start: int, stop: int | None, step: int, slots: bytes) -> None:
        """Set the low ``y`` bits of ``run[start:stop:step]`` to ``slots``."""
        run[start:stop:step] = xor(run[start:stop:step].translate(self._clear), slots)

    def epochs(self, key: str, *counters: int) -> "list[tuple[bytes, bytes]]":
        """``(W, offsets)`` of ``key`` at each of ``counters``: a 16-byte XOF
        squeeze each, and one ECB call for all of their offset blocks."""
        whitenings, squeezed = [], 0
        for counter in counters:
            message = self._message(key, counter)
            squeezed += xof_blocks(len(message), _WHITENING_LEN)
            xof = self._xof.copy()
            xof.update(message)
            whitenings.append(xof.digest(_WHITENING_LEN))
        run = b"".join([w * self.offset_blocks for w in whitenings])
        run = xor(run, self._offset_code * len(counters))
        out = self._aes(run, {"prf.calls": len(counters), "shake256.blocks": squeezed})
        span, table = BLOCK * self.offset_blocks, self._offset_table
        return [
            (w, out[k * span : k * span + self.num_groups].translate(table))
            for k, w in enumerate(whitenings)
        ]

    def epoch_ops(self, key: str, counter: int) -> "dict[str, int]":
        """The ledger ops of one epoch of :meth:`epochs`, from the message
        length and the shape alone (the cost model's input; each label derived
        of it costs ``label_blocks`` AES blocks more)."""
        xof = xof_blocks(len(self._message(key, counter)), _WHITENING_LEN)
        return {"prf.calls": 1, "shake256.blocks": xof, "aes.blocks": self.offset_blocks}

    def table_stream(self, old: bytes, new: bytes, next_slots: bytes, tweaks: bytes) -> bytearray:
        """One access's row stream (:func:`repro.crypto.rows.seal`) from one
        ECB call: per row ``(g, s)`` and block ``j`` the triple ``[block j of
        new's entry (g, next_slots[row]), block 0 of old's entry (g, s),
        C_j]``, then per slot ``s`` ``[0, block 0 of old's entry (0, s),
        C_b]``, the ``C_j`` being ``tweaks`` (they enter the call inverted
        under ``K_L``, zero as ``AES_{K_L}⁻¹(0)``)."""
        blocks, end = self.label_blocks, self._rows_end
        pre = self._aes(tweaks, invert=True)
        first = bytearray(new)
        lanes = []
        for j in range(blocks):
            first[_PART] = new[_PART] ^ j
            lanes.append(bytes(first) + old + pre[j * BLOCK : (j + 1) * BLOCK])
        run = bytearray(b"".join(lanes)) * (end // (blocks * TRIPLE))
        run += (self._zero + old + pre[-BLOCK:]) * self.table_size
        columns = [*self._new_columns, (_SLOT, _spread(next_slots, blocks))]
        for at, column in columns:
            run[at:end:TRIPLE] = column.translate(XOR_TABLES[new[at]])
        for at, column in self._old_columns:
            run[BLOCK + at :: TRIPLE] = column.translate(XOR_TABLES[old[at]])
        out = bytearray(self._aes(run, {"aes.blocks": (len(run) + len(tweaks)) // BLOCK}))
        self._force(out, BLOCK - 1, end, blocks * TRIPLE, next_slots)
        self._force(out, 2 * BLOCK - 1, None, TRIPLE, self._old_slots)
        return out

    def _selected(self, whitening: bytes, slots: bytes) -> bytes:
        """Entry ``(g, slots[g])`` of every group ``g``, back to back."""
        blocks = self.label_blocks
        run = bytearray(self._aes(_run(whitening, self._columns, _spread(slots, blocks))))
        self._force(run, BLOCK - 1, None, blocks * BLOCK, slots)
        if blocks * BLOCK == self.label_len:
            return bytes(run)
        return bytes(gather(run, self.num_groups * self.label_len, self._cut))

    def record(self, epoch: "tuple[bytes, bytes]", groups: "tuple[int, ...] | list[int]") -> bytes:
        """What the server stores once ``epoch`` holds ``groups``: per group
        ``i`` the label at slot ``groups[i] ⊕ r_i`` (§10.2's ``d1 d2 = b1 b2 ⊕
        r1 r2``, for ``y`` bits), which names that slot as the row to open
        next."""
        if len(groups) != self.num_groups:
            raise ConfigurationError(f"expected {self.num_groups} group values, got {len(groups)}")
        if not 0 <= min(groups) <= max(groups) < self.table_size:
            raise ConfigurationError(f"group value out of range for y={self.group_bits}")
        return self._selected(epoch[0], xor(bytes(groups), epoch[1]))

    def decode(self, epoch: tuple, slot_bits: int, slots: bytes, digest: bytes) -> bytes:
        """The value a reply's packed slots spell in ``epoch``, once its
        digest is that of the labels the value selects (§5.4).

        Group ``i``'s slot is ``v_i ⊕ r_i`` (§10.2): one XOR with the packed
        offsets gives the value, and the labels at the slots are derived to
        check the digest, which no stale, foreign or rewritten reply meets.

        Raises:
            TamperDetectedError: the reply is not one ``y``-bit slot per group,
                zero pad bits and a 16-byte digest of the labels they select.
        """
        if (slot_bits, len(slots), len(digest)) != self._reply_shape or slots[-1] & self._pad_mask:
            raise TamperDetectedError(
                f"reply of {len(slots)} B of {slot_bits}-bit slots and a {len(digest)} B digest is "
                "not one slot per group, zero pad bits and a digest: data was tampered"
            )
        value = xor(slots, _regroup(epoch[1], self.group_bits, 8, self.slot_bytes))
        expected = self._selected(epoch[0], _regroup(slots, 8, self.group_bits, self.num_groups))
        if not hmac.compare_digest(reply_digest(expected), digest):
            raise TamperDetectedError(
                "reply digest is not that of the labels its slots select: data was tampered"
            )
        return value[: self.value_len]


__all__ = ["REPLY_DIGEST_LEN", "LabelCodec", "StoredLabel", "value_to_groups",
           "groups_to_value", "pack_slots", "reply_digest"]
