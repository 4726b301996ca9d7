"""Label codec for LBL-ORTOA (paper §5 and appendix §10).

LBL-ORTOA represents a plaintext value by one secret label per *group* of
``y`` plaintext bits (``y = 1`` is the base protocol of §5; ``y = 2`` is the
space-optimized optimum of §10.1).  Labels are deterministic PRF outputs, so
the proxy can regenerate the labels currently stored at the server from
nothing but the object's key and its access counter.  Everything an access
needs of one counter value — every candidate label of every group, in slot
order, then the point-and-permute offsets of §10.2 — is **one epoch**: one
``bytes`` blob, an AES-CTR keystream (:meth:`LabelCodec.epoch`).  It owns:

* bit/group packing between ``bytes`` values and group-value tuples,
* epoch derivation and the views of an epoch blob (labels, offsets, the
  labels and slots a value selects),
* the reply — packed slots and a digest of the opened labels — and its
  inversion to plaintext, the §5.4 check (:meth:`LabelCodec.decode`).
"""

from __future__ import annotations

import hashlib
import hmac
import struct
from functools import lru_cache
from math import gcd
from operator import itemgetter
from typing import Callable, NamedTuple

from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from repro.crypto.prf import encode_components, xof_blocks
from repro.crypto.rows import BLOCK, to_bytes, to_int, xor
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


#: Bytes of an epoch's AES key, squeezed from the keyed label XOF.
_EPOCH_KEY_LEN = 16

#: Bytes of a reply's digest of the labels its access opened.
REPLY_DIGEST_LEN = 16


def reply_digest(labels: bytes) -> bytes:
    """A reply's digest of the labels its access opened: truncated SHA-256."""
    return hashlib.sha256(labels).digest()[:REPLY_DIGEST_LEN]


def picker(starts: "list[int] | range") -> "Callable[[bytes], Callable]":
    """``values`` → the getter of entries ``starts[n] | values[n]`` as a
    tuple: the indices are one OR of 32-bit words, read by one struct call."""
    count = len(starts)
    words = to_int(struct.pack(f">{count}I", *starts))
    indices = struct.Struct(f">{count}I").unpack

    def pick(values: bytes) -> Callable:
        spread = bytearray(4 * count)
        spread[3::4] = values
        got = indices(to_bytes(to_int(spread) | words, 4 * count))
        return itemgetter(*got) if count > 1 else lambda sequence: (sequence[got[0]],)

    return pick


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
    """One group's label and point-and-permute slot as a pair.

    The server's record is two blobs (:class:`StoredRecord`); this stays
    because ``bench/micro.py`` builds lists of it to time the store.
    """

    label: bytes
    decrypt_index: int | None = None


class StoredRecord(NamedTuple):
    """What the server stores per object: its current label of every group,
    back to back, plus the slot byte per group telling it which table entry
    to open on the *next* access (§10.2); a server refuses a record without
    one slot per label."""

    labels: bytes
    slots: bytes = b""


class LabelCodec:
    """Derives, encodes, and inverts LBL-ORTOA labels for fixed-length values.

    **Derivation.**  The epoch of ``key`` at counter ``ct`` is::

        k    = xof.copy().update(header ‖ encode_components(key, ct)).digest(16)
        blob = AES-128-CTR_k(0^12 ‖ 00000002)[: G·2^y·label_len + G]

    — ``AESGCM(k)`` over zeros, tag cut off — where ``xof`` is the keyed
    SHAKE-256 of the label subkey and ``header`` encodes the shape ``(G,
    2^y, label_len)``; each ``k`` encrypts once, so the nonce is fixed.  The
    permute offset ``r_i`` is byte ``G·2^y·label_len + i`` mod ``2^y``, and
    the labels are **in slot order**: entry ``s`` of group ``i`` (bytes
    ``[(i·2^y + s)·label_len, +label_len)``) is the label of value ``s ⊕
    r_i`` — a relabelling of i.i.d. entries that makes the old epoch's label
    run a table's row keys, and a label's index in its group its slot
    (``docs/security-model.md``).

    Args:
        xof: The keyed label XOF (from :class:`~repro.crypto.keys.KeyChain`).
        label_len: Bytes per label.
        value_len: Fixed plaintext length in bytes.
        group_bits: ``y`` — plaintext bits represented by one label.
    """

    def __init__(
        self, xof, *, label_len: int, value_len: int, group_bits: int = 1
    ) -> None:
        if value_len <= 0:
            raise ConfigurationError("value_len must be positive")
        _check_bits(group_bits)
        if label_len <= 0:
            raise ConfigurationError("label_len must be positive")
        self._xof = xof
        self.value_len = value_len
        self.group_bits = group_bits
        self.table_size = 1 << group_bits
        self.num_groups = (value_len * 8 + group_bits - 1) // group_bits
        self.label_len = label_len
        #: Bytes of labels at the head of an epoch blob / of the whole blob.
        self.labels_len = self.num_groups * self.table_size * label_len
        self.epoch_len = self.labels_len + self.num_groups
        self._zeros = bytes(self.epoch_len)
        self._header = encode_components(self.num_groups, self.table_size, label_len)
        split = struct.Struct(f"{label_len}s" * (self.num_groups * self.table_size))
        #: Every label of an epoch, in :meth:`labels` order, back to back.
        self._split, self.join = split.unpack_from, split.pack
        self._last_split: "tuple[bytes | None, tuple[bytes, ...]]" = (None, ())
        # The labels at one slot per group, in :meth:`labels`.
        self._pick = picker(range(0, self.num_groups * self.table_size, self.table_size))
        #: Bytes of a reply's packed slots, and its pad bits in the last one.
        self.slot_bytes = -(-self.num_groups * group_bits // 8)
        self._pad_mask = (1 << 8 * self.slot_bytes - self.num_groups * group_bits) - 1
        self._reply_shape = (group_bits, self.slot_bytes, REPLY_DIGEST_LEN)
        # byte -> byte mod 2^y, applied to a whole offset stream at C speed.
        self._offset_table = bytes(b % self.table_size for b in range(256))

    # ------------------------------------------------------------------ #
    # Epoch derivation and its views
    # ------------------------------------------------------------------ #

    def _message(self, key: str, counter: int) -> bytes:
        return self._header + encode_components(key, counter)

    def epoch(self, key: str, counter: int) -> bytes:
        """Every candidate label, in slot order, then every permute-offset
        byte, of ``key`` at ``counter`` — a 16-byte XOF squeeze and one
        AES-CTR keystream."""
        message = self._message(key, counter)
        if _obs.enabled:
            for op, n in self.epoch_ops(key, counter).items():
                _ledger.add_op(op, n)
        xof = self._xof.copy()
        xof.update(message)
        return AESGCM(xof.digest(_EPOCH_KEY_LEN)).encrypt(bytes(12), self._zeros, None)[:-16]

    def epoch_ops(self, key: str, counter: int) -> "dict[str, int]":
        """The ledger ops one :meth:`epoch` call costs, from the message
        length and the shape alone — what the analytic cost model predicts
        and ``repro plan --check`` holds to the ledger exactly."""
        xof = xof_blocks(len(self._message(key, counter)), _EPOCH_KEY_LEN)
        return {"prf.calls": 1, "shake256.blocks": xof, "aes.blocks": -(-self.epoch_len // BLOCK)}

    def labels(self, blob: bytes) -> tuple[bytes, ...]:
        """An epoch's ``num_groups · 2^y`` labels: entry ``i · 2^y + s`` is
        group ``i``'s at slot ``s``, that of value ``s ⊕ r_i``.  The last
        blob's split is kept: ``prepare`` splits the new epoch, ``finalize``
        reads it back."""
        last = self._last_split
        if last[0] is not blob:
            last = self._last_split = (blob, self._split(blob))
        return last[1]

    def offsets(self, blob: bytes) -> bytes:
        """An epoch's per-group permute offsets ``r`` (§10.2), one byte each."""
        return blob[self.labels_len :].translate(self._offset_table)

    def select(self, blob: bytes, groups: "tuple[int, ...] | list[int]") -> bytes:
        """The label of ``groups[i]`` — its entry at its :meth:`slots` slot —
        for every group ``i``, back to back: what the server stores."""
        return b"".join(self._pick(self.slots(blob, groups))(self.labels(blob)))

    def slots(self, blob: bytes, groups: "tuple[int, ...] | list[int]") -> bytes:
        """Which table slot the server must open per group at this epoch:
        ``groups[i] XOR r_i`` (§10.2's ``d1 d2 = b1 b2 ⊕ r1 r2``, for ``y``
        bits)."""
        if len(groups) != self.num_groups:
            raise ConfigurationError(f"expected {self.num_groups} group values, got {len(groups)}")
        if not 0 <= min(groups) <= max(groups) < self.table_size:
            raise ConfigurationError(f"group value out of range for y={self.group_bits}")
        return xor(bytes(groups), self.offsets(blob))

    # ------------------------------------------------------------------ #
    # Inversion (proxy decodes the server's reply after every access)
    # ------------------------------------------------------------------ #

    def decode(self, blob: bytes, slot_bits: int, slots: bytes, digest: bytes) -> bytes:
        """The value a reply's packed slots spell in the epoch ``blob``, once
        its digest is that of the labels the value selects (§5.4).

        Group ``i``'s slot is ``v_i ⊕ r_i`` (§10.2), so one XOR with the
        offset bytes packed at ``y`` bits gives the value, and the slots index
        its labels.  A reply naming another value needs a label the server
        never opened; a stale or foreign one digests another epoch's labels.

        Raises:
            TamperDetectedError: the reply is not one ``y``-bit slot per group,
                zero pad bits and a 16-byte digest of the labels they select.
        """
        if (slot_bits, len(slots), len(digest)) != self._reply_shape or slots[-1] & self._pad_mask:
            raise TamperDetectedError(
                f"reply of {len(slots)} B of {slot_bits}-bit slots and a {len(digest)} B digest is "
                "not one slot per group, zero pad bits and a digest: data was tampered"
            )
        value = xor(slots, _regroup(blob[self.labels_len :], self.group_bits, 8, self.slot_bytes))
        at = _regroup(slots, 8, self.group_bits, self.num_groups)
        expected = b"".join(self._pick(at)(self.labels(blob)))
        if not hmac.compare_digest(reply_digest(expected), digest):
            raise TamperDetectedError(
                "reply digest is not that of the labels its slots select: data was tampered"
            )
        return value[: self.value_len]


__all__ = [
    "REPLY_DIGEST_LEN",
    "LabelCodec",
    "StoredLabel",
    "StoredRecord",
    "value_to_groups",
    "groups_to_value",
    "pack_slots",
    "picker",
    "reply_digest",
]
