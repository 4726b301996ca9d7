"""Label codec for LBL-ORTOA (paper §5 and appendix §10).

LBL-ORTOA represents a plaintext value by one secret label per *group* of
``y`` plaintext bits (``y = 1`` is the base protocol of §5; ``y = 2`` is the
space-optimized optimum of §10.1).  Labels are deterministic PRF outputs, so
the proxy can regenerate the labels currently stored at the server from
nothing but the object's key and its access counter.  Everything an access
needs of one counter value — every candidate label of every group, then the
point-and-permute offsets of §10.2 — is **one epoch**: one ``bytes`` blob out
of one keyed-XOF call (:meth:`LabelCodec.epoch`).  This module owns:

* bit/group packing between ``bytes`` values and group-value tuples,
* epoch derivation and the views of an epoch blob (labels, offsets, the
  labels and slots a value selects),
* inversion (labels back to plaintext) used by the proxy after a read.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from operator import add, eq, mul, xor
from typing import NamedTuple

from repro.crypto.prf import encode_components, xof_blocks
from repro.errors import ConfigurationError, TamperDetectedError
from repro.obs import _state as _obs
from repro.obs import ledger as _ledger


def _check_bits(group_bits: int) -> None:
    if not 1 <= group_bits <= 8:
        raise ConfigurationError("group_bits must be between 1 and 8")


@lru_cache(maxsize=None)
def _bit_tables(width: int) -> tuple[bytes, ...]:
    """Per bit of a ``width``-bit symbol, most significant first, the
    ``translate`` table from a symbol byte to that bit."""
    return tuple(bytes(b >> (width - 1 - k) & 1 for b in range(256)) for k in range(width))


def _regroup(symbols: bytes, width: int, new_width: int, count: int) -> bytes:
    """The bit string of ``symbols`` (``width`` bits each, one per byte) cut into
    ``count`` symbols of ``new_width`` bits, zero-filled or cut short at the end:
    a ``translate`` and a strided copy per bit plane in, one integer out."""
    bits = bytearray(max(len(symbols) * width, count * new_width))
    for k, table in enumerate(_bit_tables(width)):
        bits[k : len(symbols) * width : width] = symbols.translate(table)
    total = 0
    for k in range(new_width):
        total |= int.from_bytes(bits[k : count * new_width : new_width], "big") << new_width - 1 - k
    return total.to_bytes(count, "big")


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

        xof.copy().update(header ‖ encode_components(key, ct))
                  .digest(G·2^y·label_len + G)

    where ``xof`` is the keyed SHAKE-256 of the label subkey
    (:func:`~repro.crypto.prf.keyed_xof`) and ``header`` encodes the shape
    ``(G, 2^y, label_len)`` so no two deployments share a stream.  Label
    ``v`` of group ``i`` is bytes ``[(i·2^y + v)·label_len, +label_len)`` of
    the blob; the permute offset of group ``i`` is byte ``G·2^y·label_len +
    i`` reduced ``mod 2^y``.  A sponge's output is one pseudorandom string,
    so disjoint slices are independent labels, each as unpredictable as a
    PRF call of its own.

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
        self._header = encode_components(self.num_groups, self.table_size, label_len)
        split = struct.Struct(f"{label_len}s" * (self.num_groups * self.table_size))
        #: Every label of an epoch, in :meth:`labels` order, back to back.
        self._split, self.join = split.unpack_from, split.pack
        self._last_split: "tuple[bytes | None, tuple[bytes, ...]]" = (None, ())
        self._split_reply = struct.Struct(f"{label_len}s" * self.num_groups).unpack
        #: One hit per group, as :meth:`decode` counts them.
        self._one_each = int.from_bytes(b"\x01" * self.num_groups, "big")
        # Index of each group's first label in :meth:`labels`.
        self._group_starts = range(0, self.num_groups * self.table_size, self.table_size)
        # byte -> byte mod 2^y, applied to a whole offset stream at C speed.
        self._offset_table = bytes(b % self.table_size for b in range(256))

    # ------------------------------------------------------------------ #
    # Epoch derivation and its views
    # ------------------------------------------------------------------ #

    def _message(self, key: str, counter: int) -> bytes:
        return self._header + encode_components(key, counter)

    def epoch(self, key: str, counter: int) -> bytes:
        """Every candidate label, then every permute-offset byte, of
        ``key`` at ``counter`` — one XOF call."""
        message = self._message(key, counter)
        if _obs.enabled:
            _ledger.add_op("prf.calls")
            _ledger.add_op("shake256.blocks", xof_blocks(len(message), self.epoch_len))
        xof = self._xof.copy()
        xof.update(message)
        return xof.digest(self.epoch_len)

    def epoch_blocks(self, key: str, counter: int) -> int:
        """The ``shake256.blocks`` one :meth:`epoch` call costs, from the
        message length alone — what the analytic cost model predicts and
        ``repro plan --check`` holds to the ledger exactly."""
        return xof_blocks(len(self._message(key, counter)), self.epoch_len)

    def labels(self, blob: bytes) -> tuple[bytes, ...]:
        """An epoch's ``num_groups · 2^y`` labels, group-major: label ``v``
        of group ``i`` is entry ``i · 2^y + v``.  The last blob's split is
        kept: ``prepare`` splits the new epoch, ``finalize`` reads it back."""
        last = self._last_split
        if last[0] is not blob:
            last = self._last_split = (blob, self._split(blob))
        return last[1]

    def offsets(self, blob: bytes) -> bytes:
        """An epoch's per-group permute offsets ``r`` (§10.2), one byte each."""
        return blob[self.labels_len :].translate(self._offset_table)

    def _check_groups(self, groups: "tuple[int, ...] | list[int]") -> None:
        if len(groups) != self.num_groups:
            raise ConfigurationError(
                f"expected {self.num_groups} group values, got {len(groups)}"
            )
        if not 0 <= min(groups) <= max(groups) < self.table_size:
            raise ConfigurationError(
                f"group value out of range for y={self.group_bits}"
            )

    def select(self, blob: bytes, groups: "tuple[int, ...] | list[int]") -> bytes:
        """The label of ``groups[i]`` for every group ``i``, back to back —
        what the server stores for the value ``groups`` spells."""
        self._check_groups(groups)
        labels = self.labels(blob)
        return b"".join(map(labels.__getitem__, map(add, self._group_starts, groups)))

    def slots(self, blob: bytes, groups: "tuple[int, ...] | list[int]") -> bytes:
        """Which table slot the server must open per group at this epoch:
        ``groups[i] XOR r_i`` (§10.2's ``d1 d2 = b1 b2 ⊕ r1 r2``, for ``y``
        bits)."""
        self._check_groups(groups)
        return bytes(map(xor, groups, self.offsets(blob)))

    # ------------------------------------------------------------------ #
    # Inversion (proxy decodes the server's response after a read)
    # ------------------------------------------------------------------ #

    def decode(self, blob: bytes, labels: bytes) -> bytes:
        """Recover the plaintext value from one label per group.

        Each label is compared whole with its own group's ``2^y`` candidates
        in the epoch ``blob`` (which the proxy still holds from ``prepare``):
        one ``==`` pass per slot over every group, read as one integer.  Also
        the tamper check of §5.4: a label matching none of its group's
        candidates proves the server (or channel) corrupted data.

        Raises:
            TamperDetectedError: if any label is not a valid candidate.
        """
        if len(labels) != self.num_groups * self.label_len:
            raise ConfigurationError(
                f"expected {self.num_groups} labels of {self.label_len} bytes, "
                f"got {len(labels)} bytes"
            )
        got, cands, size = self._split_reply(labels), self.labels(blob), self.table_size
        hits = [int.from_bytes(bytes(map(eq, got, cands[v::size])), "big") for v in range(size)]
        if sum(hits) != self._one_each:
            counts = sum(hits).to_bytes(self.num_groups + 1, "big")[1:]
            group = self.num_groups - len(counts.lstrip(b"\x01"))
            raise TamperDetectedError(
                f"label at group {group} matches no candidate: data was tampered"
            )
        values = sum(map(mul, range(size), hits)).to_bytes(self.num_groups, "big")
        return _regroup(values, self.group_bits, 8, self.value_len)


__all__ = [
    "LabelCodec",
    "StoredLabel",
    "StoredRecord",
    "value_to_groups",
    "groups_to_value",
]
