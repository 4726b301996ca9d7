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
from operator import add, xor
from typing import NamedTuple

from repro.crypto.prf import encode_components, xof_blocks
from repro.errors import ConfigurationError, TamperDetectedError
from repro.obs import _state as _obs
from repro.obs import ledger as _ledger


def value_to_groups(value: bytes, group_bits: int) -> tuple[int, ...]:
    """Split ``value`` into big-endian groups of ``group_bits`` bits each.

    The final group is zero-padded on the right when ``8*len(value)`` is not
    divisible by ``group_bits`` (paper §10.1 pads with a sentinel; zero bits
    are equivalent here because the value length is fixed and known).
    """
    if group_bits < 1:
        raise ConfigurationError("group_bits must be >= 1")
    total_bits = len(value) * 8
    as_int = int.from_bytes(value, "big")
    num_groups = (total_bits + group_bits - 1) // group_bits
    padded_bits = num_groups * group_bits
    as_int <<= padded_bits - total_bits
    mask = (1 << group_bits) - 1
    return tuple(
        (as_int >> (padded_bits - (i + 1) * group_bits)) & mask for i in range(num_groups)
    )


def groups_to_value(groups: tuple[int, ...] | list[int], group_bits: int, value_len: int) -> bytes:
    """Inverse of :func:`value_to_groups` for a value of ``value_len`` bytes."""
    if group_bits < 1:
        raise ConfigurationError("group_bits must be >= 1")
    total_bits = value_len * 8
    num_groups = (total_bits + group_bits - 1) // group_bits
    if len(groups) != num_groups:
        raise ConfigurationError(f"expected {num_groups} groups, got {len(groups)}")
    as_int = 0
    for g in groups:
        if not 0 <= g < (1 << group_bits):
            raise ConfigurationError(f"group value {g} out of range for y={group_bits}")
        as_int = (as_int << group_bits) | g
    padded_bits = num_groups * group_bits
    as_int >>= padded_bits - total_bits
    return as_int.to_bytes(value_len, "big")


class StoredLabel(NamedTuple):
    """One group's label and point-and-permute slot as a pair.

    The server's record is two blobs (:class:`StoredRecord`); this stays
    because ``bench/micro.py`` builds lists of it to time the store.
    """

    label: bytes
    decrypt_index: int | None = None


class StoredRecord(NamedTuple):
    """What the server stores per object: its current label of every group,
    back to back, plus (under §10.2) the slot byte per group telling it which
    table entry to open on the *next* access — empty in the base protocol."""

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
        if group_bits < 1:
            raise ConfigurationError("group_bits must be >= 1")
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
        self._split = struct.Struct(
            f"{label_len}s" * (self.num_groups * self.table_size)
        ).unpack_from
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
        of group ``i`` is entry ``i · 2^y + v``."""
        return self._split(blob)

    def offsets(self, blob: bytes) -> bytes:
        """An epoch's per-group permute offsets ``r`` (§10.2), one byte each."""
        if self.group_bits > 8:
            raise ConfigurationError(
                "permute offsets are one byte per group: group_bits must be <= 8"
            )
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

        Each label is matched against its own group's ``2^y · label_len``
        window of the epoch ``blob`` (which the proxy still holds from
        ``prepare``), at label boundaries only.  Also serves as the tamper
        check of §5.4: a label matching none of its group's candidates
        proves the server (or channel) corrupted data.

        Raises:
            TamperDetectedError: if any label is not a valid candidate.
        """
        label_len = self.label_len
        if len(labels) != self.num_groups * label_len:
            raise ConfigurationError(
                f"expected {self.num_groups} labels of {label_len} bytes, "
                f"got {len(labels)} bytes"
            )
        window = self.table_size * label_len
        find = blob.find
        groups: list[int] = []
        start = 0
        for at in range(0, len(labels), label_len):
            label = labels[at : at + label_len]
            end = start + window
            found = find(label, start, end)
            while found >= 0 and (found - start) % label_len:
                found = find(label, found + 1, end)  # straddles two candidates
            if found < 0:
                raise TamperDetectedError(
                    f"label at group {at // label_len} matches no candidate: "
                    "data was tampered"
                )
            groups.append((found - start) // label_len)
            start = end
        return groups_to_value(groups, self.group_bits, self.value_len)


__all__ = [
    "LabelCodec",
    "StoredLabel",
    "StoredRecord",
    "value_to_groups",
    "groups_to_value",
]
