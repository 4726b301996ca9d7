"""Label codec for LBL-ORTOA (paper §5 and appendix §10).

LBL-ORTOA represents a plaintext value by one secret label per *group* of
``y`` plaintext bits (``y = 1`` is the base protocol of §5; ``y = 2`` is the
space-optimized optimum of §10.1).  A label is a deterministic PRF output

    ``label = PRF(key, group_index, access_counter)[group_value]``

— slice ``group_value`` of the group's wide counter-mode output, see
:class:`LabelCodec` — so the proxy can regenerate the labels currently stored
at the server from nothing but the object's key and its access counter.  This
module owns:

* bit/group packing between ``bytes`` values and group-value tuples,
* label derivation for one group or a whole value,
* inversion (labels back to plaintext) used by the proxy after a read,
* the point-and-permute bits of §10.2.

The batch entry points (:meth:`LabelCodec.labels_for_groups`,
:meth:`LabelCodec.permute_offsets`, :meth:`LabelCodec.decrypt_indices`)
derive everything an access needs in one pass over a pre-encoded PRF prefix;
outputs are byte-identical to the scalar methods (golden-vector pinned), so
callers can mix tiers freely.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.prf import Prf, encode_components, hmac_compressions
from repro.errors import ConfigurationError, TamperDetectedError

_DIGEST_BYTES = 32  # one HMAC-SHA256 evaluation


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


@dataclass(frozen=True, slots=True)
class StoredLabel:
    """What the server stores per group: the label, plus (optionally) the
    point-and-permute decryption bits telling it which table entry to open on
    the *next* access (§10.2)."""

    label: bytes
    decrypt_index: int | None = None


class LabelCodec:
    """Derives, encodes, and inverts LBL-ORTOA labels for fixed-length values.

    **Derivation.**  The ``2^y`` candidate labels of group ``i`` at epoch
    ``ct`` are consecutive ``label_len``-byte slices of one wide PRF output::

        label_prf.evaluate("label", key, i, ct, out_bytes=2^y * label_len)

    and the point-and-permute offset of group ``i`` is byte ``i`` of
    ``permute_prf.evaluate("permute", key, ct, out_bytes=num_groups)`` reduced
    ``mod 2^y``.  Wide outputs are counter-mode HMAC blocks, so every one of
    an HMAC's 32 output bytes is used (two 128-bit labels, or 32 offsets, per
    evaluation), and disjoint blocks of one HMAC-PRF are independent
    pseudorandom strings — the labels are exactly as unpredictable as one
    PRF call each.  The scalar methods compute only the block(s) they need;
    the batch methods compute each block once.

    Args:
        label_prf: The keyed PRF used for label derivation (from
            :class:`~repro.crypto.keys.KeyChain`).
        permute_prf: PRF producing the per-access random permutation offsets
            (the ``r1 r2`` bits of §10.2).  Only needed when
            ``point_and_permute`` deployments are used, but always accepted.
        value_len: Fixed plaintext length in bytes.
        group_bits: ``y`` — plaintext bits represented by one label.
    """

    def __init__(
        self,
        label_prf: Prf,
        permute_prf: Prf,
        *,
        value_len: int,
        group_bits: int = 1,
    ) -> None:
        if value_len <= 0:
            raise ConfigurationError("value_len must be positive")
        if group_bits < 1:
            raise ConfigurationError("group_bits must be >= 1")
        self._label_prf = label_prf
        self._permute_prf = permute_prf
        self.value_len = value_len
        self.group_bits = group_bits
        self.table_size = 1 << group_bits
        self.num_groups = (value_len * 8 + group_bits - 1) // group_bits
        self.label_len = label_prf.out_bytes
        #: HMAC evaluations behind one group's ``2^y`` labels / one epoch's
        #: labels / one epoch's offsets.
        self.label_blocks = -(-self.table_size * self.label_len // _DIGEST_BYTES)
        self.label_calls = self.num_groups * self.label_blocks
        self.offset_calls = -(-self.num_groups // _DIGEST_BYTES)
        #: HMAC evaluations of :meth:`labels_for_group`, which derives each
        #: label alone (the block(s) it needs, shared blocks recomputed).
        self.scalar_group_calls = sum(
            self._label_span(value)[1] for value in range(self.table_size)
        )
        # Where each label of an epoch starts in the concatenation of the
        # epoch's digests (groups are ``label_blocks`` digests apart).
        stride = self.label_blocks * _DIGEST_BYTES
        self._label_starts = [
            index * stride + value * self.label_len
            for index in range(self.num_groups)
            for value in range(self.table_size)
        ]
        # The group indices every epoch's PRF tails repeat, encoded once.
        self._enc_indices = [encode_components(i) for i in range(self.num_groups)]
        # byte -> byte mod 2^y, applied to a whole offset stream at C speed.
        self._offset_table = bytes(b % self.table_size for b in range(256))

    # ------------------------------------------------------------------ #
    # Label derivation
    # ------------------------------------------------------------------ #

    def _label_span(self, group_value: int) -> tuple[int, int, int]:
        """``(first_block, blocks, offset)`` locating one label in its group's
        stream: the label is ``label_len`` bytes at ``offset`` into digests
        ``first_block … first_block + blocks - 1``."""
        if not 0 <= group_value < self.table_size:
            raise ConfigurationError(
                f"group value {group_value} out of range for y={self.group_bits}"
            )
        start = group_value * self.label_len
        first = start // _DIGEST_BYTES
        last = (start + self.label_len - 1) // _DIGEST_BYTES
        return first, last - first + 1, start - first * _DIGEST_BYTES

    def label(self, key: str, index: int, group_value: int, counter: int) -> bytes:
        """The secret label for ``group_value`` at ``index`` under ``counter``."""
        first, blocks, offset = self._label_span(group_value)
        ctx = self._label_prf.context("label", key, index, counter)
        stream = b"".join(ctx.block_digests([b""], blocks, first))
        return stream[offset : offset + self.label_len]

    def labels_for_group(self, key: str, index: int, counter: int) -> list[bytes]:
        """All ``2^y`` candidate labels for one group (proxy-side, §5.2 1.2)."""
        return [self.label(key, index, v, counter) for v in range(self.table_size)]

    def encode_groups(
        self, key: str, groups: "tuple[int, ...] | list[int]", counter: int
    ) -> list[bytes]:
        """The label of ``groups[i]`` for every group ``i`` at ``counter``.

        Only the block(s) holding each group's one label are derived — one
        HMAC per group whenever a label does not straddle a digest.
        """
        if len(groups) != self.num_groups:
            raise ConfigurationError(
                f"expected {self.num_groups} group values, got {len(groups)}"
            )
        by_span: dict[tuple[int, int, int], list[int]] = {}
        for index, group_value in enumerate(groups):
            by_span.setdefault(self._label_span(group_value), []).append(index)
        ctx = self._label_prf.context("label", key)
        enc_ct = encode_components(counter)
        enc_indices = self._enc_indices
        label_len = self.label_len
        out: list[bytes] = [b""] * self.num_groups
        for (first, blocks, offset), indices in by_span.items():
            digests = ctx.block_digests(
                [enc_indices[index] + enc_ct for index in indices], blocks, first
            )
            for position, index in enumerate(indices):
                stream = b"".join(digests[position * blocks : (position + 1) * blocks])
                out[index] = stream[offset : offset + label_len]
        return out

    def encode_value(self, key: str, value: bytes, counter: int) -> list[bytes]:
        """Labels the server should store for ``value`` at access ``counter``."""
        if len(value) != self.value_len:
            raise ConfigurationError(
                f"value must be exactly {self.value_len} bytes, got {len(value)}"
            )
        return self.encode_groups(key, value_to_groups(value, self.group_bits), counter)

    def _rows(self, digests: list[bytes]) -> list[list[bytes]]:
        """One epoch's digests (group-major) sliced into its label table."""
        blob = b"".join(digests)
        label_len = self.label_len
        table_size = self.table_size
        flat = [blob[start : start + label_len] for start in self._label_starts]
        return [
            flat[start : start + table_size]
            for start in range(0, len(flat), table_size)
        ]

    def labels_for_groups(self, key: str, counter: int) -> list[list[bytes]]:
        """All ``num_groups × 2^y`` candidate labels for one access, batched.

        Row ``i`` equals :meth:`labels_for_group`\\ ``(key, i, counter)``;
        the whole table costs :attr:`label_calls` HMACs through one
        pre-encoded PRF prefix.
        """
        ctx = self._label_prf.context("label", key)
        enc_ct = encode_components(counter)
        return self._rows(
            ctx.block_digests(
                [enc_index + enc_ct for enc_index in self._enc_indices],
                self.label_blocks,
            )
        )

    def derivation_cost(
        self, key: str, counter: int, *, offsets: bool = False
    ) -> tuple[int, int]:
        """``(prf_calls, sha256_compressions)`` of one epoch's derivation.

        Predicts exactly what :meth:`labels_for_groups`\\ ``(key, counter)``
        — plus :meth:`permute_offsets` when ``offsets`` is set — costs, by
        re-deriving the encoded message lengths the PRF would hash; a call
        is one HMAC evaluation.  The analytic cost model
        (:mod:`repro.analysis.costmodel`) is built on it, and
        ``repro plan --check`` holds it to the in-PRF meters exactly.
        """
        enc = encode_components
        enc_ct_len = len(enc(counter))
        label_head = 4 + len(enc("label", key)) + enc_ct_len
        calls = self.label_calls
        compressions = self.label_blocks * sum(
            hmac_compressions(label_head + len(enc_index))
            for enc_index in self._enc_indices
        )
        if offsets:
            calls += self.offset_calls
            compressions += self.offset_calls * hmac_compressions(
                4 + len(enc("permute", key)) + enc_ct_len
            )
        return calls, compressions

    # ------------------------------------------------------------------ #
    # Inversion (proxy decodes the server's response after a read)
    # ------------------------------------------------------------------ #

    def decode_from_candidates(
        self, candidate_rows: list[list[bytes]], labels: list[bytes]
    ) -> bytes:
        """Recover the plaintext value from per-group labels.

        ``candidate_rows`` is the epoch's label table
        (:meth:`labels_for_groups`), which the proxy still holds from
        ``prepare``.  Also serves as the tamper check of §5.4: a label
        matching none of the ``2^y`` candidates proves the server (or
        channel) corrupted data.

        Args:
            candidate_rows: ``num_groups`` rows of ``2^y`` candidate labels.

        Raises:
            TamperDetectedError: if any label is not a valid candidate.
        """
        if len(labels) != self.num_groups or len(candidate_rows) != self.num_groups:
            raise ConfigurationError(
                f"expected {self.num_groups} labels, got {len(labels)}"
            )
        groups: list[int] = []
        for index, stored in enumerate(labels):
            # Candidate-set lookup: 2^y candidates per group, resolved via a
            # dict built from the batch derivation (no per-group list.index).
            lookup = {label: value for value, label in enumerate(candidate_rows[index])}
            value = lookup.get(stored)
            if value is None:
                raise TamperDetectedError(
                    f"label at group {index} matches no candidate: data was tampered"
                )
            groups.append(value)
        return groups_to_value(groups, self.group_bits, self.value_len)

    # ------------------------------------------------------------------ #
    # Point-and-permute bits (§10.2)
    # ------------------------------------------------------------------ #

    def _require_offsets(self) -> None:
        if self.group_bits > 8:
            raise ConfigurationError(
                "permute offsets are one byte per group: group_bits must be <= 8"
            )

    def _offsets_from(self, digests: list[bytes]) -> list[int]:
        """One epoch's offset digests reduced to ``num_groups`` offsets."""
        stream = b"".join(digests)[: self.num_groups]
        return list(stream.translate(self._offset_table))

    def permute_offset(self, key: str, index: int, counter: int) -> int:
        """The per-access random offset ``r`` linking table slots to labels.

        Derived from a PRF over ``(key, counter)`` — byte ``index`` of the
        epoch's offset stream — so the proxy never stores it; only the one
        block holding that byte is computed.
        """
        self._require_offsets()
        block, position = divmod(index, _DIGEST_BYTES)
        ctx = self._permute_prf.context("permute", key, counter)
        return ctx.block_digests([b""], 1, block)[0][position] % self.table_size

    def decrypt_index(self, key: str, index: int, group_value: int, counter: int) -> int:
        """Which table slot the server must open at access ``counter``.

        The slot for the label of ``group_value`` is ``group_value XOR r``
        (§10.2's ``d1 d2 = b1 b2 ⊕ r1 r2``, generalized to ``y`` bits).
        """
        return group_value ^ self.permute_offset(key, index, counter)

    def permute_offsets(self, key: str, counter: int) -> list[int]:
        """Per-group permute offsets for one access, batched.

        Entry ``i`` equals :meth:`permute_offset`\\ ``(key, i, counter)``;
        the whole epoch costs :attr:`offset_calls` HMACs (32 groups each).
        """
        self._require_offsets()
        ctx = self._permute_prf.context("permute", key)
        return self._offsets_from(
            ctx.block_digests([encode_components(counter)], self.offset_calls)
        )

    def decrypt_indices(
        self, key: str, groups: "tuple[int, ...] | list[int]", counter: int
    ) -> list[int]:
        """Batched :meth:`decrypt_index` for one group value per group.

        Args:
            key: The accessed datastore key.
            groups: The group value occupying each group (``num_groups``
                entries).
            counter: Label epoch.
        """
        if len(groups) != self.num_groups:
            raise ConfigurationError(
                f"expected {self.num_groups} group values, got {len(groups)}"
            )
        offsets = self.permute_offsets(key, counter)
        return [g ^ off for g, off in zip(groups, offsets)]


__all__ = [
    "LabelCodec",
    "StoredLabel",
    "value_to_groups",
    "groups_to_value",
]
