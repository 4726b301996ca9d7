"""Label codec for LBL-ORTOA (paper §5 and appendix §10).

LBL-ORTOA represents a plaintext value by one secret label per *group* of
``y`` plaintext bits (``y = 1`` is the base protocol of §5; ``y = 2`` is the
space-optimized optimum of §10.1).  A label is a deterministic PRF output

    ``label = PRF(key, group_index, group_value, access_counter)``

so the proxy can regenerate the labels currently stored at the server from
nothing but the object's key and its access counter.  This module owns:

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

    # ------------------------------------------------------------------ #
    # Label derivation
    # ------------------------------------------------------------------ #

    def label(self, key: str, index: int, group_value: int, counter: int) -> bytes:
        """The secret label for ``group_value`` at ``index`` under ``counter``."""
        if not 0 <= group_value < self.table_size:
            raise ConfigurationError(
                f"group value {group_value} out of range for y={self.group_bits}"
            )
        return self._label_prf.evaluate("label", key, index, group_value, counter)

    def labels_for_group(self, key: str, index: int, counter: int) -> list[bytes]:
        """All ``2^y`` candidate labels for one group (proxy-side, §5.2 1.2)."""
        return [self.label(key, index, v, counter) for v in range(self.table_size)]

    def encode_value(self, key: str, value: bytes, counter: int) -> list[bytes]:
        """Labels the server should store for ``value`` at access ``counter``."""
        if len(value) != self.value_len:
            raise ConfigurationError(
                f"value must be exactly {self.value_len} bytes, got {len(value)}"
            )
        groups = value_to_groups(value, self.group_bits)
        ctx = self._label_prf.context("label", key)
        enc = encode_components
        enc_ct = enc(counter)
        return ctx.evaluate_tails(
            [enc(i) + enc(g) + enc_ct for i, g in enumerate(groups)]
        )

    def labels_for_groups(self, key: str, counter: int) -> list[list[bytes]]:
        """All ``num_groups × 2^y`` candidate labels for one access, batched.

        Row ``i`` equals :meth:`labels_for_group`\\ ``(key, i, counter)``;
        the whole table is derived via one pre-encoded PRF prefix instead of
        ``num_groups * 2^y`` independent :meth:`label` calls.
        """
        table_size = self.table_size
        ctx = self._label_prf.context("label", key)
        enc = encode_components
        # The counter and the 2^y group values repeat across the whole batch:
        # encode each exactly once and build the per-label PRF tails by byte
        # concatenation instead of per-tuple encoding.
        tails_by_value = [enc(value) + enc(counter) for value in range(table_size)]
        enc_indices = [enc(index) for index in range(self.num_groups)]
        flat = ctx.evaluate_tails(
            [
                enc_index + tail
                for enc_index in enc_indices
                for tail in tails_by_value
            ]
        )
        return [
            flat[start : start + table_size]
            for start in range(0, len(flat), table_size)
        ]

    def labels_for_epochs(
        self, epochs: "list[tuple[str, int]]"
    ) -> "list[list[list[bytes]]]":
        """Candidate label tables for many ``(key, counter)`` epochs, fused.

        Entry ``e`` equals :meth:`labels_for_groups`\\ ``(*epochs[e])`` —
        byte-identical, because the per-key PRF context is just a pre-encoded
        prefix: evaluating an empty-prefix context on fully-encoded tails
        hashes exactly the same messages.  The point is the dispatch shape:
        *one* :meth:`~repro.crypto.prf.PrfContext.evaluate_tails` call covers
        every epoch in the batch, so eight coalesced accesses fill the
        8-wide SHA-256 lanes instead of each running alone (and the ledger
        meters the identical call/compression counts either way).
        """
        table_size = self.table_size
        num_groups = self.num_groups
        ctx = self._label_prf.context()
        enc = encode_components
        tails: list[bytes] = []
        for key, counter in epochs:
            head = enc("label", key)
            tails_by_value = [enc(value) + enc(counter) for value in range(table_size)]
            tails += [
                head + enc(index) + tail
                for index in range(num_groups)
                for tail in tails_by_value
            ]
        flat = ctx.evaluate_tails(tails)
        per_epoch = num_groups * table_size
        return [
            [
                flat[base + start : base + start + table_size]
                for start in range(0, per_epoch, table_size)
            ]
            for base in range(0, len(flat), per_epoch)
        ]

    def permute_offsets_for_epochs(
        self, epochs: "list[tuple[str, int]]"
    ) -> "list[list[int]]":
        """Batched :meth:`permute_offsets` across many epochs, fused.

        Entry ``e`` equals :meth:`permute_offsets`\\ ``(*epochs[e])``; one
        empty-prefix ``evaluate_tails`` serves all epochs (see
        :meth:`labels_for_epochs` for why the outputs are byte-identical).
        """
        table_size = self.table_size
        num_groups = self.num_groups
        ctx = self._permute_prf.context()
        enc = encode_components
        tails: list[bytes] = []
        for key, counter in epochs:
            head = enc("permute", key)
            enc_ct = enc(counter)
            tails += [head + enc(index) + enc_ct for index in range(num_groups)]
        flat = ctx.evaluate_tails(tails)
        return [
            [
                int.from_bytes(raw, "big") % table_size
                for raw in flat[base : base + num_groups]
            ]
            for base in range(0, len(flat), num_groups)
        ]

    def derivation_cost(
        self, key: str, counter: int, *, offsets: bool = False
    ) -> tuple[int, int]:
        """``(prf_calls, sha256_compressions)`` of one epoch's derivation.

        Predicts exactly what :meth:`labels_for_groups`\\ ``(key, counter)``
        — plus :meth:`permute_offsets` when ``offsets`` is set — costs, by
        re-deriving the encoded message lengths the PRF would hash.  This is
        the single source of truth shared by the analytic cost model
        (:mod:`repro.analysis.costmodel`) and the process-pool ledger hook
        (:class:`~repro.core.lbl.procpool.ProcessCryptoPool`), whose workers
        run the real derivation out-of-process where the in-PRF meters can't
        reach the parent's registry.
        """
        enc = encode_components
        enc_ct_len = len(enc(counter))
        label_head = 4 + len(enc("label", key))
        label_out = self.label_len
        value_lens = [len(enc(value)) for value in range(self.table_size)]
        calls = self.num_groups * self.table_size
        compressions = 0
        for index in range(self.num_groups):
            index_len = len(enc(index))
            for value_len in value_lens:
                compressions += hmac_compressions(
                    label_head + index_len + value_len + enc_ct_len, label_out
                )
        if offsets:
            permute_head = 4 + len(enc("permute", key))
            permute_out = self._permute_prf.out_bytes
            calls += self.num_groups
            for index in range(self.num_groups):
                compressions += hmac_compressions(
                    permute_head + len(enc(index)) + enc_ct_len, permute_out
                )
        return calls, compressions

    # ------------------------------------------------------------------ #
    # Inversion (proxy decodes the server's response after a read)
    # ------------------------------------------------------------------ #

    def decode_labels(self, key: str, labels: list[bytes], counter: int) -> bytes:
        """Recover the plaintext value from per-group labels.

        Also serves as the tamper check of §5.4: a label matching none of the
        ``2^y`` candidates proves the server (or channel) corrupted data.

        Raises:
            TamperDetectedError: if any label is not a valid candidate.
        """
        if len(labels) != self.num_groups:
            raise ConfigurationError(
                f"expected {self.num_groups} labels, got {len(labels)}"
            )
        return self.decode_from_candidates(self.labels_for_groups(key, counter), labels)

    def decode_from_candidates(
        self, candidate_rows: list[list[bytes]], labels: list[bytes]
    ) -> bytes:
        """:meth:`decode_labels` against an already-derived candidate table.

        Lets callers that still hold the epoch's label table (e.g. the
        proxy's label cache) skip the PRF re-derivation entirely.

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

    def permute_offset(self, key: str, index: int, counter: int) -> int:
        """The per-access random offset ``r`` linking table slots to labels.

        Derived from a PRF over ``(key, index, counter)`` exactly as the paper
        suggests, so the proxy never stores it.
        """
        raw = self._permute_prf.evaluate("permute", key, index, counter)
        return int.from_bytes(raw, "big") % self.table_size

    def decrypt_index(self, key: str, index: int, group_value: int, counter: int) -> int:
        """Which table slot the server must open at access ``counter``.

        The slot for the label of ``group_value`` is ``group_value XOR r``
        (§10.2's ``d1 d2 = b1 b2 ⊕ r1 r2``, generalized to ``y`` bits).
        """
        return group_value ^ self.permute_offset(key, index, counter)

    def permute_offsets(self, key: str, counter: int) -> list[int]:
        """Per-group permute offsets for one access, batched.

        Entry ``i`` equals :meth:`permute_offset`\\ ``(key, i, counter)``.
        One pre-encoded PRF prefix serves all ``num_groups`` offsets — and,
        because the offset of a group is shared by all its table slots, one
        PRF call per group replaces the ``2^y`` redundant
        :meth:`decrypt_index` derivations of the scalar path.
        """
        table_size = self.table_size
        ctx = self._permute_prf.context("permute", key)
        enc = encode_components
        enc_ct = enc(counter)
        return [
            int.from_bytes(raw, "big") % table_size
            for raw in ctx.evaluate_tails(
                [enc(index) + enc_ct for index in range(self.num_groups)]
            )
        ]

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
