"""The trusted proxy of LBL-ORTOA (paper §5.2 step 1, §10 optimizations).

Per access to key ``k`` with counter ``ct`` the proxy:

1. regenerates the *old* labels for every group and every possible group
   value — slice ``v`` of ``PRF(k, i, ct)`` — covering all ``2^y``
   candidates because the actual value lives only at the server;
2. generates the *new* labels under ``ct + 1``;
3. builds, per group, a table of ``2^y`` ciphertexts: for reads each old
   label encrypts its *own* new label (value preserved); for writes every
   old label encrypts the new label of the *written* group value;
4. shuffles each table (base protocol) or builds it in point-and-permute
   slot order (§10.2) so position leaks nothing;
5. bumps the access counter — the only per-object state the proxy keeps
   (§5.3.1: 8 bytes per object).

After the round trip, :meth:`LblProxy.finalize` maps the opened labels back
to plaintext, which doubles as the §5.4 tamper check.  The candidates it
checks against are the new-epoch labels step 2 already derived: every
prepared epoch's label table waits in a bounded **in-flight table** until its
response is finalized, so the normal path derives each epoch exactly once
(an epoch that fell out — recovery, rollback, eviction — is re-derived).

Labels and offsets have one definition, in
:class:`~repro.crypto.labels.LabelCodec`; the proxy reaches it two ways:

* the **batched kernel path** (default) derives whole epochs through
  :meth:`~repro.crypto.labels.LabelCodec.labels_for_groups` and encrypts the
  whole table in one kernel call — :func:`~repro.crypto.rows.seal_rows`
  under point-and-permute, whose output *is* the request's slab, or
  :func:`~repro.crypto.aead.encrypt_many` for the base protocol —
  optionally reusing a previous access's labels from the
  :class:`~repro.core.lbl.cache.LabelCache`;
* the **scalar path** (``batched=False``) issues one PRF/AEAD call per label
  and table entry.  It is kept as the benchmark baseline and as an
  equivalence oracle — both paths produce tables that open to
  byte-identical labels.
"""

from __future__ import annotations

import random
import secrets
from collections import OrderedDict
from operator import add, itemgetter

from repro.core.base import OpCounts
from repro.core.lbl.cache import DEFAULT_LABEL_CACHE_BYTES, LabelCache, LabelCacheEntry
from repro.core.messages import LblAccessRequest, LblAccessResponse
from repro.crypto import aead, rows
from repro.crypto.keys import KeyChain
from repro.crypto.labels import LabelCodec, StoredLabel, value_to_groups
from repro.errors import KeyNotFoundError, ProtocolError
from repro.obs import _state as _obs
from repro.obs.metrics import REGISTRY
from repro.obs.recorder import RECORDER
from repro.obs.trace import TRACER
from repro.types import Request, StoreConfig

#: Width of the serialized point-and-permute slot index appended to each
#: row payload.  The paper uses 2 bits; a whole byte keeps framing simple
#: and supports y up to 8 (``StoreConfig`` rejects more).
DECRYPT_INDEX_BYTES = 1

#: Byte budget of the in-flight table (prepared, not yet finalized epochs).
#: The table holds one epoch per outstanding request, so the budget binds as
#: soon as more requests are outstanding at once — a batch, a window, a
#: pipeline depth, a thread count — than it has room for epochs: 68 at the
#: paper point (160 B values, ≈ 240 KB of labels per epoch; sized to cover
#: ``ConcurrentLblProxy``'s 64 stripes), thousands at 2 B.  Past that, and
#: for epochs whose request failed and is never finalized, the oldest epoch
#: falls out and its ``finalize`` re-derives what ``prepare`` had kept.
_INFLIGHT_TABLE_BYTES = 16 * 1024 * 1024

#: Single-byte slot suffixes, pre-built so the table loop does not
#: construct a fresh one-byte ``bytes`` object per row.
_BYTE = [bytes((v,)) for v in range(256)]


class LblProxy:
    """Trusted, stateful proxy: key material + per-object access counters.

    Args:
        config: Deployment parameters; ``config.label_cache_entries``
            enables the proxy label cache.
        keychain: Key material.
        rng: Table-shuffle randomness (base protocol only).
        batched: Use the batched crypto kernels (default).  ``False``
            selects the scalar per-label reference path.
    """

    def __init__(
        self,
        config: StoreConfig,
        keychain: KeyChain,
        rng: random.Random | None = None,
        *,
        batched: bool = True,
    ) -> None:
        self.config = config
        self.keychain = keychain
        self.codec = LabelCodec(
            keychain.label_prf,
            keychain.permute_prf,
            value_len=config.value_len,
            group_bits=config.group_bits,
        )
        self._rng = rng or random.Random()
        self._counters: dict[str, int] = {}
        self.batched = batched
        self.label_cache: LabelCache | None = None
        entries = config.label_cache_entries
        if entries is not None:
            if entries == -1:
                self.label_cache = LabelCache.from_bytes(
                    self.codec.num_groups,
                    self.codec.table_size,
                    self.codec.label_len,
                    DEFAULT_LABEL_CACHE_BYTES,
                )
            else:
                self.label_cache = LabelCache(entries)
        #: HMAC evaluations behind one epoch's labels (+ offsets under §10.2).
        self._epoch_prf = self.codec.label_calls + (
            self.codec.offset_calls if config.point_and_permute else 0
        )
        if config.point_and_permute:
            # Slot ``s`` of a group whose permute offset is ``r`` belongs to
            # value ``s ^ r``.  Per offset: a C-level getter that picks a
            # group's labels in slot order, and the slot suffixes ``s ^ r``.
            size = self.codec.table_size
            self._in_slot_order = [
                itemgetter(*(slot ^ r for slot in range(size))) for r in range(size)
            ]
            self._slot_bytes = [
                [_BYTE[slot ^ r] for slot in range(size)] for r in range(size)
            ]
        # (key, epoch) -> candidate label table, oldest first.  Every
        # mutation is one OrderedDict operation (atomic under the GIL), so
        # callers that serialize per key need no further lock.
        self._inflight: "OrderedDict[tuple[str, int], list[list[bytes]]]" = (
            OrderedDict()
        )
        # Entry cap: the byte budget over an upper estimate of one epoch's
        # resident bytes — per label the ``bytes`` object (33-byte header)
        # and its list slot, per group the row list, per epoch the outer
        # list and the table node, each rounded up.
        epoch_bytes = (
            self.codec.num_groups
            * (self.codec.table_size * (self.codec.label_len + 56) + 96)
            + 512
        )
        self._inflight_capacity = max(1, _INFLIGHT_TABLE_BYTES // epoch_bytes)

    # ------------------------------------------------------------------ #
    # State
    # ------------------------------------------------------------------ #

    @property
    def proxy_state_bytes(self) -> int:
        """§5.3.1's space estimate: an 8-byte counter per tracked object."""
        return 8 * len(self._counters)

    def _remember_epoch(
        self, key: str, epoch: int, labels: "list[list[bytes]]"
    ) -> None:
        """File a prepared epoch's label table for its :meth:`finalize`."""
        table = self._inflight
        table[(key, epoch)] = labels
        while len(table) > self._inflight_capacity:
            try:
                table.popitem(last=False)
            except KeyError:  # pragma: no cover - emptied by another thread
                break

    def counter(self, key: str) -> int:
        """Current access-counter epoch for ``key``."""
        try:
            return self._counters[key]
        except KeyError:
            raise KeyNotFoundError(f"key {key!r} was never initialized") from None

    def counters(self) -> dict[str, int]:
        """Snapshot of all access counters (for checkpointing)."""
        return dict(self._counters)

    def force_counter(self, key: str, value: int) -> None:
        """Overwrite one key's counter — recovery resynchronization only.

        The key's cached epochs and the in-flight table of the epoch its
        counter is leaving are dropped: after a forced counter move they no
        longer correspond to a request the server will answer.  (Older
        unfinalized epochs of the key are dead weight, never wrong — labels
        are a function of key and epoch — and age out under the entry cap.)
        """
        if value < 0:
            raise ProtocolError("counters cannot be negative")
        if key not in self._counters:
            raise KeyNotFoundError(f"key {key!r} was never initialized")
        self._inflight.pop((key, self._counters[key]), None)
        self._counters[key] = value
        if self.label_cache is not None:
            self.label_cache.invalidate_key(key)
        if _obs.enabled:
            # Forced counter moves are recovery events — rare, and exactly
            # what a post-mortem wants on its timeline next to the faults
            # that caused them.
            RECORDER.record("proxy.counter_forced", value=value)

    def restore_counters(self, counters: dict[str, int]) -> None:
        """Install a recovered counter table (crash recovery).

        The label cache and the in-flight table are cleared wholesale:
        recovery means the in-memory epoch history is no longer trustworthy.
        """
        for key, value in counters.items():
            if value < 0:
                raise ProtocolError(f"negative counter for key {key!r}")
        self._counters = dict(counters)
        self._inflight.clear()
        if self.label_cache is not None:
            self.label_cache.clear()
        if _obs.enabled:
            RECORDER.record("proxy.counters_restored", keys=len(counters))

    # ------------------------------------------------------------------ #
    # Initialization (the Init(kv) procedure of Figure 1)
    # ------------------------------------------------------------------ #

    def initial_records(
        self, records: dict[str, bytes]
    ) -> list[tuple[bytes, list[StoredLabel]]]:
        """Encode every plaintext pair into the server's stored form.

        The value is decomposed into groups exactly once per record; only the
        label each group stores is derived (one HMAC per group), and the
        point-and-permute slots come from the packed offset stream.
        """
        out = []
        point_and_permute = self.config.point_and_permute
        for key, value in records.items():
            if key in self._counters:
                raise ProtocolError(f"duplicate key at init: {key!r}")
            groups = value_to_groups(self.config.pad(value), self.config.group_bits)
            self._counters[key] = 0
            labels = self.codec.encode_groups(key, groups, 0)
            if point_and_permute:
                slots = self.codec.decrypt_indices(key, groups, 0)
                stored = [
                    StoredLabel(label, slot) for label, slot in zip(labels, slots)
                ]
            else:
                stored = [StoredLabel(label) for label in labels]
            out.append((self.keychain.encode_key(key), stored))
        return out

    # ------------------------------------------------------------------ #
    # Request preparation (Pcr, Figure 1 / §5.2 step 1)
    # ------------------------------------------------------------------ #

    def prepare(self, request: Request) -> tuple[LblAccessRequest, OpCounts]:
        """Build the one-round request and advance the access counter."""
        if self.batched:
            return self._prepare_batched(request)
        return self._prepare_scalar(request)

    def _emit_prepare_span(
        self, span, request: Request, prf_count: int, enc_count: int, cache_hit: bool
    ) -> None:
        if span is None:
            return
        labels_generated = 2 * self.codec.table_size * self.codec.num_groups
        span.set_attributes(
            op=request.op.value,
            groups=self.codec.num_groups,
            table_size=self.codec.table_size,
            labels_generated=labels_generated,
            ciphertexts_built=enc_count,
            prf_calls=prf_count,
            label_cache_hit=cache_hit,
        )
        TRACER.end(span)
        REGISTRY.counter("lbl.proxy.prepares").inc()
        REGISTRY.counter("lbl.proxy.labels_generated").inc(labels_generated)
        REGISTRY.counter("lbl.proxy.ciphertexts_built").inc(enc_count)

    def _prepare_batched(self, request: Request) -> tuple[LblAccessRequest, OpCounts]:
        """Kernel path: batch-derive labels, batch-encrypt the whole table."""
        span = TRACER.start_span("lbl.proxy.prepare") if _obs.enabled else None
        codec = self.codec
        key = request.key
        ct = self.counter(key)
        new_ct = ct + 1
        point_and_permute = self.config.point_and_permute
        epoch_prf = self._epoch_prf

        new_value = None
        if request.op.is_write:
            padded = self.config.pad(request.value)  # type: ignore[arg-type]
            new_value = value_to_groups(padded, self.config.group_bits)

        cached = (
            self.label_cache.take(key, ct) if self.label_cache is not None else None
        )
        cache_hit = cached is not None
        prf_count = 0
        new_labels = None
        new_offsets = None
        if cache_hit:
            old_labels = cached.labels
            old_offsets = cached.offsets
            old_schedules = cached.schedules
            # ``finalize`` may have prefetched the new epoch too, in which
            # case prepare performs no label derivation at all.
            if cached.next_labels is not None:
                new_labels = cached.next_labels
                new_offsets = cached.next_offsets
        else:
            old_labels = codec.labels_for_groups(key, ct)
            old_offsets = (
                codec.permute_offsets(key, ct) if point_and_permute else None
            )
            old_schedules = None
            prf_count += epoch_prf

        if new_labels is None:
            new_labels = codec.labels_for_groups(key, new_ct)
            if point_and_permute:
                new_offsets = codec.permute_offsets(key, new_ct)
            prf_count += epoch_prf

        # One kernel call encrypts the whole table.
        encoded_key = self.keychain.encode_key(key)
        if point_and_permute:
            keys, payloads = self._row_inputs(
                old_labels if old_schedules is None else None,
                old_offsets, new_labels, new_offsets, new_value,
            )
            nonce = secrets.token_bytes(rows.ROW_NONCE_LEN)
            slab = rows.seal_rows(keys, payloads, nonce, schedules=old_schedules)
            enc_count = len(payloads)
            wire = LblAccessRequest(
                encoded_key, slab, codec.table_size, len(slab) // enc_count, nonce
            )
        else:
            flat_keys = [label for row in old_labels for label in row]
            if new_value is None:
                flat_payloads = [label for row in new_labels for label in row]
            else:
                flat_payloads = [
                    row[target]
                    for row, target in zip(new_labels, new_value)
                    for _ in row
                ]
            ciphertexts = aead.encrypt_many(
                flat_keys, flat_payloads, schedules=old_schedules
            )
            enc_count = len(ciphertexts)
            wire = LblAccessRequest.from_tables(
                encoded_key, self._assemble_tables(ciphertexts)
            )

        if self.label_cache is not None:
            self.label_cache.put(
                key,
                new_ct,
                LabelCacheEntry(labels=new_labels, offsets=new_offsets),
            )
        self._remember_epoch(key, new_ct, new_labels)
        self._counters[key] = new_ct
        ops = OpCounts(prf=prf_count + 1, aead_enc=enc_count)  # +1: key encoding
        self._emit_prepare_span(span, request, prf_count + 1, enc_count, cache_hit)
        return wire, ops

    def _row_inputs(
        self,
        old_labels: "list[list[bytes]] | None",
        old_offsets: "list[int]",
        new_labels: "list[list[bytes]]",
        new_offsets: "list[int]",
        new_value: "tuple[int, ...] | None",
    ) -> "tuple[list[bytes] | None, list[bytes]]":
        """``(keys, payloads)`` of one access's point-and-permute rows,
        already in wire order (group-major, slot-minor).

        Slot ``s`` of group ``i`` is keyed by the old label of value
        ``v = s ^ old_offsets[i]`` and carries the new label ``v`` maps to —
        its own for a read (``new_value is None``), the written value's for a
        write — followed by that label's slot byte in the next epoch.
        ``old_labels`` is ``None`` (and so is ``keys``) when the caller holds
        the old epoch's key schedules, which are in wire order already.
        """
        in_slot_order = self._in_slot_order
        slot_bytes = self._slot_bytes
        table_size = self.codec.table_size
        keys: "list[bytes] | None" = None if old_labels is None else []
        payloads: list[bytes] = []
        for index, offset in enumerate(old_offsets):
            order = in_slot_order[offset]
            if keys is not None:
                keys += order(old_labels[index])  # type: ignore[index]
            new_row = new_labels[index]
            next_offset = new_offsets[index]
            if new_value is None:
                payloads += map(add, order(new_row), slot_bytes[offset ^ next_offset])
            else:
                target = new_value[index]
                payloads += [new_row[target] + _BYTE[target ^ next_offset]] * table_size
        return keys, payloads

    def _assemble_tables(self, ciphertexts: "list[bytes]") -> "list[list[bytes]]":
        """One base-protocol access's ciphertexts as per-group tables,
        shuffled so position leaks nothing."""
        size = self.codec.table_size
        tables = [ciphertexts[i : i + size] for i in range(0, len(ciphertexts), size)]
        for table in tables:
            self._rng.shuffle(table)
        return tables

    def _prepare_scalar(self, request: Request) -> tuple[LblAccessRequest, OpCounts]:
        """Reference path: one PRF/AEAD call per label and table entry.

        Kept as the self-relative benchmark baseline
        (``benchmarks/test_kernel_speedup.py``) and as the equivalence
        oracle for the batched kernels.
        """
        span = TRACER.start_span("lbl.proxy.prepare") if _obs.enabled else None
        key = request.key
        ct = self.counter(key)
        new_ct = ct + 1
        table_size = self.codec.table_size

        new_value = None
        if request.op.is_write:
            padded = self.config.pad(request.value)  # type: ignore[arg-type]
            new_value = value_to_groups(padded, self.config.group_bits)

        prf_count = 0
        enc_count = 0
        tables: list[list[bytes]] = []
        new_table: list[list[bytes]] = []
        pnp = self.config.point_and_permute
        nonce = secrets.token_bytes(rows.ROW_NONCE_LEN) if pnp else b""
        for index in range(self.codec.num_groups):
            old_labels = self.codec.labels_for_group(key, index, ct)
            new_labels = self.codec.labels_for_group(key, index, new_ct)
            new_table.append(new_labels)
            prf_count += 2 * self.codec.scalar_group_calls

            entries: list[bytes] = [b""] * table_size
            if pnp:
                # One permute-offset PRF call linking the old labels to
                # slots, plus one per table entry (inside decrypt_index) for
                # the next access's slot carried in the payload.
                offset_old = self.codec.permute_offset(key, index, ct)
                prf_count += 1 + table_size
                for value in range(table_size):
                    target = value if request.op.is_read else new_value[index]  # type: ignore[index]
                    payload = new_labels[target] + bytes(
                        [self.codec.decrypt_index(key, index, target, new_ct)]
                    )
                    entries[value ^ offset_old] = rows.seal_row(
                        old_labels[value], payload, nonce
                    )
                    enc_count += 1
            else:
                for value in range(table_size):
                    target = value if request.op.is_read else new_value[index]  # type: ignore[index]
                    entries[value] = aead.encrypt(old_labels[value], new_labels[target])
                    enc_count += 1
                self._rng.shuffle(entries)
            tables.append(entries)

        self._remember_epoch(key, new_ct, new_table)
        self._counters[key] = new_ct
        ops = OpCounts(prf=prf_count + 1, aead_enc=enc_count)  # +1: key encoding
        self._emit_prepare_span(span, request, prf_count + 1, enc_count, False)
        return (
            LblAccessRequest.from_tables(self.keychain.encode_key(key), tables, nonce),
            ops,
        )

    # ------------------------------------------------------------------ #
    # Response handling (§5.2 step 2.2 tail + §5.4 tamper check)
    # ------------------------------------------------------------------ #

    def finalize(
        self,
        key: str,
        response: LblAccessResponse,
        counter: int | None = None,
    ) -> tuple[bytes, OpCounts]:
        """Map opened labels back to the plaintext value.

        For reads this recovers the stored value; for writes it echoes the
        value just written (the labels now encode it).  Either way the
        label-to-candidate match is the §5.4 integrity check.

        The candidate set is the table :meth:`prepare` filed in the
        in-flight table, so the normal path costs no PRF call; an epoch that
        is no longer there (recovery, rollback, eviction) is taken from the
        label cache if that still holds it and re-derived otherwise.
        When the label cache holds the epoch, its entry is enriched with
        (a) precomputed HMAC key schedules so the *next* access's table
        encryption skips its per-entry key derivation and (b) the prefetched
        next-epoch labels/offsets so the next access skips label derivation
        entirely — both after the request already left the proxy, i.e. off
        the one-round-trip critical path.

        Args:
            key: The accessed key.
            response: The server's opened labels.
            counter: Label epoch of the response.  Defaults to the key's
                current counter — correct for the prepare/process/finalize
                cycle of a single access; batched pipelines that prepare
                several epochs up front must pass the epoch explicitly.

        Raises:
            TamperDetectedError: a label matches no candidate.
        """
        new_ct = self.counter(key) if counter is None else counter
        codec = self.codec
        labels = list(response.opened_labels)
        prf_count = 0
        cache = self.label_cache
        cached = cache.peek(key, new_ct) if cache is not None else None
        candidates = self._inflight.pop((key, new_ct), None)
        if candidates is None:
            if cached is not None:
                candidates = cached.labels
            else:
                candidates = codec.labels_for_groups(key, new_ct)
                prf_count += codec.label_calls
        value = codec.decode_from_candidates(candidates, labels)
        if cached is not None:
            cache.attach_schedules(key, new_ct)
            if cached.next_labels is None:
                # Label prefetch: epoch ``new_ct + 1`` is a deterministic
                # function of the key, so derive it now — during the idle
                # window after the response, not on the next access's
                # request-build critical path.
                next_labels = codec.labels_for_groups(key, new_ct + 1)
                next_offsets = (
                    codec.permute_offsets(key, new_ct + 1)
                    if self.config.point_and_permute
                    else None
                )
                prf_count += self._epoch_prf
                cache.attach_prefetch(key, new_ct, next_labels, next_offsets)
        ops = OpCounts(prf=prf_count)
        if _obs.enabled:
            REGISTRY.counter("lbl.proxy.finalizes").inc()
        return value, ops


__all__ = ["LblProxy", "DECRYPT_INDEX_BYTES"]
