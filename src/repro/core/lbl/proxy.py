"""The trusted proxy of LBL-ORTOA (paper §5.2 step 1, §10 optimizations).

Per access to key ``k`` with counter ``ct`` the proxy:

1. regenerates the *old* epoch — every candidate label of every group, and
   the permute offsets, in one AES-CTR keystream — covering all ``2^y``
   candidates because the actual value lives only at the server;
2. generates the *new* epoch under ``ct + 1``;
3. builds, per group, a table of ``2^y`` rows: for reads each old label
   seals its *own* new label (value preserved); for writes every old label
   seals the new label of the *written* group value;
4. lays each table out in point-and-permute slot order (§10.2): a row's
   position is its old label's permuted slot, so position leaks nothing;
5. bumps the access counter — the only per-object state the proxy keeps
   (§5.3.1: 8 bytes per object).

After the round trip, :meth:`LblProxy.finalize` reads the value from the
reply's packed slots — slot ``v ⊕ r_i`` per group, and the proxy holds
``r`` — and checks the reply's digest of the opened labels, the §5.4 tamper
check, against the new epoch step 2 already derived: every prepared epoch's
blob waits in a bounded **in-flight table** until its response is
finalized, so the normal path derives each epoch exactly once (an epoch
that fell out — recovery, rollback, eviction — is re-derived).

An epoch is one ``bytes`` blob from :meth:`LabelCodec.epoch
<repro.crypto.labels.LabelCodec.epoch>` end to end — derived, cached, filed
and matched against as such; its labels are in slot order, so the old
epoch's label run *is* the table's keys.  No loop runs per row or group:
:meth:`LblProxy.prepare` picks the carried labels out of the new epoch with
one ``itemgetter`` and seals the table in one kernel call
(:func:`~repro.crypto.rows.seal_rows`), the old epoch optionally from the
:class:`~repro.core.lbl.cache.LabelCache`; :meth:`LblProxy.finalize` picks
the labels the reply's slots select with one ``itemgetter`` to hash them.
"""

from __future__ import annotations

import secrets
from collections import OrderedDict

from repro.core.base import AccessTranscript, OpCounts, PhaseRecord, RoundTrip
from repro.core.lbl.cache import LabelCache
from repro.core.messages import LblAccessRequest, LblAccessResponse
from repro.crypto import rows
from repro.crypto.keys import KeyChain
from repro.crypto.labels import LabelCodec, StoredRecord, picker, value_to_groups
from repro.errors import KeyNotFoundError, ProtocolError
from repro.obs import _state as _obs
from repro.obs.metrics import REGISTRY
from repro.obs.trace import TRACER
from repro.types import Request, Response, StoreConfig

#: Byte budget of the in-flight table (prepared, not yet finalized epochs).
#: The table holds one epoch blob per outstanding request, so the budget
#: binds as soon as more requests are outstanding at once — a batch, a
#: window, a pipeline depth, a thread count — than it has room for epochs:
#: 100 at the paper point (160 B values, 41.6 KB per epoch; above the
#: default pipeline depth of 8), thousands at 2 B.  Past that, and
#: for epochs whose request failed and is never finalized, the oldest epoch
#: falls out and its ``finalize`` re-derives what ``prepare`` had kept.
_INFLIGHT_TABLE_BYTES = 4 * 1024 * 1024

#: Resident bytes of one in-flight entry beyond its blob: the ``bytes``
#: header, the ``(key, epoch)`` tuple with its two objects (≈ 200 bytes with
#: the table node) and room for a key string of its own.
_INFLIGHT_ENTRY_OVERHEAD = 320


class LblProxy:
    """Trusted, stateful proxy: key material + per-object access counters.

    Args:
        config: Deployment parameters; ``config.label_cache_entries``
            enables the proxy label cache.
        keychain: Key material.
    """

    def __init__(self, config: StoreConfig, keychain: KeyChain) -> None:
        self.config = config
        self.keychain = keychain
        codec = self.codec = LabelCodec(
            keychain.label_xof,
            label_len=keychain.label_bits // 8,
            value_len=config.value_len,
            group_bits=config.group_bits,
        )
        self._counters: dict[str, int] = {}
        self.label_cache: LabelCache | None = None
        if config.label_cache_entries == -1:
            self.label_cache = LabelCache.from_bytes(codec.epoch_len)
        elif config.label_cache_entries is not None:
            self.label_cache = LabelCache(config.label_cache_entries)
        groups, size = codec.num_groups, codec.table_size
        # Per table row in wire order (group-major, slot-minor): its slot, and
        # the picker of an entry of its group in ``codec.labels``.
        self._row_slots = bytes(range(size)) * groups
        self._pick = picker([i * size for i in range(groups) for _ in range(size)])
        self._zeros = bytes(groups * size)
        # (key, epoch) -> epoch blob, oldest first.  Every mutation is one
        # OrderedDict operation (atomic under the GIL), so callers that
        # serialize per key need no further lock.
        self._inflight: "OrderedDict[tuple[str, int], bytes]" = OrderedDict()
        self._inflight_capacity = max(
            1, _INFLIGHT_TABLE_BYTES // (codec.epoch_len + _INFLIGHT_ENTRY_OVERHEAD)
        )
        #: The server's work on an access it commits, as far as this side
        #: can know it: one fetch, one store and exactly one open per group.
        self.server_ops = OpCounts(kv_ops=2, aead_dec=codec.num_groups)

    # ------------------------------------------------------------------ #
    # State
    # ------------------------------------------------------------------ #

    @property
    def proxy_state_bytes(self) -> int:
        """§5.3.1's space estimate: an 8-byte counter per tracked object."""
        return 8 * len(self._counters)

    def _remember_epoch(self, key: str, epoch: int, blob: bytes) -> None:
        """File a prepared epoch's blob for its :meth:`finalize`."""
        table = self._inflight
        table[(key, epoch)] = blob
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

    # ------------------------------------------------------------------ #
    # Initialization (the Init(kv) procedure of Figure 1)
    # ------------------------------------------------------------------ #

    def initial_records(
        self, records: dict[str, bytes]
    ) -> list[tuple[bytes, StoredRecord]]:
        """Encode every plaintext pair into the server's stored form.

        One epoch derivation per record: the value's groups select the
        slots to open and the labels there to store.  Every key and value is
        checked before any counter is registered, so a refused call leaves
        the proxy as it found it.
        """
        duplicate = next((key for key in records if key in self._counters), None)
        if duplicate is not None:
            raise ProtocolError(f"duplicate key at init: {duplicate!r}")
        bits = self.config.group_bits
        grouped = [
            (key, value_to_groups(self.config.pad(value), bits))
            for key, value in records.items()
        ]
        out = []
        codec = self.codec
        for key, groups in grouped:
            self._counters[key] = 0
            blob = codec.epoch(key, 0)
            out.append(
                (
                    self.keychain.encode_key(key),
                    StoredRecord(codec.select(blob, groups), codec.slots(blob, groups)),
                )
            )
        return out

    # ------------------------------------------------------------------ #
    # Request preparation (Pcr, Figure 1 / §5.2 step 1)
    # ------------------------------------------------------------------ #

    def prepare(self, request: Request) -> tuple[LblAccessRequest, OpCounts]:
        """Build the one-round request and advance the access counter: derive
        two epochs, seal the whole table in one call."""
        span = TRACER.start_span("lbl.proxy.prepare") if _obs.enabled else None
        codec = self.codec
        key = request.key
        ct = self.counter(key)
        new_ct = ct + 1

        new_value = None
        if request.op.is_write:
            padded = self.config.pad(request.value)  # type: ignore[arg-type]
            new_value = bytes(value_to_groups(padded, self.config.group_bits))

        cache = self.label_cache
        old = cache.take(key, ct) if cache is not None else None
        cache_hit = old is not None
        if old is None:
            old = codec.epoch(key, ct)
        new = codec.epoch(key, new_ct)
        prf_count = 3 - cache_hit  # the epochs derived + the key encoding

        # One kernel call seals the whole table, group 0's rows with checks.
        enc_count = codec.num_groups * codec.table_size
        nonce = secrets.token_bytes(rows.ROW_NONCE_LEN)
        slab = rows.seal_rows(*self._row_inputs(old, new, new_value), nonce, codec.table_size)
        wire = LblAccessRequest(
            self.keychain.encode_key(key), slab, codec.table_size,
            codec.label_len + rows.SLOT_LEN, nonce,
        )

        if cache is not None:
            cache.put(key, new_ct, new)
        self._remember_epoch(key, new_ct, new)
        self._counters[key] = new_ct
        if span is not None:
            span.set_attributes(
                op=request.op.value,
                groups=codec.num_groups,
                table_size=codec.table_size,
                labels_generated=2 * enc_count,
                ciphertexts_built=enc_count,
                prf_calls=prf_count,
                label_cache_hit=cache_hit,
            )
            TRACER.end(span)
            REGISTRY.counter("lbl.proxy.prepares").inc()
            REGISTRY.counter("lbl.proxy.labels_generated").inc(2 * enc_count)
            REGISTRY.counter("lbl.proxy.ciphertexts_built").inc(enc_count)
        return wire, OpCounts(prf=prf_count, aead_enc=enc_count)

    def _per_row(self, per_group: bytes) -> bytes:
        """One byte per group, repeated for each of the group's ``2^y`` rows."""
        size = self.codec.table_size
        per_row = bytearray(len(per_group) * size)
        for slot in range(size):
            per_row[slot::size] = per_group
        return bytes(per_row)

    def _row_inputs(
        self, old: bytes, new: bytes, new_value: "bytes | None"
    ) -> "tuple[bytes, bytes, bytes]":
        """``(keys, labels, slots)`` of one access's point-and-permute rows, in
        row order (group-major, slot-minor).  Both epochs are in slot order,
        so row ``s`` of group ``i`` is keyed by the old epoch's entry ``s`` —
        its label run is the keys — and carries the new epoch's entry at its
        next slot ``t ⊕ r'_i``, where ``t = s ⊕ r_i`` (a read) or ``w_i`` (a
        write).  A read and a write make the same calls."""
        codec = self.codec
        base, by_group = self._row_slots, codec.offsets(old)  # a read: s ⊕ r_i ⊕ r'_i
        if new_value is not None:
            base, by_group = self._zeros, new_value  # a write: w_i ⊕ r'_i on every row
        next_slots = rows.xor(base, self._per_row(rows.xor(by_group, codec.offsets(new))))
        labels = self._pick(next_slots)(codec.labels(new))
        return old[: codec.labels_len], codec.join(*labels), next_slots

    def transcript(
        self, request: Request, prepare_ops: OpCounts, finalize_ops: OpCounts,
        round_trip: RoundTrip, value: bytes,
    ) -> AccessTranscript:
        """One finalized access's transcript; its server phase is
        :attr:`server_ops`."""
        phases = (
            PhaseRecord("proxy-build-tables", "proxy", prepare_ops),
            PhaseRecord("server-open-and-update", "server", self.server_ops),
            PhaseRecord("proxy-decode", "proxy", finalize_ops),
        )
        return AccessTranscript(
            request.op, phases, (round_trip,), Response(request.key, value)
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
        """Map the reply's packed slots back to the plaintext value.

        For reads this recovers the stored value; for writes it echoes the
        value just written (the slots now spell it).  Either way the reply's
        digest of the opened labels is checked against the labels the value
        selects — the §5.4 integrity check (:meth:`LabelCodec.decode`).

        The epoch is the blob :meth:`prepare` filed in the in-flight table,
        so the normal path costs no PRF call; an epoch that is no longer
        there (recovery, rollback, eviction) is taken from the label cache
        if that still holds it and re-derived otherwise.

        Args:
            key: The accessed key.
            response: The server's reply.
            counter: Label epoch of the response.  Defaults to the key's
                current counter — correct for the prepare/process/finalize
                cycle of a single access; batched pipelines that prepare
                several epochs up front must pass the epoch explicitly.

        Raises:
            TamperDetectedError: the reply is not one ``y``-bit slot per group
                and a digest of the labels they select.
        """
        codec = self.codec
        new_ct = self.counter(key) if counter is None else counter
        prf_count = 0
        blob = self._inflight.pop((key, new_ct), None)
        if blob is None and self.label_cache is not None:
            blob = self.label_cache.peek(key, new_ct)
        if blob is None:
            blob = codec.epoch(key, new_ct)
            prf_count = 1
        value = codec.decode(blob, response.slot_bits, response.slots, response.digest)
        if _obs.enabled:
            REGISTRY.counter("lbl.proxy.finalizes").inc()
        return value, OpCounts(prf=prf_count)


__all__ = ["LblProxy"]
