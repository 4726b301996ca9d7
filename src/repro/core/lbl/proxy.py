"""The trusted proxy of LBL-ORTOA (paper §5.2 step 1, §10 optimizations).

Per access to key ``k`` with counter ``ct`` the proxy:

1. regenerates the *old* epoch — its whitening and permute offsets — as
   the actual value lives only at the server;
2. generates the *new* epoch under ``ct + 1``;
3. builds, per group, a table of ``2^y`` rows: for reads each old label
   seals its *own* new label (value preserved); for writes every old label
   seals the new label of the *written* group value;
4. lays each table out in point-and-permute slot order (§10.2): a row's
   position is its old label's permuted slot, so position leaks nothing;
5. bumps the access counter — the only per-object state the proxy keeps
   (§5.3.1: 8 bytes per object).

An epoch is the ``(W, offsets)`` of :meth:`LabelCodec.epochs
<repro.crypto.labels.LabelCodec.epochs>`; a label is derived where it is
used.  :meth:`LblProxy.prepare` derives both epochs' offsets in one AES
call; a second emits the table's row stream — the new epoch at each row's
next slot (the carried labels) beside the old epoch at every slot (the
table's keys) — and the kernel seals it in two more
(:func:`~repro.crypto.rows.seal`); the old epoch may come from the
:class:`~repro.core.lbl.cache.LabelCache`.  Every prepared
epoch waits in a bounded **in-flight table** until
:meth:`LblProxy.finalize` reads the value from the reply's packed slots and
checks its digest against the ``G`` labels they select (§5.4), derived in
one AES call; an epoch that fell out is re-derived.
"""

from __future__ import annotations

import secrets
from collections import OrderedDict

from repro.core.base import AccessTranscript, OpCounts, PhaseRecord, RoundTrip
from repro.core.lbl.cache import ENTRY_OVERHEAD_BYTES, LabelCache
from repro.core.messages import LblAccessRequest, LblAccessResponse
from repro.crypto import rows
from repro.crypto.keys import KeyChain
from repro.crypto.labels import LabelCodec, value_to_groups
from repro.errors import KeyNotFoundError, ProtocolError
from repro.obs import _state as _obs
from repro.obs.metrics import REGISTRY
from repro.obs.trace import TRACER
from repro.types import Request, Response, StoreConfig

#: Byte budget of the in-flight table (prepared, not yet finalized epochs):
#: one ``(W, offsets)`` per outstanding request, 656 bytes and the entry
#: overhead at the paper point (160 B values, y = 2), so 4,297 epochs.  Past
#: that, and for requests never finalized, the oldest epoch falls out and
#: its ``finalize`` re-derives it.
_INFLIGHT_TABLE_BYTES = 4 * 1024 * 1024


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
            keychain.label_block_key,
            label_len=keychain.label_bits // 8,
            value_len=config.value_len,
            group_bits=config.group_bits,
        )
        self._counters: dict[str, int] = {}
        self.label_cache: LabelCache | None = None
        if config.label_cache_entries == -1:
            self.label_cache = LabelCache.from_bytes(codec.epoch_bytes)
        elif config.label_cache_entries is not None:
            self.label_cache = LabelCache(config.label_cache_entries)
        # (key, epoch) -> (W, offsets), oldest first.  Every mutation is one
        # OrderedDict operation (atomic under the GIL), so callers that
        # serialize per key need no further lock.
        self._inflight: "OrderedDict[tuple[str, int], tuple[bytes, bytes]]" = OrderedDict()
        self._inflight_capacity = max(
            1, _INFLIGHT_TABLE_BYTES // (codec.epoch_bytes + ENTRY_OVERHEAD_BYTES)
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

    def _remember_epoch(self, key: str, epoch: int, derived: "tuple[bytes, bytes]") -> None:
        """File a prepared epoch's ``(W, offsets)`` for its :meth:`finalize`."""
        table = self._inflight
        table[(key, epoch)] = derived
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
    ) -> list[tuple[bytes, bytes]]:
        """Encode every plaintext pair into the server's stored form.

        One epoch derivation per record: the value's groups select the
        labels to derive and store, each naming the slot to open next.  Every key and
        value is checked before any counter is registered, so a refused call
        leaves the proxy as it found it.
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
            (epoch,) = codec.epochs(key, 0)
            out.append((self.keychain.encode_key(key), codec.record(epoch, groups)))
        return out

    # ------------------------------------------------------------------ #
    # Request preparation (Pcr, Figure 1 / §5.2 step 1)
    # ------------------------------------------------------------------ #

    def prepare(self, request: Request) -> tuple[LblAccessRequest, OpCounts]:
        """Build the one-round request and advance the access counter: derive
        two epochs and the table's labels, seal the whole table in one call."""
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
        if cache_hit:
            (new,) = codec.epochs(key, new_ct)
        else:
            old, new = codec.epochs(key, ct, new_ct)
        prf_count = 3 - cache_hit  # the epochs derived + the key encoding

        # One label call emits the whole table's stream, group 0's checks
        # included, and the kernel seals it.
        enc_count = codec.num_groups * codec.table_size
        nonce = secrets.token_bytes(rows.ROW_NONCE_LEN)
        tweaks = rows.tweaks(nonce, codec.label_blocks + 1)
        stream = codec.table_stream(old[0], new[0], self._next_slots(old, new, new_value), tweaks)
        slab = rows.seal(stream, codec.label_len, codec.table_size)
        wire = LblAccessRequest(
            self.keychain.encode_key(key), slab, codec.table_size, codec.label_len, nonce
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

    def _next_slots(
        self, old: "tuple[bytes, bytes]", new: "tuple[bytes, bytes]", new_value: "bytes | None"
    ) -> bytearray:
        """The slot each of one access's rows leads to, in row order: row
        ``s`` of group ``i`` is keyed by the old epoch's entry ``s`` and
        carries the new epoch's at ``t ⊕ r'_i``, ``t = s ⊕ r_i`` (a read) or
        ``w_i`` (a write).  A read and a write make the same calls."""
        read = new_value is None
        step = rows.xor(old[1] if read else new_value, new[1])  # r ⊕ r' or w ⊕ r'
        size = self.codec.table_size
        next_slots = bytearray(len(step) * size)
        for slot in range(size):  # ⊕ s on row s of a read, ⊕ 0 of a write
            next_slots[slot::size] = step.translate(rows.XOR_TABLES[slot if read else 0])
        return next_slots

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

        The epoch is the ``(W, offsets)`` :meth:`prepare` filed in the
        in-flight table, so the normal path costs no PRF call; an epoch that is no longer
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
        epoch = self._inflight.pop((key, new_ct), None)
        if epoch is None and self.label_cache is not None:
            epoch = self.label_cache.peek(key, new_ct)
        if epoch is None:
            (epoch,) = codec.epochs(key, new_ct)
            prf_count = 1
        value = codec.decode(epoch, response.slot_bits, response.slots, response.digest)
        if _obs.enabled:
            REGISTRY.counter("lbl.proxy.finalizes").inc()
        return value, OpCounts(prf=prf_count)


__all__ = ["LblProxy"]
