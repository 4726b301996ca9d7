"""Cross-request prepare coalescing for LBL-ORTOA.

The proxy's ``prepare`` is the protocol's throughput ceiling: every access
derives two epochs of labels and encrypts ``2^y`` candidates per group, and
each concurrent client otherwise pays the per-call overhead around it alone
— one derivation call, one ``encrypt_many``, one worker round trip per
request.  :class:`PrepareCoalescer` is the amortize-per-batch stage that
shares it: concurrent ``prepare`` calls enqueue into a bounded **window**
(flushed on size or a few-hundred-µs timer) and the window is prepared as
one fused unit —

* label derivation for every cold access fuses into a single
  :meth:`~repro.crypto.labels.LabelCodec.labels_for_epochs` dispatch (or one
  :meth:`~repro.core.lbl.procpool.ProcessCryptoPool.derive_batch` worker
  round trip): the HMAC work is unchanged, the interpreter overhead per
  dispatch and the procpool IPC round trip are paid once per window;
* table encryption for the whole window runs as one
  :meth:`~repro.core.lbl.proxy.LblProxy.prepare_window` ``encrypt_many``
  call.

**Window mechanics.**  Opening, filling, the size/timer flush, and the
leader/follower hand-off are the shared
:class:`~repro.core.lbl.window.CoalescingWindow`'s; this module holds only
*what* a prepare window fuses.  Flushes serialize on the window's one flush
lock, which is also what makes the shared proxy state (counters, cache,
base-protocol shuffle RNG) safe without per-key stripes.

**Equivalence.**  A flushed window produces, per request, exactly what a
sequential ``prepare`` loop over the same requests in the same order would:
same label bytes (fusion is the empty-prefix PRF-context identity — the
hashed messages are equal), same table placement, same op counts, same
counter chains (same-key accesses after the first in a window prepare
sequentially, consuming the cache entry the previous access installed).
GET and PUT contribute identical shapes to a fused batch — derivation
pairs, payload lengths, and ciphertext counts per entry are op-independent
— so coalescing leaks nothing about the mix (audited in
``tests/test_coalesce.py``).

**Clock injection.**  The flush timer reads an injectable
:class:`~repro.obs.clock.Clock`, so timer-window tests drive a
:class:`~repro.obs.clock.FakeClock` instead of sleeping real wall time.
"""

from __future__ import annotations

from repro.core.base import OpCounts
from repro.core.lbl.proxy import LblProxy
from repro.core.lbl.window import (
    DEFAULT_MAX_BATCH,
    DEFAULT_WINDOW_SECONDS,
    CoalescingWindow,
    WindowEntry,
)
from repro.core.messages import LblAccessRequest
from repro.errors import ConfigurationError
from repro.obs import _state as _obs
from repro.obs import ledger as _ledger
from repro.obs.clock import Clock
from repro.obs.metrics import REGISTRY
from repro.obs.recorder import RECORDER
from repro.types import Request


class PrepareCoalescer(CoalescingWindow):
    """Fuse concurrent ``prepare`` calls into one dispatch per window.

    Args:
        proxy: The trusted proxy whose prepares are coalesced.  Must run the
            batched kernel path.
        window: Flush timer in seconds — the longest a lone request waits
            for company.  ``0`` flushes every window immediately (coalescing
            only what arrived while the previous flush ran).
        max_batch: Size flush threshold; a window with this many entries
            flushes without waiting for the timer.
        procpool: Optional :class:`~repro.core.lbl.procpool.ProcessCryptoPool`
            — cold derivations then fuse into worker batch round trips
            instead of in-process derivation calls.
        clock: Time source for the flush timer (default
            :class:`~repro.obs.clock.WallClock`); tests inject a
            :class:`~repro.obs.clock.FakeClock`.
    """

    def __init__(
        self,
        proxy: LblProxy,
        *,
        window: float = DEFAULT_WINDOW_SECONDS,
        max_batch: int = DEFAULT_MAX_BATCH,
        procpool=None,
        clock: Clock | None = None,
    ) -> None:
        super().__init__(
            self._prepare_window, window=window, max_batch=max_batch, clock=clock
        )
        if not proxy.batched:
            raise ConfigurationError(
                "prepare coalescing requires the batched proxy path"
            )
        self.proxy = proxy
        self.procpool = procpool

    def prepare(
        self, request: Request, row: "_ledger.LedgerRow | None" = None
    ) -> "tuple[LblAccessRequest, OpCounts, int]":
        """Prepare one access through the current window (blocking).

        Returns the same ``(wire_request, prepare_ops, epoch)`` triple a
        :meth:`~repro.core.lbl.parallel.ParallelPrepareEngine.prepare_batch`
        entry yields.
        """
        return self.run(request, row)

    def prepare_all(
        self,
        requests: "list[Request]",
        rows: "list[_ledger.LedgerRow | None] | None" = None,
    ) -> "list[tuple[LblAccessRequest, OpCounts, int]]":
        """Prepare a whole known batch as one fused window (no timer).

        Without explicit ``rows`` every entry credits the caller's ambient
        ledger row — the same attribution a sequential ``prepare`` loop on
        this thread would produce.
        """
        ambient = _ledger.current_row() if rows is None else None
        entries = [
            WindowEntry(request, rows[index] if rows is not None else ambient)
            for index, request in enumerate(requests)
        ]
        self.flush(entries)
        results = []
        for entry in entries:
            if entry.error is not None:
                raise entry.error
            results.append(entry.result)
        return results

    def _prepare_window(self, batch: "list[WindowEntry]", reason: str) -> None:
        """Prepare every entry of one window, fused, and publish results.

        Routing is payload-independent (it depends only on keys and cache
        state, never on the op): the **first** access of each key is fused —
        derivation batched across the window, tables encrypted in one
        dispatch — while warm entries keep the per-request fast path (a
        cached epoch always wins) and same-key followers prepare
        sequentially after their predecessor so epochs chain.  The flush
        ``reason`` is counted and recorded per flush, so saturation tooling
        can tell a size-bound window from a timer-bound one.
        """
        proxy = self.proxy
        seen_keys: set[str] = set()
        front: "list[WindowEntry]" = []
        tail: "list[WindowEntry]" = []
        for entry in batch:
            if entry.request.key in seen_keys:
                tail.append(entry)
            else:
                seen_keys.add(entry.request.key)
                front.append(entry)

        cold: "list[WindowEntry]" = []
        if proxy.label_cache is not None:
            # One lock hold probes the whole window's cache slots.
            slots = [
                (entry.request.key, proxy.counter(entry.request.key))
                for entry in front
            ]
            cached_entries = proxy.label_cache.peek_many(slots)
        else:
            cached_entries = [None] * len(front)
        for entry, cached in zip(front, cached_entries):
            if cached is None:
                cold.append(entry)
            else:
                self._publish_one(entry)

        if cold:
            pairs = [
                (entry.request.key, proxy.counter(entry.request.key))
                for entry in cold
            ]
            rows = [entry.row for entry in cold]
            label_sets = self._derive_fused(pairs, rows)
            window_entries = [
                (entry.request, sets) for entry, sets in zip(cold, label_sets)
            ]
            for entry, result in zip(
                cold, proxy.prepare_window(window_entries, rows=rows)
            ):
                entry.finish(result)

        # Same-key followers: their predecessor installed epoch ct+1 in the
        # cache, so these run as warm per-request prepares, in order.
        for entry in tail:
            self._publish_one(entry)

        if _obs.enabled:
            REGISTRY.counter("lbl.coalesce.windows").inc()
            REGISTRY.counter("lbl.coalesce.prepared").inc(len(batch))
            REGISTRY.counter("lbl.coalesce.fused").inc(len(cold))
            REGISTRY.gauge("lbl.coalesce.last_window").set(len(batch))
            # Flush-reason split + window fill: a saturated deployment
            # flushes on size with full windows; an idle one flushes on
            # timer with near-empty windows.  Doctor reads the ratio.
            REGISTRY.counter(f"lbl.coalesce.flush.{reason}").inc()
            REGISTRY.gauge("lbl.coalesce.window_fill").set(
                len(batch) / self.max_batch
            )
            RECORDER.record(
                "coalesce.flush",
                reason=reason,
                window=len(batch),
                fused=len(cold),
                max_batch=self.max_batch,
            )

    def _publish_one(self, entry: WindowEntry) -> None:
        """Per-request prepare (warm or same-key follower) under its row."""
        token = _ledger.activate(entry.row) if entry.row is not None else None
        try:
            ct = self.proxy.counter(entry.request.key)
            lbl_request, ops = self.proxy.prepare(entry.request)
            entry.finish((lbl_request, ops, ct + 1))
        finally:
            if token is not None:
                _ledger.deactivate(token)

    def _derive_fused(
        self,
        pairs: "list[tuple[str, int]]",
        rows: "list[_ledger.LedgerRow | None]",
    ) -> "list[tuple[list[list[bytes]], list[int] | None, list[list[bytes]], list[int] | None]]":
        """Label sets for the window's cold accesses, one fused dispatch.

        Through the :class:`ProcessCryptoPool` when one is attached (chunked
        at its batch capacity), else in-process through the fused codec
        entry points.  The in-process call runs under **no** ambient row —
        the real PRF meters hit the registry once for the whole fusion —
        and each access's row is then credited its exact per-request share
        (the closed-form ``derivation_cost``, byte-exact by construction),
        so fused rows still sum to registry totals.
        """
        if self.procpool is not None:
            out = []
            step = self.procpool.max_batch
            for base in range(0, len(pairs), step):
                out += self.procpool.derive_batch(
                    pairs[base : base + step], rows=rows[base : base + step]
                )
            return out

        codec = self.proxy.codec
        point_and_permute = self.proxy.config.point_and_permute
        epochs: "list[tuple[str, int]]" = []
        for key, counter in pairs:
            epochs.append((key, counter))
            epochs.append((key, counter + 1))
        token = _ledger.activate(None)
        try:
            tables = codec.labels_for_epochs(epochs)
            offsets = (
                codec.permute_offsets_for_epochs(epochs)
                if point_and_permute
                else None
            )
        finally:
            _ledger.deactivate(token)
        if _obs.enabled:
            for position, (key, counter) in enumerate(pairs):
                row = rows[position]
                if row is None:
                    continue
                old_calls, old_comp = codec.derivation_cost(
                    key, counter, offsets=point_and_permute
                )
                new_calls, new_comp = codec.derivation_cost(
                    key, counter + 1, offsets=point_and_permute
                )
                row.add_op("prf.calls", old_calls + new_calls)
                row.add_op("sha256.compressions", old_comp + new_comp)
        return [
            (
                tables[2 * position],
                offsets[2 * position] if offsets is not None else None,
                tables[2 * position + 1],
                offsets[2 * position + 1] if offsets is not None else None,
            )
            for position in range(len(pairs))
        ]


__all__ = ["PrepareCoalescer", "DEFAULT_WINDOW_SECONDS", "DEFAULT_MAX_BATCH"]
