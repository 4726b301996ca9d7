"""Server-side access window fusion for LBL-ORTOA.

The point-and-permute server (§10.2) opens exactly one designated row
per group, so a small-value request is a handful of opens wrapped in
per-request cost: its own ``open_rows`` call, its own storage get/put and
its own bookkeeping.
:class:`ServerAccessCoalescer` puts the shared
:class:`~repro.core.lbl.window.CoalescingWindow` in front of the server:
concurrent in-flight access requests arriving at the frame dispatcher
enqueue into one bounded window, and the flush hands the whole window to
:meth:`~repro.core.lbl.server.LblServer.process_many` — the same single
access path a lone frame or a batch frame takes, just wider: one storage
multi-get, one window-wide ``rows.open_rows`` over every request's
designated rows, one multi-put of rotated labels — then fans each response
back to its caller.  The opens themselves cost the same; the per-call
overhead and the storage access pair are paid once per window (2x at 8
one-group requests, ``benchmarks/test_server_fusion.py``).

The window mechanics (leader/follower blocking, generation-guarded timers)
live in :mod:`repro.core.lbl.window`; this module holds only *what* a
server window fuses.

**Obliviousness.**  Window formation is payload-independent — membership
depends only on arrival timing and ``max_batch``, never on the operation —
and a fused GET window is shape-identical to a fused PUT window: same
designated-pair counts, same flush events, same per-request span
attributes (pinned by the audit in ``tests/test_server_fusion.py``).
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Callable, ContextManager

from repro.core.base import OpCounts
from repro.core.lbl.server import LblServer
from repro.core.lbl.window import (
    DEFAULT_MAX_BATCH,
    DEFAULT_WINDOW_SECONDS,
    CoalescingWindow,
    WindowEntry,
)
from repro.core.messages import LblAccessRequest, LblAccessResponse
from repro.errors import OrtoaError
from repro.obs import _state as _obs
from repro.obs import ledger as _ledger
from repro.obs.clock import Clock
from repro.obs.metrics import REGISTRY
from repro.obs.recorder import RECORDER


class ServerAccessCoalescer(CoalescingWindow):
    """Fuse concurrent server accesses into windowed ``process_many`` calls.

    Args:
        lbl: The :class:`~repro.core.lbl.server.LblServer` whose accesses
            are coalesced.
        window: Flush timer in seconds — the longest a lone request waits
            for company.  ``0`` flushes every window immediately (coalescing
            only what arrived while the previous flush ran).
        max_batch: Size flush threshold; a window with this many entries
            flushes without waiting for the timer.
        clock: Time source for the flush timer (default
            :class:`~repro.obs.clock.WallClock`); tests inject a
            :class:`~repro.obs.clock.FakeClock`.
        lock_keys: Optional callable returning a context manager that holds
            whatever per-key locks the transport requires for the given
            encoded keys — the frame dispatcher passes its stripe table
            so a fused flush coexists with the (equally locked) LOAD and
            batch frame paths.  Defaults to no locking.
    """

    def __init__(
        self,
        lbl: LblServer,
        *,
        window: float = DEFAULT_WINDOW_SECONDS,
        max_batch: int = DEFAULT_MAX_BATCH,
        clock: Clock | None = None,
        lock_keys: "Callable[[list[bytes]], ContextManager] | None" = None,
    ) -> None:
        super().__init__(
            self._serve, window=window, max_batch=max_batch, clock=clock, what="server"
        )
        self.lbl = lbl
        self._lock_keys = lock_keys

    def process(
        self, request: LblAccessRequest, row: "_ledger.LedgerRow | None" = None
    ) -> "tuple[LblAccessResponse, OpCounts]":
        """Serve one access through the current window (blocking).

        Returns exactly what ``LblServer.process`` would; raises exactly the
        error it would.
        """
        return self.run(request, row)

    def _serve(self, batch: "list[WindowEntry]", reason: str) -> None:
        """Serve one window fused and publish per-entry results.

        Holds the transport's per-key locks for the window's (deduplicated,
        sorted) keys, runs exactly one
        :meth:`~repro.core.lbl.server.LblServer.process_many`, and fans the
        per-request results (or isolated errors) back out.
        """
        guard: ContextManager = (
            self._lock_keys(sorted({entry.request.encoded_key for entry in batch}))
            if self._lock_keys is not None
            else nullcontext()
        )
        with guard:
            results = self.lbl.process_many(
                [entry.request for entry in batch],
                rows=[entry.row for entry in batch],
            )
        for entry, result in zip(batch, results):
            if isinstance(result, OrtoaError):
                entry.finish(error=result)
            else:
                entry.finish(result)
        if _obs.enabled:
            REGISTRY.counter("lbl.server.windows").inc()
            REGISTRY.counter("lbl.server.coalesced").inc(len(batch))
            REGISTRY.counter(f"lbl.server.flush.{reason}").inc()
            REGISTRY.gauge("lbl.server.last_window").set(len(batch))
            # Flush-reason split + window fill: a saturated server flushes
            # on size with full windows; an idle one flushes on timer with
            # near-empty windows.  Doctor reads the ratio.
            REGISTRY.gauge("lbl.server.window_fill").set(
                len(batch) / self.max_batch
            )
            # Window shape is payload-independent by construction: reason
            # and fill depend on arrival timing, never on ops.
            RECORDER.record(
                "server.window",
                reason=reason,
                window=len(batch),
                max_batch=self.max_batch,
            )


__all__ = [
    "ServerAccessCoalescer",
    "DEFAULT_WINDOW_SECONDS",
    "DEFAULT_MAX_BATCH",
]
