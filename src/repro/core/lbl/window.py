"""The bounded coalescing window behind server-side access fusion.

Concurrent callers enqueue into a **window** that closes on size
(``max_batch`` entries) or on a timer (``window`` seconds against an
injectable :class:`~repro.obs.clock.Clock`), and every closed window is
handed — exactly once — to a flush function that serves its entries as one
fused unit.  What gets fused is the flush function's business
(:class:`~repro.core.lbl.server_coalesce.ServerAccessCoalescer` fuses server
accesses); this class owns everything else — open/fill/timer/generation/
flush-once.

Callers block in :meth:`CoalescingWindow.run`.  The first caller to find no
window open is its *leader* and owns the flush timer; later callers are
*followers*.  Whoever fills the window — leader included, so
``max_batch=1`` flushes at once — runs the size flush on its own thread;
otherwise the leader runs the timer flush.  Everyone then waits on their
own entry, so a caller never returns before the thread flushing its window
has published its result.  A timer flush names the window *generation* it
was armed for and no-ops once that window has flushed, even if the next one
is already open.

A flush that raises fails every entry it had not yet published, so no
caller is ever stranded.  Flushes serialize on one lock — which is also
what makes the flush function's shared state safe without per-key locks.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from repro.errors import ConfigurationError
from repro.obs import ledger as _ledger
from repro.obs.clock import Clock, WallClock

#: Default flush window in seconds (~200µs): long enough for a burst of
#: concurrent clients to land in one window, short enough to stay invisible
#: next to a cold prepare or the WAN round trip the protocol already pays.
DEFAULT_WINDOW_SECONDS = 0.0002

#: Default size flush threshold.  A tuning constant, not a derived one: 8
#: is the window the server-fusion gate measures
#: (``benchmarks/test_server_fusion.py``: 1.4x over windows of one); no
#: sweep has shown another size wins.
DEFAULT_MAX_BATCH = 8

#: Real-time cap on each wait inside the leader's timer loop.  The window
#: clock is injectable (and may be fake), so the leader never blocks on it
#: for long stretches of *wall* time — it re-reads the clock at least this
#: often.
_LEADER_POLL_SECONDS = 0.001


class WindowEntry:
    """One enqueued call, owned by the window that flushes it."""

    __slots__ = ("request", "row", "done", "result", "error")

    def __init__(self, request: Any, row: "_ledger.LedgerRow | None" = None) -> None:
        self.request = request
        self.row = row
        self.done = threading.Event()
        self.result: Any = None
        self.error: BaseException | None = None

    def finish(self, result: Any = None, error: BaseException | None = None) -> None:
        """Publish this entry's outcome and wake its caller (first call wins)."""
        if self.done.is_set():
            return
        self.result = result
        self.error = error
        self.done.set()


class CoalescingWindow:
    """Size/timer-bounded window that flushes each batch exactly once.

    Args:
        flush: ``flush(batch, reason)`` — serves one closed window and
            publishes each entry through :meth:`WindowEntry.finish`.
        window: Flush timer in seconds — the longest a lone call waits for
            company.  ``0`` flushes every window immediately (coalescing
            only what arrived while the previous flush ran).
        max_batch: Size flush threshold; a window with this many entries
            flushes without waiting for the timer.
        clock: Time source for the flush timer (default
            :class:`~repro.obs.clock.WallClock`); tests inject a
            :class:`~repro.obs.clock.FakeClock`.
        what: Names the window in configuration errors.
    """

    def __init__(
        self,
        flush: "Callable[[list[WindowEntry], str], None]",
        *,
        window: float = DEFAULT_WINDOW_SECONDS,
        max_batch: int = DEFAULT_MAX_BATCH,
        clock: Clock | None = None,
        what: str = "coalesce",
    ) -> None:
        if window < 0:
            raise ConfigurationError(f"{what} window must be >= 0 seconds")
        if max_batch < 1:
            raise ConfigurationError(f"{what} max_batch must be >= 1")
        self.window = window
        self.max_batch = max_batch
        self.clock: Clock = clock if clock is not None else WallClock()
        self._flush = flush
        self._lock = threading.Lock()
        self._flush_lock = threading.Lock()
        #: The open window's entries; a window is open iff this is non-empty.
        self._pending: "list[WindowEntry]" = []
        self._generation = 0

    def submit(
        self, request: Any, row: "_ledger.LedgerRow | None" = None
    ) -> "tuple[WindowEntry, bool, bool, int]":
        """Enqueue one call into the current window (:meth:`run`'s first step).

        Returns ``(entry, is_leader, is_full, generation)``; :meth:`run`
        flushes at once when ``is_full`` and owns the timer for
        ``generation`` when ``is_leader``.
        """
        entry = WindowEntry(request, row)
        with self._lock:
            is_leader = not self._pending
            if is_leader:
                self._generation += 1
            self._pending.append(entry)
            is_full = len(self._pending) >= self.max_batch
            return entry, is_leader, is_full, self._generation

    def run(self, request: Any, row: "_ledger.LedgerRow | None" = None) -> Any:
        """Serve one call through the current window (blocking).

        Returns the entry's published result or raises its published error.
        The caller's ambient ledger row is captured when ``row`` is not
        given, so crediting survives the hop onto the flushing thread.
        """
        if row is None:
            row = _ledger.current_row()
        entry, is_leader, is_full, generation = self.submit(request, row)
        if is_full:
            self.flush_pending("size", generation)
        elif is_leader:
            opened = self.clock.now()
            while not entry.done.is_set():
                remaining = self.window - (self.clock.now() - opened)
                if remaining <= 0:
                    self.flush_pending("timer", generation)
                    break
                entry.done.wait(min(remaining, _LEADER_POLL_SECONDS))
        # Another thread may be mid-flush of this window: wait for it to
        # publish rather than returning on the flush having merely started.
        entry.done.wait()
        if entry.error is not None:
            raise entry.error
        return entry.result

    def flush_pending(
        self, reason: str = "timer", generation: int | None = None
    ) -> bool:
        """Close and flush the open window, if it is still ``generation``.

        Returns True when a window was flushed.  Safe to call from a stale
        timer: if the target window already flushed (by size, or by an
        earlier timer) this is a no-op, even when a newer window is open.
        """
        with self._lock:
            if not self._pending:
                return False
            if generation is not None and generation != self._generation:
                return False
            batch = self._pending
            self._pending = []
        self.flush(batch, reason)
        return True

    def flush(self, batch: "list[WindowEntry]", reason: str = "explicit") -> None:
        """Serve one window through the flush function, exactly once.

        An exception escaping the flush function is published as the error
        of every entry it had not finished, and each caller re-raises it
        from its own entry.

        Args:
            batch: The window's entries.
            reason: Why the window closed — ``"size"`` (hit ``max_batch``),
                ``"timer"`` (the window timer lapsed), or ``"explicit"``
                (a direct call).
        """
        if not batch:
            return
        with self._flush_lock:
            try:
                self._flush(batch, reason)
            except BaseException as exc:
                for entry in batch:
                    entry.finish(error=exc)
                if not isinstance(exc, Exception):
                    raise  # interrupts and exits also stop the flusher


__all__ = [
    "CoalescingWindow",
    "WindowEntry",
    "DEFAULT_WINDOW_SECONDS",
    "DEFAULT_MAX_BATCH",
]
