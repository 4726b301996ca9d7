"""``CoalescingWindow`` safety behaviours, driven through a trivial flush.

The window is the only leader/follower/timer/generation machinery in the
stack; ``tests/test_server_fusion.py`` exercises it through
``ServerAccessCoalescer`` with real accesses.  These tests pin what must
hold whatever the flush function does: a failing flush strands no caller,
the timer reads only the injected clock, and the window counts its leader.
"""

import threading

from repro.core.lbl.window import CoalescingWindow
from repro.obs.clock import FakeClock


def _echo(batch, reason):
    """Flush function that publishes ``(request, reason)`` per entry."""
    for entry in batch:
        entry.finish((entry.request, reason))


def _run_concurrently(window: CoalescingWindow, requests: list) -> list:
    """One blocking ``run`` per request, started together; outcomes in order."""
    outcomes: list = [None] * len(requests)
    barrier = threading.Barrier(len(requests))

    def go(position: int) -> None:
        barrier.wait()
        try:
            outcomes[position] = window.run(requests[position])
        except RuntimeError as exc:
            outcomes[position] = exc

    threads = [
        threading.Thread(target=go, args=(i,), daemon=True)
        for i in range(len(requests))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads), "a caller is stranded"
    return outcomes


def test_flush_failure_propagates_to_every_caller():
    """A failed flush raises for leader and followers alike — no caller
    blocks forever on a window whose flush died."""

    def boom(batch, reason):
        raise RuntimeError("flush failed")

    window = CoalescingWindow(boom, window=3600.0, max_batch=2, clock=FakeClock())
    outcomes = _run_concurrently(window, ["a", "b"])
    assert [str(outcome) for outcome in outcomes] == ["flush failed"] * 2


def test_timer_flush_reads_injected_clock():
    """A lone call flushes when the *injected* clock passes the window —
    no real sleeping — proving the timer is clock-driven."""
    clock = FakeClock(start=0.0, auto_advance=30.0)  # each read jumps 30s
    window = CoalescingWindow(_echo, window=60.0, max_batch=8, clock=clock)
    assert window.run("lone") == ("lone", "timer")
    assert clock.now() > 60.0  # the timer consumed fake time, not wall time


def test_frozen_clock_never_time_flushes():
    """With a frozen fake clock the window can only flush on size — the
    leader waits for its follower, not for wall time."""
    clock = FakeClock(start=0.0, auto_advance=0.0)
    window = CoalescingWindow(_echo, window=3600.0, max_batch=2, clock=clock)
    assert _run_concurrently(window, ["a", "b"]) == [("a", "size"), ("b", "size")]
    assert clock.now() == 0.0  # frozen clock: the flush was size-triggered


def test_lone_caller_at_max_batch_one_flushes_on_size():
    """The window counts its leader: at ``max_batch=1`` a lone call is a
    full window and returns without the (frozen) timer ever lapsing."""
    clock = FakeClock(start=0.0, auto_advance=0.0)
    window = CoalescingWindow(_echo, window=3600.0, max_batch=1, clock=clock)
    assert _run_concurrently(window, ["lone"]) == [("lone", "size")]
    assert clock.now() == 0.0
