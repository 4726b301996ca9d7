"""Observability overhead gates: disabled instrumentation must be free.

Every instrumentation site in the hot path hides behind one module-attribute
check (``if _obs.enabled:``), so the *disabled* cost of the whole telemetry
layer is exactly (guard cost) x (guards crossed per access).  Both factors
are measured here on the same interpreter, making the gate self-relative
and machine-portable:

1. **Disabled-path gate** — measured guard cost times a deliberately
   generous per-access guard count must stay under 3% of a warm access.
2. **Enabled-path sanity check** — the full-capture slowdown (spans +
   metrics + histograms on) is printed and only held under 10x: capture is
   an opt-in diagnostic mode, not a production path.
"""

from __future__ import annotations

import gc
import time

from repro import obs
from repro.core.lbl import LblOrtoa
from repro.obs import _state
from repro.types import Request, StoreConfig

#: Paper §6 operating point, full kernel stack.
POINT = {"value_len": 160, "group_bits": 2}

#: Guards a single access can cross (client submit, server dispatch,
#: sharded wrapper, counters, gauges, histograms, and the resource
#: ledger's wire/op totals in the crypto and transport layers).  Measured,
#: not asserted: ``tests/test_obs_guards.py`` counts reads of
#: ``_state.enabled`` with capture off, per access at the paper point —
#: 17 for an in-process ``access``, 17 for ``access_pipelined``, 11 for a
#: 16-request ``access_batch`` (with the label cache; one fewer each
#: without); over TCP (client and server sides together) 29, 29 and 12 —
#: and fails when this falls below the largest.  The gate charges the
#: largest.  It may only go down.
GUARDS_PER_ACCESS = 29

#: Disabled instrumentation must cost less than this fraction of an access.
MAX_DISABLED_OVERHEAD = 0.03

ROUNDS = 30


def _warm_store() -> LblOrtoa:
    config = StoreConfig(**POINT, label_cache_entries=-1)
    store = LblOrtoa(config)
    store.initialize({"k": bytes(config.value_len)})
    for _ in range(3):
        store.access(Request.read("k"))
    return store


def _access_seconds(store: LblOrtoa) -> float:
    request = Request.read("k")
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(ROUNDS):
            store.access(request)
        return (time.perf_counter() - t0) / ROUNDS
    finally:
        gc.enable()


def _guard_seconds(iterations: int = 200_000) -> float:
    """Per-check cost of the ``if _obs.enabled:`` disabled-path guard.

    The loop overhead is included, overstating the guard cost — fine,
    the gate should be conservative.
    """
    t0 = time.perf_counter()
    for _ in range(iterations):
        if _state.enabled:  # pragma: no cover - obs is off in this benchmark
            raise AssertionError("obs must be disabled while timing the guard")
    return (time.perf_counter() - t0) / iterations


def test_disabled_path_overhead_under_3pct():
    """Tentpole gate: guards crossed per access cost <3% of the access."""
    obs.disable()
    store = _warm_store()
    access_s = _access_seconds(store)
    guard_s = _guard_seconds()
    overhead = (guard_s * GUARDS_PER_ACCESS) / access_s
    print(
        f"\n[obs overhead] guard {guard_s * 1e9:.1f} ns x {GUARDS_PER_ACCESS} "
        f"vs access {access_s * 1e6:.1f} us -> {overhead:.4%} (gate <3%)"
    )
    assert overhead < MAX_DISABLED_OVERHEAD, (
        f"disabled instrumentation costs {overhead:.2%} of a warm access "
        f"({guard_s * 1e9:.0f} ns/guard x {GUARDS_PER_ACCESS}); "
        f"gate is {MAX_DISABLED_OVERHEAD:.0%}"
    )


def test_enabled_capture_slowdown_recorded():
    """Full capture vs disabled (informational; only a 10x sanity bound)."""
    obs.disable()
    store = _warm_store()
    disabled_s = _access_seconds(store)
    with obs.capture():
        enabled_s = _access_seconds(store)
    slowdown = enabled_s / disabled_s
    print(
        f"\n[obs overhead] capture on: {enabled_s * 1e6:.1f} us/access "
        f"vs off: {disabled_s * 1e6:.1f} us -> {slowdown:.2f}x"
    )
    # Sanity only: capture should never be catastrophic on a warm access.
    assert slowdown < 10.0
