"""Coalescing gates: fused windows must beat per-request prepare dispatch.

Eight client threads issue cold prepares to distinct keys at a
**dispatch-bound** operating point (2 B values, y=2, point-and-permute —
small enough that per-request dispatch overhead rivals the crypto, which
is the regime the coalescing stage exists for).  Three configurations:

* **per-client** — one client on the pre-coalescing procpool path: every
  prepare is its own pickled worker round trip;
* **per-request** — eight concurrent clients on that same path (IPC round
  trips overlap, but each request still pays its own dispatch);
* **coalesced** — eight concurrent clients through the coalescing stage
  with in-process fused derivation: each window is one
  ``labels_for_epochs`` dispatch plus one window-wide ``encrypt_many``.

**Why the gate is 1.3x.**  The fused win is dispatch amortization only:
the HMAC work is the same on both sides, and what a window shares is the
per-call interpreter overhead of one ``labels_for_epochs`` + one
``encrypt_many`` and, against the procpool side, one IPC round trip per
request.  That has measured 1.5-2.0x on the 1- and 2-core dev containers
(``results/coalesce_tradeoff.txt``).  The pytest gate asserts a
conservative 1.3x floor that is robust across noisy runners; the recorded
``kernels.coalesce_speedup`` trajectory is additionally gated by ``repro
bench check`` (20% drift against the best recorded run), which tightens
the bound around whatever this host actually achieves.

A second pass measures the latency cost of the window: a *lone* request
waits out the flush timer before its window fires, so single-client
latency grows by roughly the window length.  The trade-off table lands in
``results/coalesce_tradeoff.txt`` and feeds docs/performance.md.

Aggregate throughput is wall time over a fixed request count, best-of-N
runs; lone-request latencies are best-of-N, matching
``test_kernel_speedup.py`` conventions.  The GIL switch interval is
pinned low for the module — the default 5 ms quantum exceeds the flush
window, which would let thread scheduling, not the coalescer, decide
window fill.
"""

from __future__ import annotations

import random
import sys
import threading
import time

import pytest
from conftest import record_bench, save_table

from repro.core.lbl import LblOrtoa
from repro.core.lbl.parallel import ParallelPrepareEngine
from repro.types import Request, StoreConfig

#: Dispatch-bound operating point: tiny values make per-request overhead
#: a large share of prepare cost, which is what coalescing eliminates.
GATE_POINT = {"value_len": 2, "group_bits": 2, "point_and_permute": True}

CLIENTS = 8
ROUNDS = 20  #: prepares per client per aggregate run
RUNS = 4  #: best (max aggregate ops/s) of this many runs

#: Fused windows must beat the concurrent per-request procpool path by
#: this factor (see module docstring for why this is a floor).
GATE_COALESCE_SPEEDUP = 1.3

COALESCE_WINDOW = 0.005
COALESCE_BATCH = CLIENTS

#: Flush windows for the latency trade-off table (seconds).
TRADEOFF_WINDOWS = (0.0005, 0.002, 0.005)


@pytest.fixture(scope="module", autouse=True)
def _fast_gil_switch():
    previous = sys.getswitchinterval()
    sys.setswitchinterval(0.0005)
    yield
    sys.setswitchinterval(previous)


def _build() -> LblOrtoa:
    config = StoreConfig(**GATE_POINT, label_cache_entries=None)
    store = LblOrtoa(config, rng=random.Random(7), batched=True)
    store.initialize(
        {f"k{i}": bytes(config.value_len) for i in range(CLIENTS)}
    )
    return store


def _aggregate_ops(engine: ParallelPrepareEngine) -> float:
    """Best-of-``RUNS`` aggregate prepare throughput over ``CLIENTS`` threads.

    Every thread owns one key, so windows fuse fully (no same-key
    chaining) and counters advance monotonically — each prepare is cold.
    """
    best = 0.0
    for _ in range(RUNS):
        barrier = threading.Barrier(CLIENTS + 1)

        def client(position: int) -> None:
            request = Request.read(f"k{position}")
            barrier.wait()
            for _ in range(ROUNDS):
                engine.prepare_one(request)

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        t0 = time.perf_counter()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - t0
        best = max(best, CLIENTS * ROUNDS / elapsed)
    return round(best, 2)


def _single_client_ops(engine: ParallelPrepareEngine) -> float:
    """Best-of-``RUNS`` single-client prepare throughput."""
    request = Request.read("k0")
    for _ in range(5):
        engine.prepare_one(request)
    best = 0.0
    for _ in range(RUNS):
        t0 = time.perf_counter()
        for _ in range(25):
            engine.prepare_one(request)
        best = max(best, 25 / (time.perf_counter() - t0))
    return round(best, 2)


def _lone_latency(store: LblOrtoa, window: float) -> float:
    """Best-of-5 single-request prepare latency at the given flush window."""
    with ParallelPrepareEngine(
        store.proxy,
        workers=0,
        coalesce_window=window,
        coalesce_batch=COALESCE_BATCH,
    ) as engine:
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            engine.prepare_one(Request.read("k0"))
            best = min(best, time.perf_counter() - t0)
    return best


@pytest.fixture(scope="module")
def measured() -> dict[str, float]:
    store = _build()
    with ParallelPrepareEngine(
        store.proxy, workers=2, backend="procpool"
    ) as engine:
        per_client = _single_client_ops(engine)
        per_request = _aggregate_ops(engine)
    with ParallelPrepareEngine(
        store.proxy,
        workers=0,
        coalesce_window=COALESCE_WINDOW,
        coalesce_batch=COALESCE_BATCH,
    ) as engine:
        engine.prepare_one(Request.read("k0"))  # warm code paths
        coalesced = _aggregate_ops(engine)
    results = {
        "per_client_procpool_ops_per_sec": per_client,
        "per_request_agg_ops_per_sec": per_request,
        "coalesced_agg_ops_per_sec": coalesced,
        "coalesce_speedup": round(coalesced / per_request, 2),
        "coalesce_vs_per_client": round(coalesced / per_client, 2),
    }
    record_bench(
        "kernels.coalesce_speedup", results["coalesce_speedup"], unit="x"
    )
    # The gated ratio can move because either side did: keep both absolute
    # rates on the trajectory (ungated — they do not compare across hosts).
    record_bench(
        "kernels.coalesce_per_request_agg_ops_per_sec",
        per_request,
        unit="ops/s",
        gate=False,
    )
    record_bench(
        "kernels.coalesced_agg_ops_per_sec", coalesced, unit="ops/s", gate=False
    )
    record_bench(
        "kernels.coalesce_vs_per_client",
        results["coalesce_vs_per_client"],
        unit="x",
        gate=False,
    )
    return results


def test_coalesced_beats_per_request_dispatch(measured):
    """Tentpole gate: fused windows beat the per-request procpool path."""
    assert measured["coalesce_speedup"] >= GATE_COALESCE_SPEEDUP, (
        f"coalesced {measured['coalesced_agg_ops_per_sec']} agg ops/s < "
        f"{GATE_COALESCE_SPEEDUP}x the 8-client per-request path "
        f"({measured['per_request_agg_ops_per_sec']} agg ops/s)"
    )


def test_aggregate_beats_single_client(measured):
    """Eight coalesced clients must out-run one per-client procpool client —
    concurrency has to scale, not serialize."""
    assert (
        measured["coalesced_agg_ops_per_sec"]
        > measured["per_client_procpool_ops_per_sec"]
    ), measured


def test_window_latency_tradeoff_table(measured):
    """Render the window/latency trade-off table for docs/performance.md.

    Lone-request latency at window W is bounded below by W (the leader
    waits out the timer); the table makes that cost explicit next to the
    aggregate win, so deployments pick a window against their latency SLO.
    """
    store = _build()
    rows = [
        (window, _lone_latency(store, window)) for window in TRADEOFF_WINDOWS
    ]
    lines = [
        "Coalescing window trade-off (8 clients, cold prepares, 2 B values)",
        f"  per-client procpool:   "
        f"{measured['per_client_procpool_ops_per_sec']} ops/s (1 client)",
        f"  per-request aggregate: "
        f"{measured['per_request_agg_ops_per_sec']} ops/s (8 clients)",
        f"  coalesced aggregate:   "
        f"{measured['coalesced_agg_ops_per_sec']} ops/s (8 clients, "
        f"{measured['coalesce_speedup']}x per-request)",
        "",
        "  window      lone-request prepare latency",
    ]
    for window, latency in rows:
        lines.append(f"  {window * 1e6:7.0f}µs  {latency * 1e3:10.2f} ms")
    save_table("coalesce_tradeoff", "\n".join(lines))
    # A lone request must not stall much past its window + a cold prepare:
    # a generous bound that just catches a wedged timer loop.
    for window, latency in rows:
        assert latency < window + 0.5, (window, latency)
