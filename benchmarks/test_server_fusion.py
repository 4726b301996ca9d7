"""Server-fusion gates: fused access windows must beat per-request dispatch.

Eight clients' pre-prepared access requests hit the untrusted store at a
**dispatch-bound** operating point (1 B values, y=8, point-and-permute — a
request opens exactly ONE designated row, so per-request dispatch
overhead rivals the crypto, which is the regime server-side fusion exists
for).  Two configurations:

* **per-request** — each of the window's requests is its own
  ``LblServer.process``, i.e. its own *window of one* on the server's single
  access path (own multi-get/multi-put of one key, own ``open_rows`` call
  with its per-call setup, own window bookkeeping).  On a GIL-bound host
  this sequential execution is *exactly* what an unfused server
  (``server_batch=1``) does with eight concurrent clients: their requests
  serialize through the interpreter whatever the transport does.
* **fused** — the same eight concurrent requests as one window through the
  same code: one storage multi-get, one window-wide ``rows.open_rows`` over
  all designated rows (a run per request, each under its own nonce), one
  multi-put of rotated labels.

Both sides run ``LblServer.process_many``, so the gated ratio is the
amortization of that one path's per-window cost and nothing else — and it
can rise while both sides get slower.  The absolute rates are therefore
recorded too, ungated (``kernels.server_per_request_ops_per_sec``,
``kernels.server_fused_ops_per_sec``); judge a change to the access path by
those, on one host in one session.

**Why the gate is 1.3x and not more.**  The fused win is dispatch
amortization only — the opens cost the same on both sides: the window
shares one ``open_rows`` invocation's setup, one storage access pair, and
one round of window bookkeeping where the per-request path pays each of
those eight times.  That measures ~2x here (1.4–1.5x while an open was a
two-HMAC AEAD entry: the shared setup is now the larger share of a
one-HMAC row); the pytest gate asserts
a conservative 1.3x floor robust across noisy runners, and the recorded
``kernels.server_fusion_speedup`` trajectory is additionally gated by
``repro bench check`` (drift against the best recorded run).

A second pass measures the latency cost of the window through the
*coalescer* (leader/follower synchronization included): a *lone* request
waits out the flush timer before its window fires, so single-client
latency grows by roughly the window length.  The trade-off table lands in
``results/server_fusion_tradeoff.txt`` and feeds docs/performance.md.

Throughput is wall time over a fixed request count, best-of-N runs.
Requests are pre-prepared per key round by round (a prepare against epoch
*e* is only valid against epoch-*e* server state, so each round's requests
are built against the state the previous round installs); the timed
section is server-side dispatch only.
"""

from __future__ import annotations

import random
import time

import pytest
from conftest import record_bench, save_table

from repro.core.lbl import LblOrtoa
from repro.core.lbl.server import LblServer
from repro.core.lbl.server_coalesce import ServerAccessCoalescer
from repro.types import Request, StoreConfig

#: Dispatch-bound operating point: a 1 B value at y=8 is a single group,
#: so the server opens exactly one designated entry per request and the
#: per-request dispatch overhead is a large share of total cost.
GATE_POINT = {"value_len": 1, "group_bits": 8, "point_and_permute": True}

CLIENTS = 8  #: window width — matches DEFAULT_MAX_BATCH
ROUNDS = 40  #: windows per timed run
RUNS = 5  #: best (max ops/s) of this many runs

#: Fused windows must beat per-request dispatch by this factor (see module
#: docstring for why this floor is below the measured 1.4-1.5x).
GATE_FUSION_SPEEDUP = 1.3

#: Flush windows for the latency trade-off table (seconds).
TRADEOFF_WINDOWS = (0.0002, 0.001, 0.005)


def _clone_server(server: LblServer) -> LblServer:
    clone = LblServer(point_and_permute=server.point_and_permute)
    for encoded_key, labels in server.store._data.items():
        clone.load(encoded_key, list(labels))
    return clone


def _build_chains() -> tuple[LblServer, list[list]]:
    """Pre-prepare ``ROUNDS`` windows of ``CLIENTS`` distinct-key requests.

    Each round's requests are prepared against the server state the
    previous round installs (a scratch server advances in lockstep), so a
    timed run can replay the whole schedule against a fresh clone of the
    *initial* state — every request meets exactly the labels it was
    prepared for, whichever dispatch path serves it.
    """
    config = StoreConfig(**GATE_POINT)
    store = LblOrtoa(config, rng=random.Random(11))
    keys = [f"k{i}" for i in range(CLIENTS)]
    store.initialize({key: bytes(config.value_len) for key in keys})
    initial = _clone_server(store.server)
    scratch = store.server
    windows: list[list] = []
    for _ in range(ROUNDS):
        window = []
        for key in keys:
            built, _ops = store.proxy.prepare(Request.read(key))
            window.append(built)
            response, _server_ops = scratch.process(built)
            store.proxy.finalize(key, response)
        windows.append(window)
    return initial, windows


def _per_request_run(initial: LblServer, windows: list[list]) -> float:
    """One timed run of unfused per-request dispatch, in ops/s."""
    server = _clone_server(initial)
    t0 = time.perf_counter()
    for window in windows:
        for request in window:
            server.process(request)
    return CLIENTS * ROUNDS / (time.perf_counter() - t0)


def _fused_run(initial: LblServer, windows: list[list]) -> float:
    """One timed run of fused window dispatch, in ops/s."""
    server = _clone_server(initial)
    t0 = time.perf_counter()
    for window in windows:
        results = server.process_many(window)
        if any(isinstance(item, Exception) for item in results):
            raise AssertionError("fused window failed mid-benchmark")
    return CLIENTS * ROUNDS / (time.perf_counter() - t0)


def _lone_latency(initial: LblServer, windows: list[list], window_s: float) -> float:
    """Best-of-5 lone-request latency through the coalescer at ``window_s``.

    A lone caller is its own leader: it waits out the full flush timer
    before its (single-entry) window fires — the latency price a deployment
    pays for fusion when concurrency is NOT there to amortize it.
    """
    best = float("inf")
    for _ in range(5):
        server = _clone_server(initial)
        coalescer = ServerAccessCoalescer(
            server, window=window_s, max_batch=CLIENTS
        )
        request = windows[0][0]
        t0 = time.perf_counter()
        coalescer.process(request)
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.fixture(scope="module")
def measured() -> dict[str, float]:
    initial, windows = _build_chains()
    # Warm both code paths, then interleave the timed runs so machine-load
    # drift hits both configurations alike; best-of-RUNS per path.
    _per_request_run(initial, windows)
    _fused_run(initial, windows)
    per_request = 0.0
    fused = 0.0
    for _ in range(RUNS):
        per_request = max(per_request, _per_request_run(initial, windows))
        fused = max(fused, _fused_run(initial, windows))
    per_request = round(per_request, 2)
    fused = round(fused, 2)
    results = {
        "per_request_ops_per_sec": per_request,
        "fused_ops_per_sec": fused,
        "server_fusion_speedup": round(fused / per_request, 2),
    }
    record_bench(
        "kernels.server_fusion_speedup",
        results["server_fusion_speedup"],
        unit="x",
    )
    record_bench(
        "kernels.server_per_request_ops_per_sec",
        per_request,
        unit="ops/s",
        gate=False,
    )
    record_bench(
        "kernels.server_fused_ops_per_sec", fused, unit="ops/s", gate=False
    )
    return results


def test_fused_beats_per_request_dispatch(measured):
    """Tentpole gate: fused windows beat per-request server dispatch."""
    assert measured["server_fusion_speedup"] >= GATE_FUSION_SPEEDUP, (
        f"fused {measured['fused_ops_per_sec']} ops/s < "
        f"{GATE_FUSION_SPEEDUP}x the per-request path "
        f"({measured['per_request_ops_per_sec']} ops/s)"
    )


def test_window_latency_tradeoff_table(measured):
    """Render the window/latency trade-off table for docs/performance.md.

    Lone-request latency at window W is bounded below by W (a lone leader
    waits out the timer before flushing itself); the table makes that cost
    explicit next to the fused win, so deployments pick ``server_window``
    against their latency SLO.
    """
    initial, windows = _build_chains()
    rows = [
        (window_s, _lone_latency(initial, windows, window_s))
        for window_s in TRADEOFF_WINDOWS
    ]
    lines = [
        "Server access-window trade-off "
        f"({CLIENTS}-request windows, 1 B values, y=8)",
        f"  per-request dispatch: "
        f"{measured['per_request_ops_per_sec']} ops/s",
        f"  fused window dispatch: {measured['fused_ops_per_sec']} ops/s "
        f"({measured['server_fusion_speedup']}x per-request)",
        "",
        "  server_window   lone-request access latency",
    ]
    for window_s, latency in rows:
        lines.append(f"  {window_s * 1e6:10.0f}µs  {latency * 1e3:12.2f} ms")
    save_table("server_fusion_tradeoff", "\n".join(lines))
    # A lone request must not stall much past its window: a generous bound
    # that just catches a wedged leader wait.
    for window_s, latency in rows:
        assert latency < window_s + 0.5, (window_s, latency)
