"""Kernel speedup gate: the batched crypto stack must beat the scalar path.

Times the three LBL proxy phases (``prepare`` / ``process`` / ``finalize``)
under the two kernel configurations at the paper's default operating point
(160 B values, y=2 grouping, point-and-permute — §6 workload with both §10
optimizations):

* **scalar** — the per-label reference path (``batched=False``): every label
  and offset lookup derives a whole epoch (one XOF call), every row is sealed
  alone;
* **batched** — two ``LabelCodec.epoch`` calls + one ``rows.seal_rows`` over
  the whole table (two passes of the fixed-key AES permutation for all its
  rows, output already the request's slab).

Timing is **best-of-N**: each phase's score is its *minimum* over
``ROUNDS`` accesses.  Phase times here are single-digit milliseconds, where
mean-based scores swing 40%+ with background machine load; the minimum is
the repeatable hardware-limited time and is what the gate compares.

The gate is self-relative (same interpreter, same machine, same run), so it
holds on slow CI runners: batched prepare >= scalar prepare — batching must
never lose (the CI smoke condition: fail if batched < scalar).  The ratio is
far above 1 since an epoch is one call; it says how slow the reference path
is, not how fast the kernels are, so ``BENCH_history.json`` records it
ungated (the end-to-end number is ``bench/``'s ``paper_point``).

The ``batched+cache`` configuration and its two gates (warm prepare >= 3x
scalar; warm prepare <= 1.35x its table encryption) went with the label
cache's prefetch and key schedules: a cache hit now saves one 0.1 ms XOF
call of a ~3 ms prepare (``docs/performance.md``), which no ratio resolves.

The measured ops/sec land in ``BENCH_kernels.json`` at the repo root.
"""

from __future__ import annotations

import gc
import json
import pathlib
import random
import time

import pytest
from conftest import record_bench

from repro.core.lbl import LblOrtoa
from repro.types import Request, StoreConfig

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_kernels.json"

#: The gate operating point (paper §6 defaults, both §10 optimizations on).
GATE_POINT = {"value_len": 160, "group_bits": 2, "point_and_permute": True}

#: Timed accesses per configuration; each phase scores its best (minimum)
#: round.  Scalar prepare is ~0.5 s here (4,480 epoch derivations), so this
#: keeps the whole module under ~10 s.
ROUNDS = {"scalar": 3, "batched": 15}


def _build(*, batched: bool) -> LblOrtoa:
    store = LblOrtoa(StoreConfig(**GATE_POINT), rng=random.Random(3), batched=batched)
    store.initialize({"k": bytes(GATE_POINT["value_len"])})
    return store


def _time_phases(store: LblOrtoa, rounds: int) -> dict[str, float]:
    """Best-of-``rounds`` ops/sec per phase for read accesses to one key."""
    proxy, server = store.proxy, store.server
    request = Request.read("k")
    store.access(request)

    prepare_s = process_s = finalize_s = float("inf")
    gc.collect()
    gc.disable()
    try:
        for _ in range(rounds):
            t0 = time.perf_counter()
            lbl_request, _ = proxy.prepare(request)
            t1 = time.perf_counter()
            response, _ = server.process(lbl_request)
            t2 = time.perf_counter()
            proxy.finalize("k", response)
            t3 = time.perf_counter()
            prepare_s = min(prepare_s, t1 - t0)
            process_s = min(process_s, t2 - t1)
            finalize_s = min(finalize_s, t3 - t2)
    finally:
        gc.enable()
    return {
        "prepare_ops_per_sec": round(1.0 / prepare_s, 2),
        "process_ops_per_sec": round(1.0 / process_s, 2),
        "finalize_ops_per_sec": round(1.0 / finalize_s, 2),
        "access_ops_per_sec": round(1.0 / (prepare_s + process_s + finalize_s), 2),
    }


@pytest.fixture(scope="module")
def measured() -> dict[str, dict[str, float]]:
    results = {
        name: _time_phases(_build(batched=name == "batched"), rounds)
        for name, rounds in ROUNDS.items()
    }
    prepare = {name: phases["prepare_ops_per_sec"] for name, phases in results.items()}
    payload = {
        "config": dict(
            GATE_POINT,
            rounds=ROUNDS,
            timing="best-of-rounds",
            derivation=(
                "epoch = SHAKE-256(label key || shape || key || counter): "
                "every label, then every offset byte, of one counter value "
                "in one call; rows = (payload || 0^8) xor fixed-key-AES pad "
                "pi(pi(old label) xor (nonce xor j)) xor pi(old label).  The "
                "scalar baseline derives an epoch per label or offset "
                "lookup, so ratios against it do not compare with files "
                "recorded under the HMAC derivations"
            ),
        ),
        "kernels": results,
        "speedups": {
            "batched_cold_vs_scalar_prepare": round(
                prepare["batched"] / prepare["scalar"], 2
            ),
        },
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"\n[kernel gates] {json.dumps(payload['speedups'])}")
    print(f"[saved to {BENCH_JSON}]")
    # Trajectory only (see the module docstring): nothing here is gated.
    record_bench(
        "kernels.batched_cold_vs_scalar_prepare",
        payload["speedups"]["batched_cold_vs_scalar_prepare"],
        unit="x",
        gate=False,
    )
    for name, ops in prepare.items():
        record_bench(
            f"kernels.{name}.prepare_ops_per_sec", ops, unit="ops/s", gate=False
        )
    return results


def test_batched_never_loses_to_scalar(measured):
    """CI smoke condition: fail outright if batched < scalar."""
    batched = measured["batched"]["prepare_ops_per_sec"]
    scalar = measured["scalar"]["prepare_ops_per_sec"]
    assert batched >= scalar, f"batched prepare {batched} ops/s < scalar {scalar} ops/s"


def test_bench_json_written(measured):
    """The artifact exists, parses, and carries every kernel row."""
    payload = json.loads(BENCH_JSON.read_text(encoding="utf-8"))
    assert set(payload["kernels"]) == {"scalar", "batched"}
    for phases in payload["kernels"].values():
        assert set(phases) == {
            "prepare_ops_per_sec",
            "process_ops_per_sec",
            "finalize_ops_per_sec",
            "access_ops_per_sec",
        }
