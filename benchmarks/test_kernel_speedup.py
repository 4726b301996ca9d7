"""Kernel speedup gates: the batched crypto stack must beat the scalar path.

Times the three LBL proxy phases (``prepare`` / ``process`` / ``finalize``)
under three kernel configurations at the paper's default operating point
(160 B values, y=2 grouping, point-and-permute — §6 workload with both §10
optimizations):

* **scalar** — the per-label reference path (``batched=False``, no cache):
  one HMAC block per label and per offset lookup, shared blocks recomputed;
* **batched** — fused ``PrfContext`` label derivation (every HMAC block
  once: two labels or 32 offsets each) + ``rows.seal_rows`` table
  encryption (one HMAC per row, output already the request's slab), cache
  disabled (every access is a cold build);
* **batched+cache** — the kernel stack in steady state: a warm
  :class:`~repro.core.lbl.cache.LabelCache` whose entries carry prefetched
  next-epoch labels and HMAC key schedules, so ``prepare`` derives nothing.

Timing is **best-of-N**: each phase's score is its *minimum* over
``ROUNDS`` accesses.  Phase times here are single-digit milliseconds, where
mean-based scores swing 40%+ with background machine load; the minimum is
the repeatable hardware-limited time and is what the gates compare.

All gates are self-relative (same interpreter, same machine, same run), so
they hold on slow CI runners:

1. ``batched+cache`` prepare >= 3x ``scalar`` prepare — the original gate;
2. warm prepare <= 1.35x its floor, the table encryption alone (the gate
   point's ``G * 2^y`` rows through ``rows.seal_rows`` with key schedules
   in hand — the table encryption a warm prepare runs since the one-HMAC
   row replaced the AEAD entry) — the cache must leave ``prepare`` nothing
   else to do;
3. cold batched prepare >= scalar prepare — batching alone must never lose
   (the CI smoke condition: fail if batched < scalar).

Gate 2 times the warm prepare against work this file can hold fixed, not
against the cold prepare: a cold prepare derives 2 600 HMACs (it derived
6 400 before labels became wide-output slices), so warm/cold says how slow
a cold prepare is, not whether the warm one regressed.  That ratio is still
written to ``BENCH_kernels.json`` and recorded as
``kernels.warm_vs_cold_prepare``, ungated, so the history keeps its
trajectory (2x -> 1.4x at that change, warm time unchanged).

Cold ``finalize`` derives nothing (it decodes against the table ``prepare``
filed in the proxy's in-flight table).  Warm ``finalize`` is *slower* — it
absorbs the next epoch's label prefetch and key-schedule derivation, work
deliberately moved off the request-build critical path (the request is
already on the wire when finalize runs; see docs/performance.md).
That work shift is therefore *gated as a floor, not fixed*: the warm
stack's ``finalize_ops_per_sec`` is recorded as a gated trajectory metric
in ``BENCH_history.json``, so the regression is bounded — it cannot
silently deepen past the 20% drift gate.

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
from repro.core.lbl.proxy import DECRYPT_INDEX_BYTES
from repro.crypto import aead, rows
from repro.types import Request, StoreConfig

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_kernels.json"

#: The gate operating point (paper §6 defaults, both §10 optimizations on).
GATE_POINT = {"value_len": 160, "group_bits": 2, "point_and_permute": True}

#: Timed accesses per configuration; each phase scores its best (minimum)
#: round.  Scalar prepare is ~40 ms here, so this keeps the whole module
#: around ~10 s while giving the minimum enough draws to converge.
ROUNDS = 15

#: Gate thresholds (self-relative ratios).
GATE_BATCHED_CACHE_VS_SCALAR = 3.0
GATE_WARM_OVER_TABLE_ENCRYPT = 1.35


def _build(*, batched: bool, cache: bool) -> LblOrtoa:
    config = StoreConfig(**GATE_POINT, label_cache_entries=-1 if cache else None)
    store = LblOrtoa(config, rng=random.Random(3), batched=batched)
    store.initialize({"k": bytes(config.value_len)})
    return store


def _time_phases(store: LblOrtoa, *, warm: bool) -> dict[str, float]:
    """Best-of-``ROUNDS`` ops/sec per phase for read accesses to one key.

    With ``warm`` the cache is primed first; each subsequent finalize
    prefetches the next epoch, so every timed prepare stays warm —
    steady-state behaviour for a hot key, not a one-off best case.
    """
    proxy, server = store.proxy, store.server
    request = Request.read("k")
    warmup = 3 if warm else 1
    for _ in range(warmup):
        store.access(request)

    prepare_s = process_s = finalize_s = float("inf")
    gc.collect()
    gc.disable()
    try:
        for _ in range(ROUNDS):
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


def _time_table_encrypt() -> float:
    """Best-of-``ROUNDS`` ops/sec of one access's table encryption alone.

    The floor of a warm prepare: as many rows, payload sizes and key
    schedules (precomputed, as the cache has them) as the gate point's table.
    """
    codec = _build(batched=True, cache=False).proxy.codec
    rng = random.Random(3)
    entries = codec.num_groups * codec.table_size
    payloads = [
        rng.randbytes(codec.label_len + DECRYPT_INDEX_BYTES) for _ in range(entries)
    ]
    schedules = [
        aead.key_schedule(rng.randbytes(codec.label_len)) for _ in range(entries)
    ]
    nonce = rng.randbytes(rows.ROW_NONCE_LEN)
    best_s = float("inf")
    gc.collect()
    gc.disable()
    try:
        for _ in range(ROUNDS):
            t0 = time.perf_counter()
            rows.seal_rows(None, payloads, nonce, schedules=schedules)
            best_s = min(best_s, time.perf_counter() - t0)
    finally:
        gc.enable()
    return round(1.0 / best_s, 2)


@pytest.fixture(scope="module")
def measured() -> dict[str, dict[str, float]]:
    results = {
        "scalar": _time_phases(_build(batched=False, cache=False), warm=False),
        "batched": _time_phases(_build(batched=True, cache=False), warm=False),
        "batched+cache": _time_phases(_build(batched=True, cache=True), warm=True),
    }
    table_encrypt = _time_table_encrypt()
    prepare = {name: phases["prepare_ops_per_sec"] for name, phases in results.items()}
    payload = {
        "config": dict(
            GATE_POINT,
            rounds=ROUNDS,
            timing="best-of-rounds",
            derivation=(
                "labels = label_len slices of PRF(label, key, group, epoch), "
                "offsets = bytes of PRF(permute, key, epoch); the scalar "
                "baseline pays one HMAC block per label/offset lookup under "
                "this definition and a cold batched prepare 2 600 HMACs "
                "where it paid 6 400, so ratios against either do not "
                "compare with files recorded under PRF(key, group, value, "
                "epoch): vs-scalar rose, warm_vs_cold fell (2x -> 1.4x) with "
                "the warm prepare's own time unchanged"
            ),
        ),
        "kernels": results,
        "table_encrypt_ops_per_sec": table_encrypt,
        "warm_prepare_over_table_encrypt": round(
            table_encrypt / prepare["batched+cache"], 3
        ),
        "speedups": {
            "batched_cache_vs_scalar_prepare": round(
                prepare["batched+cache"] / prepare["scalar"], 2
            ),
            "warm_vs_cold_prepare": round(
                prepare["batched+cache"] / prepare["batched"], 2
            ),
            "batched_cold_vs_scalar_prepare": round(
                prepare["batched"] / prepare["scalar"], 2
            ),
        },
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"\n[kernel gates] {json.dumps(payload['speedups'])}")
    print(f"[saved to {BENCH_JSON}]")
    # Trajectory: speedup ratios are self-relative so they gate across
    # machines; raw prepare ops/sec ride along ungated.  The warm stack's
    # finalize throughput is gated to bound the deliberate work shift (see
    # module docstring).
    for name, speedup in payload["speedups"].items():
        # warm_vs_cold rides along ungated: see gate 2 in the module docstring.
        record_bench(
            f"kernels.{name}", speedup, unit="x", gate=name != "warm_vs_cold_prepare"
        )
    record_bench(
        "kernels.warm_prepare_over_table_encrypt",
        payload["warm_prepare_over_table_encrypt"],
        unit="x",
        higher_is_better=False,
    )
    record_bench(
        "kernels.finalize_ops_per_sec",
        results["batched+cache"]["finalize_ops_per_sec"],
        unit="ops/s",
    )
    for name, ops in prepare.items():
        record_bench(
            f"kernels.{name}.prepare_ops_per_sec", ops, unit="ops/s", gate=False
        )
    return dict(results, table_encrypt={"ops_per_sec": table_encrypt})


def test_batched_cache_beats_scalar_3x(measured):
    """Gate 1: warm kernel stack >= 3x the scalar prepare path."""
    warm = measured["batched+cache"]["prepare_ops_per_sec"]
    scalar = measured["scalar"]["prepare_ops_per_sec"]
    assert warm >= GATE_BATCHED_CACHE_VS_SCALAR * scalar, (
        f"batched+cache prepare {warm} ops/s < "
        f"{GATE_BATCHED_CACHE_VS_SCALAR}x scalar ({scalar} ops/s)"
    )


def test_warm_prepare_stays_near_its_table_encrypt_floor(measured):
    """Cache gate: a warm prepare <= 1.35x the table encryption alone."""
    warm = measured["batched+cache"]["prepare_ops_per_sec"]
    floor = measured["table_encrypt"]["ops_per_sec"]
    assert warm * GATE_WARM_OVER_TABLE_ENCRYPT >= floor, (
        f"warm prepare {warm} ops/s is over {GATE_WARM_OVER_TABLE_ENCRYPT}x "
        f"slower than its table encryption ({floor} ops/s)"
    )


def test_batched_never_loses_to_scalar(measured):
    """CI smoke condition: fail outright if batched < scalar."""
    cold = measured["batched"]["prepare_ops_per_sec"]
    scalar = measured["scalar"]["prepare_ops_per_sec"]
    assert cold >= scalar, f"batched prepare {cold} ops/s < scalar {scalar} ops/s"


def test_bench_json_written(measured):
    """The artifact exists, parses, and carries every kernel row."""
    payload = json.loads(BENCH_JSON.read_text(encoding="utf-8"))
    assert set(payload["kernels"]) == {"scalar", "batched", "batched+cache"}
    for phases in payload["kernels"].values():
        assert set(phases) == {
            "prepare_ops_per_sec",
            "process_ops_per_sec",
            "finalize_ops_per_sec",
            "access_ops_per_sec",
        }
