#!/usr/bin/env python3
"""One command for the end-to-end LBL benchmark (see ``bench/README.md``).

Single run — the form ``BENCHMARK.json`` declares and the driver calls::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

prints every metric by name with its unit and, as the last line of standard
output, one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.

Full report — every workload, untraced then traced, each run in a fresh
interpreter::

    python3 bench/run.py --seed N [--smoke] [--out FILE]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: Share of ``--seconds`` the traced run spends in its untraced reference window.
REFERENCE_SHARE = 0.3
#: How often the full report re-runs a window whose canary drifted.
NOISY_RETRIES = 2


def _fix_path() -> None:
    """Make ``bench`` and the program (``src/repro``) importable from a script run.

    ``python3 bench/run.py`` puts ``bench/`` itself first on ``sys.path``;
    that entry is dropped so the benchmark's module names shadow nothing.
    """
    if sys.path and Path(sys.path[0] or ".").resolve() == BENCH_DIR:
        del sys.path[0]
    for entry in (str(ROOT), str(ROOT / "src")):
        if entry not in sys.path:
            sys.path.insert(0, entry)


_fix_path()


# --------------------------------------------------------------------- #
# Single runs
# --------------------------------------------------------------------- #


def run_untraced(spec, seed: int, seconds: float) -> dict:
    """``--trace 0``: timed set-ups, then the measured window on the last one."""
    from bench import measure, stats
    from bench.system import booted

    setups, checkers, window = [], [], None
    for repeat in range(spec.setup_repeats):
        with booted(spec, seed) as system:
            setups.append((system.setup_s, system.raw_setup_s))
            checkers.append(system.checker)
            if repeat == spec.setup_repeats - 1:
                window = measure.run_window(system, seconds)
    result = _outcome(checkers)
    if result["correct"]:
        setup_s = stats.median([scaled for scaled, _raw in setups])
        result["metrics"] = measure.end_to_end(window, setup_s)
        result["noisy"] = window.noisy
        result["diagnostics"] = {
            **measure.diagnostics(window),
            "raw.setup_s": (stats.median([raw for _scaled, raw in setups]), "s"),
        }
    return result


def run_traced(spec, seed: int, seconds: float, nominal_seconds: float) -> dict:
    """``--trace 1``: the staged pass with replicas, then an untraced reference window."""
    import os

    from repro.crypto import sha256_lanes
    from repro.storage.persistence import LabelListCodec

    from bench import measure, micro, tracing
    from bench.system import booted, store_config

    steps = max(4, round(spec.traced_calls * seconds / nominal_seconds))
    staged = tracing.Staged(spec)
    store = staged.replica_a.lbl.store
    try:
        with booted(spec, seed, load=staged.load, drive=staged.drive) as system:
            cache = system.dep.proxy.label_cache
            cache_before = (cache.hits, cache.misses, cache.evictions) if cache else None
            kv_before = (store.get_count, store.put_count)
            log, traced_canary = tracing.run_traced(system, staged, steps)
            kv_after = (store.get_count, store.put_count)
            cache_after = (cache.hits, cache.misses, cache.evictions) if cache else None
            cache_entries = len(cache) if cache else 0
            stored_bytes = len(LabelListCodec().encode(store.get(next(iter(store)))))
            window = measure.run_window(system, seconds * REFERENCE_SHARE)
            pinned = system.pinned
            phases = system.phases
            checker = system.checker
    except tracing.ReplicaMismatch as error:
        return {"correct": False, "attempted": 1, "failed": 1, "errors": [str(error)]}
    result = _outcome([checker])
    if not result["correct"]:
        return result
    tracing.write_trace(OUT_DIR / f"trace_{spec.name}.json", spec.name, seed, log)

    counts = staged.counts
    accesses = counts.accesses
    steps_per_call = spec.accesses_per_call if spec.staged_per_access else 1
    accesses_per_step = 1 if spec.staged_per_access else spec.accesses_per_call
    p50 = tracing.stage_p50s(log, traced_canary)
    untraced_p50 = window.latency_ms(0.50)
    rows = tracing.budget(p50, untraced_p50, steps_per_call)
    unattributed = rows[-1][2]
    staged_call_ms = untraced_p50 * (1.0 - unattributed)

    config = store_config(spec)
    table_size = 1 << spec.group_bits
    label_len = config.label_bits // 8
    crypto = micro.crypto_us(config.num_groups, table_size, label_len)
    prepare_crypto_ms = (
        counts.prepare.prf * crypto["crypto.prf_us"]
        + counts.prepare.aead_enc * crypto["crypto.aead_enc_us"]
    ) / 1e3 / (accesses / accesses_per_step)
    request_bytes = counts.request_bytes // steps
    reply_bytes = counts.reply_bytes // steps

    hit_rate = evictions_per_op = 0.0
    if cache_before is not None:
        hits, misses, evictions = (
            after - before for before, after in zip(cache_before, cache_after)
        )
        hit_rate = hits / (hits + misses) if hits + misses else 0.0
        evictions_per_op = evictions / accesses

    layers = {
        "proxy.prepare_ms": (p50["proxy.prepare"], "ms"),
        "proxy.finalize_ms": (p50["proxy.finalize"], "ms"),
        "proxy.prf_per_op": ((counts.prepare.prf + counts.finalize.prf) / accesses, "count"),
        "proxy.aead_enc_per_op": (counts.prepare.aead_enc / accesses, "count"),
        "proxy.prepare_glue_share": (1.0 - prepare_crypto_ms / p50["proxy.prepare"], "ratio"),
        "cache.hit_rate": (hit_rate, "ratio"),
        "cache.evictions_per_op": (evictions_per_op, "count"),
        "cache.entries": (cache_entries, "count"),
        **{name: (value, "us") for name, value in crypto.items()},
        "crypto.lanes_threshold": (sha256_lanes.calibrate(), "count"),
        "messages.encode_ms": (p50["messages.encode"], "ms"),
        "messages.decode_ms": (p50["messages.decode"], "ms"),
        "messages.server_decode_ms": (p50["messages.server_decode"], "ms"),
        "messages.server_encode_ms": (p50["messages.server_encode"], "ms"),
        "messages.request_bytes": (request_bytes, "B"),
        "messages.reply_bytes": (reply_bytes, "B"),
        "transport.roundtrip_ms": (p50["transport.roundtrip"], "ms"),
        "transport.self_ms": (p50["transport.roundtrip"] - p50["dispatch"], "ms"),
        "transport.framing_ms": (micro.framing_ms(request_bytes, reply_bytes), "ms"),
        "dispatch.ms": (p50["dispatch"], "ms"),
        "dispatch.self_ms": (
            p50["dispatch"] - sum(p50[name] for name in tracing.SERVER_STAGES),
            "ms",
        ),
        "server.process_ms": (p50["server.process"], "ms"),
        "server.aead_dec_per_op": (counts.server.aead_dec / accesses, "count"),
        "server.failed_dec_per_op": (counts.server.failed_dec / accesses, "count"),
        "server.kv_ops_per_op": (counts.server.kv_ops / accesses, "count"),
        "storage.gets_per_op": ((kv_after[0] - kv_before[0]) / accesses, "count"),
        "storage.puts_per_op": ((kv_after[1] - kv_before[1]) / accesses, "count"),
        "storage.get_put_us": (micro.storage_get_put_us(config.num_groups, label_len), "us"),
        "storage.stored_bytes_per_user_byte": (stored_bytes / spec.value_len, "ratio"),
        "sharded.overlap_share": (1.0 - untraced_p50 / staged_call_ms, "ratio"),
        "trace.unattributed_share": (unattributed, "ratio"),
        "trace.overhead_share": (p50["step"] * steps_per_call / untraced_p50 - 1.0, "ratio"),
        "host.cores": (os.cpu_count() or 1, "count"),
        "host.pinned": (int(pinned), "count"),
        "setup.boot_s": (phases["boot"][1], "s"),
        "setup.initialize_s": (phases["initialize"][1], "s"),
        "setup.warmup_s": (phases["warmup"][1], "s"),
        **measure.diagnostics(window),
    }
    result["metrics"] = layers
    result["noisy"] = window.noisy
    result["budget"] = rows
    result["traced_steps"] = steps
    return result


def _outcome(checkers) -> dict:
    attempted = sum(checker.attempted for checker in checkers)
    failed = sum(checker.failed for checker in checkers)
    errors = [message for checker in checkers for message in checker.errors]
    if not all(checker.oblivious_shapes() for checker in checkers):
        errors.append("GET and PUT transcripts differ in request or response bytes")
        failed = max(failed, 1)
    return {
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "errors": errors,
    }


def single_run(args, nominal_seconds: float) -> int:
    """Run one workload once, print its metrics, end with the contract's JSON line."""
    from bench import metrics as names
    from bench import stats
    from bench.system import reap_children
    from bench.workload import load_specs

    specs = load_specs()
    if args.workload not in specs:
        print(f"unknown workload {args.workload!r}; have {sorted(specs)}", file=sys.stderr)
        return 2
    spec = specs[args.workload]
    try:
        if args.trace:
            result = run_traced(spec, args.seed, args.seconds, nominal_seconds)
        else:
            result = run_untraced(spec, args.seed, args.seconds)
    finally:
        reap_children()
        _stop_resource_tracker()

    header = f"{spec.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}"
    if not result["correct"]:
        # Wrong outputs: report the failure, print no metric.
        print(f"{header}: INCORRECT ({result['failed']} of {result['attempted']} failed)")
        for message in result["errors"]:
            print(f"  {message}")
        print(_last_line(result, {}))
        return 1

    metrics = result["metrics"]
    names.check_names(metrics, "per_layer" if args.trace else "end_to_end")
    print(header + ("  [NOISY: canary drifted, re-run before comparing]" if result["noisy"] else ""))
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    for name, (value, unit) in result.get("diagnostics", {}).items():
        print(f"  ({name:34s} {value:14.6g} {unit})")
    calls = (metrics if args.trace else result["diagnostics"])["calls"][0]
    if stats.samples_beyond(calls, 0.9) < stats.MIN_TAIL_SAMPLES:
        print(f"  note: {calls} calls leave p90 fewer than 10 samples beyond it; window too short to gate")
    if args.trace:
        print(f"  layer budget over {result['traced_steps']} traced steps (per call):")
        print(f"    {'stage':26s} {'p50 ms':>10s} {'share':>8s}")
        for stage, ms, share in result["budget"]:
            print(f"    {stage:26s} {ms:10.4f} {share:8.4f}")

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    detail = {
        "workload": spec.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "noisy": result["noisy"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: value for name, (value, _unit) in metrics.items()},
        "diagnostics": {
            name: value for name, (value, _unit) in result.get("diagnostics", {}).items()
        },
    }
    with open(OUT_DIR / f"last_{spec.name}_trace{args.trace}.json", "w") as handle:
        json.dump(detail, handle, indent=1)
    print(_last_line(result, metrics))
    return 0


def _last_line(result: dict, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )


def _stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's resource-tracker helper process.

    Spawning the shard starts it; left alone it exits only after this
    interpreter does.  The benchmark must have waited for every process it
    started, so stop it explicitly (CPython keeps ``_stop`` for this).
    """
    from multiprocessing import resource_tracker

    stop = getattr(getattr(resource_tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


# --------------------------------------------------------------------- #
# Full report
# --------------------------------------------------------------------- #


def full_report(args) -> int:
    """Every workload, untraced then traced, one fresh interpreter per run."""
    from bench import metrics as names
    from bench.workload import load_specs

    report = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    status = 0
    for name in load_specs():
        entry = report["workloads"][name] = {}
        for trace in (0, 1):
            for _attempt in range(1 + NOISY_RETRIES):
                command = [
                    sys.executable, str(BENCH_DIR / "run.py"),
                    "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace),
                ]
                code = subprocess.run(command, cwd=ROOT).returncode
                if code != 0:
                    break
                with open(OUT_DIR / f"last_{name}_trace{trace}.json") as handle:
                    detail = json.load(handle)
                if not detail["noisy"]:
                    break
            if code != 0:
                status = 1
                entry["failed_run"] = trace
                break
            entry["layers" if trace else "end_to_end"] = detail["metrics"]
            entry["noisy"] = entry.get("noisy", False) or detail["noisy"]
            if not trace:
                entry["diagnostics"] = detail["diagnostics"]
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")

    units = {e["name"]: e["unit"] for e in names.declared()["end_to_end"]}
    print("\nend-to-end summary (seed %d, %g s windows)" % (args.seed, args.seconds))
    print(f"  {'metric':20s}" + "".join(f"{name:>18s}" for name in report["workloads"]))
    for metric, unit in units.items():
        cells = "".join(
            f"{entry.get('end_to_end', {}).get(metric, float('nan')):18.6g}"
            for entry in report["workloads"].values()
        )
        print(f"  {metric + ' [' + unit + ']':20s}{cells}")
    noisy = [name for name, entry in report["workloads"].items() if entry.get("noisy")]
    if noisy:
        print(f"  NOISY (re-run before comparing): {', '.join(noisy)}")
    return status


def main(argv: list[str] | None = None) -> int:
    """Parse the command line and run."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload of bench/workloads.toml (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measured window (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="2 s windows, same code path")
    parser.add_argument("--out", help="full report only: write the report JSON here")
    args = parser.parse_args(argv)

    try:
        import repro  # noqa: F401 - the program under test must be present
    except ImportError as error:
        print(f"cannot import the program under test: {error}", file=sys.stderr)
        return 2
    from bench import metrics as names

    nominal_seconds = float(names.declared()["run_seconds"])
    if args.seconds is None:
        args.seconds = 2.0 if args.smoke else nominal_seconds
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload is None:
        return full_report(args)
    return single_run(args, nominal_seconds)


if __name__ == "__main__":
    sys.exit(main())
