"""Command-line interface: run reproduction experiments without writing code.

Usage::

    python -m repro list                      # what can be reproduced
    python -m repro run figure2a              # regenerate one figure
    python -m repro run figure2b --out f.txt  # save the table
    python -m repro run figure2a --json       # machine-readable rows
    python -m repro run figure3c --obs-json obs.json   # spans + metrics
    python -m repro demo                      # 30-second functional demo
    python -m repro cost                      # §6.3.3 dollar-cost estimate
    python -m repro plan --users 1000000      # capacity planner (cost model)
    python -m repro plan --check              # assert cost model == ledger
    python -m repro obs                       # obliviousness audit + metrics
    python -m repro trace --chrome t.json     # merged trace -> Perfetto JSON
    python -m repro doctor localhost:9464     # name the bottleneck (or healthy)

Experiment names match :mod:`repro.harness.experiments` (``table2``,
``figure2a`` … ``figure6``, ``fhe_noise``, ``dollar_cost``).  The global
``--log-level`` flag (before the subcommand) configures the ``repro.*``
logger hierarchy.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Sequence

from repro import obs
from repro.errors import OrtoaError
from repro.harness import experiments
from repro.harness.report import render_table, rows_to_csv
from repro.obs.logging import LEVELS

#: name -> (callable, one-line description)
EXPERIMENTS = {
    "table2": (experiments.table2, "Table 2: cross-datacenter RTTs"),
    "figure2a": (experiments.figure2a, "Fig 2a: latency/throughput vs distance"),
    "figure2b": (experiments.figure2b, "Fig 2b: concurrency sweep"),
    "figure2c": (experiments.figure2c, "Fig 2c: write-percentage sweep"),
    "figure2d": (experiments.figure2d, "Fig 2d: database-size sweep"),
    "figure3a": (experiments.figure3a, "Fig 3a: scaling proxy/server pairs"),
    "figure3b": (experiments.figure3b, "Fig 3b: value-size sweep vs baseline"),
    "figure3c": (experiments.figure3c, "Fig 3c: LBL latency breakdown"),
    "figure3d": (experiments.figure3d, "Fig 3d: GDPR/EU placement"),
    "figure4": (experiments.figure4, "Fig 4: real-world datasets"),
    "figure6": (experiments.figure6, "Fig 6: y-grouping overhead factors"),
    "fhe_noise": (experiments.fhe_noise, "§3.3: FHE noise exhaustion"),
    "dollar_cost": (experiments.dollar_cost, "§6.3.3: LBL dollar cost"),
    "oram": (experiments.oram_comparison, "§8: one-round ORAM vs PathORAM vs linear scan"),
    "sharded": (experiments.sharded_scaling, "§6.2.4 over TCP: shard-count scaling"),
    "pipeline": (experiments.pipeline_depth_sweep, "pipelined vs lockstep transport"),
    "lbl": (experiments.lbl_kernels, "crypto kernels: cold vs cached vs sharded batch"),
}

#: CLI flag -> experiment keyword argument (also the flag's argparse dest),
#: forwarded when the experiment accepts it (see ``repro run
#: --shards/--pipeline-depth``).
_RUN_OVERRIDES = {
    "shards": "shards",
    "pipeline-depth": "pipeline_depth",
    "label-cache": "label_cache",
}


def _cmd_list(_args: argparse.Namespace) -> int:
    width = max(len(name) for name in EXPERIMENTS)
    for name, (_fn, description) in EXPERIMENTS.items():
        print(f"  {name.ljust(width)}  {description}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        fn, description = EXPERIMENTS[args.experiment]
    except KeyError:
        known = ", ".join(EXPERIMENTS)
        print(f"unknown experiment {args.experiment!r}; known: {known}", file=sys.stderr)
        return 2
    import inspect

    accepted = inspect.signature(fn).parameters
    kwargs = {}
    for flag, keyword in _RUN_OVERRIDES.items():
        value = getattr(args, keyword, None)
        if value is None:
            continue
        if keyword not in accepted:
            print(
                f"experiment {args.experiment!r} does not take --{flag}",
                file=sys.stderr,
            )
            return 2
        kwargs[keyword] = value
    fn_with_args = lambda: fn(**kwargs)  # noqa: E731
    if args.obs_json:
        with obs.capture():
            rows = fn_with_args()
            bundle = obs.export()
        bundle["experiment"] = args.experiment
        with open(args.obs_json, "w", encoding="utf-8") as handle:
            json.dump(bundle, handle, indent=2, default=str)
        print(
            f"wrote {len(bundle['spans'])} spans and "
            f"{sum(len(v) for v in bundle['metrics'].values())} metrics "
            f"to {args.obs_json}"
        )
    else:
        rows = fn_with_args()
    if args.json:
        text = json.dumps(rows, indent=2, default=str)
    elif args.format == "csv":
        text = rows_to_csv(rows)
    else:
        text = render_table(description, rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _cmd_demo(_args: argparse.Namespace) -> int:
    from repro import LblOrtoa, Request, StoreConfig

    config = StoreConfig(value_len=16, group_bits=2)
    store = LblOrtoa(config)
    store.initialize({"demo": b"hello"})
    store.write("demo", b"world")
    value = store.read("demo").rstrip(b"\x00")
    read_t = store.access(Request.read("demo"))
    write_t = store.access(Request.write("demo", config.pad(b"again")))
    print(f"read back: {value!r}")
    print(
        f"read vs write wire bytes: {read_t.request_bytes} vs "
        f"{write_t.request_bytes} (identical => op type hidden)"
    )
    print(f"round trips per access: {read_t.num_rounds} (baseline needs 2)")
    return 0


def _cmd_cost(_args: argparse.Namespace) -> int:
    rows = experiments.dollar_cost()
    print(render_table("§6.3.3: LBL-ORTOA operating cost", rows))
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    """Capacity planner on the wire-validated cost model (or --check it)."""
    from repro.analysis.costmodel import (
        DEFAULT_COMPRESSIONS_PER_CORE_PER_SEC,
        DEFAULT_SHARD_OPS_PER_SEC,
        DEFAULT_TARGET_UTILIZATION,
        LblCostModel,
        plan_capacity,
        run_model_check,
    )

    if args.check:
        # Replay GET and PUT through real deployments, lockstep and in a
        # batch, and require the ledger's totals to move exactly as the
        # model says.
        report = run_model_check(value_sizes=(4, 8, 16))
        for case in report["cases"]:
            mark = "ok " if case["ok"] else "FAIL"
            print(
                f"  [{mark}] value_len={case['value_len']:<3d} "
                f"path={case['path']:<16s} {case['op']}"
            )
        verdict = (
            "model == ledger for every case"
            if report["ok"]
            else "MODEL/LEDGER MISMATCH"
        )
        print(f"model check: {verdict} ({len(report['cases'])} cases)")
        if args.json:
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(report, handle, indent=2)
            print(f"wrote {args.json}")
        return 0 if report["ok"] else 1

    try:
        model = LblCostModel(
            value_len=args.value_len,
            group_bits=args.group_bits,
            label_bits=args.label_bits,
        )
        plan = plan_capacity(
            args.users,
            args.ops_per_day,
            model,
            num_objects=args.objects,
            shard_ops_per_sec=args.shard_ops or DEFAULT_SHARD_OPS_PER_SEC,
            compressions_per_core_per_sec=args.core_compressions
            or DEFAULT_COMPRESSIONS_PER_CORE_PER_SEC,
            target_utilization=args.utilization or DEFAULT_TARGET_UTILIZATION,
            server_opens_per_sec=args.server_opens,
            server_overhead_seconds=args.server_overhead,
        )
    except OrtoaError as exc:
        print(f"cannot plan: {exc}", file=sys.stderr)
        return 2

    plan_dict = plan.as_dict()
    rows = [
        {"quantity": name, "value": value}
        for name, value in plan_dict.items()
        if name != "assumptions"
    ]
    print(render_table("LBL-ORTOA capacity plan (ledger-validated model)", rows))
    print("assumptions:")
    for name, value in plan_dict["assumptions"].items():
        print(f"  {name:32s} {value}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(plan_dict, handle, indent=2)
        print(f"wrote {args.json}")
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    """Audit an LBL deployment's server view; print metrics and the verdict."""
    from collections import Counter
    from contextlib import ExitStack

    from repro.core.sharded import ShardedLblDeployment
    from repro.security.audit import PATHS, LeakyLblOrtoa, run_audit
    from repro.transport.cluster import ShardCluster
    from repro.types import StoreConfig

    config = StoreConfig(value_len=args.value_len, group_bits=2)
    obs.reset()
    obs.enable()
    try:
        with ExitStack() as stack:
            if args.leaky:
                # The negative control learns each op through ``access``
                # only: one in-process shard, lockstep.
                deployment = LeakyLblOrtoa(config)
                paths = ("access",)
            else:
                cluster = stack.enter_context(
                    ShardCluster(args.shards, in_process=False, enable_obs=True)
                )
                deployment = ShardedLblDeployment(config, cluster.addresses)
                paths = PATHS
            stack.callback(deployment.close)
            report = run_audit(
                deployment, num_keys=args.keys, seed=args.seed, paths=paths
            )
            dumps = [] if args.leaky else deployment.collect_remote_obs()
    except OrtoaError as exc:
        print(f"audit failed to run: {exc}", file=sys.stderr)
        return 2
    finally:
        obs.disable()

    counters = Counter(obs.REGISTRY.snapshot()["counters"])
    for dump in dumps:
        counters.update(dump["metrics"]["counters"])
    print(
        f"protocol: {deployment.name}  (value_len={config.value_len}, "
        f"y={config.group_bits}, {deployment.num_shards} "
        f"{'in-process' if args.leaky else 'process-backed'} shard(s))"
    )
    print("metrics (this process and every shard):")
    for name, value in sorted(counters.items()):
        print(f"  {name:38s} {value}")
    print(report.summary())
    if args.json:
        bundle = {
            "protocol": deployment.name,
            "metrics": counters,
            "audit": report.to_dict(),
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(bundle, handle, indent=2, default=str)
        print(f"wrote {args.json}")
    return 0 if report.passed else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    """Run a traced sharded workload; merge spans and export Chrome JSON."""
    from repro.core.sharded import ShardedLblDeployment
    from repro.obs.export import write_chrome_trace
    from repro.obs.propagate import orphan_spans, render_tree, trace_roots
    from repro.transport.cluster import ShardCluster
    from repro.types import Request, StoreConfig

    config = StoreConfig(value_len=args.value_len, group_bits=2)
    rng = random.Random(args.seed)
    obs.reset()
    obs.enable()
    try:
        with ShardCluster(
            args.shards,
            in_process=not args.processes,
            enable_obs=args.processes,
        ) as cluster:
            deployment = ShardedLblDeployment(
                config,
                cluster.addresses,
                pipeline_depth=args.pipeline_depth,
            )
            try:
                deployment.initialize(
                    {f"trace-{i}": f"v{i}".encode() for i in range(args.keys)}
                )
                requests = []
                for i in range(args.keys):
                    key = f"trace-{rng.randrange(args.keys)}"
                    if rng.random() < 0.5:
                        requests.append(Request.read(key))
                    else:
                        requests.append(Request.write(key, config.pad(b"w%d" % i)))
                deployment.access_pipelined(requests)
                remote = deployment.collect_remote_obs() if args.processes else None
                spans = deployment.merged_spans(remote)
            finally:
                deployment.close()
    except OrtoaError as exc:
        print(f"traced run failed: {exc}", file=sys.stderr)
        return 2
    finally:
        obs.disable()
    roots = trace_roots(spans)
    orphans = orphan_spans(spans)
    backing = f"{args.shards} process-backed" if args.processes else f"{args.shards} in-process"
    print(
        f"merged {len(spans)} spans from {backing} shard(s): "
        f"{len(roots)} root(s), {len(orphans)} orphan(s)"
    )
    if orphans:
        print("orphaned spans (parent missing after merge):", file=sys.stderr)
        for span in orphans[:10]:
            print(f"  {span['name']} (id {span['span_id']})", file=sys.stderr)
    if args.chrome:
        events = write_chrome_trace(args.chrome, spans)
        print(f"wrote {events} trace events to {args.chrome} (load in Perfetto)")
    if args.exemplars:
        slowest = sorted(
            (root for root in roots if root["name"] == "sharded.access"),
            key=lambda root: -(root.get("duration") or 0.0),
        )[: args.exemplars]
        print(f"{len(slowest)} slowest sharded.access root(s), slowest first:")
        for rank, root in enumerate(slowest, 1):
            print(f"#{rank}  trace {root['trace_id']}")
            print(f"  {root['attributes'].get('request_bytes')} request bytes")
            for line in render_tree(root, spans):
                print(f"  {line}")
    return 1 if orphans else 0


def _cmd_doctor(args: argparse.Namespace) -> int:
    """Scrape a deployment twice and print the bottleneck diagnosis."""
    from repro.obs.doctor import run_doctor

    return run_doctor(
        args.targets,
        interval_s=args.interval,
        predicted_ops_per_shard=args.predicted_ops,
        json_mode=args.json,
    )


def _cmd_reproduce(args: argparse.Namespace) -> int:
    """Run every experiment and write one table file per artifact."""
    import pathlib

    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    failures = []
    for name, (fn, description) in EXPERIMENTS.items():
        print(f"running {name} ...", flush=True)
        try:
            rows = fn()
        except Exception as exc:  # noqa: BLE001 - keep reproducing the rest
            failures.append((name, str(exc)))
            print(f"  FAILED: {exc}", file=sys.stderr)
            continue
        path = out_dir / f"{name}.txt"
        path.write_text(render_table(description, rows) + "\n", encoding="utf-8")
        print(f"  wrote {path}")
    if failures:
        print(f"{len(failures)} experiment(s) failed", file=sys.stderr)
        return 1
    print(f"all {len(EXPERIMENTS)} experiments written to {out_dir}/")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ORTOA (EDBT 2024) reproduction toolkit",
    )
    parser.add_argument(
        "--log-level",
        choices=LEVELS,
        default="warning",
        help="verbosity of the repro.* logger hierarchy (default: warning)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list reproducible tables/figures").set_defaults(
        func=_cmd_list
    )

    run = sub.add_parser("run", help="run one experiment and print its table")
    run.add_argument("experiment", help="experiment name (see `repro list`)")
    run.add_argument("--out", help="write the table to this file instead of stdout")
    run.add_argument(
        "--format",
        choices=("table", "csv"),
        default="table",
        help="output format (default: aligned text table)",
    )
    run.add_argument(
        "--json",
        action="store_true",
        help="emit the experiment rows as JSON (overrides --format)",
    )
    run.add_argument(
        "--obs-json",
        metavar="PATH",
        help="capture spans + metrics during the run and write them to PATH",
    )
    run.add_argument(
        "--shards",
        type=int,
        metavar="N",
        help="shard count for experiments that take one (e.g. `sharded`)",
    )
    run.add_argument(
        "--pipeline-depth",
        type=int,
        metavar="D",
        help="in-flight window for experiments that take one (e.g. `pipeline`)",
    )
    run.add_argument(
        "--label-cache",
        type=int,
        metavar="M",
        help="label-cache entries for experiments that take one "
        "(-1 auto-sizes; e.g. `lbl`)",
    )
    run.set_defaults(func=_cmd_run)

    sub.add_parser("demo", help="30-second functional demo").set_defaults(
        func=_cmd_demo
    )
    sub.add_parser("cost", help="§6.3.3 dollar-cost estimate").set_defaults(
        func=_cmd_cost
    )

    plan = sub.add_parser(
        "plan",
        help="size a deployment (shards, cores, p99, $/day) from the "
        "ledger-validated cost model; --check asserts model == ledger "
        "(exit 1 on mismatch)",
    )
    plan.add_argument(
        "--users", type=int, default=1_000_000, help="active users (default: 1M)"
    )
    plan.add_argument(
        "--ops-per-day",
        dest="ops_per_day",
        type=float,
        default=10.0,
        help="accesses per user per day (default: 10)",
    )
    plan.add_argument(
        "--objects",
        type=int,
        default=None,
        metavar="N",
        help="stored objects (default: one per user)",
    )
    plan.add_argument(
        "--value-len", type=int, default=160, help="value bytes (default: 160)"
    )
    plan.add_argument(
        "--group-bits", type=int, default=2, help="y grouping factor (default: 2)"
    )
    plan.add_argument(
        "--label-bits", type=int, default=128, help="label width (default: 128)"
    )
    plan.add_argument(
        "--shard-ops",
        dest="shard_ops",
        type=float,
        default=None,
        metavar="RATE",
        help="sustained accesses/s one shard serves (planner assumption)",
    )
    plan.add_argument(
        "--core-compressions",
        dest="core_compressions",
        type=float,
        default=None,
        metavar="RATE",
        help="sustained hash compression blocks/s per proxy core (planner assumption)",
    )
    plan.add_argument(
        "--utilization",
        type=float,
        default=None,
        help="planned peak utilization of shards and cores (default: 0.6)",
    )
    plan.add_argument(
        "--server-opens",
        dest="server_opens",
        type=float,
        default=None,
        metavar="RATE",
        help="sustained designated-row opens/s per server core "
        "(planner assumption)",
    )
    plan.add_argument(
        "--server-overhead",
        dest="server_overhead",
        type=float,
        default=None,
        metavar="SECONDS",
        help="fixed server cost of one access beyond its row opens "
        "(planner assumption)",
    )
    plan.add_argument(
        "--check",
        action="store_true",
        help="validate the model against the wire ledger for GET and PUT "
        "lockstep and in a batch window at 3 value sizes",
    )
    plan.add_argument("--json", metavar="PATH", help="write a JSON report")
    plan.set_defaults(func=_cmd_plan)

    obs_cmd = sub.add_parser(
        "obs",
        help="audit the server's view of an LBL deployment over recording "
        "links: one round trip, GET/PUT shape identity, ROR-RW (exit 1 on a "
        "detected leak)",
    )
    obs_cmd.add_argument("--keys", type=int, default=32, help="keys per path")
    obs_cmd.add_argument("--value-len", type=int, default=16, help="value bytes")
    obs_cmd.add_argument("--seed", type=int, default=0, help="workload seed")
    obs_cmd.add_argument(
        "--shards",
        type=int,
        default=2,
        metavar="N",
        help="process-backed shards to audit (default: 2)",
    )
    obs_cmd.add_argument(
        "--leaky",
        action="store_true",
        help="audit the deliberately leaky negative control instead, lockstep "
        "on one in-process shard (must FAIL)",
    )
    obs_cmd.add_argument("--json", metavar="PATH", help="also write a JSON bundle")
    obs_cmd.set_defaults(func=_cmd_obs)

    trace = sub.add_parser(
        "trace",
        help="run a traced sharded workload, merge per-process spans into "
        "one trace, and optionally export Chrome/Perfetto JSON "
        "(exit 1 if any span is orphaned after the merge)",
    )
    trace.add_argument("--shards", type=int, default=2, help="shard count (default: 2)")
    trace.add_argument("--keys", type=int, default=32, help="workload size")
    trace.add_argument("--value-len", type=int, default=16, help="value bytes")
    trace.add_argument("--seed", type=int, default=0, help="workload seed")
    trace.add_argument(
        "--pipeline-depth", type=int, default=8, metavar="D", help="in-flight window"
    )
    trace.add_argument(
        "--processes",
        action="store_true",
        help="process-backed shards: each runs its own tracer, dumps are "
        "pulled over the wire and merged (default: in-process threads)",
    )
    trace.add_argument(
        "--chrome",
        metavar="PATH",
        help="write the merged trace as Chrome trace-event JSON "
        "(open at https://ui.perfetto.dev)",
    )
    trace.add_argument(
        "--exemplars",
        type=int,
        nargs="?",
        const=3,
        default=0,
        metavar="N",
        help="print the span trees (and request bytes) of the N slowest "
        "sharded.access roots of the merged trace (default N: 3)",
    )
    trace.set_defaults(func=_cmd_trace)

    doctor = sub.add_parser(
        "doctor",
        help="scrape every shard twice, attribute overload to its "
        "bottleneck (dispatch / crypto / wire / shedding), and compare "
        "throughput to the cost model's predicted capacity "
        "(exit 1 unless healthy)",
    )
    doctor.add_argument(
        "targets",
        nargs="+",
        metavar="HOST:PORT",
        help="metrics endpoints to scrape (bare host:port or full URL)",
    )
    doctor.add_argument(
        "--interval",
        type=float,
        default=1.0,
        help="seconds between the two rate-forming scrapes (default: 1)",
    )
    doctor.add_argument(
        "--predicted-ops",
        dest="predicted_ops",
        type=float,
        default=None,
        metavar="RATE",
        help="override the cost model's predicted sustained ops/s per shard "
        "(default: shard rate x target utilization from repro plan)",
    )
    doctor.add_argument(
        "--json",
        action="store_true",
        help="emit the full diagnosis as JSON instead of the report",
    )
    doctor.set_defaults(func=_cmd_doctor)

    reproduce = sub.add_parser(
        "reproduce", help="run every experiment, one table file per artifact"
    )
    reproduce.add_argument(
        "--out", default="results-cli", help="output directory (default: results-cli/)"
    )
    reproduce.set_defaults(func=_cmd_reproduce)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    obs.setup_logging(args.log_level)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
