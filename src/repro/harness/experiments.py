"""One function per paper table/figure — the reproduction index.

Each function runs the relevant parameter sweep on the simulated testbed and
returns a list of row dicts; :mod:`repro.harness.report` renders them.  The
mapping to the paper:

==============  =====================================================
``table2``      Table 2 — cross-datacenter RTTs (configuration echo)
``figure2a``    Fig 2a — latency/throughput vs proxy→server distance
``figure2b``    Fig 2b — concurrency sweep
``figure2c``    Fig 2c — write-percentage sweep
``figure2d``    Fig 2d — database-size sweep
``figure3a``    Fig 3a — scaling proxy/server pairs 1→5
``figure3b``    Fig 3b — value-size sweep vs the 2RTT baseline
``figure3c``    Fig 3c — LBL latency breakdown (compute / RTT / overhead)
``figure3d``    Fig 3d — GDPR placement: 300 B objects, server in the EU
``figure4``     Fig 4 — real-world datasets (EHR / SmallBank / e-commerce)
``figure6``     Fig 6 — storage vs communication overhead factors vs y
``fhe_noise``   §3.3 — FHE noise exhaustion curve
``dollar_cost`` §6.3.3 — LBL operating cost estimate
==============  =====================================================

Beyond the paper's artifacts, :func:`sharded_scaling` and
:func:`pipeline_depth_sweep` measure the real-socket sharded deployment
(§6.2.4 realized over TCP rather than the simulated testbed).
"""

from __future__ import annotations

import random
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import replace
from typing import TYPE_CHECKING, Any

from repro.analysis.cost import estimate_lbl_cost
from repro.analysis.overhead import overhead_factors
from repro.core.messages import LblAccessResponse
from repro.crypto.fhe import FheParams, FheScheme
from repro.errors import ConfigurationError
from repro.harness.calibration import CostModel
from repro.harness.runner import DeploymentSpec, run_experiment
from repro.sim.network import DATACENTER_RTT_MS
from repro.types import Request, StoreConfig
from repro.workloads.datasets import DATASETS

if TYPE_CHECKING:  # imported lazily at runtime, as the transport is
    from repro.core.sharded import ShardedLblDeployment

Row = dict[str, Any]

#: Default simulated duration per data point; long enough for thousands of
#: requests at every datacenter distance.
_DURATION_MS = 3_000.0

#: Server cores per protocol: AWS r5.xlarge (4) for baseline/LBL, the Azure
#: Standard_DC48s_v3 SGX machines (48) for TEE (§6, Experimental Setup).
_CORES = {"baseline": 4, "lbl": 4, "tee": 48, "fhe": 4}


def _run(spec: DeploymentSpec, cost_model: CostModel | None = None):
    return run_experiment(spec, cost_model)


def _spec(protocol: str, **overrides: Any) -> DeploymentSpec:
    base = DeploymentSpec(
        protocol=protocol,
        server_cores=_CORES[protocol],
        duration_ms=_DURATION_MS,
    )
    return replace(base, **overrides)


def table2() -> list[Row]:
    """Table 2: RTT latencies from California, in ms (configuration echo)."""
    return [
        {"location": name, "rtt_ms": rtt} for name, rtt in DATACENTER_RTT_MS.items()
    ]


def figure2a(protocols: tuple[str, ...] = ("lbl", "tee", "baseline")) -> list[Row]:
    """Fig 2a: 32 clients, 160 B values, server at increasing distances."""
    rows = []
    for location in DATACENTER_RTT_MS:
        for protocol in protocols:
            result = _run(_spec(protocol, server_location=location))
            rows.append(
                {
                    "location": location,
                    "protocol": protocol,
                    "throughput_ops_s": result.metrics.throughput_ops_per_s,
                    "avg_latency_ms": result.metrics.avg_latency_ms,
                }
            )
    return rows


def figure2b(
    client_counts: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128),
    protocols: tuple[str, ...] = ("lbl", "tee"),
) -> list[Row]:
    """Fig 2b: concurrency sweep at Oregon distance."""
    rows = []
    for protocol in protocols:
        for clients in client_counts:
            result = _run(_spec(protocol, num_clients=clients))
            rows.append(
                {
                    "protocol": protocol,
                    "clients": clients,
                    "throughput_ops_s": result.metrics.throughput_ops_per_s,
                    "avg_latency_ms": result.metrics.avg_latency_ms,
                }
            )
    return rows


def figure2c(
    write_percents: tuple[int, ...] = (0, 25, 50, 75, 100),
    protocols: tuple[str, ...] = ("lbl", "tee"),
) -> list[Row]:
    """Fig 2c: 0% → 100% writes; ORTOA's numbers must stay flat."""
    rows = []
    for protocol in protocols:
        for percent in write_percents:
            result = _run(_spec(protocol, write_fraction=percent / 100.0))
            rows.append(
                {
                    "protocol": protocol,
                    "write_percent": percent,
                    "throughput_ops_s": result.metrics.throughput_ops_per_s,
                    "avg_latency_ms": result.metrics.avg_latency_ms,
                }
            )
    return rows


def figure2d(
    log2_sizes: tuple[int, ...] = (10, 12, 14, 16, 18, 20, 21, 22),
    protocols: tuple[str, ...] = ("lbl", "tee"),
) -> list[Row]:
    """Fig 2d: database size 2^10 → 2^22 objects."""
    rows = []
    for protocol in protocols:
        for log2_n in log2_sizes:
            result = _run(_spec(protocol, num_objects=2**log2_n))
            rows.append(
                {
                    "protocol": protocol,
                    "log2_objects": log2_n,
                    "throughput_ops_s": result.metrics.throughput_ops_per_s,
                    "avg_latency_ms": result.metrics.avg_latency_ms,
                }
            )
    return rows


def figure3a(
    shard_counts: tuple[int, ...] = (1, 2, 3, 4, 5),
    protocols: tuple[str, ...] = ("lbl", "tee"),
) -> list[Row]:
    """Fig 3a: scale proxy/server pairs 1→5, clients growing as 32·s."""
    rows = []
    for protocol in protocols:
        for shards in shard_counts:
            result = _run(
                _spec(protocol, num_shards=shards, num_objects=shards * 2**20)
            )
            rows.append(
                {
                    "protocol": protocol,
                    "shards": shards,
                    "clients": 32 * shards,
                    "throughput_ops_s": result.metrics.throughput_ops_per_s,
                    "avg_latency_ms": result.metrics.avg_latency_ms,
                }
            )
    return rows


def figure3b(
    value_sizes: tuple[int, ...] = (10, 50, 160, 300, 450, 600),
    protocols: tuple[str, ...] = ("lbl", "tee", "baseline"),
) -> list[Row]:
    """Fig 3b: the value-size sweep that finds the LBL/baseline crossover."""
    rows = []
    for protocol in protocols:
        for value_len in value_sizes:
            result = _run(_spec(protocol, value_len=value_len))
            rows.append(
                {
                    "protocol": protocol,
                    "value_bytes": value_len,
                    "throughput_ops_s": result.metrics.throughput_ops_per_s,
                    "avg_latency_ms": result.metrics.avg_latency_ms,
                }
            )
    return rows


def figure3c(
    value_sizes: tuple[int, ...] = (10, 50, 160, 300, 450, 600),
) -> list[Row]:
    """Fig 3c: LBL latency broken into compute / base RTT / comm overhead,
    with the baseline's total latency for contrast."""
    rows = []
    for value_len in value_sizes:
        lbl = _run(_spec("lbl", value_len=value_len))
        baseline = _run(_spec("baseline", value_len=value_len))
        metrics = lbl.metrics
        rows.append(
            {
                "value_bytes": value_len,
                "compute_ms": metrics.avg_compute_ms,
                "base_comm_ms": metrics.avg_base_comm_ms,
                "comm_overhead_ms": metrics.avg_comm_overhead_ms,
                "total_ms": metrics.avg_latency_ms,
                "baseline_total_ms": baseline.metrics.avg_latency_ms,
            }
        )
    return rows


def figure3d(protocols: tuple[str, ...] = ("lbl", "baseline")) -> list[Row]:
    """Fig 3d: 300 B objects with the server pinned to the EU (London)."""
    rows = []
    for protocol in protocols:
        result = _run(_spec(protocol, value_len=300, server_location="london"))
        rows.append(
            {
                "protocol": protocol,
                "throughput_ops_s": result.metrics.throughput_ops_per_s,
                "avg_latency_ms": result.metrics.avg_latency_ms,
            }
        )
    return rows


def figure4(protocols: tuple[str, ...] = ("lbl", "tee", "baseline")) -> list[Row]:
    """Fig 4: EHR (10 B), SmallBank (50 B), e-commerce (40 B) datasets."""
    rows = []
    for dataset_name, dataset in DATASETS.items():
        for protocol in protocols:
            result = _run(_spec(protocol, value_len=dataset.value_len))
            rows.append(
                {
                    "dataset": dataset_name,
                    "value_bytes": dataset.value_len,
                    "protocol": protocol,
                    "throughput_ops_s": result.metrics.throughput_ops_per_s,
                    "avg_latency_ms": result.metrics.avg_latency_ms,
                }
            )
    return rows


def figure6(max_y: int = 6) -> list[Row]:
    """Fig 6: the y-grouping trade-off fixing the optimum at y = 2."""
    return [
        {
            "y": f.y,
            "storage_factor": f.storage_factor,
            "communication_factor": f.communication_factor,
            "total_overhead": f.total,
        }
        for f in overhead_factors(max_y)
    ]


def fhe_noise(
    max_accesses: int = 12, params: FheParams | None = None
) -> list[Row]:
    """§3.3: per-access noise budget of one object under FHE-ORTOA's Proc.

    Runs the actual homomorphic pipeline until the budget exhausts, charting
    the paper's "within about 10 accesses" failure.
    """
    scheme = FheScheme(params or FheParams(n=64, q_bits=120))
    value = bytes(range(60))
    stored = scheme.encrypt_bytes(value)
    rows = [
        {
            "access": 0,
            "noise_budget_bits": scheme.noise_budget(stored),
            "ciphertext_components": stored.size,
            "ciphertext_bytes": stored.size_bytes,
            "decryption_correct": True,
        }
    ]
    for access in range(1, max_accesses + 1):
        stored = scheme.add(
            scheme.multiply(stored, scheme.encrypt_scalar(1)),
            scheme.multiply(scheme.encrypt_bytes(bytes(60)), scheme.encrypt_scalar(0)),
        )
        budget = scheme.noise_budget(stored)
        rows.append(
            {
                "access": access,
                "noise_budget_bits": budget,
                "ciphertext_components": stored.size,
                "ciphertext_bytes": stored.size_bytes,
                "decryption_correct": scheme.decrypt_bytes(stored, 60) == value,
            }
        )
        if budget <= 0:
            break
    return rows


def oram_comparison(num_blocks: int = 32, accesses: int = 60) -> list[Row]:
    """§8 extension: rounds/bytes/stash for three ORAM designs.

    Contrasts PathORAM (2 rounds), the ORTOA-based one-round scheme, and the
    linear-scan privacy-maximal baseline on the same random workload.
    """
    from repro.oram import OneRoundOram, PathOram
    from repro.oram.linear_scan import LinearScanOram

    def drive(oram):
        rng = random.Random(2)
        for _ in range(accesses):
            block = rng.randrange(num_blocks)
            if rng.random() < 0.5:
                oram.write(block, rng.randbytes(8))
            else:
                oram.read(block)
        return oram

    initial = {i: bytes(8) for i in range(num_blocks)}
    schemes = []
    for name, oram in (
        ("path-oram", PathOram(num_blocks, 8, rng=random_module.Random(1))),
        ("one-round-oram", OneRoundOram(num_blocks, 8, rng=random_module.Random(1))),
        ("linear-scan", LinearScanOram(num_blocks, 8)),
    ):
        oram.initialize(dict(initial))
        drive(oram)
        stash = getattr(oram, "stash", None)
        schemes.append(
            {
                "scheme": name,
                "rounds_per_access": oram.rounds_used / accesses,
                "kb_per_access": oram.bytes_transferred / accesses / 1000,
                "stash_high_water": stash.max_occupancy if stash is not None else 0,
                "wan_ms_per_access_oregon": oram.rounds_used
                / accesses
                * DATACENTER_RTT_MS["oregon"],
            }
        )
    return schemes


# Loopback throughput of the real-socket deployment.  The *service* window
# (first byte submitted to last reply) is timed with prepare and finalize
# outside it: that isolates the storage tier, which sharding scales, from
# the one serial proxy here.  No sweep times local compute (a CI machine may
# have one core): service time is slept in the shard, a round trip on the
# link (DelayedLink), and overlapped waiting scales on any machine.


def _prepare_workload(
    deployment: "ShardedLblDeployment", num_requests: int, seed: int
) -> list[tuple[Request, int, int, bytes]]:
    """Initialize one distinct key per request (so the frames commute) and
    pre-build every table: per request (request, shard, epoch, payload)."""
    rng = random.Random(seed)
    value_len = deployment.config.value_len
    keys = [f"bench-{seed}-{i}" for i in range(num_requests)]
    deployment.initialize({key: bytes(value_len) for key in keys})
    prepared = []
    for key in keys:
        if rng.random() < 0.5:
            request = Request.read(key)
        else:
            request = Request.write(key, bytes([rng.randrange(256)]) * value_len)
        shard = deployment.shard_of(key)
        epoch = deployment.proxy.counter(key) + 1
        lbl_request, _ops = deployment.proxy.prepare(request)
        prepared.append((request, shard, epoch, lbl_request.to_bytes()))
    return prepared


def measure_throughput(
    deployment: "ShardedLblDeployment",
    num_requests: int = 64,
    mode: str = "pipelined",
    depth: int = 8,
    seed: int = 0,
) -> dict:
    """Drive ``num_requests`` pre-prepared accesses, one frame in flight
    (``lockstep``) or up to ``depth`` (``pipelined``); returns the service
    window (submit → last reply), the end-to-end window (prepare and
    finalize included) and their requests/sec."""
    if mode not in ("lockstep", "pipelined"):
        raise ConfigurationError(f"unknown measurement mode {mode!r}")
    total_start = time.perf_counter()
    prepared = _prepare_workload(deployment, num_requests, seed)

    service_start = time.perf_counter()
    replies: list[bytes] = [b""] * len(prepared)
    window: deque[tuple[int, Future]] = deque()  # lockstep: a window of one
    for index, (_request, shard, _epoch, payload) in enumerate(prepared):
        if len(window) >= (depth if mode == "pipelined" else 1):
            done_index, future = window.popleft()
            replies[done_index] = future.result(deployment.timeout)
        window.append((index, deployment.clients[shard].submit(payload)))
    for done_index, future in window:
        replies[done_index] = future.result(deployment.timeout)
    service_s = time.perf_counter() - service_start

    for (request, _shard, epoch, _payload), reply in zip(prepared, replies):
        response = LblAccessResponse.from_bytes(reply)
        deployment.proxy.finalize(request.key, response, counter=epoch)
    total_s = time.perf_counter() - total_start

    return {
        "requests": num_requests,
        "mode": mode,
        "depth": depth if mode == "pipelined" else 1,
        "service_s": service_s,
        "total_s": total_s,
        "service_rps": num_requests / service_s if service_s > 0 else float("inf"),
        "total_rps": num_requests / total_s if total_s > 0 else float("inf"),
    }


def _sweep_point(
    config: StoreConfig, shards: int, in_process: bool, num_requests: int,
    depth: int, seed: int, service_time_s: float = 0.0, rtt_s: float = 0.0,
) -> dict:
    """:func:`measure_throughput` on one fresh cluster and deployment."""
    from repro.core.sharded import ShardedLblDeployment
    from repro.transport.cluster import ShardCluster
    from repro.transport.pipeline import DelayedLink

    with ShardCluster(
        shards, in_process=in_process, response_delay_s=service_time_s
    ) as cluster:
        deployment = ShardedLblDeployment(config, cluster.addresses)
        if rtt_s:
            deployment.clients = [DelayedLink(link, rtt_s) for link in deployment.clients]
        try:
            return measure_throughput(
                deployment, num_requests=num_requests, depth=depth, seed=seed
            )
        finally:
            deployment.close()


def sharded_scaling(
    shards: int = 4,
    num_requests: int = 64,
    in_process: bool = True,
    service_time_s: float = 0.02,
    value_len: int = 16,
    group_bits: int = 2,
    seed: int = 0,
) -> list[Row]:
    """§6.2.4 on real sockets: batch throughput as loopback storage shards
    are added (powers of two up to ``shards``).

    Unlike :func:`figure3a` (simulated testbed), this boots actual
    :class:`~repro.transport.server.LblTcpServer` instances (threads, or
    spawned subprocesses unless ``in_process``).  Each applies
    ``service_time_s`` of per-request service time, standing in for the
    storage I/O a real shard pays per access.  The deployment holds one
    connection per shard, which a shard serves one request at a time, so a
    shard's capacity is ``1 / service_time_s`` and capacity grows linearly
    with shards — *if* the transport keeps every shard's pipeline full,
    which is what this measures: the whole window's frames are submitted
    before any reply is awaited (one big batch fanned out across shards).
    """
    config = StoreConfig(value_len=value_len, group_bits=group_bits)
    counts = [1]
    while counts[-1] * 2 <= shards:
        counts.append(counts[-1] * 2)
    rows: list[Row] = []
    for count in counts:
        stats = _sweep_point(
            config, count, in_process, num_requests, num_requests, seed,
            service_time_s=service_time_s,
        )
        rps = stats["service_rps"]
        rows.append({
            "shards": count,
            "requests": num_requests,
            "service_ms_per_request": service_time_s * 1000,
            "service_rps": rps,
            "speedup_vs_1shard": rps / (rows[0]["service_rps"] if rows else rps),
            "end_to_end_rps": stats["total_rps"],
        })
    return rows


def pipeline_depth_sweep(
    pipeline_depth: int = 8,
    num_requests: int = 48,
    emulated_rtt_s: float = 0.01,
    value_len: int = 32,
    group_bits: int = 2,
    in_process: bool = True,
    seed: int = 0,
) -> list[Row]:
    """Lockstep vs pipelined throughput over one connection to one loopback
    shard: window depths 1 (lockstep), 2 and ``pipeline_depth``.

    Each reply reaches its waiter no sooner than ``emulated_rtt_s`` after
    its submit, standing in for the WAN RTTs of Table 2 that pipelining
    exists to hide (on bare loopback the RTT is too small to matter).
    """
    config = StoreConfig(value_len=value_len, group_bits=group_bits)
    rows: list[Row] = []
    for depth in sorted({1, 2, max(2, pipeline_depth)}):
        rps = _sweep_point(
            config, 1, in_process, num_requests, depth, seed, rtt_s=emulated_rtt_s
        )["service_rps"]
        rows.append({
            "depth": depth,
            "requests": num_requests,
            "emulated_rtt_ms": emulated_rtt_s * 1000,
            "service_rps": rps,
            "speedup_vs_lockstep": rps / (rows[0]["service_rps"] if rows else rps),
        })
    return rows


def lbl_kernels(
    label_cache: int | None = -1,
    num_keys: int = 8,
    num_requests: int = 48,
    value_len: int = 160,
) -> list[Row]:
    """Crypto-kernel throughput: cold vs warm label cache vs sharded batch.

    Measures in-process LBL accesses per second with every epoch derived
    cold and with a warm label cache, then drives one batch through a
    sharded deployment over a loopback shard.

    Args:
        label_cache: ``label_cache_entries`` for the cached rows
            (-1 auto-sizes, ``None`` disables — the cached row is then
            skipped).
        num_keys: Distinct keys in the workload.
        num_requests: Accesses per measured configuration.
        value_len: Object size in bytes (paper default 160).
    """
    from repro.core.lbl import LblOrtoa

    def _measure(store, requests) -> float:
        start = time.perf_counter()
        for request in requests:
            store.access(request)
        return len(requests) / (time.perf_counter() - start)

    def _workload(config: StoreConfig) -> tuple[dict, list]:
        rng = random.Random(1)
        records = {
            f"key-{i:03d}": config.pad(f"value-{i}".encode()) for i in range(num_keys)
        }
        requests = []
        for _ in range(num_requests):
            key = f"key-{rng.randrange(num_keys):03d}"
            if rng.random() < 0.5:
                requests.append(Request.read(key))
            else:
                requests.append(Request.write(key, config.pad(b"updated")))
        return records, requests

    base = StoreConfig(value_len=value_len, group_bits=2)
    cached = replace(base, label_cache_entries=label_cache)
    rows: list[Row] = []

    for mode, config, warm in (
        ("cold", base, False),
        ("cached", cached, True),
    ):
        if warm and label_cache is None:
            continue
        records, requests = _workload(config)
        store = LblOrtoa(config)
        store.initialize(records)
        if warm:
            for request in requests:  # populate every key's epoch
                store.access(request)
        ops_per_sec = _measure(store, requests)
        cache = store.proxy.label_cache
        rows.append(
            {
                "mode": mode,
                "ops_per_sec": round(ops_per_sec, 1),
                "cache_hit_rate": round(cache.hit_rate, 3) if cache else "-",
            }
        )

    # End-to-end batch on one loopback shard (thread-backed server, real
    # wire format).
    from repro.core.sharded import ShardedLblDeployment
    from repro.transport.cluster import ShardCluster

    config = cached if label_cache is not None else base
    records, requests = _workload(config)
    with ShardCluster(1, in_process=True) as cluster:
        deployment = ShardedLblDeployment(config, cluster.addresses)
        try:
            deployment.initialize(records)
            start = time.perf_counter()
            deployment.access_batch(requests)
            elapsed = time.perf_counter() - start
            cache = deployment.proxy.label_cache
            rows.append(
                {
                    "mode": "sharded-batch",
                    "ops_per_sec": round(len(requests) / elapsed, 1),
                    "cache_hit_rate": round(cache.hit_rate, 3) if cache else "-",
                }
            )
        finally:
            deployment.close()
    return rows


def dollar_cost() -> list[Row]:
    """§6.3.3: LBL-ORTOA's Google-Cloud cost breakdown."""
    estimate = estimate_lbl_cost()
    return [
        {"item": "storage_gb", "value": estimate.storage_gb},
        {"item": "storage_usd_per_month", "value": estimate.storage_per_month},
        {
            "item": "network_gb_per_1m_accesses",
            "value": estimate.network_gb_per_million_accesses,
        },
        {
            "item": "network_usd_per_1m_accesses",
            "value": estimate.network_per_million_accesses,
        },
        {
            "item": "compute_usd_per_1m_accesses",
            "value": estimate.compute_per_million_accesses,
        },
        {"item": "usd_per_request", "value": estimate.per_request},
    ]


__all__ = [
    "table2",
    "figure2a",
    "figure2b",
    "figure2c",
    "figure2d",
    "figure3a",
    "figure3b",
    "figure3c",
    "figure3d",
    "figure4",
    "figure6",
    "fhe_noise",
    "dollar_cost",
    "oram_comparison",
    "measure_throughput",
    "sharded_scaling",
    "pipeline_depth_sweep",
    "lbl_kernels",
]
