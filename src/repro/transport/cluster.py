"""Boot and measure a set of LBL storage shards on loopback.

Two backings:

* ``in_process=True`` — each shard is an
  :class:`~repro.transport.server.LblTcpServer` on a daemon thread of this
  process.  Cheap to start and lets tests observe server internals, but
  Python's GIL serializes the shards' compute.
* ``in_process=False`` — each shard runs in its own ``multiprocessing``
  process (spawn start method), so shard *compute* parallelizes across
  physical cores where the machine has them.

The measurement helpers time the *service* window — from the first byte
submitted to the last reply received — with requests prepared (and
responses finalized) outside the clock.  That isolates the storage tier,
which is the thing sharding scales: in the paper's deployment every shard
pairs its own proxy with its own server, whereas this process hosts a
single proxy whose serial table-building would otherwise mask the
server-side speedup.

Because CI machines may expose a single core, neither measurement times
local compute.  The shard-count one models each shard's per-request cost as
*service time* (``response_delay_s``, slept inside the shard, one request
per connection at a time); the pipeline-depth one emulates the network
round trip on the link (:class:`~repro.transport.pipeline.DelayedLink`), so
pipelined frames overlap their trips over one connection.  Overlapped
waiting scales on any machine, while Python compute only scales with
physical cores.
"""

from __future__ import annotations

import multiprocessing
import random
import time
from collections import deque
from concurrent.futures import Future
from typing import TYPE_CHECKING

from repro.core.messages import LblAccessResponse
from repro.errors import ConfigurationError, ProtocolError
from repro.transport.pipeline import DelayedLink
from repro.transport.server import LblTcpServer
from repro.types import Request, StoreConfig

if TYPE_CHECKING:  # imported lazily at runtime: core.sharded imports this package
    from repro.core.sharded import ShardedLblDeployment


def _serve_shard(conn, response_delay_s: float, metrics: bool,
                 enable_obs: bool) -> None:  # pragma: no cover - child process
    """Child-process entry point: bind, report the addresses, serve forever."""
    from repro import obs

    if enable_obs:
        # The child records into its own tracer/registry; the trusted side
        # pulls the dump over an OBS_PULL control frame and merges it.
        obs.enable()
    server = LblTcpServer(
        response_delay_s=response_delay_s,
        metrics_port=0 if metrics else None,
    )
    conn.send({"address": server.address, "metrics": server.metrics_address})
    conn.close()
    server.serve_forever()


class ShardCluster:
    """``N`` loopback LBL shard servers, thread- or process-backed.

    Args:
        num_shards: Servers to boot.
        in_process: Daemon threads (True) or spawned processes (False).
        response_delay_s: Service time slept inside every admitted request.
        metrics: Give every shard a Prometheus scrape endpoint on an
            ephemeral port (read ``metrics_addresses``; ``repro doctor``
            scrapes them).
        enable_obs: Enable span/metric capture inside *process-backed*
            shards, so their telemetry can be pulled back over the obs
            control frame at shutdown.  Ignored for in-process shards,
            which share this process's global tracer — the caller already
            controls that with :func:`repro.obs.enable`.
    """

    def __init__(
        self,
        num_shards: int,
        in_process: bool = True,
        response_delay_s: float = 0.0,
        metrics: bool = False,
        enable_obs: bool = False,
    ) -> None:
        if num_shards < 1:
            raise ConfigurationError("num_shards must be >= 1")
        self.num_shards = num_shards
        self.in_process = in_process
        self.response_delay_s = response_delay_s
        self.metrics = metrics
        self.enable_obs = enable_obs
        self.addresses: list[tuple[str, int]] = []
        self.metrics_addresses: list[tuple[str, int] | None] = []
        self.servers: list = []  # LblTcpServer when in_process
        self._processes: list[multiprocessing.Process] = []

    def start(self) -> list[tuple[str, int]]:
        """Boot every shard; returns their addresses."""
        if self.addresses:
            raise ConfigurationError("cluster already started")
        if self.in_process:
            for _ in range(self.num_shards):
                server = LblTcpServer(
                    response_delay_s=self.response_delay_s,
                    metrics_port=0 if self.metrics else None,
                )
                server.serve_in_background()
                self.servers.append(server)
                self.addresses.append(server.address)
                self.metrics_addresses.append(server.metrics_address)
        else:
            ctx = multiprocessing.get_context("spawn")
            for _ in range(self.num_shards):
                parent_conn, child_conn = ctx.Pipe()
                process = ctx.Process(
                    target=_serve_shard,
                    args=(
                        child_conn,
                        self.response_delay_s,
                        self.metrics,
                        self.enable_obs,
                    ),
                    daemon=True,
                )
                process.start()
                child_conn.close()
                if not parent_conn.poll(30.0):
                    self.stop()
                    raise ProtocolError("shard process failed to report its address")
                try:
                    endpoints = parent_conn.recv()
                except EOFError:
                    self.stop()
                    raise ProtocolError(
                        "shard process died before binding (spawn re-imports "
                        "__main__, which must be importable)"
                    ) from None
                self.addresses.append(endpoints["address"])
                self.metrics_addresses.append(endpoints["metrics"])
                parent_conn.close()
                self._processes.append(process)
        return self.addresses

    def stop(self) -> None:
        """Shut every shard down (idempotent)."""
        for server in self.servers:
            server.close()
        self.servers = []
        for process in self._processes:
            process.terminate()
        for process in self._processes:
            process.join(timeout=5.0)
        self._processes = []
        self.addresses = []
        self.metrics_addresses = []

    def __enter__(self) -> "ShardCluster":
        self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()


# --------------------------------------------------------------------- #
# Loopback throughput measurement
# --------------------------------------------------------------------- #


def _prepare_workload(
    deployment: "ShardedLblDeployment", num_requests: int, seed: int
) -> list[tuple[Request, int, int, bytes]]:
    """Initialize one distinct key per request and pre-build every table.

    Returns per request: (request, shard, epoch, serialized payload).
    Distinct keys mean the frames commute, so any submission order and any
    server-side interleaving decodes correctly.
    """
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
    """Drive ``num_requests`` pre-prepared accesses; return timing stats.

    Modes:
        ``lockstep`` — one frame in flight at a time (request/reply).
        ``pipelined`` — up to ``depth`` frames in flight per shard.

    The returned dict reports the service window (submit → last reply),
    the end-to-end window (including prepare/finalize), and the derived
    requests/sec figures.
    """
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


def measure_shard_scaling(
    shard_counts: tuple[int, ...] = (1, 2, 4),
    num_requests: int = 64,
    value_len: int = 16,
    group_bits: int = 2,
    service_time_s: float = 0.02,
    in_process: bool = True,
    seed: int = 0,
) -> list[dict]:
    """Batch (pipelined, deep window) throughput as shards are added.

    Each shard server applies ``service_time_s`` of per-request service
    time (``response_delay_s``), standing in for the storage I/O a real
    shard pays per access.  The deployment holds one connection per shard,
    which a shard serves one request at a time, so a shard's capacity is
    ``1 / service_time_s`` and capacity grows linearly with shards — *if*
    the transport actually keeps every shard's pipeline full, which is the
    property this measures (on any core count: see the module docstring).

    The whole window's frames are submitted before any reply is awaited
    (depth = ``num_requests``), approximating one big batch fanned out
    across shards.
    """
    config = StoreConfig(value_len=value_len, group_bits=group_bits)
    rows: list[dict] = []
    for shards in shard_counts:
        stats = _sweep_point(
            config, shards, in_process, num_requests, num_requests, seed,
            service_time_s=service_time_s,
        )
        rps = stats["service_rps"]
        rows.append({
            "shards": shards,
            "requests": num_requests,
            "service_ms_per_request": service_time_s * 1000,
            "service_rps": rps,
            "speedup_vs_1shard": rps / (rows[0]["service_rps"] if rows else rps),
            "end_to_end_rps": stats["total_rps"],
        })
    return rows


def measure_pipeline_gain(
    depths: tuple[int, ...] = (1, 2, 8),
    num_requests: int = 48,
    value_len: int = 32,
    group_bits: int = 2,
    emulated_rtt_s: float = 0.01,
    in_process: bool = True,
    seed: int = 0,
) -> list[dict]:
    """Lockstep vs pipelined throughput over one connection to one shard,
    with an emulated WAN.

    Each reply reaches its waiter no sooner than ``emulated_rtt_s`` after
    its submit (:class:`~repro.transport.pipeline.DelayedLink`), standing in
    for the cross-datacenter round trips of the paper's Table 2 — on bare
    loopback the RTT pipelining hides is too small to matter.  Depth ``D``
    overlaps ``D`` round trips on the one connection; depth 1 is true
    lockstep (request/reply).
    """
    config = StoreConfig(value_len=value_len, group_bits=group_bits)
    rows: list[dict] = []
    for depth in depths:
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


__all__ = [
    "ShardCluster",
    "measure_throughput",
    "measure_shard_scaling",
    "measure_pipeline_gain",
]
