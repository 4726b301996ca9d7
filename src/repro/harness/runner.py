"""The discrete-event experiment runner.

Reproduces the paper's measurement methodology (§6, "Experimental Setup") on
the simulated testbed:

* a multi-threaded closed-loop client — ``num_clients`` concurrent request
  streams, each waiting for its response before issuing the next request;
* clients and proxy co-located (sub-millisecond link), the storage server at
  a Table 2 datacenter distance;
* per-request latency measured client-to-client, throughput as completed
  operations per simulated second.

Each protocol is first exercised *functionally* on a small store to capture
real transcripts (byte-exact message sizes, true op counts); the simulation
then replays those profiles at scale.  Database size ``num_objects`` enters
through an explicit memory-pressure model (see :class:`DeploymentSpec`)
because message shapes do not depend on N — only server-side memory
behaviour does (§6.2.3).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro.analysis.metrics import RunMetrics, summarize
from repro.core import FheOrtoa, LblOrtoa, OrtoaProtocol, TeeOrtoa, TwoRoundBaseline
from repro.core.base import AccessTranscript
from repro.errors import ConfigurationError
from repro.harness.calibration import CostModel
from repro.obs import _state as _obs
from repro.obs.clock import SimClock, use_clock
from repro.obs.metrics import REGISTRY
from repro.obs.trace import TRACER
from repro.sim.core import Environment
from repro.sim.network import CLIENT_PROXY_RTT_MS, DEFAULT_BANDWIDTH_MBPS, NetworkLink
from repro.sim.resources import Resource
from repro.types import LatencySample, Operation, Request, StoreConfig
from repro.workloads.synthetic import RequestStream, WorkloadSpec

#: Keys used for transcript profiling; shapes don't depend on the key.
_PROFILE_KEYS = 4
#: Real accesses averaged per op type when profiling.  Each LBL access
#: reports the same closed-form op counts, so for LBL the average is exact.
_PROFILE_SAMPLES = 3

PROTOCOL_NAMES = ("baseline", "tee", "lbl", "fhe")


@dataclass(frozen=True, slots=True)
class DeploymentSpec:
    """Everything that defines one experiment run.

    Attributes:
        protocol: One of ``baseline`` (2RTT), ``tee``, ``lbl`` (the §10
            optimized protocol: y=2 + point-and-permute, the configuration
            the paper prices in §6.3.3), or ``fhe``.
        server_location: Table 2 datacenter name for the proxy→server link.
        num_clients: Closed-loop client threads (paper default 32).
        server_cores: 4 for the AWS r5.xlarge servers, 48 for the Azure SGX
            machines (§6, Experimental Setup).
        proxy_workers: Parallelism of the proxy's crypto work (r5.xlarge: 4).
        num_objects: Database size N; enters via the memory-pressure model.
        memory_pressure_ms_per_100kb: Extra server time per 100 kB of
            per-request message volume, per doubling of N beyond 2^20 —
            models the §6.2.3 observation that a single server holding more
            objects in memory has fewer resources for request processing.
            LBL's ~125 kB requests feel this; TEE's ~0.3 kB do not.
        tee_paging_ms_per_excess_client: Models the §6.2.1 enclave paging /
            context-switch latency once concurrency exceeds the SGX
            machine's cores.
        num_shards: §6.2.4 — simulate s independent proxy/server pairs with
            ``num_clients`` clients each.
    """

    protocol: str = "lbl"
    value_len: int = 160
    server_location: str = "oregon"
    bandwidth_mbps: float = DEFAULT_BANDWIDTH_MBPS
    num_clients: int = 32
    server_cores: int = 4
    proxy_workers: int = 4
    num_objects: int = 2**20
    write_fraction: float = 0.5
    duration_ms: float = 2_000.0
    num_shards: int = 1
    seed: int = 0
    memory_pressure_ms_per_100kb: float = 1.25
    tee_paging_ms_per_excess_client: float = 0.35
    label_bits: int = 128
    #: Per-message one-way latency jitter, uniform in [0, rtt_jitter_ms].
    #: The paper averages three AWS runs to smooth exactly this kind of
    #: variance; 0 (default) gives deterministic runs.
    rtt_jitter_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOL_NAMES:
            raise ConfigurationError(
                f"unknown protocol {self.protocol!r}; choose from {PROTOCOL_NAMES}"
            )
        if self.num_clients < 1 or self.num_shards < 1:
            raise ConfigurationError("num_clients and num_shards must be >= 1")
        if self.duration_ms <= 0:
            raise ConfigurationError("duration_ms must be positive")
        if self.rtt_jitter_ms < 0:
            raise ConfigurationError("rtt_jitter_ms must be non-negative")

    def store_config(self) -> StoreConfig:
        """The StoreConfig this spec's protocol runs with."""
        if self.protocol == "lbl":
            return StoreConfig(
                value_len=self.value_len,
                label_bits=self.label_bits,
                group_bits=2,
            )
        return StoreConfig(value_len=self.value_len, label_bits=self.label_bits)

    def build_protocol(self) -> OrtoaProtocol:
        """A fresh functional protocol instance for profiling."""
        config = self.store_config()
        if self.protocol == "baseline":
            return TwoRoundBaseline(config)
        if self.protocol == "tee":
            return TeeOrtoa(config)
        if self.protocol == "lbl":
            return LblOrtoa(config)
        return FheOrtoa(config)


@dataclass(frozen=True, slots=True)
class _PhaseProfile:
    location: str
    compute_ms: float


@dataclass(frozen=True, slots=True)
class _RequestProfile:
    """Averaged transcript profile for one operation type."""

    phases: tuple[_PhaseProfile, ...]
    round_trips: tuple[tuple[float, float], ...]  # (request_bytes, response_bytes)

    @property
    def total_bytes(self) -> float:
        return sum(a + b for a, b in self.round_trips)


@dataclass(slots=True)
class RunResult:
    """Output of :func:`run_experiment`."""

    spec: DeploymentSpec
    metrics: RunMetrics
    request_bytes: float
    response_bytes: float
    avg_proxy_compute_ms: float
    avg_server_compute_ms: float
    #: Mean fraction of proxy-worker time spent computing (averaged over
    #: shards).  ≈1.0 means the proxy is the bottleneck — the saturation
    #: mechanism behind the Figure 2b knee and the Figure 3b crossover.
    proxy_utilization: float = 0.0
    #: Mean fraction of server-core time spent computing.
    server_utilization: float = 0.0


def _profile_protocol(
    spec: DeploymentSpec, cost_model: CostModel
) -> dict[Operation, _RequestProfile]:
    """Execute real accesses and average them into per-op-type profiles."""
    protocol = spec.build_protocol()
    records = {f"profile-{i}": bytes(spec.value_len) for i in range(_PROFILE_KEYS)}
    protocol.initialize(records)
    # The LBL variants travel at the cost model's message sizes, and build
    # their tables at its PRF work, when it states any (the paper's entry
    # format and per-label derivation under ``paper_like``).
    modelled = (
        cost_model.lbl_round_trip(protocol.config)
        if isinstance(protocol, LblOrtoa)
        else None
    )
    profiles: dict[Operation, _RequestProfile] = {}
    for op in (Operation.READ, Operation.WRITE):
        transcripts: list[AccessTranscript] = []
        for i in range(_PROFILE_SAMPLES):
            key = f"profile-{i % _PROFILE_KEYS}"
            if op is Operation.READ:
                transcripts.append(protocol.access(Request.read(key)))
            else:
                transcripts.append(
                    protocol.access(Request.write(key, bytes(spec.value_len)))
                )
        first = transcripts[0]
        phases = tuple(
            _PhaseProfile(
                phase.location,
                sum(
                    cost_model.phase_ms(
                        cost_model.priced_ops(protocol.config, t.phases[idx])
                    )
                    for t in transcripts
                )
                / len(transcripts),
            )
            for idx, phase in enumerate(first.phases)
        )
        if modelled is not None:
            round_trips: tuple[tuple[float, float], ...] = (
                (float(modelled.request_bytes), float(modelled.response_bytes)),
            )
        else:
            round_trips = tuple(
                (
                    sum(t.round_trips[i].request_bytes for t in transcripts)
                    / len(transcripts),
                    sum(t.round_trips[i].response_bytes for t in transcripts)
                    / len(transcripts),
                )
                for i in range(first.num_rounds)
            )
        profiles[op] = _RequestProfile(phases, round_trips)
    return profiles


def _memory_pressure_ms(spec: DeploymentSpec, profile: _RequestProfile) -> float:
    """Extra server time from holding N objects in memory (§6.2.3 model)."""
    objects_per_shard = spec.num_objects / spec.num_shards
    doublings = max(0.0, math.log2(objects_per_shard / 2**20)) if objects_per_shard > 0 else 0.0
    if doublings == 0.0:
        return 0.0
    per_100kb = profile.total_bytes / 100_000.0
    return spec.memory_pressure_ms_per_100kb * per_100kb * doublings


def _tee_paging_ms(spec: DeploymentSpec) -> float:
    """Enclave paging penalty once concurrency exceeds the cores (§6.2.1)."""
    if spec.protocol != "tee":
        return 0.0
    excess = max(0, spec.num_clients - spec.server_cores)
    return spec.tee_paging_ms_per_excess_client * excess


def run_experiment(
    spec: DeploymentSpec, cost_model: CostModel | None = None
) -> RunResult:
    """Simulate one deployment and aggregate its metrics.

    Runs ``spec.num_shards`` independent proxy/server pairs, each loaded by
    ``spec.num_clients`` closed-loop clients (the paper's scaling experiment
    grows clients with shards).  Returns combined throughput and the latency
    distribution over all completed requests.
    """
    cost_model = cost_model or CostModel.paper_like()
    profiles = _profile_protocol(spec, cost_model)
    link = NetworkLink.to_datacenter(spec.server_location, spec.bandwidth_mbps)

    env = Environment()
    samples: list[LatencySample] = []
    pressure_ms = {
        op: _memory_pressure_ms(spec, profile) for op, profile in profiles.items()
    }
    paging_ms = _tee_paging_ms(spec)

    proxies: list[Resource] = []
    servers: list[Resource] = []
    for shard in range(spec.num_shards):
        proxy = Resource(env, spec.proxy_workers)
        server = Resource(env, spec.server_cores)
        proxies.append(proxy)
        servers.append(server)
        for client in range(spec.num_clients):
            stream = RequestStream(
                WorkloadSpec(
                    keys=tuple(f"profile-{i}" for i in range(_PROFILE_KEYS)),
                    value_len=spec.value_len,
                    write_fraction=spec.write_fraction,
                    seed=spec.seed * 100_003 + shard * 1_009 + client,
                )
            )
            env.process(
                _client_process(
                    env,
                    spec,
                    stream,
                    profiles,
                    link,
                    proxy,
                    server,
                    pressure_ms,
                    paging_ms,
                    samples,
                )
            )
    # Spans recorded inside the simulation carry simulated-millisecond
    # timestamps, making captured runs fully deterministic.
    with use_clock(SimClock(env)):
        env.run(until=spec.duration_ms)

    if not samples:
        raise ConfigurationError(
            "no requests completed: duration too short for the configured RTT"
        )
    metrics = summarize(samples, spec.duration_ms)
    read_profile = profiles[Operation.READ]
    return RunResult(
        spec=spec,
        metrics=metrics,
        request_bytes=sum(rt[0] for rt in read_profile.round_trips),
        response_bytes=sum(rt[1] for rt in read_profile.round_trips),
        avg_proxy_compute_ms=sum(
            p.compute_ms for p in read_profile.phases if p.location == "proxy"
        ),
        avg_server_compute_ms=sum(
            p.compute_ms for p in read_profile.phases if p.location == "server"
        ),
        proxy_utilization=sum(p.utilization(spec.duration_ms) for p in proxies)
        / len(proxies),
        server_utilization=sum(s.utilization(spec.duration_ms) for s in servers)
        / len(servers),
    )


def _client_process(
    env: Environment,
    spec: DeploymentSpec,
    stream: RequestStream,
    profiles: dict[Operation, _RequestProfile],
    link: NetworkLink,
    proxy: Resource,
    server: Resource,
    pressure_ms: dict[Operation, float],
    paging_ms: float,
    samples: list[LatencySample],
):
    """One closed-loop client thread (§6: sequential requests per thread)."""
    # Seeded from the (unique, deterministic) per-client stream seed so runs
    # with jitter enabled are still reproducible.
    jitter_rng = random.Random(stream.spec.seed * 7919 + 13)

    def jitter() -> float:
        if spec.rtt_jitter_ms == 0.0:
            return 0.0
        return jitter_rng.uniform(0.0, spec.rtt_jitter_ms)

    while env.now < spec.duration_ms:
        request_op = stream.next_request().op
        profile = profiles[request_op]
        start = env.now
        compute_total = 0.0
        overhead_total = 0.0
        # Manual span API: client generators interleave arbitrarily, so a
        # context-managed (contextvar-nested) span would mis-parent siblings.
        span = (
            TRACER.start_span(
                "harness.request", root=True, op=request_op.value,
                protocol=spec.protocol,
            )
            if _obs.enabled
            else None
        )

        # Client → proxy hop (co-located datacenter).
        yield env.timeout(CLIENT_PROXY_RTT_MS / 2)

        round_index = 0
        for phase in profile.phases:
            if phase.location == "proxy":
                compute_total += phase.compute_ms
                yield from proxy.use(env, phase.compute_ms)
            else:
                request_bytes, response_bytes = profile.round_trips[round_index]
                round_index += 1
                yield env.timeout(link.one_way_ms(int(request_bytes)) + jitter())
                server_ms = phase.compute_ms + pressure_ms[request_op] + paging_ms
                compute_total += server_ms
                yield from server.use(env, server_ms)
                yield env.timeout(link.one_way_ms(int(response_bytes)) + jitter())
                overhead_total += link.overhead_ms(int(request_bytes), int(response_bytes))

        # Proxy → client hop.
        yield env.timeout(CLIENT_PROXY_RTT_MS / 2)

        if span is not None:
            request_bytes = sum(rt[0] for rt in profile.round_trips)
            response_bytes = sum(rt[1] for rt in profile.round_trips)
            span.set_attributes(
                compute_ms=compute_total,
                comm_overhead_ms=overhead_total,
                request_bytes=request_bytes,
                response_bytes=response_bytes,
            )
            TRACER.end(span)
            REGISTRY.counter("harness.requests").inc()
            REGISTRY.counter("harness.wire.request_bytes").inc(int(request_bytes))
            REGISTRY.counter("harness.wire.response_bytes").inc(int(response_bytes))
        if env.now <= spec.duration_ms:
            samples.append(
                LatencySample(
                    op=request_op,
                    start_ms=start,
                    end_ms=env.now,
                    compute_ms=compute_total,
                    comm_overhead_ms=overhead_total,
                    trace_id=span.trace_id if span is not None else None,
                )
            )


__all__ = ["DeploymentSpec", "RunResult", "run_experiment", "PROTOCOL_NAMES"]
