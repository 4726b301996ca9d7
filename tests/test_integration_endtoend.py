"""End-to-end integration: datasets → workload → protocol → metrics →
security checks, across the whole public API."""

import dataclasses

from repro import (
    DeploymentSpec,
    FreshnessGuard,
    LblOrtoa,
    Operation,
    StoreConfig,
    TeeOrtoa,
    TwoRoundBaseline,
    run_experiment,
)
from repro.analysis.metrics import summarize
from repro.harness.calibration import CostModel
from repro.security.distinguisher import shape_fingerprint
from repro.types import LatencySample, Request
from repro.workloads import RequestStream, WorkloadSpec, build_dataset


def test_dataset_through_protocol_through_stream():
    """Load a real-schema dataset, drive it with a workload stream, verify
    against a reference dict — the full functional pipeline."""
    records = build_dataset("ecommerce", num_objects=24, seed=4)
    config = StoreConfig(value_len=40, group_bits=2)
    protocol = LblOrtoa(config)
    protocol.initialize(records)
    reference = {k: config.pad(v) for k, v in records.items()}

    stream = RequestStream(
        WorkloadSpec(keys=tuple(records), value_len=40, write_fraction=0.4, seed=5)
    )
    for request in stream.take(120):
        if request.op is Operation.WRITE:
            reference[request.key] = config.pad(request.value)
            protocol.write(request.key, request.value)
        else:
            assert protocol.read(request.key) == reference[request.key]


def test_all_protocols_agree_on_dataset_workload():
    records = build_dataset("ehr", num_objects=12, seed=2)
    config = StoreConfig(value_len=10)
    protocols = [
        TwoRoundBaseline(config),
        TeeOrtoa(config),
        LblOrtoa(StoreConfig(value_len=10, group_bits=2)),
        FreshnessGuard(config, lambda cfg: TeeOrtoa(cfg)),
    ]
    for protocol in protocols:
        protocol.initialize(records)
    stream = RequestStream(
        WorkloadSpec(keys=tuple(records), value_len=10, write_fraction=0.5, seed=9)
    )
    for request in stream.take(40):
        if request.op is Operation.WRITE:
            for protocol in protocols:
                protocol.write(request.key, request.value)
        else:
            values = {p.name: p.read(request.key) for p in protocols}
            assert len(set(values.values())) == 1, values


def test_workload_transcripts_are_shape_uniform():
    """Across an entire mixed workload, every LBL transcript has the same
    wire fingerprint — not just pairwise read/write equality."""
    config = StoreConfig(value_len=16, group_bits=2)
    protocol = LblOrtoa(config)
    records = {f"k{i}": bytes(16) for i in range(6)}
    protocol.initialize(records)
    stream = RequestStream(
        WorkloadSpec(keys=tuple(records), value_len=16, write_fraction=0.5, seed=7)
    )
    sizes = set()
    for request in stream.take(50):
        t = protocol.access(request)
        sizes.add((t.num_rounds, t.request_bytes, t.response_bytes))
    assert len(sizes) == 1


def test_batching_and_single_access_agree():
    config = StoreConfig(value_len=8, group_bits=2)
    batched = LblOrtoa(config)
    single = LblOrtoa(config)
    records = {f"k{i}": bytes([i]) * 8 for i in range(4)}
    batched.initialize(dict(records))
    single.initialize(dict(records))

    requests = [
        Request.write("k0", b"00000000"),
        Request.read("k1"),
        Request.write("k1", b"11111111"),
        Request.read("k0"),
    ]
    batch_result = batched.access_batch(requests)
    single_results = [single.access(r) for r in requests]
    for batch_t, single_t in zip(batch_result, single_results):
        assert batch_t.response.value == single_t.response.value


def test_simulated_and_functional_sides_are_consistent():
    """The DES run's reported message sizes must equal the functional
    protocol's actual transcript sizes — for LBL, whenever the cost model
    charges the implementation's wire; ``paper_like`` deliberately keeps
    the paper's entry format on the simulated link instead."""
    spec = DeploymentSpec(protocol="lbl", value_len=32, duration_ms=300)
    protocol = spec.build_protocol()
    protocol.initialize({"k": bytes(32)})
    transcript = protocol.access(Request.read("k"))

    own_wire = dataclasses.replace(CostModel.paper_like(), paper_wire=False)
    result = run_experiment(spec, own_wire)
    assert result.request_bytes == transcript.request_bytes
    assert result.response_bytes == transcript.response_bytes

    paper = CostModel.paper_like().lbl_round_trip(spec.store_config())
    result = run_experiment(spec)
    assert (result.request_bytes, result.response_bytes) == (
        paper.request_bytes, paper.response_bytes,
    )
    # 128 groups x 4 entries of nonce(12) + label(16) + slot(1) + tag(16)
    # behind 4-byte field prefixes, and 128 prefixed labels back.
    assert paper.request_bytes == 26 + 128 * 4 * 49
    assert paper.response_bytes == 1 + 128 * 20
    assert paper.request_bytes > transcript.request_bytes

    # The other protocols have one format: simulated == functional, always.
    tee = DeploymentSpec(protocol="tee", value_len=32, duration_ms=300)
    tee_protocol = tee.build_protocol()
    tee_protocol.initialize({"k": bytes(32)})
    tee_transcript = tee_protocol.access(Request.read("k"))
    tee_result = run_experiment(tee)
    assert tee_result.request_bytes == tee_transcript.request_bytes
    assert tee_result.response_bytes == tee_transcript.response_bytes


def test_metrics_pipeline_from_manual_samples():
    samples = [
        LatencySample(Operation.READ, float(i), float(i) + 20.0, 2.0, 3.0)
        for i in range(50)
    ]
    metrics = summarize(samples, duration_ms=1000.0)
    assert metrics.throughput_ops_per_s == 50.0
    assert metrics.avg_latency_ms == 20.0
    assert metrics.avg_base_comm_ms == 15.0


def test_security_fingerprint_stable_across_restart():
    """Transcript shapes depend only on configuration, never on key
    material — two independent deployments must fingerprint identically."""
    config = StoreConfig(value_len=16, group_bits=2)
    outputs = []
    for seed in (1, 2):
        protocol = LblOrtoa(config)
        protocol.initialize({"k": bytes(16)})
        request, _ = protocol.proxy.prepare(Request.read("k"))
        outputs.append([request.to_bytes()])
    assert shape_fingerprint(outputs[0]) == shape_fingerprint(outputs[1])
