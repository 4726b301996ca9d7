"""Tests for the sharded, pipelined LBL deployment over loopback TCP."""

import pytest

from repro.core.sharded import ShardedLblDeployment
from repro.errors import ConfigurationError, ProtocolError
from repro.transport.cluster import ShardCluster
from repro.types import Request, StoreConfig

pytestmark = pytest.mark.timeout(30)

CONFIG = StoreConfig(value_len=16, group_bits=2)


@pytest.fixture(params=[1, 3])
def cluster(request):
    with ShardCluster(request.param, in_process=True) as booted:
        yield booted


@pytest.fixture()
def deployment(cluster):
    dep = ShardedLblDeployment(CONFIG, cluster.addresses, pipeline_depth=4)
    dep.initialize({f"k{i}": bytes([i]) * 16 for i in range(12)})
    yield dep
    dep.close()


def test_read_write_routed_to_shards(deployment):
    assert deployment.read("k3") == bytes([3]) * 16
    deployment.write("k3", b"updated")
    assert deployment.read("k3") == CONFIG.pad(b"updated")


def test_routing_is_stable_and_total(deployment):
    for key in (f"k{i}" for i in range(12)):
        shard = deployment.shard_of(key)
        assert 0 <= shard < deployment.num_shards
        assert deployment.shard_of(key) == shard  # deterministic
    assert sum(deployment.shard_sizes()) == 12


def test_batch_spans_shards_and_preserves_order(deployment):
    requests = [
        Request.read("k1"),
        Request.write("k2", CONFIG.pad(b"two")),
        Request.read("k2"),
        Request.read("k11"),
    ]
    transcripts = deployment.access_batch(requests)
    assert [t.op for t in transcripts] == [r.op for r in requests]
    assert transcripts[0].response.value == bytes([1]) * 16
    assert transcripts[2].response.value == CONFIG.pad(b"two")
    assert transcripts[3].response.value == bytes([11]) * 16


def test_batch_repeated_key_applies_in_order(deployment):
    transcripts = deployment.access_batch(
        [
            Request.write("k5", CONFIG.pad(b"first")),
            Request.read("k5"),
            Request.write("k5", CONFIG.pad(b"second")),
        ]
    )
    assert transcripts[1].response.value == CONFIG.pad(b"first")
    assert deployment.read("k5") == CONFIG.pad(b"second")


def test_pipelined_accesses_return_in_request_order(deployment):
    requests = [Request.read(f"k{i}") for i in range(12)]
    transcripts = deployment.access_pipelined(requests, depth=4)
    assert [t.response.key for t in transcripts] == [r.key for r in requests]
    for i, transcript in enumerate(transcripts):
        assert transcript.response.value == bytes([i]) * 16


def test_pipelined_serializes_same_key(deployment):
    """Repeated keys in a pipelined stream must not corrupt epochs."""
    requests = []
    for round_no in range(4):
        requests.append(Request.write("k0", bytes([round_no]) * 16))
        requests.append(Request.read("k0"))
        requests.append(Request.read("k1"))
    transcripts = deployment.access_pipelined(requests, depth=8)
    # Each read of k0 sees the write immediately before it.
    reads = [t for t in transcripts if t.response.key == "k0" and t.op.is_read]
    assert [t.response.value for t in reads] == [
        bytes([round_no]) * 16 for round_no in range(4)
    ]


def test_pipelined_depth_one_is_lockstep(deployment):
    transcripts = deployment.access_pipelined(
        [Request.read("k1"), Request.read("k2")], depth=1
    )
    assert len(transcripts) == 2


def test_transcripts_match_single_shard_shape(deployment):
    transcript = deployment.access(Request.read("k1"))
    assert transcript.num_rounds == 1
    read_t = deployment.access(Request.read("k2"))
    write_t = deployment.access(Request.write("k2", CONFIG.pad(b"w")))
    assert read_t.request_bytes == write_t.request_bytes
    assert read_t.response_bytes == write_t.response_bytes


def test_deployment_name_reflects_shards(cluster):
    dep = ShardedLblDeployment(CONFIG, cluster.addresses)
    try:
        assert dep.name == f"lbl-ortoa-sharded-x{len(cluster.addresses)}"
        assert dep.num_shards == len(cluster.addresses)
    finally:
        dep.close()


def test_empty_batch_and_pipeline_rejected(deployment):
    with pytest.raises(ProtocolError):
        deployment.access_batch([])
    with pytest.raises(ProtocolError):
        deployment.access_pipelined([])


def test_bad_configuration_rejected(cluster):
    with pytest.raises(ConfigurationError):
        ShardedLblDeployment(CONFIG, [])
    with pytest.raises(ConfigurationError):
        ShardedLblDeployment(CONFIG, cluster.addresses, pipeline_depth=0)
    dep = ShardedLblDeployment(CONFIG, cluster.addresses)
    try:
        with pytest.raises(ConfigurationError):
            dep.access_pipelined([Request.read("k")], depth=0)
    finally:
        dep.close()


def test_cluster_subprocess_mode_serves_accesses():
    """Process-backed shards (the honest multi-machine stand-in) work too."""
    with ShardCluster(1, in_process=False) as booted:
        dep = ShardedLblDeployment(CONFIG, booted.addresses)
        try:
            dep.initialize({"pk": b"\x09" * 16})
            dep.write("pk", b"updated")
            assert dep.read("pk") == CONFIG.pad(b"updated")
        finally:
            dep.close()


@pytest.mark.parametrize("in_process", [True, False], ids=["threads", "processes"])
def test_default_config_and_default_cluster_agree(in_process):
    """The shortest call: a config and a cluster with every other argument
    at its default.  The proxy once defaulted to the §5.2 base protocol and
    the shard servers to §10.2, so this refused the very first load."""
    config = StoreConfig(value_len=16)
    with ShardCluster(1, in_process=in_process) as booted:
        dep = ShardedLblDeployment(config, booted.addresses)
        try:
            dep.initialize({"a": b"first", "b": b"second"})
            assert dep.read("a") == config.pad(b"first")
            dep.write("b", b"rewritten")
            assert dep.read("b") == config.pad(b"rewritten")
            assert dep.read("a") == config.pad(b"first")
        finally:
            dep.close()


def test_measure_throughput_modes_agree_on_results():
    """The harness's lockstep and pipelined modes both do real accesses."""
    from repro.transport.cluster import measure_throughput

    with ShardCluster(2, in_process=True) as booted:
        dep = ShardedLblDeployment(CONFIG, booted.addresses)
        try:
            for seed, mode in enumerate(("lockstep", "pipelined")):
                # Distinct seeds: each call initializes its own key range.
                stats = measure_throughput(
                    dep, num_requests=6, mode=mode, depth=3, seed=seed
                )
                assert stats["requests"] == 6
                assert stats["service_rps"] > 0
        finally:
            dep.close()


def test_measurement_sweeps_smoke():
    """Tiny parameterizations of the benchmark sweeps run end to end."""
    from repro.transport.cluster import measure_pipeline_gain, measure_shard_scaling

    scaling = measure_shard_scaling(
        shard_counts=(1,), num_requests=4, service_time_s=0.001, seed=1
    )
    assert scaling[0]["shards"] == 1 and scaling[0]["speedup_vs_1shard"] == 1.0
    gain = measure_pipeline_gain(
        depths=(1, 2), num_requests=4, emulated_rtt_s=0.001, seed=1
    )
    assert [row["depth"] for row in gain] == [1, 2]
    assert gain[0]["speedup_vs_lockstep"] == 1.0


def test_cluster_lifecycle_guards():
    with pytest.raises(ConfigurationError):
        ShardCluster(0)
    cluster = ShardCluster(1, in_process=True)
    cluster.start()
    with pytest.raises(ConfigurationError):
        cluster.start()  # double start
    cluster.stop()
    cluster.stop()  # idempotent
    cluster.start()  # restartable after stop
    cluster.stop()


# --------------------------------------------------------------------- #
# Obliviousness audit of the sharded deployment
# --------------------------------------------------------------------- #

def _recorded_deployment(booted):
    """A deployment over thread-backed shards, each link recording, with
    each shard's store observed."""
    from repro.security.audit import RecordingLink
    from repro.transport.pipeline import PipelinedLblClient

    links = [
        RecordingLink(PipelinedLblClient(address), store=server.lbl.store)
        for address, server in zip(booted.addresses, booted.servers)
    ]
    return ShardedLblDeployment(CONFIG, links), links


def test_sharded_audit_passes_per_shard():
    from repro.security.audit import PATHS, run_audit

    with ShardCluster(2, in_process=True) as booted:
        dep, links = _recorded_deployment(booted)
        try:
            report = run_audit(dep, links, num_keys=24, seed=3)
        finally:
            dep.close()
    assert report.passed, report.summary()
    assert report.num_shards == 2
    # Thread-backed shards keep their stores in this process: every claim
    # is judged, storage included.
    assert all(check.passed for check in report.checks)
    batch = {c.claim: c for c in report.checks if c.path == "access_batch"}
    assert batch["one round trip"].detail.startswith("2 request frames, 2 reply")
    bundle = report.to_dict()
    assert bundle["passed"] and len(bundle["checks"]) == 6 * len(PATHS)
    assert "2 shard(s)" in report.summary()


def test_sharded_audit_requires_keys_per_shard():
    from repro.security.audit import run_audit

    with ShardCluster(2, in_process=True) as booted:
        dep, links = _recorded_deployment(booted)
        try:
            with pytest.raises(ConfigurationError):
                run_audit(dep, links, num_keys=3, seed=3)
        finally:
            dep.close()


def test_audit_passes_on_process_backed_shards():
    """The deployment every benchmark runs: shards in their own processes,
    whose storage this process cannot see."""
    from repro.security.audit import PATHS, run_audit

    with ShardCluster(2, in_process=False) as booted:
        dep = ShardedLblDeployment(CONFIG, booted.addresses)
        try:
            report = run_audit(dep, seed=5)
        finally:
            dep.close()
    assert report.passed, report.summary()
    unobserved = [c for c in report.checks if c.passed is None]
    assert [c.claim for c in unobserved] == ["shape identity, storage"] * len(PATHS)
    assert all(c.detail == "not observed" for c in unobserved)
    judged = [c for c in report.checks if c.passed is not None]
    assert len(judged) == 5 * len(PATHS) and all(c.passed for c in judged)
