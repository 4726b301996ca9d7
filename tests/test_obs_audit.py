"""Tests for the obliviousness checker (:mod:`repro.security.audit`): true
negatives, the leaky control, and positive controls that must fail."""

import pytest

from repro import obs
from repro.core.lbl import LblOrtoa
from repro.core.messages import LblAccessRequest
from repro.core.sharded import ShardedLblDeployment
from repro.errors import ConfigurationError, ProtocolError, RefusedError
from repro.security.audit import (
    PATHS,
    LeakyLblOrtoa,
    RecordingLink,
    histogram_distance,
    judge_requests,
    record_links,
    run_audit,
    shape_identity,
)
from repro.transport.pipeline import LocalLink
from repro.transport.server import LOAD_TAG, OBS_PULL_TAG, LblFrameDispatcher
from repro.types import Operation, Request, StoreConfig


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _pp_config(value_len: int = 16) -> StoreConfig:
    return StoreConfig(value_len=value_len, group_bits=2)


def _verdicts(report) -> dict[tuple[str, str], object]:
    return {(c.path, c.claim): c for c in report.checks}


def test_audit_passes_on_point_and_permute_lbl():
    protocol = LblOrtoa(_pp_config())
    report = run_audit(protocol, num_keys=16, seed=0)
    assert report.passed, report.summary()
    assert report.failures == []
    assert report.num_reads == report.num_writes == 8 * len(PATHS)
    checks = _verdicts(report)
    # Every path is judged on every claim, storage included: the store
    # lives in this process.
    assert len(checks) == 6 * len(PATHS)
    assert all(check.passed for check in report.checks)
    # 64 groups x 4 rows x 16 B and group 0's 4 x 16 check bytes behind a
    # 49-byte header; 64 slots of 2 bits and a 16-byte digest back.
    frames = (
        "identical support [4209 B request (256 rows x 16 B + 64 B checks), "
        "35 B reply (16 B slots + 16 B digest)]"
    )
    for path in PATHS:
        assert checks[path, "shape identity, frames"].detail == frames
        assert checks[path, "shape identity, storage"].detail == (
            "identical support [1024 B -> 1024 B, rewritten]"
        )
        # A committed access opens exactly one row per group, fails none.
        assert "aead_dec=64 kv_ops=2" in checks[path, "shape identity, proxy ops"].detail
    assert checks["access", "one round trip"].detail.startswith(
        "16 request frames, 16 reply frames for 16 accesses"
    )
    assert checks["access_batch", "one round trip"].detail.startswith(
        "1 request frames, 1 reply frames for 16 accesses"
    )


def test_audit_flags_leaky_server():
    protocol = LeakyLblOrtoa(_pp_config())
    report = run_audit(protocol, num_keys=16, seed=0, paths=("access",))
    assert not report.passed
    # Skipping the rewrite on reads leaks through storage, and nowhere else.
    (leak,) = report.failures
    assert leak.claim == "shape identity, storage"
    assert "reads saw [1024 B -> 1024 B, unchanged]" in leak.detail
    summary = report.summary()
    assert "FAIL" in summary
    assert "[LEAK]" in summary


def test_audit_restores_prior_obs_state():
    """The checker reads the link, not telemetry: it leaves capture alone."""
    obs.enable()
    run_audit(LblOrtoa(_pp_config()), num_keys=4, seed=2, paths=("access",))
    assert obs.is_enabled()
    obs.disable()
    run_audit(LblOrtoa(_pp_config()), num_keys=4, seed=3, paths=("access",))
    assert not obs.is_enabled()


def test_run_audit_rejects_tiny_workloads():
    with pytest.raises(ConfigurationError):
        run_audit(LblOrtoa(_pp_config()), num_keys=1)
    with pytest.raises(ConfigurationError):
        run_audit(LblOrtoa(_pp_config()), paths=("access_sideways",))
    with pytest.raises(ConfigurationError):
        run_audit(LblOrtoa(_pp_config()), links=[])
    two_shards = ShardedLblDeployment(_pp_config(), [LocalLink(), LocalLink()])
    with pytest.raises(ConfigurationError):
        run_audit(two_shards, num_keys=3)
    # The experiment itself needs one frame per request and both op types.
    requests = [Request.read("a"), Request.write("b", bytes(16))]
    with pytest.raises(ConfigurationError):
        judge_requests("access", _pp_config(), requests, [b"x"])
    with pytest.raises(ConfigurationError):
        judge_requests("access", _pp_config(), requests[:1] * 2, [b"x", b"y"])
    with pytest.raises(ConfigurationError):
        histogram_distance([b""], [b"x"])


def test_audit_keys_do_not_depend_on_the_keychain():
    """Where a key lands is a hash under the deployment's random keychain,
    so the audit draws names until every shard holds its quota: 2 keys per
    shard always run, whatever the keychain."""
    for seed in range(10):
        deployment = ShardedLblDeployment(_pp_config(), [LocalLink(), LocalLink()])
        report = run_audit(deployment, num_keys=4, seed=seed)
        assert report.passed, report.summary()
        assert report.num_reads == report.num_writes == 2 * len(PATHS)


def test_audit_observations_needs_both_op_types():
    only_reads = [(Operation.READ, 1) for _ in range(3)]
    with pytest.raises(ConfigurationError):
        shape_identity("access", "shape identity, storage", only_reads)


def test_audit_observations_detects_support_mismatch():
    check = shape_identity(
        "access", "shape identity, storage", [(Operation.READ, 0), (Operation.WRITE, 1)]
    )
    assert check.passed is False
    assert check.detail == "reads saw [0], writes saw [1]"


def test_audit_observations_mean_tolerance():
    """There is no tolerance: one read with one more decryption attempt
    than every write is a distinguisher."""
    views = [(Operation.READ, 10), (Operation.WRITE, 10)]
    assert shape_identity("access", "ops", views).passed
    check = shape_identity("access", "ops", views + [(Operation.READ, 11)])
    assert check.passed is False
    assert check.detail == "reads saw [10; 11], writes saw [10]"


def test_unobserved_feature_is_reported_not_passed():
    views = [(Operation.READ, None), (Operation.WRITE, None)]
    check = shape_identity("access", "shape identity, storage", views)
    assert check.passed is None
    assert check.detail == "not observed"


def test_report_to_dict_round_trips():
    protocol = LeakyLblOrtoa(_pp_config())
    report = run_audit(protocol, num_keys=8, seed=0, paths=("access",))
    data = report.to_dict()
    assert data["passed"] is False
    assert data["protocol"] == "lbl-ortoa-leaky"
    assert data["num_reads"] + data["num_writes"] == 8
    assert any(c["passed"] is False for c in data["checks"])
    assert all({"path", "claim", "passed", "detail"} <= set(c) for c in data["checks"])


def test_leaky_protocol_still_functionally_correct_for_single_access():
    """The negative control only breaks *storage*, not the returned value."""
    protocol = LeakyLblOrtoa(_pp_config(value_len=8))
    protocol.initialize({"k": b"secret"})
    assert protocol.read("k").rstrip(b"\x00") == b"secret"


# --------------------------------------------------------------------- #
# The recording link
# --------------------------------------------------------------------- #


def test_recording_link_sees_one_frame_per_access_and_per_batch():
    store = LblOrtoa(_pp_config())
    (link,) = record_links(store)
    store.initialize({f"k{i}": b"" for i in range(4)})
    assert [frame.request[0] for frame in link.frames] == [LOAD_TAG] * 4
    del link.frames[:]
    store.access(Request.read("k0"))
    store.access_batch([Request.read(f"k{i}") for i in range(4)])
    single, batch = link.frames
    assert len(single.request) == 4209 and len(single.reply) == 35
    assert len(single.storage) == 1 and len(batch.storage) == 4
    assert all(changed for _before, _after, changed in batch.storage)


def test_recording_link_passes_a_refusal_through():
    link = RecordingLink(LocalLink())
    with pytest.raises(RefusedError):
        link.submit(b"\x20garbage").result()
    (frame,) = link.frames
    assert frame.reply is None and frame.storage == []


# --------------------------------------------------------------------- #
# Positive controls: each must fail the checker
# --------------------------------------------------------------------- #


class _TwoTripLink:
    """Sends an obs-pull frame ahead of every frame but a LOAD: two round
    trips per access."""

    def __init__(self, link) -> None:
        self.link = link

    def submit(self, payload, trace_context=None):
        if payload[0] != LOAD_TAG:
            self.link.submit(bytes([OBS_PULL_TAG])).result()
        return self.link.submit(payload, trace_context)

    def close(self) -> None:
        self.link.close()


def test_an_extra_frame_per_access_fails_one_round_trip():
    recorder = RecordingLink(LocalLink())
    deployment = ShardedLblDeployment(_pp_config(), [_TwoTripLink(recorder)])
    report = run_audit(deployment, [recorder], num_keys=8, seed=0)
    assert not report.passed
    checks = _verdicts(report)
    for path in PATHS:
        assert checks[path, "one round trip"].passed is False
        assert checks[path, "ROR-RW"].detail == (
            "frames do not pair one-to-one with accesses"
        )
    assert checks["access", "one round trip"].detail.startswith(
        "16 request frames, 16 reply frames for 8 accesses"
    )


class _PadDroppingDispatcher(LblFrameDispatcher):
    """A shard that accepts a frame with one pad byte and drops the byte."""

    def dispatch(self, payload: bytes) -> bytes:
        try:
            return super().dispatch(payload)
        except ProtocolError:
            return super().dispatch(payload[:-1])


class _PadPuts:
    """Pads each PUT's frame by one byte, told the op out of band as
    :class:`LeakyLblOrtoa`'s server is."""

    def __init__(self, link) -> None:
        self.link = link
        self.put = False

    def submit(self, payload, trace_context=None):
        return self.link.submit(payload + b"\x00" * self.put, trace_context)

    def close(self) -> None:
        self.link.close()


class _PaddedPutOrtoa(ShardedLblDeployment):
    def __init__(self, config: StoreConfig) -> None:
        self.recorder = RecordingLink(LocalLink(_PadDroppingDispatcher()))
        self.padder = _PadPuts(self.recorder)
        super().__init__(config, [self.padder])

    def access(self, request: Request):
        self.padder.put = request.op.is_write
        return super().access(request)


def test_a_put_padded_by_one_byte_fails_shape_identity():
    deployment = _PaddedPutOrtoa(_pp_config())
    report = run_audit(deployment, [deployment.recorder], paths=("access",))
    assert not report.passed
    checks = _verdicts(report)
    assert checks["access", "one round trip"].passed
    frames = checks["access", "shape identity, frames"]
    assert frames.passed is False
    assert "writes saw [4210 B request" in frames.detail
    assert checks["access", "ROR-RW"].passed is False  # sizes differ too
    # The pad is no valid request: the padded frames really were sent.
    assert any(
        len(frame.request) == 4210 and frame.request[0] == LblAccessRequest.TAG
        for frame in deployment.recorder.frames
    )
