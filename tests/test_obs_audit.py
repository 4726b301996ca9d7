"""Tests for the obliviousness auditor: true negatives and the leaky control."""

import pytest

from repro import obs
from repro.core.lbl import LblOrtoa
from repro.errors import ConfigurationError
from repro.obs.audit import (
    LeakyLblOrtoa,
    ServerObservation,
    audit_observations,
    observations_from_spans,
    run_audit,
)
from repro.types import Operation, StoreConfig


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _pp_config(value_len: int = 16) -> StoreConfig:
    return StoreConfig(value_len=value_len, group_bits=2)


def test_audit_passes_on_point_and_permute_lbl():
    protocol = LblOrtoa(_pp_config())
    report = run_audit(protocol, num_keys=16, seed=0)
    assert report.passed, report.summary()
    assert report.num_reads == 8
    assert report.num_writes == 8
    # Every exact feature that was observed passed with identical support.
    assert report.failures == []
    # A committed access opens exactly one row per group and fails none, so
    # the decrypt counts are compared exactly, in the span and the ledger.
    groups = protocol.proxy.codec.num_groups
    details = {c.feature: c.detail for c in report.checks}
    assert details["decrypt_attempts"] == f"identical support [{groups}]"
    assert details["failed_decrypts"] == "identical support [0]"
    assert f"('aead.decrypts', {groups})" in details["ledger.ops"]


def test_audit_flags_leaky_server():
    protocol = LeakyLblOrtoa(_pp_config())
    report = run_audit(protocol, num_keys=16, seed=0)
    assert not report.passed
    leaked = {c.feature for c in report.failures}
    # Skipping the rewrite on reads leaks through the storage-side features.
    assert "storage_writes" in leaked
    assert "labels_rewritten" in leaked
    summary = report.summary()
    assert "FAIL" in summary
    assert "[LEAK]" in summary


def test_audit_restores_prior_obs_state():
    obs.enable()
    run_audit(LblOrtoa(_pp_config()), num_keys=4, seed=2)
    assert obs.is_enabled()
    obs.disable()
    run_audit(LblOrtoa(_pp_config()), num_keys=4, seed=3)
    assert not obs.is_enabled()


def test_run_audit_rejects_tiny_workloads():
    with pytest.raises(ConfigurationError):
        run_audit(LblOrtoa(_pp_config()), num_keys=1)


def test_observations_from_spans_checks_lengths():
    with pytest.raises(ConfigurationError):
        observations_from_spans([], [Operation.READ])


def test_audit_observations_needs_both_op_types():
    only_reads = [
        ServerObservation(Operation.READ, {"storage_writes": 1}) for _ in range(3)
    ]
    with pytest.raises(ConfigurationError):
        audit_observations(only_reads)


def test_audit_observations_detects_support_mismatch():
    observations = [
        ServerObservation(Operation.READ, {"storage_writes": 0}),
        ServerObservation(Operation.WRITE, {"storage_writes": 1}),
    ]
    report = audit_observations(observations)
    assert not report.passed
    (failure,) = report.failures
    assert failure.feature == "storage_writes"
    assert "reads saw [0]" in failure.detail


def test_audit_observations_mean_tolerance():
    """There is no tolerance any more: one read with one more decryption
    attempt than every write is a distinguisher."""
    def obs_with_attempts(op, n):
        return ServerObservation(op, {"decrypt_attempts": n})

    observations = [
        obs_with_attempts(Operation.READ, 10),
        obs_with_attempts(Operation.WRITE, 10),
    ]
    assert audit_observations(observations).passed
    report = audit_observations(observations + [obs_with_attempts(Operation.READ, 11)])
    assert not report.passed
    (failure,) = report.failures
    assert failure.feature == "decrypt_attempts"
    assert failure.detail == "reads saw [10, 11], writes saw [10]"


def test_report_to_dict_round_trips():
    protocol = LeakyLblOrtoa(_pp_config())
    report = run_audit(protocol, num_keys=8, seed=0)
    data = report.to_dict()
    assert data["passed"] is False
    assert data["num_reads"] + data["num_writes"] == 8
    assert any(not c["passed"] for c in data["checks"])
    assert all({"feature", "passed", "detail"} <= set(c) for c in data["checks"])


def test_leaky_protocol_still_functionally_correct_for_single_access():
    """The negative control only breaks *storage*, not the returned value."""
    protocol = LeakyLblOrtoa(_pp_config(value_len=8))
    protocol.initialize({"k": b"secret"})
    assert protocol.read("k").rstrip(b"\x00") == b"secret"
