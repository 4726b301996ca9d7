"""Leakage accounting tests: ORTOA leaks the access pattern (by design,
§2.3); the §8 one-round ORAM removes it."""

import random

import pytest

from repro.core.lbl import LblOrtoa
from repro.errors import ConfigurationError
from repro.oram import OneRoundOram
from repro.security.leakage import (
    analyze_observations,
    frequency_recovery_accuracy,
)
from repro.types import Request, StoreConfig
from repro.workloads.synthetic import RequestStream, WorkloadSpec

CONFIG = StoreConfig(value_len=8, group_bits=2)


# --------------------------------------------------------------------- #
# The analyzers themselves
# --------------------------------------------------------------------- #

def test_uniform_observations_have_high_entropy():
    report = analyze_observations([f"loc{i % 8}" for i in range(800)])
    assert report.distinct_locations == 8
    assert report.normalized_entropy > 0.99
    assert report.top_location_share == pytest.approx(1 / 8)


def test_skewed_observations_have_low_entropy():
    observed = ["hot"] * 90 + ["cold1", "cold2"] * 5
    report = analyze_observations(observed)
    assert report.top_location_share == 0.9
    assert report.normalized_entropy < 0.5


def test_analyzer_rejects_empty():
    with pytest.raises(ConfigurationError):
        analyze_observations([])
    with pytest.raises(ConfigurationError):
        frequency_recovery_accuracy([1], [1, 2])


def test_frequency_recovery_bounds():
    logical = ["a"] * 80 + ["b"] * 20
    assert frequency_recovery_accuracy(logical, logical) == 1.0
    flat = ["x", "y"] * 50
    assert frequency_recovery_accuracy(logical, flat) < 0.8


# --------------------------------------------------------------------- #
# ORTOA: pattern leaks (the documented non-goal)
# --------------------------------------------------------------------- #

def _zipf_requests(keys, count, seed):
    stream = RequestStream(
        WorkloadSpec(keys=tuple(keys), value_len=8, write_fraction=0.5,
                     zipf_s=1.3, seed=seed)
    )
    return stream.take(count)


def test_ortoa_server_recovers_access_skew():
    keys = [f"k{i}" for i in range(10)]
    protocol = LblOrtoa(CONFIG)
    protocol.initialize({k: bytes(8) for k in keys})
    logical = []
    observed = []
    for request in _zipf_requests(keys, 300, seed=5):
        lbl_request, _ = protocol.proxy.prepare(request)
        protocol.server.process(lbl_request)
        logical.append(request.key)
        observed.append(lbl_request.encoded_key)  # what the server sees
    # Encodings hide identities but the frequency structure survives intact.
    assert frequency_recovery_accuracy(logical, observed) == pytest.approx(1.0)
    report = analyze_observations(observed)
    assert report.normalized_entropy < 0.95  # skew visible


def test_ortoa_never_reveals_plaintext_keys():
    keys = ["alice-account", "bob-account"]
    protocol = LblOrtoa(CONFIG)
    protocol.initialize({k: bytes(8) for k in keys})
    request, _ = protocol.proxy.prepare(Request.read("alice-account"))
    assert b"alice" not in request.encoded_key


# --------------------------------------------------------------------- #
# One-round ORAM: pattern hidden
# --------------------------------------------------------------------- #

def test_oram_decorrelates_pattern():
    """Under the same Zipf skew, the ORAM's observed *path* histogram looks
    near-uniform: frequency recovery collapses toward uniform structure."""
    oram = OneRoundOram(16, 8, rng=random.Random(3))
    oram.initialize({i: bytes(8) for i in range(16)})
    rng = random.Random(7)
    logical = []
    observed_paths = []
    for _ in range(300):
        # Zipf-ish hot block: block 0 with probability ~0.5.
        block = 0 if rng.random() < 0.5 else rng.randrange(16)
        logical.append(block)
        leaf_before = oram._position[block]
        oram.read(block)
        observed_paths.append(leaf_before)  # the path the server saw

    logical_report = analyze_observations(logical)
    observed_report = analyze_observations(observed_paths)
    # The logical stream is strongly skewed; the observed paths are not.
    assert logical_report.top_location_share > 0.4
    assert observed_report.top_location_share < 0.3
    assert observed_report.normalized_entropy > logical_report.normalized_entropy
