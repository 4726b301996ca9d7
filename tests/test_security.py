"""ROR-RW indistinguishability tests (paper §7 / §11).

The Figure 5 experiment runs in one place, :func:`repro.security.audit.run_audit`
(:func:`~repro.security.audit.judge_requests` for frames recorded by hand).
These tests assert that (a) structural fingerprints are identical across
operation types, (b) the byte-histogram bound derived from the sample
raises no false alarm on honest frames and catches biased ones, and (c)
the exact checks that replaced the game's adversaries have no edge on the
honest stack and fail the controls.
"""

import random

import pytest

from repro.core import TeeOrtoa
from repro.core.lbl import LblOrtoa
from repro.core.messages import LblAccessRequest
from repro.core.naive import LeakyOneRound
from repro.crypto.fhe import FheParams
from repro.security.audit import (
    PATHS,
    fresh_rows,
    histogram_bound,
    histogram_distance,
    judge_requests,
    record_links,
    run_audit,
    shape_fingerprint,
    shape_identity,
    size_advantage,
)
from repro.security.simulators import FheSimulator, LblSimulator, TeeSimulator
from repro.types import Request, StoreConfig

CONFIG = StoreConfig(value_len=8)
KEYS = ["k0", "k1", "k2"]


def reads(n):
    return [Request.read(KEYS[i % len(KEYS)]) for i in range(n)]


def writes(n):
    return [Request.write(KEYS[i % len(KEYS)], bytes([i % 256]) * 8) for i in range(n)]


def mixed(count, seed):
    """The workload of §6: uniform keys, uniform read/write coin."""
    rng = random.Random(seed)
    return [
        Request.read(key) if rng.random() < 0.5 else Request.write(key, rng.randbytes(8))
        for key in (rng.choice(KEYS) for _ in range(count))
    ]


def sent(config, requests):
    """The request frames an :class:`LblOrtoa` sent its shard for ``requests``."""
    store = LblOrtoa(config)
    (link,) = record_links(store)
    store.initialize({request.key: b"" for request in requests})
    loaded = len(link.frames)
    for request in requests:
        store.access(request)
    return [frame.request for frame in link.frames[loaded:]]


def simulated(config, requests, seed):
    simulator = LblSimulator(config, rng=random.Random(seed))
    return [simulator.simulate(request.key).to_bytes() for request in requests]


def _balanced(num_keys):
    return [
        Request.read(f"k{i}") if i % 2 else Request.write(f"k{i}", bytes(16))
        for i in range(num_keys)
    ]


# --------------------------------------------------------------------- #
# Structural checks: shapes must not depend on op types
# --------------------------------------------------------------------- #

def test_read_only_and_write_only_fingerprints_match():
    assert shape_fingerprint(sent(CONFIG, reads(12))) == shape_fingerprint(
        sent(CONFIG, writes(12))
    )


def test_real_and_ideal_fingerprints_match():
    requests = mixed(10, seed=3)
    real = sent(CONFIG, requests)
    assert shape_fingerprint(real) == shape_fingerprint(simulated(CONFIG, requests, 5))


@pytest.mark.parametrize(
    "config",
    [StoreConfig(value_len=8), StoreConfig(value_len=8, group_bits=2)],
    ids=["y1", "y2"],
)
def test_fingerprints_match_across_optimizations(config):
    report = run_audit(LblOrtoa(config), seed=3)
    assert report.passed, report.summary()
    checks = {(c.path, c.claim): c for c in report.checks}
    for path in PATHS:
        assert checks[path, "shape identity, frames"].passed
        assert checks[path, "ROR-RW"].detail.startswith(
            "shape fingerprint equal, size advantage 0.0,"
        )


# --------------------------------------------------------------------- #
# The exact checks and the histogram statistic against LBL-ORTOA
# --------------------------------------------------------------------- #

def test_size_adversary_has_zero_advantage():
    requests = mixed(8, seed=7)
    real = [sent(CONFIG, requests) for _ in range(8)]
    ideal = [simulated(CONFIG, requests, seed) for seed in range(8)]
    assert size_advantage(real, ideal) == 0.0


def test_byte_histogram_close_to_uniform():
    requests = mixed(20, seed=7)
    real = [frame for _ in range(4) for frame in sent(CONFIG, requests)]
    ideal = [frame for seed in range(4) for frame in simulated(CONFIG, requests, seed)]
    bound = histogram_bound(sum(map(len, real)), sum(map(len, ideal)))
    assert histogram_distance(real, ideal) < bound


@pytest.mark.parametrize("adversary", ["size", "byte-mean", "repeat-prefix"])
def test_game_advantage_negligible(adversary):
    """Each adversary of the old coin-flip game is now a check on the
    recorded frames, and none of them has an edge on the honest stack.  The
    byte mean is a linear function of the byte histogram, so the histogram
    check stands for it."""
    requests = mixed(6, seed=11)
    real = sent(CONFIG, requests)
    ideal = simulated(CONFIG, requests, 13)
    if adversary == "size":
        assert size_advantage([real], [ideal]) == 0.0
    elif adversary == "byte-mean":
        bound = histogram_bound(sum(map(len, real)), sum(map(len, ideal)))
        assert histogram_distance(real, ideal) < bound
    else:
        assert fresh_rows("access", real + ideal).passed


def test_oracle_adversary_wins_sanity_check():
    """The experiment must be able to detect a *broken* scheme: frames whose
    shape differs from the simulator's fail ROR-RW.  This guards against
    the experiment itself being vacuous."""
    requests = reads(2) + writes(1)
    ror_rw, _fresh = judge_requests("access", CONFIG, requests, [b"real"] * 3)
    assert ror_rw.passed is False
    assert ror_rw.detail.startswith("shape fingerprint differs, size advantage 1.0,")


# --------------------------------------------------------------------- #
# The derived histogram bound: false alarms and power
# --------------------------------------------------------------------- #

_POINT = StoreConfig(value_len=16, group_bits=2)


def test_histogram_bound_matches_its_closed_form():
    # 32 requests of 4209 B each side: 0.031 (mean) + 0.010 (tail at 1e-6).
    n = 32 * 4209
    assert histogram_bound(n, n) == pytest.approx(0.0410, abs=5e-5)
    assert histogram_bound(n // 4, n // 4) == pytest.approx(0.0819, abs=5e-5)
    assert histogram_bound(n // 8, n // 8) == pytest.approx(0.1158, abs=5e-5)


@pytest.mark.parametrize("num_keys", [4, 8, 32])
def test_simulator_against_the_simulator_stays_under_the_bound(num_keys):
    requests = _balanced(num_keys)
    for seed in range(20):
        frames = simulated(_POINT, requests, 1000 + seed)
        ror_rw, fresh = judge_requests("access", _POINT, requests, frames, seed)
        assert ror_rw.passed and fresh.passed, ror_rw.detail


@pytest.mark.parametrize("num_keys", [4, 8, 32])
def test_honest_lbl_stays_under_the_bound(num_keys):
    """Real against the simulator and reads against writes, on every path."""
    for seed in range(20):
        report = run_audit(LblOrtoa(_POINT), num_keys=num_keys, seed=seed)
        assert report.passed, report.summary()


def _biased(frame: bytes) -> bytes:
    """``frame`` with a tenth of its slab bytes zeroed: a broken keystream."""
    slab = len(LblAccessRequest.from_bytes(frame).slab)
    biased = bytearray(frame)
    for position in range(len(frame) - slab, len(frame), 10):
        biased[position] = 0
    return bytes(biased)


def test_biased_bytes_fail_the_histogram_bound():
    requests = _balanced(32)
    honest = sent(_POINT, requests)
    assert all(check.passed for check in judge_requests("access", _POINT, requests, honest))
    biased = [_biased(frame) for frame in honest]
    ror_rw, fresh = judge_requests("access", _POINT, requests, biased)
    assert ror_rw.passed is False and fresh.passed
    # The shape is untouched: only the statistic sees the bias.
    assert ror_rw.detail.startswith("shape fingerprint equal, size advantage 0.0,")
    ideal = simulated(_POINT, requests, 0)
    n = sum(map(len, biased))
    assert histogram_distance(biased, ideal) > 2 * histogram_bound(n, n)
    # Biased writes alone: the read/write split sees them.
    read_frames = [f for f, r in zip(honest, requests) if r.op.is_read]
    write_frames = [_biased(f) for f, r in zip(honest, requests) if r.op.is_write]
    bound = histogram_bound(sum(map(len, read_frames)), sum(map(len, write_frames)))
    assert histogram_distance(read_frames, write_frames) > bound


# --------------------------------------------------------------------- #
# The §1.1 strawman: exact shape identity catches it
# --------------------------------------------------------------------- #

def test_leaky_one_round_fails_shape_identity():
    """Its read and write requests differ in size, which the exact check
    sees with no sample to learn from."""
    protocol = LeakyOneRound(StoreConfig(value_len=8))
    protocol.initialize({"k": b"v"})
    transcripts = [protocol.access(Request.read("k")) for _ in range(5)]
    transcripts += [
        protocol.access(Request.write("k", protocol.config.pad(b"x"))) for _ in range(5)
    ]
    check = shape_identity(
        "access", "request size", [(t.op, t.request_bytes) for t in transcripts]
    )
    assert check.passed is False


# --------------------------------------------------------------------- #
# TEE and FHE simulators: shape parity with the real protocols
# --------------------------------------------------------------------- #

def test_tee_simulator_matches_real_request_sizes():
    protocol = TeeOrtoa(CONFIG)
    protocol.initialize({"k": b"v"})
    real_read = protocol.access(Request.read("k"))
    real_write = protocol.access(Request.write("k", CONFIG.pad(b"x")))
    sim = TeeSimulator(CONFIG)
    sim_size = len(sim.simulate("k").to_bytes())
    assert real_read.round_trips[0].request_bytes == sim_size
    assert real_write.round_trips[0].request_bytes == sim_size


def test_fhe_simulator_matches_fresh_request_sizes():
    from repro.core import FheOrtoa

    params = FheParams(n=32, q_bits=160)
    protocol = FheOrtoa(CONFIG, fhe_params=params)
    protocol.initialize({"k": b"v"})
    real = protocol.access(Request.read("k"))
    sim = FheSimulator(CONFIG, fhe_params=params)
    assert len(sim.simulate("k").to_bytes()) == real.round_trips[0].request_bytes


def test_lbl_simulator_state_rotates():
    sim = LblSimulator(CONFIG, rng=random.Random(1))
    first = sim.simulate("k").to_bytes()
    second = sim.simulate("k").to_bytes()
    assert first != second
    assert len(first) == len(second)
