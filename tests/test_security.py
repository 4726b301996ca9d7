"""Empirical ROR-RW indistinguishability tests (paper §7 / §11).

These tests run the Figure 5 game with representative adversaries and
assert that (a) structural fingerprints are identical across operation
types, and (b) statistical adversaries get negligible advantage.
"""

import random

import pytest

from repro.core import TeeOrtoa
from repro.security.distinguisher import (
    byte_histogram_advantage,
    make_byte_mean_adversary,
    make_first_block_adversary,
    make_size_adversary,
    shape_fingerprint,
    size_advantage,
)
from repro.security.games import (
    Access,
    RorRwGame,
    ideal_lbl_output,
    real_lbl_output,
    uniform_random_accesses,
)
from repro.security.simulators import FheSimulator, LblSimulator, TeeSimulator
from repro.crypto.fhe import FheParams
from repro.types import Operation, Request, StoreConfig

CONFIG = StoreConfig(value_len=8)
KEYS = ["k0", "k1", "k2"]


def reads(n):
    return [Access(Operation.READ, KEYS[i % len(KEYS)]) for i in range(n)]


def writes(n):
    return [
        Access(Operation.WRITE, KEYS[i % len(KEYS)], bytes([i % 256]) * 8)
        for i in range(n)
    ]


# --------------------------------------------------------------------- #
# Structural checks: shapes must not depend on op types
# --------------------------------------------------------------------- #

def test_read_only_and_write_only_fingerprints_match():
    out_reads = real_lbl_output(CONFIG, reads(12))
    out_writes = real_lbl_output(CONFIG, writes(12))
    assert shape_fingerprint(out_reads) == shape_fingerprint(out_writes)


def test_real_and_ideal_fingerprints_match():
    accesses = uniform_random_accesses(KEYS, 10, 8, random.Random(3))
    real = real_lbl_output(CONFIG, accesses)
    ideal = ideal_lbl_output(CONFIG, accesses, rng=random.Random(5))
    assert shape_fingerprint(real) == shape_fingerprint(ideal)


@pytest.mark.parametrize(
    "config",
    [
        StoreConfig(value_len=8),
        StoreConfig(value_len=8, group_bits=2),
        StoreConfig(value_len=8, group_bits=2),
    ],
    ids=["y1", "y2", "y2-pnp"],
)
def test_fingerprints_match_across_optimizations(config):
    out_reads = real_lbl_output(config, reads(6))
    out_writes = real_lbl_output(config, writes(6))
    assert shape_fingerprint(out_reads) == shape_fingerprint(out_writes)
    ideal = ideal_lbl_output(config, reads(6), rng=random.Random(3))
    assert shape_fingerprint(out_reads) == shape_fingerprint(ideal)


# --------------------------------------------------------------------- #
# Statistical adversaries against LBL-ORTOA
# --------------------------------------------------------------------- #

def test_size_adversary_has_zero_advantage():
    accesses = uniform_random_accesses(KEYS, 8, 8, random.Random(7))
    real = [real_lbl_output(CONFIG, accesses) for i in range(8)]
    ideal = [ideal_lbl_output(CONFIG, accesses, rng=random.Random(i)) for i in range(8)]
    assert size_advantage(real, ideal) == 0.0


def test_byte_histogram_close_to_uniform():
    accesses = uniform_random_accesses(KEYS, 20, 8, random.Random(7))
    real = [real_lbl_output(CONFIG, accesses) for i in range(4)]
    ideal = [ideal_lbl_output(CONFIG, accesses, rng=random.Random(i)) for i in range(4)]
    assert byte_histogram_advantage(real, ideal) < 0.05


@pytest.mark.parametrize(
    "make_adversary",
    [
        lambda: make_size_adversary(10_000),
        lambda: make_byte_mean_adversary(),
        lambda: make_first_block_adversary(),
    ],
    ids=["size", "byte-mean", "repeat-prefix"],
)
def test_game_advantage_negligible(make_adversary):
    accesses = uniform_random_accesses(KEYS, 6, 8, random.Random(11))
    game = RorRwGame(
        real=lambda a: real_lbl_output(CONFIG, a),
        ideal=lambda a: ideal_lbl_output(CONFIG, a),
        rng=random.Random(13),
    )
    # With 40 fair coin flips sampling noise is ~0.16 at 1 sigma; an actual
    # leak (e.g. sizes differing) would give advantage 1.0.
    assert game.advantage(make_adversary(), accesses, rounds=40) < 0.45


def test_oracle_adversary_wins_sanity_check():
    """The game must be able to detect a *broken* scheme: give the adversary
    an oracle bit (message count parity trick) and check advantage is high.
    This guards against the game itself being vacuous."""
    game = RorRwGame(
        real=lambda a: [b"real"] * len(a),
        ideal=lambda a: [b"idea", b"l"] * len(a),  # different shape
        rng=random.Random(17),
    )
    adversary = lambda out: len(out) == 3
    assert game.advantage(adversary, reads(3), rounds=60) > 0.9


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


# --------------------------------------------------------------------- #
# The learned (linear-classifier) distinguisher
# --------------------------------------------------------------------- #

# Samples per class; half are held out.  Key material and nonces are drawn
# fresh on every run, so the held-out accuracy against a leak-free scheme
# is Binomial(64, 1/2) / 64 and the [0.2, 0.8] band below must leave a
# negligible tail: 4.6e-7 at this size (3.9 % at 12 samples per class).
_SAMPLES = 64


def test_learned_distinguisher_fails_against_lbl():
    """Real vs ideal LBL outputs: a trained classifier stays near chance."""
    from repro.security.distinguisher import learned_distinguisher_accuracy

    accesses = uniform_random_accesses(KEYS, 6, 8, random.Random(2))
    real = [
        real_lbl_output(CONFIG, accesses) for i in range(_SAMPLES)
    ]
    ideal = [
        ideal_lbl_output(CONFIG, accesses, rng=random.Random(i)) for i in range(_SAMPLES)
    ]
    accuracy = learned_distinguisher_accuracy(real, ideal)
    assert 0.2 <= accuracy <= 0.8  # chance is 0.5; wide band absorbs noise


def test_learned_distinguisher_fails_on_read_vs_write_transcripts():
    from repro.security.distinguisher import learned_distinguisher_accuracy

    read_outputs = [
        real_lbl_output(CONFIG, reads(5))
        for i in range(_SAMPLES)
    ]
    write_outputs = [
        real_lbl_output(CONFIG, writes(5))
        for i in range(_SAMPLES)
    ]
    accuracy = learned_distinguisher_accuracy(read_outputs, write_outputs)
    assert 0.2 <= accuracy <= 0.8


def test_learned_distinguisher_wins_against_a_leaky_scheme():
    """Sanity: the same classifier must crush the §1.1 leaky strawman,
    whose read and write requests differ in size."""
    from repro.core.naive import LeakyOneRound
    from repro.security.distinguisher import learned_distinguisher_accuracy
    from repro.types import Request as Req

    def transcript_bytes(is_read, seed):
        protocol = LeakyOneRound(StoreConfig(value_len=8))
        protocol.initialize({"k": b"v"})
        out = []
        for _ in range(5):
            if is_read:
                t = protocol.access(Req.read("k"))
            else:
                t = protocol.access(Req.write("k", protocol.config.pad(b"x")))
            out.append(bytes(t.request_bytes))  # size-only observation
        return out

    read_outputs = [transcript_bytes(True, i) for i in range(_SAMPLES)]
    write_outputs = [transcript_bytes(False, i) for i in range(_SAMPLES)]
    accuracy = learned_distinguisher_accuracy(read_outputs, write_outputs)
    assert accuracy > 0.9


def test_learned_distinguisher_needs_enough_samples():
    from repro.security.distinguisher import learned_distinguisher_accuracy

    with pytest.raises(ValueError):
        learned_distinguisher_accuracy([[b"x"]], [[b"y"]] * 8)
