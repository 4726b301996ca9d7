"""Tests for PathORAM and the one-round ORTOA-based ORAM (§8)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.oram import OneRoundOram, PathOram, TreeConfig
from repro.types import Operation


# --------------------------------------------------------------------- #
# Tree geometry
# --------------------------------------------------------------------- #

def test_tree_counts():
    tree = TreeConfig(height=3, bucket_size=4)
    assert tree.num_leaves == 8
    assert tree.num_levels == 4
    assert tree.num_buckets == 15
    assert tree.capacity == 60


def test_path_runs_root_to_leaf():
    tree = TreeConfig(height=2)
    assert tree.path_buckets(0) == [0, 1, 3]
    assert tree.path_buckets(3) == [0, 2, 6]


def test_paths_share_root():
    tree = TreeConfig(height=3)
    for leaf in range(tree.num_leaves):
        assert tree.path_buckets(leaf)[0] == 0
        assert len(tree.path_buckets(leaf)) == tree.num_levels


def test_paths_intersect_at():
    tree = TreeConfig(height=2)
    assert tree.paths_intersect_at(0, 3, 0)      # root always shared
    assert tree.paths_intersect_at(0, 1, 1)      # same left subtree
    assert not tree.paths_intersect_at(0, 3, 1)  # different subtrees
    assert not tree.paths_intersect_at(0, 1, 2)  # different leaves


def test_for_blocks_sizing():
    tree = TreeConfig.for_blocks(100, bucket_size=4)
    assert tree.num_leaves * tree.bucket_size >= 100


def test_tree_validation():
    with pytest.raises(ConfigurationError):
        TreeConfig(height=0)
    with pytest.raises(ConfigurationError):
        TreeConfig(height=2).path_buckets(99)
    with pytest.raises(ConfigurationError):
        TreeConfig(height=2).bucket_at(0, 9)


# --------------------------------------------------------------------- #
# Shared ORAM behaviour
# --------------------------------------------------------------------- #

def make_oram(kind, num_blocks=16, value_len=8, seed=11):
    rng = random.Random(seed)
    if kind == "path":
        oram = PathOram(num_blocks, value_len, rng=rng)
    else:
        oram = OneRoundOram(num_blocks, value_len, rng=rng)
    oram.initialize({i: bytes([i]) * value_len for i in range(num_blocks)})
    return oram


@pytest.fixture(params=["path", "one-round"])
def oram(request):
    return make_oram(request.param)


def test_reads_return_initial_values(oram):
    for block_id in range(oram.num_blocks):
        assert oram.read(block_id) == bytes([block_id]) * 8


def test_write_then_read(oram):
    oram.write(3, b"updated!")
    assert oram.read(3) == b"updated!"
    assert oram.read(4) == bytes([4]) * 8


def test_random_workload_matches_dict(oram):
    rng = random.Random(5)
    reference = {i: bytes([i]) * 8 for i in range(oram.num_blocks)}
    for _ in range(80):
        block = rng.randrange(oram.num_blocks)
        if rng.random() < 0.5:
            value = rng.randbytes(8)
            reference[block] = value
            oram.write(block, value)
        else:
            assert oram.read(block) == reference[block]


def test_access_returns_pre_write_value(oram):
    before = oram.read(7)
    returned = oram.access(Operation.WRITE, 7, b"xxxxxxxx")
    assert returned == before


def test_invalid_access_rejected(oram):
    with pytest.raises(ConfigurationError):
        oram.read(999)
    with pytest.raises(ConfigurationError):
        oram.access(Operation.WRITE, 0, b"short")


# --------------------------------------------------------------------- #
# The round-count contrast — the point of §8
# --------------------------------------------------------------------- #

def test_path_oram_uses_two_rounds_per_access():
    oram = make_oram("path")
    before = oram.rounds_used
    oram.read(0)
    assert oram.rounds_used == before + 2
    oram.write(1, b"abcdefgh")
    assert oram.rounds_used == before + 4


def test_one_round_oram_uses_one_round_per_access():
    oram = make_oram("one-round")
    before = oram.rounds_used
    oram.read(0)
    assert oram.rounds_used == before + 1
    oram.write(1, b"abcdefgh")
    assert oram.rounds_used == before + 2


def test_oram_comparison_runs_each_scheme():
    """``repro run oram``'s rows: 2 rounds per PathORAM access, 1 per
    one-round and linear-scan access."""
    from repro.harness.experiments import oram_comparison

    rows = {row["scheme"]: row for row in oram_comparison(num_blocks=8, accesses=5)}
    assert {name: row["rounds_per_access"] for name, row in rows.items()} == {
        "path-oram": 2.0, "one-round-oram": 1.0, "linear-scan": 1.0,
    }


def test_one_round_touches_one_cell_per_level():
    oram = make_oram("one-round")
    before = oram.cells.server.store.get_count
    oram.read(0)
    # Server does 2 KV ops (get+put) per cell access, one cell per level.
    gets = oram.cells.server.store.get_count - before
    assert gets == oram.tree.num_levels


def test_one_round_eviction_keeps_stash_bounded():
    oram = make_oram("one-round", num_blocks=24, seed=3)
    rng = random.Random(9)
    for _ in range(150):
        oram.read(rng.randrange(24))
    # Continuous eviction must keep the stash well below total blocks.
    assert len(oram.stash) < 24 // 2


def test_path_oram_stash_bounded():
    oram = make_oram("path", num_blocks=24, seed=3)
    rng = random.Random(9)
    for _ in range(150):
        oram.read(rng.randrange(24))
    assert oram.stash.max_occupancy < 24


def test_position_map_remaps_on_access(oram):
    rng_state = [oram._position[0]]
    for _ in range(12):
        oram.read(0)
        rng_state.append(oram._position[0])
    assert len(set(rng_state)) > 1


def test_bytes_transferred_accumulates(oram):
    before = oram.bytes_transferred
    oram.read(0)
    assert oram.bytes_transferred > before


def test_oram_capacity_validation():
    with pytest.raises(ConfigurationError):
        PathOram(1000, 8, tree=TreeConfig(height=1, bucket_size=1))
    with pytest.raises(ConfigurationError):
        OneRoundOram(0, 8)


@given(
    ops=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=7),
            st.one_of(st.none(), st.binary(min_size=4, max_size=4)),
        ),
        min_size=1,
        max_size=25,
    )
)
@settings(max_examples=15, deadline=None)
def test_one_round_oram_correctness_property(ops):
    oram = OneRoundOram(8, 4, rng=random.Random(2))
    oram.initialize({i: bytes([i]) * 4 for i in range(8)})
    reference = {i: bytes([i]) * 4 for i in range(8)}
    for block, value in ops:
        if value is None:
            assert oram.read(block) == reference[block]
        else:
            oram.write(block, value)
            reference[block] = value
