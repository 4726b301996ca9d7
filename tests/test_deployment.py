"""Tests for the sharded functional deployment (§6.2.4)."""

import pytest

from repro.core import LblOrtoa, TwoRoundBaseline
from repro.core.deployment import ShardedDeployment
from repro.errors import ConfigurationError
from repro.types import StoreConfig

CONFIG = StoreConfig(value_len=8)


def make(num_shards=3, protocol="lbl"):
    if protocol == "lbl":
        factory = lambda: LblOrtoa(CONFIG)
    else:
        factory = lambda: TwoRoundBaseline(CONFIG)
    deployment = ShardedDeployment(CONFIG, factory, num_shards)
    deployment.initialize({f"key-{i}": bytes([i]) * 4 for i in range(30)})
    return deployment


def test_reads_after_init():
    d = make()
    for i in range(30):
        assert d.read(f"key-{i}") == CONFIG.pad(bytes([i]) * 4)


def test_writes_route_to_owning_shard():
    d = make()
    d.write("key-3", b"updated")
    assert d.read("key-3") == CONFIG.pad(b"updated")
    assert d.read("key-4") == CONFIG.pad(bytes([4]) * 4)


def test_all_shards_used():
    d = make(num_shards=3)
    sizes = d.shard_sizes()
    assert len(sizes) == 3
    assert all(size > 0 for size in sizes)
    assert sum(sizes) == 30


def test_each_shard_has_independent_keys():
    d = make(num_shards=2)
    chains = {id(shard.keychain) for shard in d.shards}
    assert len(chains) == 2
    encodings = {shard.keychain.encode_key("key-1") for shard in d.shards}
    assert len(encodings) == 2  # different master keys -> different PRFs


def test_unknown_key_rejected():
    d = make()
    with pytest.raises(ConfigurationError):
        d.read("never-initialized")


def test_single_shard_equivalent_to_plain_protocol():
    d = make(num_shards=1)
    assert d.num_shards == 1
    d.write("key-0", b"x")
    assert d.read("key-0") == CONFIG.pad(b"x")


def test_invalid_shard_count():
    with pytest.raises(ConfigurationError):
        ShardedDeployment(CONFIG, lambda: TwoRoundBaseline(CONFIG), 0)


def test_works_with_baseline_protocol_too():
    d = make(protocol="baseline")
    assert d.rounds == 2
    d.write("key-9", b"bb")
    assert d.read("key-9") == CONFIG.pad(b"bb")


def test_name_reflects_configuration():
    d = make(num_shards=3)
    assert d.name == "sharded-lbl-ortoa-x3"
