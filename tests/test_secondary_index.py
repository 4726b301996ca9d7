"""Tests for the private secondary index (§8.2)."""

import pytest

from repro.core import LblOrtoa, TwoRoundBaseline
from repro.errors import ConfigurationError
from repro.relational import IntColumn, StrColumn
from repro.relational.index import SecondaryIndex
from repro.types import StoreConfig


def make_index(num_buckets=32, postings=4, protocol=None):
    city = StrColumn("city", 8)
    user_id = IntColumn("user_id", 4)
    entry_len = 2 + postings * (city.width + user_id.width)
    protocol = protocol or LblOrtoa(StoreConfig(value_len=entry_len, group_bits=2))
    return SecondaryIndex(
        "by-city", city, user_id, protocol,
        num_buckets=num_buckets, postings_per_bucket=postings,
    )


def test_add_lookup():
    index = make_index()
    index.add("waterloo", 1)
    index.add("waterloo", 2)
    index.add("paris", 3)
    assert sorted(index.lookup("waterloo")) == [1, 2]
    assert index.lookup("paris") == [3]


def test_lookup_missing_value_is_empty():
    index = make_index()
    index.add("waterloo", 1)
    assert index.lookup("nowhere") == []


def test_add_is_idempotent():
    index = make_index()
    index.add("waterloo", 1)
    index.add("waterloo", 1)
    assert index.lookup("waterloo") == [1]


def test_remove():
    index = make_index()
    index.add("waterloo", 1)
    index.add("waterloo", 2)
    assert index.remove("waterloo", 1) is True
    assert index.lookup("waterloo") == [2]
    assert index.remove("waterloo", 99) is False


def test_collisions_are_filtered_proxy_side():
    """Force collisions with a single bucket: lookups must still be exact."""
    index = make_index(num_buckets=1, postings=8)
    index.add("city-a", 1)
    index.add("city-b", 2)
    index.add("city-a", 3)
    assert sorted(index.lookup("city-a")) == [1, 3]
    assert index.lookup("city-b") == [2]


def test_bucket_overflow_raises():
    index = make_index(num_buckets=1, postings=2)
    index.add("x", 1)
    index.add("y", 2)
    with pytest.raises(ConfigurationError, match="overflow"):
        index.add("z", 3)


def test_entry_size_validated_against_protocol():
    tiny = LblOrtoa(StoreConfig(value_len=4))
    with pytest.raises(ConfigurationError):
        SecondaryIndex("i", StrColumn("c", 8), IntColumn("p", 4), tiny)


def test_server_sees_neither_values_nor_pks():
    index = make_index()
    index.add("waterloo", 42)
    server_store = index.protocol.server.store
    for encoded_key in server_store:
        assert b"waterloo" not in encoded_key
        assert b"waterloo" not in server_store.get(encoded_key)


def test_lookup_and_update_have_identical_wire_shape():
    """The server cannot tell an index query from an index maintenance
    write: both are ordinary ORTOA accesses to a bucket."""
    from repro.types import Request

    index = make_index()
    protocol = index.protocol
    bucket_key = index._bucket_key(index._bucket_of("waterloo"))
    read_t = protocol.access(Request.read(bucket_key))
    write_t = protocol.access(
        Request.write(bucket_key, protocol.config.pad(bytes(2)))
    )
    assert read_t.request_bytes == write_t.request_bytes
    assert read_t.response_bytes == write_t.response_bytes


def test_works_over_baseline_protocol():
    protocol = TwoRoundBaseline(StoreConfig(value_len=2 + 4 * 12))
    index = make_index(protocol=protocol)
    index.add("berlin", 7)
    assert index.lookup("berlin") == [7]


def test_validation():
    with pytest.raises(ConfigurationError):
        make_index(num_buckets=0)
    with pytest.raises(ConfigurationError):
        make_index(postings=0)
