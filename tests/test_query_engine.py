"""Tests for the query layer (plan selection + index maintenance)."""

import pytest

from repro.core import LblOrtoa
from repro.errors import ConfigurationError
from repro.relational import IntColumn, ObliviousTable, Schema, SecondaryIndex, StrColumn
from repro.relational.query import QueryEngine
from repro.types import StoreConfig

SCHEMA = Schema(
    [
        StrColumn("user_id", 8),
        StrColumn("city", 8),
        IntColumn("age", 2),
    ],
    primary_key="user_id",
)


def make_engine(with_index=True):
    table_protocol = LblOrtoa(StoreConfig(value_len=SCHEMA.row_len + 1, group_bits=2))
    table = ObliviousTable("users", SCHEMA, table_protocol, capacity=32)
    indexes = {}
    if with_index:
        city_col = SCHEMA.column("city")
        pk_col = SCHEMA.column("user_id")
        entry_len = 2 + 6 * (city_col.width + pk_col.width)
        index_protocol = LblOrtoa(StoreConfig(value_len=entry_len, group_bits=2))
        indexes["city"] = SecondaryIndex(
            "users-by-city", city_col, pk_col, index_protocol,
            num_buckets=16, postings_per_bucket=6,
        )
    engine = QueryEngine(table, indexes)
    for i, city in enumerate(["waterloo", "paris", "waterloo", "berlin"]):
        engine.insert({"user_id": f"u{i}", "city": city, "age": 20 + i})
    return engine


# --------------------------------------------------------------------- #
# Plan selection
# --------------------------------------------------------------------- #

def test_explain_picks_cheapest_plan():
    engine = make_engine()
    assert engine.explain("user_id").strategy == "primary-key"
    assert engine.explain("city").strategy == "secondary-index"
    assert engine.explain("age").strategy == "full-scan"
    assert engine.explain("city").uses_index
    assert not engine.explain("age").uses_index


def test_explain_rejects_unknown_column():
    with pytest.raises(ConfigurationError):
        make_engine().explain("nonexistent")


# --------------------------------------------------------------------- #
# Queries
# --------------------------------------------------------------------- #

def test_primary_key_query():
    engine = make_engine()
    rows = engine.where("user_id", "u1")
    assert len(rows) == 1 and rows[0]["city"] == "paris"
    assert engine.where("user_id", "ghost") == []


def test_indexed_query():
    engine = make_engine()
    rows = engine.where("city", "waterloo")
    assert sorted(r["user_id"] for r in rows) == ["u0", "u2"]
    assert engine.where("city", "atlantis") == []


def test_scan_query():
    engine = make_engine()
    rows = engine.where("age", 22)
    assert [r["user_id"] for r in rows] == ["u2"]


def test_index_and_scan_agree():
    """The indexed plan must return exactly what a full scan returns."""
    engine = make_engine()
    via_index = sorted(r["user_id"] for r in engine.where("city", "waterloo"))
    via_scan = sorted(
        r["user_id"] for r in engine.table.scan() if r["city"] == "waterloo"
    )
    assert via_index == via_scan


# --------------------------------------------------------------------- #
# Index maintenance through mutations
# --------------------------------------------------------------------- #

def test_delete_removes_postings():
    engine = make_engine()
    engine.delete("u0")
    assert sorted(r["user_id"] for r in engine.where("city", "waterloo")) == ["u2"]


def test_update_migrates_postings():
    engine = make_engine()
    engine.update("u1", city="waterloo")
    assert sorted(r["user_id"] for r in engine.where("city", "waterloo")) == [
        "u0", "u1", "u2",
    ]
    assert engine.where("city", "paris") == []


def test_update_of_unindexed_column_leaves_index_alone():
    engine = make_engine()
    engine.update("u0", age=99)
    assert sorted(r["user_id"] for r in engine.where("city", "waterloo")) == [
        "u0", "u2",
    ]


def test_engine_without_indexes_scans():
    engine = make_engine(with_index=False)
    assert engine.explain("city").strategy == "full-scan"
    rows = engine.where("city", "paris")
    assert [r["user_id"] for r in rows] == ["u1"]


def test_engine_validates_index_columns_early():
    engine = make_engine(with_index=False)
    bogus_index = object()
    with pytest.raises(ConfigurationError):
        QueryEngine(engine.table, {"not-a-column": bogus_index})  # type: ignore[dict-item]
