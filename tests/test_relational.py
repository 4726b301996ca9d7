"""Tests for the relational facade (§8: primary-key relational data)."""

import pytest

from repro.core import LblOrtoa, TwoRoundBaseline
from repro.errors import ConfigurationError, KeyNotFoundError
from repro.relational import BytesColumn, IntColumn, ObliviousTable, Schema, StrColumn
from repro.types import StoreConfig

SCHEMA = Schema(
    [
        StrColumn("user_id", 12),
        StrColumn("name", 16),
        IntColumn("balance_cents", 8),
    ],
    primary_key="user_id",
)


def make_table(capacity=64, protocol=None):
    protocol = protocol or LblOrtoa(StoreConfig(value_len=40, group_bits=2))
    return ObliviousTable("accounts", SCHEMA, protocol, capacity=capacity)


# --------------------------------------------------------------------- #
# Schema
# --------------------------------------------------------------------- #

def test_schema_roundtrip():
    row = {"user_id": "u-1", "name": "Ada", "balance_cents": 12_345}
    assert SCHEMA.decode_row(SCHEMA.encode_row(row)) == row


def test_schema_row_len():
    assert SCHEMA.row_len == 12 + 16 + 8


def test_int_column_bounds():
    col = IntColumn("x", width=2)
    assert col.decode(col.encode(65535)) == 65535
    with pytest.raises(ConfigurationError):
        col.encode(65536)
    with pytest.raises(ConfigurationError):
        col.encode(-1)
    with pytest.raises(ConfigurationError):
        col.encode("nope")


def test_str_column_padding_and_overflow():
    col = StrColumn("s", width=4)
    assert col.encode("ab") == b"ab\x00\x00"
    assert col.decode(b"ab\x00\x00") == "ab"
    with pytest.raises(ConfigurationError):
        col.encode("toolong")
    with pytest.raises(ConfigurationError):
        col.encode(5)


def test_bytes_column_exact_width():
    col = BytesColumn("b", width=3)
    assert col.decode(col.encode(b"xyz")) == b"xyz"
    with pytest.raises(ConfigurationError):
        col.encode(b"xy")


def test_unicode_strings_roundtrip():
    col = StrColumn("s", width=12)
    assert col.decode(col.encode("héllo-λ")) == "héllo-λ"


def test_schema_validation():
    with pytest.raises(ConfigurationError):
        Schema([], primary_key="x")
    with pytest.raises(ConfigurationError):
        Schema([IntColumn("a"), IntColumn("a")], primary_key="a")
    with pytest.raises(ConfigurationError):
        Schema([IntColumn("a")], primary_key="b")
    with pytest.raises(ConfigurationError):
        IntColumn("", 4)
    with pytest.raises(ConfigurationError):
        IntColumn("x", 0)


def test_encode_row_validates_columns():
    with pytest.raises(ConfigurationError):
        SCHEMA.encode_row({"user_id": "u"})  # missing columns
    with pytest.raises(ConfigurationError):
        SCHEMA.encode_row(
            {"user_id": "u", "name": "n", "balance_cents": 1, "extra": 2}
        )
    with pytest.raises(ConfigurationError):
        SCHEMA.decode_row(b"short")


# --------------------------------------------------------------------- #
# Table CRUD
# --------------------------------------------------------------------- #

def test_insert_get():
    table = make_table()
    table.insert({"user_id": "u-1", "name": "Ada", "balance_cents": 100})
    assert table.get("u-1") == {"user_id": "u-1", "name": "Ada", "balance_cents": 100}
    assert len(table) == 1
    assert "u-1" in table


def test_update_changes_selected_columns():
    table = make_table()
    table.insert({"user_id": "u-1", "name": "Ada", "balance_cents": 100})
    updated = table.update("u-1", balance_cents=250)
    assert updated["balance_cents"] == 250
    assert table.get("u-1")["name"] == "Ada"


def test_update_rejects_pk_change_and_bad_column():
    table = make_table()
    table.insert({"user_id": "u-1", "name": "Ada", "balance_cents": 100})
    with pytest.raises(ConfigurationError):
        table.update("u-1", user_id="u-2")
    with pytest.raises(ConfigurationError):
        table.update("u-1", nonexistent=1)


def test_delete_then_missing():
    table = make_table()
    table.insert({"user_id": "u-1", "name": "Ada", "balance_cents": 100})
    table.delete("u-1")
    assert "u-1" not in table
    with pytest.raises(KeyNotFoundError):
        table.get("u-1")
    with pytest.raises(KeyNotFoundError):
        table.delete("u-1")


def test_reinsert_after_delete():
    table = make_table()
    table.insert({"user_id": "u-1", "name": "Ada", "balance_cents": 100})
    table.delete("u-1")
    table.insert({"user_id": "u-1", "name": "Ada2", "balance_cents": 7})
    assert table.get("u-1")["name"] == "Ada2"


def test_duplicate_insert_rejected():
    table = make_table()
    table.insert({"user_id": "u-1", "name": "Ada", "balance_cents": 100})
    with pytest.raises(ConfigurationError):
        table.insert({"user_id": "u-1", "name": "Eve", "balance_cents": 0})


def test_scan_returns_live_rows_only():
    table = make_table(capacity=16)
    for i in range(5):
        table.insert({"user_id": f"u-{i}", "name": f"N{i}", "balance_cents": i})
    table.delete("u-2")
    rows = sorted(table.scan(), key=lambda r: r["user_id"])
    assert [r["user_id"] for r in rows] == ["u-0", "u-1", "u-3", "u-4"]


def test_table_over_baseline_protocol():
    protocol = TwoRoundBaseline(StoreConfig(value_len=40))
    table = make_table(protocol=protocol)
    table.insert({"user_id": "u-9", "name": "Bob", "balance_cents": 5})
    assert table.get("u-9")["name"] == "Bob"


def test_value_len_capacity_check():
    protocol = LblOrtoa(StoreConfig(value_len=8))
    with pytest.raises(ConfigurationError):
        ObliviousTable("t", SCHEMA, protocol, capacity=4)


def test_server_never_sees_primary_keys():
    table = make_table(capacity=8)
    table.insert({"user_id": "secret-pk", "name": "Ada", "balance_cents": 1})
    protocol = table.protocol
    for encoded_key in protocol.server.store:
        assert b"secret-pk" not in encoded_key


def test_capacity_validation():
    with pytest.raises(ConfigurationError):
        make_table(capacity=0)


def test_get_many_batched_over_lbl():
    table = make_table()
    for i in range(4):
        table.insert({"user_id": f"u-{i}", "name": f"N{i}", "balance_cents": i * 10})
    rows = table.get_many(["u-3", "u-0", "u-2"])
    assert [r["user_id"] for r in rows] == ["u-3", "u-0", "u-2"]
    assert [r["balance_cents"] for r in rows] == [30, 0, 20]


def test_get_many_is_one_frame_over_a_tcp_shard():
    """Every LBL deployment batches: over one TCP shard a ``get_many`` is
    one dispatched frame, however many rows it fetches."""
    from repro import obs
    from repro.obs.metrics import REGISTRY
    from repro.transport import LblTcpServer, RemoteLblOrtoa

    config = StoreConfig(value_len=40, group_bits=2)
    with LblTcpServer() as server:
        server.serve_in_background()
        with RemoteLblOrtoa(config, server.address) as remote:
            table = make_table(protocol=remote)
            for i in range(4):
                table.insert({"user_id": f"u-{i}", "name": f"N{i}", "balance_cents": i})
            with obs.capture():
                for pks in (["u-3", "u-0", "u-2"], ["u-1", "u-2"]):
                    before = REGISTRY.counter("transport.requests_dispatched").value
                    rows = table.get_many(pks)
                    after = REGISTRY.counter("transport.requests_dispatched").value
                    assert after - before == 1
                    assert [r["user_id"] for r in rows] == pks


def test_get_many_over_baseline_falls_back():
    protocol = TwoRoundBaseline(StoreConfig(value_len=40))
    table = make_table(protocol=protocol)
    table.insert({"user_id": "u-1", "name": "A", "balance_cents": 1})
    table.insert({"user_id": "u-2", "name": "B", "balance_cents": 2})
    rows = table.get_many(["u-2", "u-1"])
    assert [r["name"] for r in rows] == ["B", "A"]


def test_get_many_validates_keys_up_front():
    table = make_table()
    table.insert({"user_id": "u-1", "name": "A", "balance_cents": 1})
    with pytest.raises(KeyNotFoundError):
        table.get_many(["u-1", "ghost"])
    assert table.get_many([]) == []
