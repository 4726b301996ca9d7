#!/usr/bin/env python
"""Relational data over ORTOA (paper §8: primary-key relational access).

An e-commerce inventory table whose every read and write is operation-type
oblivious, wrapped in rollback protection (FreshnessGuard), so a malicious
warehouse-hosting provider learns neither *what* is stocked, *when* stock
changes, nor can it silently serve stale stock levels.

Run:  python examples/relational_inventory.py
"""

from repro import FreshnessGuard, LblOrtoa, ObliviousTable, Schema, StoreConfig
from repro.errors import OrtoaError
from repro.relational import IntColumn, StrColumn


def main() -> None:
    schema = Schema(
        [
            StrColumn("sku", 10),
            StrColumn("title", 24),
            IntColumn("stock", 4),
            IntColumn("price_cents", 4),
        ],
        primary_key="sku",
    )
    # FreshnessGuard widens values by 8 bytes internally for its version;
    # +1 byte for the table's liveness flag.
    protocol = FreshnessGuard(
        StoreConfig(value_len=schema.row_len + 1, group_bits=2),
        lambda cfg: LblOrtoa(cfg),
    )
    inventory = ObliviousTable("inventory", schema, protocol, capacity=32)

    inventory.insert({"sku": "SKU-001", "title": "VINTAGE LANTERN", "stock": 12, "price_cents": 1499})
    inventory.insert({"sku": "SKU-002", "title": "CERAMIC MUG SET", "stock": 40, "price_cents": 899})
    inventory.insert({"sku": "SKU-003", "title": "METAL SIGN RETRO", "stock": 3, "price_cents": 2250})
    print(f"Inserted {len(inventory)} products (each insert = 1 oblivious write).\n")

    # A sale: read stock, decrement, write back — all oblivious accesses.
    row = inventory.get("SKU-003")
    print(f"Sale of {row['title'].strip()!r}: stock {row['stock']} -> {row['stock'] - 1}")
    inventory.update("SKU-003", stock=row["stock"] - 1)

    # A stock-level report: the scan touches every slot, so the provider
    # can't tell which product was of interest.
    print("\nFull oblivious scan (provider sees every slot touched):")
    for item in sorted(inventory.scan(), key=lambda r: r["sku"]):
        print(f"  {item['sku']}: {item['title'].strip():24s} stock={item['stock']:3d}"
              f"  ${item['price_cents'] / 100:.2f}")

    # Rollback attack: the provider restores yesterday's (higher-stock)
    # ciphertext hoping to trigger an oversell.  FreshnessGuard catches it.
    inner = protocol.inner
    victim_key = None
    for slot in range(inventory.capacity):
        key = inventory._slot_key(slot)
        if inventory._slot_by_pk.get("SKU-003") == slot:
            victim_key = key
            break
    assert victim_key is not None
    encoded = inner.keychain.encode_key(victim_key)
    stale = inner.server.store.get(encoded)
    inventory.update("SKU-003", stock=0)  # the real, current state
    inner.server.store.put(encoded, stale)  # provider rolls it back
    try:
        inventory.get("SKU-003")
        print("\nRollback NOT detected — bug!")
    except OrtoaError as exc:  # LBL's label epochs catch it even before the
        # FreshnessGuard version check gets a chance
        print(f"\nProvider rollback detected before it could cause an oversell: "
              f"{type(exc).__name__}")


if __name__ == "__main__":
    main()
