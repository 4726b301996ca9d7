#!/usr/bin/env python
"""Quickstart: hide your read/write pattern from the storage server.

Demonstrates the public API end to end: create an LBL-ORTOA deployment,
load records, perform reads and writes, and show why the server cannot tell
them apart (identical message shapes, and storage that changes on *every*
access).

Run:  python examples/quickstart.py
"""

from repro import LblOrtoa, Request, StoreConfig


def main() -> None:
    # The §10-optimized configuration: one label per 2 plaintext bits,
    # point-and-permute so the server decrypts one ciphertext per group.
    config = StoreConfig(value_len=32, group_bits=2)
    store = LblOrtoa(config)

    store.initialize(
        {
            "alice": b"balance=100",
            "bob": b"balance=250",
        }
    )
    print("Initialized 2 records (values padded to 32 bytes).\n")

    # --- A write and a read, both one round trip -------------------------
    store.write("alice", b"balance=175")
    value = store.read("alice")
    print(f"alice after write+read: {value.rstrip(bytes(1))!r}\n")

    # --- What the server sees --------------------------------------------
    read_t = store.access(Request.read("bob"))
    write_t = store.access(Request.write("bob", config.pad(b"balance=0")))
    print("Server-visible profile of a READ vs a WRITE to the same key:")
    print(f"  rounds:          {read_t.num_rounds} vs {write_t.num_rounds}")
    print(f"  request bytes:   {read_t.request_bytes} vs {write_t.request_bytes}")
    print(f"  response bytes:  {read_t.response_bytes} vs {write_t.response_bytes}")
    print(
        "  server crypto:   "
        f"{read_t.ops_at('server').aead_dec} vs {write_t.ops_at('server').aead_dec} "
        "decryptions"
    )
    print("  -> byte-for-byte identical shape; the op type is hidden.\n")

    # --- Storage rotates on every access, read or write ------------------
    encoded = store.keychain.encode_key("bob")
    width = config.label_bits // 8

    def stored_labels() -> list[bytes]:
        blob = store.server.store.get(encoded)  # one label per group
        return [blob[i : i + width] for i in range(0, len(blob), width)]

    before = stored_labels()
    store.read("bob")
    after = stored_labels()
    changed = sum(1 for a, b in zip(before, after) if a != b)
    print(
        f"A read rotated {changed}/{len(before)} stored labels — the server's "
        "state changes identically for reads and writes."
    )

    # The proxy state is tiny: one 8-byte counter per object (§5.3.1).
    print(f"Proxy state: {store.proxy.proxy_state_bytes} bytes for 2 objects.")


if __name__ == "__main__":
    main()
