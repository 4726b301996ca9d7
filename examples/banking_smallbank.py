#!/usr/bin/env python
"""Banking scenario (paper §1 and §6.4): hide *when* customers transact.

The paper's motivating example: even with balances encrypted, an adversary
that can tell writes from reads learns when a user transacted.  This example
runs a SmallBank-style workload (50-byte account records) through all three
practical protocols and shows that (a) functionality is identical, and
(b) for ORTOA the adversary's view of a balance check is the same as a
purchase.

Run:  python examples/banking_smallbank.py
"""

import random

from repro import LblOrtoa, Request, StoreConfig, TeeOrtoa, TwoRoundBaseline
from repro.workloads import build_dataset


def adversary_view(protocol, request):
    """What the honest-but-curious server observes for one request."""
    transcript = protocol.access(request)
    return {
        "rounds": transcript.num_rounds,
        "request_bytes": transcript.request_bytes,
        "response_bytes": transcript.response_bytes,
        "server_puts": transcript.ops_at("server").kv_ops,
    }


def main() -> None:
    config = StoreConfig(value_len=50, group_bits=2)
    accounts = build_dataset("smallbank", num_objects=64, seed=7)
    customers = list(accounts)

    protocols = {
        "2RTT baseline": TwoRoundBaseline(StoreConfig(value_len=50)),
        "TEE-ORTOA": TeeOrtoa(StoreConfig(value_len=50)),
        "LBL-ORTOA": LblOrtoa(config),
    }
    for protocol in protocols.values():
        protocol.initialize(accounts)

    alice = customers[0]
    print(f"Customer record ({alice[:16]}…):")
    print(f"  {accounts[alice].rstrip(bytes(1))!r}\n")

    # A balance check (read) vs a purchase (write), per protocol.
    purchase = StoreConfig(value_len=50).pad(b"C000000009900S000000500000A9999999999R123456789")
    for name, protocol in protocols.items():
        check = adversary_view(protocol, Request.read(alice))
        buy = adversary_view(protocol, Request.write(alice, purchase))
        same = check == buy
        print(f"{name}:")
        print(f"  balance check -> {check}")
        print(f"  purchase      -> {buy}")
        print(f"  indistinguishable to the server: {same}")
        print(f"  round trips per operation: {check['rounds']}\n")

    # Functional check: all protocols agree after a mixed workload.
    rng = random.Random(3)
    for _ in range(25):
        customer = rng.choice(customers)
        if rng.random() < 0.4:
            new_balance = StoreConfig(value_len=50).pad(rng.randbytes(20))
            for protocol in protocols.values():
                protocol.write(customer, new_balance)
        else:
            values = {name: p.read(customer) for name, p in protocols.items()}
            assert len(set(values.values())) == 1, "protocols diverged!"
    print("25 mixed operations: all three protocols returned identical data.")
    print("ORTOA did it in half the round trips of the baseline.")


if __name__ == "__main__":
    main()
