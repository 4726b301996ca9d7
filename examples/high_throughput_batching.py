#!/usr/bin/env python
"""Squeezing throughput out of LBL-ORTOA: batching + concurrency + advisor.

Three operational tools this library adds around the core protocol:

1. the §6.3.2 **advisor** picks the protocol for your deployment;
2. **batching** amortizes the WAN round trip over many requests;
3. one **deployment serves many threads**: accesses to the same key wait
   for each other, accesses to distinct keys do not.

Run:  python examples/high_throughput_batching.py
"""

import random
import threading

from repro import LblOrtoa, Request, StoreConfig, obs
from repro.analysis.advisor import recommend
from repro.obs import ledger
from repro.sim.network import DATACENTER_RTT_MS, DEFAULT_BANDWIDTH_MBPS


def main() -> None:
    # --- 1. Ask the advisor --------------------------------------------
    for value_len, location in ((160, "oregon"), (600, "oregon"), (600, "london")):
        rec = recommend(value_len=value_len, server_rtt_ms=location)
        print(f"{value_len:3d} B objects, server in {location:7s} -> {rec.protocol:8s} "
              f"(c={rec.rtt_ms:.0f}ms, p={rec.lbl_compute_ms:.1f}ms, "
              f"o={rec.lbl_overhead_ms:.1f}ms)")
    print()

    # --- 2. Batch to amortize the round trip ----------------------------
    config = StoreConfig(value_len=160, group_bits=2, point_and_permute=True)
    store = LblOrtoa(config, rng=random.Random(1))
    store.initialize({f"user-{i}": bytes(160) for i in range(64)})

    rtt = DATACENTER_RTT_MS["oregon"]
    print(f"WAN cost per operation at Oregon RTT ({rtt} ms), by batch size:")
    for batch_size in (1, 4, 16):
        requests = [Request.read(f"user-{i}") for i in range(batch_size)]
        with obs.capture():  # meter the one batch frame each way
            store.access_batch(requests)
            wire = ledger.registry_wire_snapshot()
        total_bytes = wire["local.batch.sent"] + wire["local.batch.received"]
        serialization = total_bytes * 8 / (DEFAULT_BANDWIDTH_MBPS * 1000)
        per_op = (rtt + serialization) / batch_size
        print(f"  batch={batch_size:3d}: {total_bytes / 1000:8.1f} kB on the wire, "
              f"{per_op:6.2f} ms WAN time per op")
    print()

    # --- 3. Serve real threads safely -----------------------------------
    errors: list[Exception] = []
    completed: list[int] = []

    def worker(worker_id: int) -> None:
        rng = random.Random(worker_id)
        try:
            for _ in range(20):
                key = f"user-{rng.randrange(64)}"
                if rng.random() < 0.3:
                    store.write(key, rng.randbytes(40))
                else:
                    store.read(key)
                completed.append(1)
        except Exception as exc:  # pragma: no cover - demo guard
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    print(f"8 threads completed {len(completed)} oblivious operations "
          f"with {len(errors)} errors; per-key label epochs stayed consistent.")


if __name__ == "__main__":
    main()
