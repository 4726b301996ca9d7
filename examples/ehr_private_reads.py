#!/usr/bin/env python
"""Healthcare scenario (paper §6.4): an EHR store that hides chart updates.

Electronic health records leak clinically sensitive facts through access
*types*: a write to a patient's record means something happened to them.
This example builds the paper's EHR dataset (10-byte resting-blood-pressure
values), serves a clinic's day through LBL-ORTOA, and verifies with the
ROR-RW machinery that the frames the store actually sent its server that day
are indistinguishable from a simulator that never saw which patients were
updated.

Run:  python examples/ehr_private_reads.py
"""

import random

from repro import LblOrtoa, StoreConfig
from repro.security.audit import judge_requests, record_links
from repro.types import Request
from repro.workloads import build_dataset


def main() -> None:
    config = StoreConfig(value_len=10, group_bits=2)
    records = build_dataset("ehr", num_objects=128, seed=5)
    patients = list(records)

    store = LblOrtoa(config)
    # Record every frame the store's link carries to its server.
    (link,) = record_links(store)
    store.initialize(records)
    loaded = len(link.frames)
    print(f"Loaded {len(records)} patient records "
          f"({config.value_len} B each, as in the paper's EHR dataset).\n")

    # A clinic day: mostly chart reviews (reads), some new vitals (writes).
    rng = random.Random(11)
    day: list[Request] = []
    for _ in range(40):
        patient = rng.choice(patients)
        if rng.random() < 0.25:
            reading = f"{rng.randint(95, 180):03d}mmHg".encode().ljust(10, b"\x00")
            day.append(Request.write(patient, reading))
        else:
            day.append(Request.read(patient))
        store.access(day[-1])
    writes = sum(request.op.is_write for request in day)
    print(f"Served a 40-access day: {40 - writes} chart reviews, {writes} vitals updates.")

    # ROR-RW check: the frames that served the day vs a simulator that saw
    # only keys, each statistic next to the bound derived from the sample.
    real = [frame.request for frame in link.frames[loaded:]]
    print("\nROR-RW empirical check (paper §7):")
    for check in judge_requests("access", config, day, real, seed=3):
        print(f"  [{'ok' if check.passed else 'LEAK'}] {check.claim}: {check.detail}")

    # Tamper detection (§5.4): corrupt a stored label and read.
    from repro.errors import OrtoaError

    victim = patients[0]
    encoded = store.keychain.encode_key(victim)
    record = store.server.store.get(encoded)
    width = config.label_bits // 8
    store.server.store.put(encoded, bytes(width) + record[width:])
    try:
        store.read(victim)
        print("\nTampering NOT detected — bug!")
    except OrtoaError as exc:
        print(f"\nMalicious-server tampering detected on read (§5.4): {type(exc).__name__}")


if __name__ == "__main__":
    main()
