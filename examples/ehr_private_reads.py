#!/usr/bin/env python
"""Healthcare scenario (paper §6.4): an EHR store that hides chart updates.

Electronic health records leak clinically sensitive facts through access
*types*: a write to a patient's record means something happened to them.
This example builds the paper's EHR dataset (10-byte resting-blood-pressure
values), serves a clinic's day through LBL-ORTOA, and verifies with the
ROR-RW machinery that a transcript of the day is indistinguishable from a
simulator that never saw which patients were updated.

Run:  python examples/ehr_private_reads.py
"""

import random

from repro import LblOrtoa, StoreConfig
from repro.security.distinguisher import byte_histogram_advantage, shape_fingerprint
from repro.security.games import Access, ideal_lbl_output, real_lbl_output
from repro.types import Operation
from repro.workloads import build_dataset


def main() -> None:
    config = StoreConfig(value_len=10, group_bits=2)
    records = build_dataset("ehr", num_objects=128, seed=5)
    patients = list(records)

    store = LblOrtoa(config)
    store.initialize(records)
    print(f"Loaded {len(records)} patient records "
          f"({config.value_len} B each, as in the paper's EHR dataset).\n")

    # A clinic day: mostly chart reviews (reads), some new vitals (writes).
    rng = random.Random(11)
    day: list[Access] = []
    for _ in range(40):
        patient = rng.choice(patients)
        if rng.random() < 0.25:
            reading = f"{rng.randint(95, 180):03d}mmHg".encode().ljust(10, b"\x00")
            day.append(Access(Operation.WRITE, patient, reading))
            store.write(patient, reading)
        else:
            day.append(Access(Operation.READ, patient))
            store.read(patient)
    writes = sum(1 for a in day if a.op is Operation.WRITE)
    print(f"Served a 40-access day: {40 - writes} chart reviews, {writes} vitals updates.")

    # ROR-RW check: the day's transcript vs a simulator that saw only keys.
    real = real_lbl_output(config, day)
    ideal = ideal_lbl_output(config, day, rng=random.Random(3))
    shapes_match = shape_fingerprint(real) == shape_fingerprint(ideal)
    tv_distance = byte_histogram_advantage([real], [ideal])
    print("\nROR-RW empirical check (paper §7):")
    print(f"  message-shape fingerprints identical: {shapes_match}")
    print(f"  byte-distribution total-variation distance: {tv_distance:.4f} "
          "(≈ 0 means statistically indistinguishable)")

    # Tamper detection (§5.4): corrupt a stored label and read.
    from repro.errors import OrtoaError

    victim = patients[0]
    encoded = store.keychain.encode_key(victim)
    record = store.server.store.get(encoded)
    width = config.label_bits // 8
    store.server.store.put(
        encoded, record._replace(labels=bytes(width) + record.labels[width:])
    )
    try:
        store.read(victim)
        print("\nTampering NOT detected — bug!")
    except OrtoaError as exc:
        print(f"\nMalicious-server tampering detected on read (§5.4): {type(exc).__name__}")


if __name__ == "__main__":
    main()
