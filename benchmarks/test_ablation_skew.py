"""Ablation: workload skew (Zipf) and per-object lifetime.

FHE-ORTOA's budget is *per object* (§3.3), so skew is lethal: a Zipf-hot
key burns through its noise budget in a fraction of the uniform workload's
total accesses.  LBL-ORTOA's labels regenerate per access with no budget,
so skew is irrelevant to it — another practical argument for the label
design.
"""

from conftest import save_table

from repro.core import FheOrtoa, LblOrtoa
from repro.crypto.fhe import FheParams
from repro.errors import NoiseBudgetExhausted
from repro.harness.report import render_table
from repro.types import StoreConfig
from repro.workloads.synthetic import RequestStream, WorkloadSpec

NUM_KEYS = 8
VALUE_LEN = 16


def _spec(zipf_s):
    return WorkloadSpec(
        keys=tuple(f"obj-{i}" for i in range(NUM_KEYS)),
        value_len=VALUE_LEN,
        write_fraction=0.5,
        zipf_s=zipf_s,
        seed=3,
    )


def _drive_fhe_until_exhaustion(zipf_s, cap=400):
    protocol = FheOrtoa(
        StoreConfig(value_len=VALUE_LEN), fhe_params=FheParams(n=32, q_bits=100)
    )
    protocol.initialize({f"obj-{i}": bytes(VALUE_LEN) for i in range(NUM_KEYS)})
    stream = RequestStream(_spec(zipf_s))
    served = 0
    try:
        for request in stream:
            if served >= cap:
                break
            protocol.access(request)
            served += 1
    except NoiseBudgetExhausted:
        pass
    return served


def test_ablation_skew(benchmark):
    def run():
        rows = []
        for zipf_s in (0.0, 1.2):
            fhe_served = _drive_fhe_until_exhaustion(zipf_s)
            # LBL under the same stream: every access must succeed with a
            # constant wire footprint.
            lbl = LblOrtoa(StoreConfig(value_len=VALUE_LEN, group_bits=2))
            lbl.initialize({f"obj-{i}": bytes(VALUE_LEN) for i in range(NUM_KEYS)})
            stream = RequestStream(_spec(zipf_s))
            sizes = {lbl.access(stream.next_request()).request_bytes for _ in range(60)}
            rows.append(
                {
                    "zipf_s": zipf_s,
                    "fhe_accesses_before_exhaustion": fhe_served,
                    "lbl_accesses_served": 60,
                    "lbl_request_sizes_distinct": len(sizes),
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_table(
        "ablation_skew",
        render_table("Ablation: Zipf skew vs per-object FHE lifetime", rows),
    )
    uniform, skewed = rows
    # Skew concentrates accesses on a hot object, so exhaustion comes sooner.
    assert skewed["fhe_accesses_before_exhaustion"] < uniform["fhe_accesses_before_exhaustion"]
    # LBL is indifferent: constant-size requests, no failures, either way.
    for row in rows:
        assert row["lbl_request_sizes_distinct"] == 1
