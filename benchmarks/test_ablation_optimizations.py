"""Ablations of LBL-ORTOA's §10 optimizations.

* point-and-permute: server decryption attempts drop from ~2^y/2-on-average
  tries per group to exactly 1 — the "no" row is the §5.2 base protocol as
  ``tests/lbl_reference.py`` keeps it (its shuffled tables opened by a trial
  scan), the "yes" row the protocol the program serves, counted by its
  server;
* y-grouping: server storage halves at y=2 with unchanged communication
  (the Figure 6 optimum), while y=4 blows communication up;
* batching: amortizes the WAN round trip across requests.
"""

import random

from conftest import save_table

from repro import obs
from repro.core.lbl import LblOrtoa
from repro.harness.report import render_table
from repro.obs import ledger
from repro.sim.network import DATACENTER_RTT_MS, DEFAULT_BANDWIDTH_MBPS
from repro.types import Request, StoreConfig
from tests import lbl_reference

VALUE_LEN = 32
ACCESSES = 10


def _protocol(group_bits):
    protocol = LblOrtoa(StoreConfig(value_len=VALUE_LEN, group_bits=group_bits))
    protocol.initialize({"k": bytes(VALUE_LEN)})
    return protocol


def _base_reads(protocol) -> "tuple[int, int]":
    """``(attempts, failures)`` of the §5.2 server over ``ACCESSES`` reads of
    ``protocol``'s key, its tables shuffled by ``random.Random(1)``."""
    keychain, config = protocol.keychain, protocol.config
    stored = lbl_reference.record_labels(keychain, config, "k", 0, bytes(VALUE_LEN))
    rng, attempts, failures = random.Random(1), 0, 0
    for counter in range(ACCESSES):
        tables = lbl_reference.build_request(keychain, config, "k", counter, base=True, rng=rng)
        stored, tried, failed = lbl_reference.open_base(stored, tables)
        attempts, failures = attempts + tried, failures + failed
    return attempts, failures


def _served_reads(protocol) -> "tuple[int, int]":
    """``(attempts, failures)`` the serving stack's server counts in the
    ledger's totals over ``ACCESSES`` reads."""
    with obs.capture():
        for _ in range(ACCESSES):
            protocol.access(Request.read("k"))
        ops = ledger.registry_ops_snapshot()
        decrypts = ops.get("aead.decrypts", 0)
        failures = ops.get("aead.decrypt_failures", 0)
    return decrypts + failures, failures


def test_ablation_point_and_permute(benchmark):
    """§10.2: the decryption-bits trick removes all wasted server work."""

    def run():
        rows = []
        for pnp, reads in ((False, _base_reads), (True, _served_reads)):
            protocol = _protocol(group_bits=2)
            attempts, failures = reads(protocol)
            rows.append(
                {
                    "point_and_permute": pnp,
                    "avg_decryptions_per_access": attempts / ACCESSES,
                    "avg_wasted_per_access": failures / ACCESSES,
                    "groups_per_value": protocol.proxy.codec.num_groups,
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_table("ablation_pnp", render_table("Ablation: point-and-permute (§10.2)", rows))
    plain, pnp = rows
    groups = plain["groups_per_value"]
    assert pnp["avg_wasted_per_access"] == 0
    assert pnp["avg_decryptions_per_access"] == groups  # exactly 1 per group
    assert plain["avg_decryptions_per_access"] > 1.5 * groups  # ~2.5x tries


def test_ablation_group_bits(benchmark):
    """§10.1: y=2 halves storage at equal communication; y=4 hurts."""

    def run():
        rows = []
        for y in (1, 2, 4):
            protocol = _protocol(group_bits=y)
            encoded = protocol.keychain.encode_key("k")
            label_len = protocol.config.label_bits // 8
            stored = len(protocol.server.store.get(encoded)) // label_len
            transcript = protocol.access(Request.read("k"))
            rows.append(
                {
                    "y": y,
                    "labels_stored": stored,
                    "request_kb": transcript.request_bytes / 1000,
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_table("ablation_y", render_table("Ablation: y-bit grouping (§10.1)", rows))
    by = {r["y"]: r for r in rows}
    assert by[2]["labels_stored"] == by[1]["labels_stored"] // 2
    assert abs(by[2]["request_kb"] - by[1]["request_kb"]) < 0.15 * by[1]["request_kb"]
    assert by[4]["request_kb"] > 1.5 * by[2]["request_kb"]


def test_ablation_batching(benchmark):
    """Batching amortizes the round trip: WAN time per op falls toward the
    serialization floor as the batch grows."""
    rtt = DATACENTER_RTT_MS["oregon"]
    bandwidth = DEFAULT_BANDWIDTH_MBPS

    def run():
        rows = []
        for batch_size in (1, 2, 4, 8, 16):
            protocol = _protocol(group_bits=2)
            # The one batch frame each way, as the in-process link meters it.
            with obs.capture():
                protocol.access_batch([Request.read("k")] * batch_size)
                wire = ledger.registry_wire_snapshot()
            total_bytes = wire["local.batch.sent"] + wire["local.batch.received"]
            serialization_ms = total_bytes * 8 / (bandwidth * 1000)
            wan_ms_per_op = (rtt + serialization_ms) / batch_size
            rows.append(
                {
                    "batch_size": batch_size,
                    "combined_kb": total_bytes / 1000,
                    "wan_ms_per_op": wan_ms_per_op,
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_table("ablation_batching", render_table("Ablation: request batching", rows))
    per_op = [r["wan_ms_per_op"] for r in rows]
    assert per_op == sorted(per_op, reverse=True)
    assert per_op[-1] < per_op[0] / 4  # 16-batch is >4x cheaper per op
