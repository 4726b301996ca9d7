"""Soak test: a longer randomized run across the whole stack at once.

One scenario across the stack: a seeded 400-request stream drives a durable
(WAL-backed) LBL deployment and a freshness-guarded TEE replica, both
verified against a reference model; the LBL deployment is then
crash-recovered and verified again.
"""

import pytest

from repro import (
    FreshnessGuard,
    LblOrtoa,
    Operation,
    StoreConfig,
    TeeOrtoa,
)
from repro.core.sharded import ShardedLblDeployment
from repro.crypto.keys import KeyChain
from repro.transport.pipeline import LocalLink
from repro.workloads.synthetic import RequestStream, WorkloadSpec

CONFIG = StoreConfig(value_len=24, group_bits=2)
KEYS = tuple(f"obj-{i}" for i in range(20))


def test_long_mixed_soak(tmp_path):
    keychain = KeyChain(b"soak-master-key-0123456789abcdef")
    primary = ShardedLblDeployment(
        CONFIG,
        [LocalLink()],
        keychain=keychain,
        wal_path=tmp_path / "soak.wal",
    )
    replica = FreshnessGuard(
        StoreConfig(value_len=24), lambda cfg: TeeOrtoa(cfg)
    )
    records = {k: bytes(24) for k in KEYS}
    primary.initialize(dict(records))
    replica.initialize(dict(records))
    reference = {k: bytes(24) for k in KEYS}

    stream = RequestStream(
        WorkloadSpec(keys=KEYS, value_len=24, write_fraction=0.4, seed=99)
    )
    for request in stream.take(400):
        if request.op is Operation.WRITE:
            reference[request.key] = CONFIG.pad(request.value)
            primary.write(request.key, request.value)
            replica.write(request.key, request.value)
        else:
            assert primary.read(request.key) == reference[request.key]
            assert replica.read(request.key) == reference[request.key]

    # Mid-life checkpoint + crash + recovery of the primary.
    primary.checkpoint()
    recovered = ShardedLblDeployment(
        CONFIG,
        primary.clients,  # the surviving server
        keychain=keychain,
        wal_path=tmp_path / "soak.wal",
    )
    for key in KEYS:
        assert recovered.read(key) == reference[key]

    # And the recovered deployment keeps serving.
    recovered.write(KEYS[0], b"post-recovery")
    assert recovered.read(KEYS[0]) == CONFIG.pad(b"post-recovery")
    assert recovered.recovered_resyncs == 0  # clean crash, no resync needed


def test_soak_counters_and_wire_shape_stay_disciplined(tmp_path):
    """After hundreds of accesses: counters equal access counts and the
    wire shape never drifted."""
    protocol = LblOrtoa(CONFIG)
    protocol.initialize({k: bytes(24) for k in KEYS})
    stream = RequestStream(
        WorkloadSpec(keys=KEYS, value_len=24, write_fraction=0.5, seed=11)
    )
    per_key_accesses = {k: 0 for k in KEYS}
    shapes = set()
    for request in stream.take(300):
        transcript = protocol.access(request)
        per_key_accesses[request.key] += 1
        shapes.add((transcript.request_bytes, transcript.response_bytes))
    assert len(shapes) == 1
    for key in KEYS:
        assert protocol.proxy.counter(key) == per_key_accesses[key]
