"""Tests for the metrics registry: counters, gauges, histogram edges, JSON."""

import json
import threading

import pytest

from repro import obs
from repro.errors import ConfigurationError
from repro.obs.metrics import DEFAULT_BUCKETS, MetricsRegistry


@pytest.fixture()
def registry():
    return MetricsRegistry()


def test_counter_accumulates_and_rejects_negative(registry):
    counter = registry.counter("requests")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    with pytest.raises(ConfigurationError):
        counter.inc(-1)


def test_counter_is_shared_by_name(registry):
    registry.counter("hits").inc()
    registry.counter("hits").inc()
    assert registry.counter("hits").value == 2


def test_kind_collision_is_rejected(registry):
    registry.counter("x")
    with pytest.raises(ConfigurationError):
        registry.gauge("x")


def test_gauge_tracks_value_and_high_water_mark(registry):
    gauge = registry.gauge("stash")
    gauge.set(3)
    gauge.set(9)
    gauge.set(5)
    assert gauge.snapshot() == {"value": 5.0, "max": 9.0}


def test_histogram_bucket_edges(registry):
    hist = registry.histogram("sizes", bounds=(10.0, 100.0))
    hist.observe(0)  # below first bound -> first bucket
    hist.observe(10)  # exactly on a bound -> that bound's bucket (le semantics)
    hist.observe(10.0001)  # just above -> next bucket
    hist.observe(100)  # last bound's bucket
    hist.observe(101)  # overflow
    snap = hist.snapshot()
    assert snap["buckets"] == {"le_10": 2, "le_100": 2, "inf": 1}
    assert snap["count"] == 5
    assert snap["min"] == 0
    assert snap["max"] == 101


def test_histogram_mean_and_empty_defaults(registry):
    hist = registry.histogram("lat")
    assert hist.mean == 0.0
    hist.observe(2)
    hist.observe(4)
    assert hist.mean == 3.0


def test_histogram_rejects_bad_bounds(registry):
    with pytest.raises(ConfigurationError):
        registry.histogram("bad", bounds=())
    with pytest.raises(ConfigurationError):
        registry.histogram("bad2", bounds=(5.0, 5.0))
    with pytest.raises(ConfigurationError):
        registry.histogram("bad3", bounds=(5.0, 1.0))


def test_snapshot_groups_by_kind_and_is_json_serializable(registry):
    registry.counter("c").inc(7)
    registry.gauge("g").set(1.5)
    registry.histogram("h", bounds=(1.0,)).observe(0.5)
    snap = registry.snapshot()
    assert snap["counters"] == {"c": 7}
    assert snap["gauges"]["g"]["value"] == 1.5
    assert snap["histograms"]["h"]["count"] == 1
    # Round-trips through JSON without custom encoders.
    assert json.loads(registry.to_json()) == json.loads(json.dumps(snap))


def test_reset_zeroes_but_keeps_held_handles(registry):
    counter = registry.counter("kept")
    counter.inc(3)
    registry.reset()
    assert counter.value == 0
    counter.inc()  # the old handle still feeds the registry
    assert registry.snapshot()["counters"]["kept"] == 1


def test_clear_drops_instruments(registry):
    registry.counter("gone").inc()
    registry.clear()
    assert registry.snapshot() == {
        "counters": {},
        "gauges": {},
        "histograms": {},
        "log_histograms": {},
    }


def test_snapshot_is_deterministic_for_a_deterministic_workload(registry):
    def run(reg):
        for i in range(10):
            reg.counter("ops").inc()
            reg.histogram("vals", bounds=DEFAULT_BUCKETS).observe(i * 37 % 11)
        return reg.snapshot()

    assert run(MetricsRegistry()) == run(MetricsRegistry())


def test_concurrent_increments_lose_nothing(registry):
    counter = registry.counter("racy")
    per_thread = 5000

    def hammer():
        for _ in range(per_thread):
            counter.inc()

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert counter.value == 4 * per_thread


def test_global_registry_collects_lbl_decrypt_counts():
    """Per-access decrypt counters appear for an instrumented LBL access."""
    import random

    from repro.core.lbl import LblOrtoa
    from repro.types import Request, StoreConfig

    config = StoreConfig(value_len=8, group_bits=2)
    protocol = LblOrtoa(config)
    protocol.initialize({"k": b"v"})
    with obs.capture():
        protocol.access(Request.read("k"))
        counters = obs.REGISTRY.snapshot()["counters"]
    obs.reset()
    assert counters["lbl.server.requests"] == 1
    # Point-and-permute: exactly one decrypt per group.
    assert counters["lbl.server.decrypt_attempts"] == config.num_groups
    assert counters["lbl.server.failed_decrypts"] == 0
    assert counters["crypto.aead.encrypts"] == counters["lbl.proxy.ciphertexts_built"]
