"""Tests for the metrics registry: counters, gauges, histogram edges, JSON."""

import json
import math
import threading

import pytest

from repro import obs
from repro.errors import ConfigurationError
from repro.obs.metrics import (
    LOG_BUCKET_COUNT, LOG_BUCKET_GROWTH, LOG_BUCKET_MIN, LogHistogram, MetricsRegistry,
)


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
    hist = registry.log_histogram("lat")
    bound = LOG_BUCKET_MIN * LOG_BUCKET_GROWTH ** 10
    hist.observe(0)  # at or below the smallest bound -> bucket 0
    hist.observe(bound * 0.999)  # just below a bound -> that bound's bucket
    hist.observe(bound * 1.001)  # just above -> the next bucket
    hist.observe(1e9)  # past the top bound -> the overflow bucket
    assert [i for i, n in enumerate(hist.bucket_counts) if n] == [0, 10, 11, LOG_BUCKET_COUNT]
    snap = hist.snapshot()
    assert snap["count"] == 4
    assert snap["min"] == 0
    assert snap["max"] == 1e9


def test_every_finite_bound_lands_in_its_own_bucket():
    """Bucket ``i`` is ``(bound(i-1), bound(i)]`` at every edge: a value
    equal to a bound is in that bound's bucket, the next float above it in
    the next one, so a quantile read at a bound is that bound."""
    for index in range(LOG_BUCKET_COUNT):
        bound = LogHistogram.bucket_bound(index)
        assert LogHistogram.bucket_index(bound) == index, index
        above = math.nextafter(bound, math.inf)
        assert LogHistogram.bucket_index(above) == index + 1, index


def test_histogram_mean_and_empty_defaults(registry):
    hist = registry.log_histogram("lat")
    assert hist.mean == 0.0
    assert hist.percentile(0.99) == 0.0
    hist.observe(2)
    hist.observe(4)
    assert hist.mean == 3.0


def test_snapshot_groups_by_kind_and_is_json_serializable(registry):
    registry.counter("c").inc(7)
    registry.gauge("g").set(1.5)
    registry.log_histogram("h").observe(0.5)
    snap = registry.snapshot()
    assert snap["counters"] == {"c": 7}
    assert snap["gauges"]["g"]["value"] == 1.5
    assert snap["log_histograms"]["h"]["count"] == 1
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
        "log_histograms": {},
    }


def test_snapshot_is_deterministic_for_a_deterministic_workload(registry):
    def run(reg):
        for i in range(10):
            reg.counter("ops").inc()
            reg.log_histogram("vals").observe(i * 37 % 11)
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
    # Point-and-permute: exactly one decrypt per group.
    assert counters["ledger.ops.aead.decrypts"] == config.num_groups
    assert counters.get("ledger.ops.aead.decrypt_failures", 0) == 0
    assert counters["ledger.ops.aead.encrypts"] == config.num_groups * 2 ** config.group_bits
