"""Label cache, batch prepare order, and init complexity.

The cache is a pure optimization: every test here ultimately checks either
that it changes nothing observable (the cache-less deployment's values
and shapes) or that its bookkeeping (LRU bound, consuming
take, invalidation on counter moves) holds, since a stale epoch served from
the cache would make the next access undecodable.
"""

from __future__ import annotations

import random
import sys
import threading
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lbl import LblOrtoa
from repro.core.lbl.cache import LabelCache
from repro.core.lbl.proxy import LblProxy
from repro.core.sharded import _SerialPrepare
from repro.crypto import aead
from repro.crypto.keys import KeyChain
from repro.errors import ConfigurationError
from repro.types import Request, StoreConfig


def _config(**overrides) -> StoreConfig:
    params = dict(value_len=8, group_bits=2, label_cache_entries=-1)
    params.update(overrides)
    return StoreConfig(**params)


def _store(config: StoreConfig) -> LblOrtoa:
    store = LblOrtoa(config)
    store.initialize(
        {f"k{i}": config.pad(f"v{i}".encode()) for i in range(4)}
    )
    return store


# --------------------------------------------------------------------- #
# LabelCache unit behaviour
# --------------------------------------------------------------------- #


def test_cache_take_is_consuming():
    cache = LabelCache(4)
    cache.put("k", 1, b"a")
    assert cache.take("k", 1) is not None
    assert cache.take("k", 1) is None  # consumed
    assert cache.hits == 1 and cache.misses == 1
    assert cache.hit_rate == 0.5


def test_cache_epoch_must_match_exactly():
    cache = LabelCache(4)
    cache.put("k", 2, b"a")
    assert cache.take("k", 1) is None
    assert cache.take("k", 3) is None
    assert cache.take("k", 2) is not None


def test_cache_lru_bound():
    cache = LabelCache(2)
    for counter in range(3):
        cache.put(f"k{counter}", 1, b"x")
    assert len(cache) == 2
    assert cache.peek("k0", 1) is None  # oldest evicted
    assert cache.peek("k2", 1) is not None


def test_cache_invalidate_key_drops_every_epoch():
    cache = LabelCache(8)
    cache.put("k", 1, b"a")
    cache.put("k", 2, b"b")
    cache.put("other", 1, b"c")
    assert cache.invalidate_key("k") == 2
    assert cache.peek("k", 1) is None and cache.peek("k", 2) is None
    assert cache.peek("other", 1) is not None


def test_cache_rejects_bad_capacity():
    with pytest.raises(ConfigurationError):
        LabelCache(0)
    with pytest.raises(ConfigurationError):
        LabelCache.from_bytes(41_600, budget_bytes=0)


def test_cache_from_bytes_sizes_at_least_one_entry():
    cache = LabelCache.from_bytes(41_600, budget_bytes=1)
    assert cache.capacity == 1
    # The default 4 MiB holds a hundred paper-point epochs (it held 7 when
    # an entry carried label objects, schedules and a prefetched epoch).
    assert LabelCache.from_bytes(41_600).capacity == 100


def test_cache_take_counts_exactly_under_threads():
    """``hits + misses`` equals the number of ``take`` calls: no lost update."""
    workers, per_worker = 8, 2000
    cache = LabelCache(workers)  # one live entry per worker: nothing evicts
    entry = b"a"

    def run(name: str) -> None:
        for counter in range(per_worker):
            if counter % 2 == 0:  # every other take hits
                cache.put(name, counter, entry)
            cache.take(name, counter)

    threads = [
        threading.Thread(target=run, args=(f"k{i}",)) for i in range(workers)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert cache.hits + cache.misses == workers * per_worker
    assert cache.hits == workers * per_worker // 2


def test_config_rejects_zero_cache_entries():
    with pytest.raises(ConfigurationError):
        StoreConfig(value_len=8, label_cache_entries=0)
    with pytest.raises(ConfigurationError):
        StoreConfig(value_len=8, label_cache_entries=-2)


# --------------------------------------------------------------------- #
# Proxy integration: hits, invalidation
# --------------------------------------------------------------------- #


def test_repeated_access_hits_cache():
    store = _store(_config())
    cache = store.proxy.label_cache
    store.access(Request.read("k0"))  # miss: populates epoch 1
    # The entry is the epoch's (W, offsets), exactly as a derivation returns it.
    assert cache.peek("k0", 1) == store.proxy.codec.epochs("k0", 1)[0]
    before = cache.hits
    _built, ops = store.proxy.prepare(Request.read("k0"))  # consumes epoch 1
    assert cache.hits == before + 1
    assert ops.prf == 2  # the new epoch and the key encoding: the old one hit
    assert cache.peek("k0", 1) is None
    assert cache.peek("k0", 2) is not None  # replaced by the new epoch


def test_cache_disabled_when_config_omits_it():
    store = _store(_config(label_cache_entries=None))
    assert store.proxy.label_cache is None
    store.access(Request.read("k0"))  # still works, just cold every time
    assert store.read("k0").rstrip(b"\x00") == b"v0"


def test_force_counter_invalidates_cached_epochs():
    store = _store(_config())
    store.access(Request.read("k0"))
    assert store.proxy.label_cache.peek("k0", 1) is not None
    store.proxy.force_counter("k0", 1)
    assert store.proxy.label_cache.peek("k0", 1) is None


def test_restore_counters_clears_cache():
    store = _store(_config())
    store.access(Request.read("k0"))
    store.access(Request.read("k1"))
    assert len(store.proxy.label_cache) > 0
    store.proxy.restore_counters({"k0": 1, "k1": 1})
    assert len(store.proxy.label_cache) == 0


def _access_shapes(store: LblOrtoa, request: Request) -> tuple[bytes, tuple, tuple]:
    """One access by hand: ``(value, request shape, response shape)``."""
    built, _ = store.proxy.prepare(request)
    response, _ = store.server.process(built)
    value, _ = store.proxy.finalize(request.key, response)
    request_shape = (
        len(built.to_bytes()),
        tuple(tuple(len(entry) for entry in table) for table in built.tables),
    )
    response_shape = (len(response.to_bytes()), len(response.slots), len(response.digest))
    return value, request_shape, response_shape


@settings(max_examples=25, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=3),
    ops=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.one_of(st.none(), st.binary(min_size=8, max_size=8)),
        ),
        min_size=1,
        max_size=24,
    ),
)
def test_undersized_cache_matches_oracle_and_cacheless_shapes(capacity, ops):
    """Capacity < keys: hits, misses and evictions interleave, nothing shows.

    The regime the ``zipf_cached`` benchmark workload runs: every value
    equals a dict oracle, every request/response is shaped exactly like the
    cache-less deployment's for the same op sequence, and the cache's own
    bookkeeping (one lookup per access, LRU bound) holds throughout.
    """
    keychain = KeyChain(label_bits=128)
    cached = LblOrtoa(_config(label_cache_entries=capacity), keychain=keychain)
    plain = LblOrtoa(_config(label_cache_entries=None), keychain=keychain)
    oracle = {f"k{i}": f"value-{i}!".encode()[:8] for i in range(4)}
    cached.initialize(oracle)
    plain.initialize(oracle)
    cache = cached.proxy.label_cache
    for accesses, (index, written) in enumerate(ops, start=1):
        key = f"k{index}"
        if written is None:
            request = Request.read(key)
        else:
            request = Request.write(key, written)
            oracle[key] = written
        value, request_shape, response_shape = _access_shapes(cached, request)
        assert value == oracle[key]
        assert (oracle[key], request_shape, response_shape) == _access_shapes(
            plain, request
        )
        assert cache.hits + cache.misses == accesses
        assert len(cache) <= capacity


# --------------------------------------------------------------------- #
# ShardedLblDeployment.prepare_engine: proxy.prepare in request order
# --------------------------------------------------------------------- #


def _proxy(keychain: KeyChain | None = None, **overrides) -> LblProxy:
    config = _config(**overrides)
    proxy = LblProxy(config, keychain or KeyChain(label_bits=config.label_bits))
    proxy.initial_records({f"k{i}": config.pad(b"v") for i in range(4)})
    return proxy


def test_prepare_batch_orders_epochs_per_key():
    proxy = _proxy()
    requests = [
        Request.read("k0"),
        Request.read("k1"),
        Request.read("k0"),
        Request.read("k0"),
        Request.read("k2"),
    ]
    built = _SerialPrepare(proxy).prepare_batch(requests)
    assert len(built) == len(requests)
    k0_epochs = [
        epoch for req, (_, _, epoch) in zip(requests, built) if req.key == "k0"
    ]
    assert k0_epochs == [1, 2, 3]
    assert proxy.counter("k0") == 3
    assert proxy.counter("k1") == 1 and proxy.counter("k2") == 1


def test_prepare_batch_distinct_keys_each_install_epoch_one():
    built = _SerialPrepare(_proxy()).prepare_batch(
        [Request.read("k0"), Request.read("k1")]
    )
    assert [epoch for _, _, epoch in built] == [1, 1]


def test_prepare_batch_rejects_empty_batch():
    with pytest.raises(ConfigurationError):
        _SerialPrepare(_proxy()).prepare_batch([])


@settings(max_examples=25, deadline=None)
@given(
    workload=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.none() | st.binary(min_size=8, max_size=8),
        ),
        min_size=1,
        max_size=10,
    ),
    label_cache=st.sampled_from([None, -1]),
)
def test_prepare_batch_equals_a_prepare_loop_on_a_twin_proxy(workload, label_cache):
    """Wire bytes, op counts and epochs of ``prepare_batch`` are exactly
    those of calling ``proxy.prepare`` per request on a proxy with the same
    keychain, repeated keys included (point-and-permute: no shuffle RNG)."""
    keychain = KeyChain(b"\x2a" * 32, label_bits=128)
    requests = [
        Request.read(f"k{index}")
        if written is None
        else Request.write(f"k{index}", written)
        for index, written in workload
    ]
    seam_proxy = _proxy(keychain, label_cache_entries=label_cache)
    twin = _proxy(keychain, label_cache_entries=label_cache)

    def fixed_nonces():
        """Both sides draw their AEAD nonces from the same seeded stream."""
        return mock.patch.object(
            aead.secrets, "token_bytes", random.Random(9).randbytes
        )

    with fixed_nonces():
        built = _SerialPrepare(seam_proxy).prepare_batch(requests)
    expected = []
    with fixed_nonces():
        for request in requests:
            lbl_request, ops = twin.prepare(request)
            expected.append(
                (lbl_request.to_bytes(), ops, twin.counter(request.key))
            )
    assert [
        (lbl_request.to_bytes(), ops, epoch) for lbl_request, ops, epoch in built
    ] == expected
    assert seam_proxy.counters() == twin.counters()


# --------------------------------------------------------------------- #
# initial_records complexity regression
# --------------------------------------------------------------------- #


def test_initial_records_grouping_is_linear(monkeypatch):
    """`value_to_groups` runs once per record, not once per record pair."""
    from repro.core.lbl import proxy as proxy_module

    calls = {"count": 0}
    real = proxy_module.value_to_groups

    def counting(value, group_bits):
        calls["count"] += 1
        return real(value, group_bits)

    monkeypatch.setattr(proxy_module, "value_to_groups", counting)
    config = _config()
    proxy = LblProxy(config, KeyChain(label_bits=config.label_bits))
    records = {f"key-{i}": config.pad(b"x") for i in range(32)}
    out = proxy.initial_records(records)
    assert len(out) == 32
    assert calls["count"] == 32


def test_initial_records_derives_one_epoch_per_record():
    """One epoch derivation for the record and the key encoding."""
    from repro import obs
    from repro.obs import ledger

    config = _config()
    proxy = LblProxy(config, KeyChain(label_bits=config.label_bits))
    obs.reset()
    obs.enable()
    try:
        proxy.initial_records({"key": config.pad(b"x")})
        ops = ledger.registry_ops_snapshot()
    finally:
        obs.disable()
        obs.reset()
    assert ops["prf.calls"] == 2
    # The epoch's 16-byte whitening (one block absorbed, one squeezed), its
    # 32 offsets (two AES blocks) and the 32 labels the value selects, one
    # block each.
    assert (ops["shake256.blocks"], ops["aes.blocks"]) == (2, 2 + 32)
    assert proxy.codec.epoch_ops("key", 0) == {
        "prf.calls": 1, "shake256.blocks": 2, "aes.blocks": 2,
    }
