"""Cross-request prepare coalescing: fused windows must be transparent.

The coalescing stage changes *how many* dispatches serve a burst of
prepares, and nothing else.  These tests pin the transparency claims:

* protocol equivalence — a coalesced batch returns exactly the values and
  counter chains a sequential scalar-path loop over the same interleaving
  produces (hypothesis property over arbitrary key/op interleavings);
* obliviousness — inside one fused window, GET and PUT entries produce
  wire requests of identical shape, and the flush routing itself never
  depends on the op;
* attribution — fused windows still credit every PRF call, compression,
  and AEAD op to the request that caused it (the model==ledger equality is
  exercised through ``run_model_check``'s ``coalesced`` backend);
* determinism — the flush timer reads the injected clock, so timer-window
  behavior is testable without real sleeps.
"""

import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lbl import LblOrtoa
from repro.core.lbl.coalesce import PrepareCoalescer
from repro.core.lbl.server_coalesce import ServerAccessCoalescer
from repro.core.lbl.parallel import ParallelPrepareEngine
from repro.errors import ConfigurationError
from repro.obs.clock import FakeClock
from repro.types import Request, StoreConfig

pytestmark = pytest.mark.timeout(300)

KEYS = tuple(f"c{i}" for i in range(4))
VALUE_LEN = 8

#: One access: (key index, is_write, written byte).
WORKLOADS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=len(KEYS) - 1),
        st.booleans(),
        st.integers(min_value=1, max_value=250),
    ),
    min_size=1,
    max_size=10,
)


def _store(batched: bool, **overrides) -> LblOrtoa:
    params = dict(
        value_len=VALUE_LEN, group_bits=2, point_and_permute=True
    )
    params.update(overrides)
    store = LblOrtoa(StoreConfig(**params), rng=random.Random(5), batched=batched)
    store.initialize({key: bytes([i + 1]) * VALUE_LEN for i, key in enumerate(KEYS)})
    return store


def _requests(workload):
    return [
        Request.write(KEYS[index], bytes([byte]) * VALUE_LEN)
        if is_write
        else Request.read(KEYS[index])
        for index, is_write, byte in workload
    ]


def _run_coalesced(store, requests, **engine_kwargs):
    """Prepare the whole workload through a coalescing engine, then drive
    each built request through the server and finalize — the access_batch
    order (prepare all, then process in order)."""
    engine = ParallelPrepareEngine(store.proxy, workers=0, **engine_kwargs)
    try:
        triples = engine.prepare_batch(requests)
        values = []
        for request, (built, _ops, epoch) in zip(requests, triples):
            response, _ = store.server.process(built)
            value, _ = store.proxy.finalize(request.key, response, counter=epoch)
            values.append(value)
        return values
    finally:
        engine.close()


# --------------------------------------------------------------------- #
# Equivalence
# --------------------------------------------------------------------- #


@settings(max_examples=8, deadline=None)
@given(workload=WORKLOADS)
def test_coalesced_matches_sequential_scalar(workload):
    """Fused windows return exactly what the scalar reference loop returns.

    Arbitrary interleavings of keys, ops, and written values: the scalar
    path processes each access in full before the next, the coalesced path
    fuses derivation and encryption across the window (repeated keys chain
    epochs inside one flush) — values, read-back semantics, and final
    counters must agree exactly.
    """
    requests = _requests(workload)

    scalar = _store(batched=False)
    expected = [scalar.access(request).response.value for request in requests]

    coalesced = _store(batched=True)
    actual = _run_coalesced(
        coalesced, requests, coalesce_window=0.0005, coalesce_batch=4
    )

    assert actual == expected
    assert {key: coalesced.proxy.counter(key) for key in KEYS} == {
        key: scalar.proxy.counter(key) for key in KEYS
    }


@settings(max_examples=4, deadline=None)
@given(workload=WORKLOADS)
def test_coalesced_matches_sequential_with_label_cache(workload):
    """Same property with the label cache on: warm entries skip the fused
    path (a cached epoch always wins) and must still decode identically."""
    requests = _requests(workload)

    scalar = _store(batched=False)
    expected = [scalar.access(request).response.value for request in requests]

    coalesced = _store(batched=True, label_cache_entries=-1)
    actual = _run_coalesced(
        coalesced, requests, coalesce_window=0.0005, coalesce_batch=4
    )

    assert actual == expected


def test_coalesced_procpool_end_to_end():
    """Coalescing over the shared-memory procpool: fused worker batches
    feed fused table encrypts, and every access still decodes."""
    store = _store(batched=True)
    requests = [Request.read(key) for key in KEYS] + [
        Request.write(KEYS[0], b"\x99" * VALUE_LEN),
        Request.read(KEYS[0]),
    ]
    values = _run_coalesced(
        store,
        requests,
        backend="procpool",
        coalesce_window=0.0005,
        coalesce_batch=4,
    )
    assert values[0] == bytes([1]) * VALUE_LEN
    assert values[-1] == b"\x99" * VALUE_LEN


# --------------------------------------------------------------------- #
# Concurrency: leader/follower windows
# --------------------------------------------------------------------- #


def test_concurrent_prepares_fuse_into_one_window():
    """Concurrent callers fill one window; everyone gets a decodable result."""
    store = _store(batched=True)
    engine = ParallelPrepareEngine(
        store.proxy, workers=0, coalesce_window=0.05, coalesce_batch=len(KEYS)
    )
    barrier = threading.Barrier(len(KEYS))
    values = [None] * len(KEYS)

    def go(position: int) -> None:
        barrier.wait()
        request = Request.read(KEYS[position])
        built, _ops, epoch = engine.prepare_one(request)
        response, _ = store.server.process(built)
        values[position], _ = store.proxy.finalize(
            request.key, response, counter=epoch
        )

    threads = [threading.Thread(target=go, args=(i,)) for i in range(len(KEYS))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert values == [bytes([i + 1]) * VALUE_LEN for i in range(len(KEYS))]


def test_flush_failure_propagates_to_every_caller():
    """A failed flush raises for leader and followers alike — no caller
    blocks forever on a window whose flush died."""
    store = _store(batched=True)
    coalescer = PrepareCoalescer(store.proxy, window=0.05, max_batch=2)

    def boom(entries, rows=None):
        raise RuntimeError("fused encrypt failed")

    store.proxy.prepare_window = boom
    errors = []
    barrier = threading.Barrier(2)

    def go(position: int) -> None:
        barrier.wait()
        try:
            coalescer.prepare(Request.read(KEYS[position]))
        except RuntimeError as exc:
            errors.append(str(exc))

    threads = [threading.Thread(target=go, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert errors == ["fused encrypt failed"] * 2


# --------------------------------------------------------------------- #
# Deterministic flush timer (injected clock)
# --------------------------------------------------------------------- #


def test_timer_flush_reads_injected_clock():
    """A lone prepare flushes when the *injected* clock passes the window —
    no real sleeping — proving the timer is clock-driven."""
    store = _store(batched=True)
    clock = FakeClock(start=0.0, auto_advance=30.0)  # each read jumps 30s
    coalescer = PrepareCoalescer(
        store.proxy, window=60.0, max_batch=8, clock=clock
    )
    request = Request.read(KEYS[0])
    built, _ops, epoch = coalescer.prepare(request)
    response, _ = store.server.process(built)
    value, _ = store.proxy.finalize(request.key, response, counter=epoch)
    assert value == bytes([1]) * VALUE_LEN
    assert clock.now() > 60.0  # the timer consumed fake time, not wall time


def test_frozen_clock_never_time_flushes():
    """With a frozen fake clock the window can only flush on size — the
    leader waits for its follower, not for wall time."""
    store = _store(batched=True)
    clock = FakeClock(start=0.0, auto_advance=0.0)
    coalescer = PrepareCoalescer(
        store.proxy, window=3600.0, max_batch=2, clock=clock
    )
    results = [None, None]
    barrier = threading.Barrier(2)

    def go(position: int) -> None:
        barrier.wait()
        results[position] = coalescer.prepare(Request.read(KEYS[position]))

    threads = [threading.Thread(target=go, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert all(result is not None for result in results)
    assert clock.now() == 0.0  # frozen clock: the flush was size-triggered


@pytest.mark.parametrize("fuses", ["prepares", "server accesses"])
def test_lone_caller_at_max_batch_one_flushes_on_size(fuses):
    """The window counts its leader: at ``max_batch=1`` a lone call is a
    full window and returns without the (frozen) timer ever lapsing."""
    store = _store(batched=True)
    clock = FakeClock(start=0.0, auto_advance=0.0)
    if fuses == "prepares":
        coalescer = PrepareCoalescer(
            store.proxy, window=3600.0, max_batch=1, clock=clock
        )
        request, call = Request.read(KEYS[0]), coalescer.prepare
    else:
        coalescer = ServerAccessCoalescer(
            store.server, window=3600.0, max_batch=1, clock=clock
        )
        request, call = store.proxy.prepare(Request.read(KEYS[0]))[0], coalescer.process
    results = []
    caller = threading.Thread(
        target=lambda: results.append(call(request)), daemon=True
    )
    caller.start()
    caller.join(timeout=10)
    assert not caller.is_alive(), "lone caller is waiting out the flush timer"
    assert len(results) == 1
    assert clock.now() == 0.0


# --------------------------------------------------------------------- #
# Obliviousness of the fused path
# --------------------------------------------------------------------- #


def test_fused_window_get_and_put_have_identical_shape():
    """Inside one fused window, a GET and a PUT entry are shape-identical
    on the wire: same request bytes, same table counts, same entry sizes.
    The window mix leaks nothing about which entries wrote."""
    shapes = []
    for ops in (("r", "r", "r", "r"), ("r", "w", "w", "r")):
        store = _store(batched=True)
        requests = [
            Request.read(KEYS[i])
            if op == "r"
            else Request.write(KEYS[i], b"\x42" * VALUE_LEN)
            for i, op in enumerate(ops)
        ]
        engine = ParallelPrepareEngine(
            store.proxy, workers=0, coalesce_window=0.0005, coalesce_batch=4
        )
        try:
            triples = engine.prepare_batch(requests)
        finally:
            engine.close()
        shapes.append(
            [
                (
                    len(built.to_bytes()),
                    len(built.tables),
                    {len(table) for table in built.tables},
                    {
                        len(entry)
                        for table in built.tables
                        for entry in table
                    },
                )
                for built, _ops, _epoch in triples
            ]
        )
    assert shapes[0] == shapes[1]


def test_model_check_passes_on_coalesced_backend():
    """`repro plan --check`'s coalesced case: model == ledger exactly on
    the coalesced shared-memory path."""
    from repro.analysis.costmodel import run_model_check

    report = run_model_check(value_sizes=(8,), backends=("coalesced",))
    assert report["ok"], report["cases"]


# --------------------------------------------------------------------- #
# Construction validation
# --------------------------------------------------------------------- #


def test_coalescer_rejects_bad_parameters():
    store = _store(batched=True)
    with pytest.raises(ConfigurationError):
        PrepareCoalescer(store.proxy, window=-1.0)
    with pytest.raises(ConfigurationError):
        PrepareCoalescer(store.proxy, max_batch=0)
    scalar = _store(batched=False)
    with pytest.raises(ConfigurationError):
        PrepareCoalescer(scalar.proxy)
