"""The proxy's in-flight table: bounded, invisible, and worth its PRF calls.

``prepare`` files every new epoch's ``(W, offsets)`` so ``finalize`` can
run the §5.4 tamper check without re-deriving it.  The table is the one piece
of proxy state beyond the counters, so its claims are tested, not assumed:

* **bounded** — epochs whose request failed are never finalized; the table
  stays under its entry cap and its byte budget however many pile up, also
  with threads evicting concurrently;
* **invisible** — over random GET/PUT sequences through every access shape,
  with orphaned epochs, forced counters, restored counters and WAL rollback
  injected, values equal a dict oracle, decoding from the table equals
  re-deriving, and a flipped label bit raises either way;
* **counted** — ``finalize`` reports zero PRF calls exactly when the epoch was
  in the table, and a whole access makes 3 PRF calls (two epochs and the key
  encoding) where the paper's per-label derivation, which the figures still
  price, makes 2601 / 35 / 815 at 160 B / 2 B / 50 B values; every call
  shape, GET or PUT, makes the same AES blocks per access.
"""

from __future__ import annotations

import itertools
import sys
import threading
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.analysis.costmodel import LblCostModel
from repro.core.lbl import LblOrtoa
from repro.core.lbl import proxy as proxy_module
from repro.core.lbl.proxy import LblProxy
from repro.core.messages import LblAccessResponse
from repro.core.sharded import ShardedLblDeployment
from repro.crypto.keys import KeyChain
from repro.errors import TamperDetectedError
from repro.harness.calibration import CostModel
from repro.obs import ledger
from repro.transport.cluster import ShardCluster
from repro.transport.pipeline import LocalLink
from repro.types import Request, StoreConfig

pytestmark = pytest.mark.timeout(120)

VALUE_LEN = 2
CONFIG = StoreConfig(value_len=VALUE_LEN, group_bits=2)
KEYS = ["k0", "k1", "k2"]


# --------------------------------------------------------------------- #
# Bound
# --------------------------------------------------------------------- #


def test_ten_thousand_unfinalized_prepares_stay_under_the_cap(monkeypatch):
    # The entry cap is the byte budget over a blob's length plus a fixed
    # per-entry overhead, so the claim to prove is "a full table's real bytes
    # stay under the budget it was sized from" — at 2 B values, where the
    # overhead is most of an entry.  A 256 KiB budget proves it in a fraction
    # of the time the shipped one would take under tracemalloc.
    budget = 256 * 1024
    assert budget <= proxy_module._INFLIGHT_TABLE_BYTES
    monkeypatch.setattr(proxy_module, "_INFLIGHT_TABLE_BYTES", budget)
    proxy = LblProxy(CONFIG, KeyChain(label_bits=CONFIG.label_bits))
    proxy.initial_records({key: bytes(VALUE_LEN) for key in KEYS})
    capacity = proxy._inflight_capacity
    # tracemalloc slows a prepare ~20x, so only the tail is traced — a tail
    # longer than the cap, so every entry the table ends up holding was
    # allocated under the tracer and the growth is the whole table's size.
    traced = 1_000
    assert 1 < capacity < traced

    def prepare_unfinalized(count: int) -> None:
        for n in range(count):
            proxy.prepare(Request.read(KEYS[n % len(KEYS)]))
            assert len(proxy._inflight) <= capacity

    prepare_unfinalized(10_000 - traced)
    tracemalloc.start()
    try:
        before, _peak = tracemalloc.get_traced_memory()
        prepare_unfinalized(traced)
        after, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(proxy._inflight) == capacity
    assert 0 < after - before <= budget


def test_eviction_is_oldest_first_and_only_costs_the_rederivation():
    store = LblOrtoa(CONFIG)
    store.initialize({key: bytes(VALUE_LEN) for key in KEYS})
    proxy = store.proxy
    proxy._inflight_capacity = 2
    sent = []
    for key in KEYS:
        built, _ops = proxy.prepare(Request.write(key, key.encode()))
        sent.append((key, store.server.process(built)[0]))
    assert len(proxy._inflight) == 2
    costs = []
    for key, response in sent:
        value, ops = proxy.finalize(key, response, counter=1)
        assert value == key.encode()
        costs.append(ops.prf)
    assert costs == [1, 0, 0]
    assert len(proxy._inflight) == 0


def test_more_outstanding_paper_point_accesses_than_the_table_holds():
    """A batch deeper than the table at 160 B: the overflow falls out oldest
    first, every value still decodes, and only the evicted epochs re-derive."""
    config = StoreConfig(value_len=160, group_bits=2)
    store = LblOrtoa(config)
    proxy = store.proxy
    # 4 MiB of 656-byte (W, offsets) pairs and their overhead: far above one
    # epoch per frame of a depth-8 pipeline.  Overflowed here at 40, which
    # takes 44 accesses rather than 4,301.
    assert proxy._inflight_capacity == 4 * 1024 * 1024 // (16 + 640 + 320) == 4297
    capacity = proxy._inflight_capacity = 40
    keys = [f"k{n}" for n in range(capacity + 4)]
    store.initialize({key: bytes(160) for key in keys})
    sent = []
    for n, key in enumerate(keys):
        built, _ops = proxy.prepare(Request.write(key, bytes((n,)) * 160))
        sent.append(store.server.process(built)[0])
    assert len(proxy._inflight) == capacity
    costs = []
    for n, (key, response) in enumerate(zip(keys, sent)):
        value, ops = proxy.finalize(key, response, counter=1)
        assert value == bytes((n,)) * 160
        costs.append(ops.prf)
    assert costs == [1] * 4 + [0] * capacity


def test_an_evicted_epoch_is_taken_from_the_label_cache_before_rederiving():
    config = StoreConfig(
        value_len=VALUE_LEN, group_bits=2,
        label_cache_entries=8,
    )
    store = LblOrtoa(config)
    store.initialize({key: bytes(VALUE_LEN) for key in KEYS})
    proxy = store.proxy
    proxy._inflight_capacity = 1
    sent = []
    for key in KEYS[:2]:
        built, _ops = proxy.prepare(Request.write(key, key.encode()))
        sent.append((key, store.server.process(built)[0]))
    assert list(proxy._inflight) == [(KEYS[1], 1)]
    for key, response in sent:
        value, ops = proxy.finalize(key, response, counter=1)
        assert value == key.encode()
        assert ops.prf == 0  # neither derives: the cache still holds both
    assert proxy.label_cache.peek(KEYS[0], 1) is not None  # peeked, not taken


def test_concurrent_evictions_keep_the_bound_and_the_values():
    """More threads than cores, a table too small for them, a short switch
    interval: every access still decodes and the table never outgrows its cap."""
    store = LblOrtoa(CONFIG)
    threads, rounds = 8, 40
    store.initialize({f"t{t}": bytes(VALUE_LEN) for t in range(threads)})
    store.proxy._inflight_capacity = 2
    front = store
    errors: list[BaseException] = []
    oversize = []
    completed: list[int] = []

    def worker(t: int) -> None:
        key = f"t{t}"
        try:
            for n in range(rounds):
                value = bytes((t, n))
                front.write(key, value)
                completed.append(1)
                if len(store.proxy._inflight) > store.proxy._inflight_capacity + threads:
                    oversize.append(len(store.proxy._inflight))
                assert front.read(key) == value
                completed.append(1)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        pool = [threading.Thread(target=worker, args=(t,)) for t in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in pool)
    assert not errors, errors
    assert not oversize, oversize
    assert len(completed) == 2 * threads * rounds
    assert len(store.proxy._inflight) <= store.proxy._inflight_capacity


# --------------------------------------------------------------------- #
# Invisibility: random sequences with injected faults
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def cluster():
    with ShardCluster(1, in_process=True) as running:
        yield running


_RUN = itertools.count()

_op = st.tuples(
    st.sampled_from(range(len(KEYS))),
    st.one_of(st.none(), st.binary(min_size=VALUE_LEN, max_size=VALUE_LEN)),
)
_ops = st.lists(_op, min_size=1, max_size=12)
_step = st.one_of(
    st.tuples(st.just("access"), _op),
    st.tuples(st.just("pipelined"), _ops),
    st.tuples(st.just("batch"), _ops),
    st.tuples(st.just("orphan"), _op),
    st.tuples(st.just("by-hand"), _op),
    st.tuples(st.just("force"), st.sampled_from(range(len(KEYS)))),
    st.tuples(st.just("restore"), st.none()),
)


def _flip_bit(response: LblAccessResponse, position: int) -> LblAccessResponse:
    """``response`` with one bit flipped in its slots or its digest."""
    body = bytearray(response.slots + response.digest)
    body[position % len(body)] ^= 1 << (position % 8)
    cut = len(response.slots)
    return LblAccessResponse(bytes(body[:cut]), response.slot_bits, bytes(body[cut:]))


@settings(max_examples=100, deadline=None)
@given(
    steps=st.lists(_step, min_size=1, max_size=10),
    capacity=st.sampled_from([3, 1 << 20]),
    flip=st.integers(min_value=0, max_value=10_000),
)
def test_random_sequences_match_the_oracle(cluster, steps, capacity, flip):
    prefix = f"run{next(_RUN)}-"
    names = [prefix + key for key in KEYS]
    oracle = {name: bytes(VALUE_LEN) for name in names}
    deployment = ShardedLblDeployment(CONFIG, cluster.addresses, pipeline_depth=8)
    proxy = deployment.proxy
    proxy._inflight_capacity = capacity
    real_finalize = proxy.finalize

    def checked_finalize(key, response, counter=None):
        """``OpCounts.prf`` is 0 exactly when the epoch was in the table."""
        epoch = proxy.counter(key) if counter is None else counter
        held = (key, epoch) in proxy._inflight
        value, ops = real_finalize(key, response, counter=counter)
        assert ops.prf == (0 if held else 1)
        assert (key, epoch) not in proxy._inflight
        return value, ops

    proxy.finalize = checked_finalize

    def request_for(op):
        name = names[op[0]]
        if op[1] is None:
            return Request.read(name)
        oracle[name] = op[1]
        return Request.write(name, op[1])

    def check(transcripts, requests):
        assert len(transcripts) == len(requests)
        for transcript, expected in zip(transcripts, requests):
            assert transcript.response.value == expected

    def round_trip(request):
        """Prepare and send by hand; the server applies the new epoch."""
        epoch = proxy.counter(request.key) + 1
        built, _ops = proxy.prepare(request)
        shard = deployment.shard_of(request.key)
        reply = deployment.clients[shard].submit(built.to_bytes()).result(30)
        return epoch, LblAccessResponse.from_bytes(reply)

    try:
        deployment.initialize(dict(oracle))
        for kind, arg in steps:
            if kind == "access":
                request = request_for(arg)
                assert deployment.access(request).response.value == oracle[request.key]
            elif kind in ("pipelined", "batch"):
                requests, expected = [], []
                for op in arg:  # repeated keys: each sees the writes before it
                    requests.append(request_for(op))
                    expected.append(oracle[requests[-1].key])
                if kind == "pipelined":
                    check(deployment.access_pipelined(requests, depth=8), expected)
                else:
                    check(deployment.access_batch(requests), expected)
            elif kind == "orphan":
                # The reply is lost after the server applied the request:
                # the epoch is never finalized and stays in the table.
                round_trip(request_for(arg))
            elif kind == "by-hand":
                request = request_for(arg)
                epoch, response = round_trip(request)
                tampered = _flip_bit(response, flip)
                from_table = checked_finalize(request.key, response, counter=epoch)
                rederived = checked_finalize(request.key, response, counter=epoch)
                assert from_table[0] == rederived[0] == oracle[request.key]
                assert (from_table[1].prf, rederived[1].prf) == (0, 1)
                with pytest.raises(TamperDetectedError):  # re-derived candidates
                    real_finalize(request.key, tampered, counter=epoch)
                proxy._remember_epoch(
                    request.key, epoch, proxy.codec.epochs(request.key, epoch)[0]
                )
                with pytest.raises(TamperDetectedError):  # table candidates
                    real_finalize(request.key, tampered, counter=epoch)
            elif kind == "force":
                # A resynchronization that lands on the same epoch still
                # drops the epoch the key had in flight.
                name = names[arg]
                proxy.force_counter(name, proxy.counter(name))
                assert (name, proxy.counter(name)) not in proxy._inflight
            else:
                proxy.restore_counters(proxy.counters())
                assert len(proxy._inflight) == 0
            assert len(proxy._inflight) <= capacity
        for name in names:
            assert deployment.access(Request.read(name)).response.value == oracle[name]
    finally:
        deployment.close()


@settings(max_examples=50, deadline=None)
@given(
    ops=st.lists(st.tuples(_op, st.booleans()), min_size=1, max_size=12),
)
def test_wal_rollback_matches_the_oracle(tmp_path_factory, ops):
    """A logged epoch that never reached the server: the failed attempt's
    epoch is dropped from the table, the retry is finalized from it."""
    wal_path = tmp_path_factory.mktemp("wal") / "proxy.wal"
    store = ShardedLblDeployment(CONFIG, [LocalLink()], wal_path=wal_path)
    oracle = {key: bytes(VALUE_LEN) for key in KEYS}
    store.initialize(dict(oracle))
    proxy = store.proxy
    for (index, value), phantom in ops:
        key = KEYS[index]
        if phantom:
            # Crash between the WAL append and the send: after recovery the
            # proxy's counter is one epoch ahead of the server's labels.
            proxy.force_counter(key, proxy.counter(key) + 1)
        resyncs = store.recovered_resyncs
        if value is None:
            transcript = store.access(Request.read(key))
        else:
            oracle[key] = value
            transcript = store.access(Request.write(key, value))
        assert transcript.response.value == oracle[key]
        assert transcript.phases[-1].ops.prf == 0  # finalized from the table
        assert store.recovered_resyncs == resyncs + phantom
        assert len(proxy._inflight) == 0
    store.wal.close()


# --------------------------------------------------------------------- #
# Counts
# --------------------------------------------------------------------- #


@pytest.fixture
def metered():
    obs.reset()
    obs.enable()
    yield
    obs.disable()
    obs.reset()


@pytest.mark.parametrize(
    "value_len, paper_priced", [(160, 2601), (2, 35), (50, 815)]
)
def test_prf_evaluations_per_access_are_pinned(metered, value_len, paper_priced):
    """Calls made: two epochs plus the key encoding, nothing twice, whatever
    the value size.  Priced under ``paper_like``: the per-label derivation's
    evaluations, which is what keeps the figure reproductions where they were."""
    config = StoreConfig(value_len=value_len, group_bits=2)
    store = LblOrtoa(config)
    store.initialize({"k": bytes(value_len)})
    for request in (Request.read("k"), Request.write("k", b"\x01" * value_len)):
        epoch = store.proxy.counter("k")
        obs.reset()
        transcript = store.access(request)
        proxy_phases = [p for p in transcript.phases if p.location == "proxy"]
        assert sum(phase.ops.prf for phase in proxy_phases) == 3
        assert proxy_phases[-1].ops.prf == 0
        assert ledger.registry_ops_snapshot()["prf.calls"] == 3
        model = LblCostModel.from_config(config, key="k", counter=epoch)
        assert model.ops()["prf.calls"] == 3
        paper, measured = CostModel.paper_like(), CostModel(paper_wire=False)
        assert [
            paper.priced_ops(config, phase).prf for phase in proxy_phases
        ] == [paper_priced, 0]
        assert [
            measured.priced_ops(config, phase) for phase in transcript.phases
        ] == [phase.ops for phase in transcript.phases]


def test_finalize_row_is_empty_from_the_table_and_one_derivation_without(metered):
    config = StoreConfig(value_len=16, group_bits=2)
    store = LblOrtoa(config)
    store.initialize({"k": bytes(16)})
    built, _ops = store.proxy.prepare(Request.read("k"))
    response, _server_ops = store.server.process(built)
    # Either way the 64 labels the reply selects, one AES block each; without
    # the table one derivation more: a 16-byte squeeze (one block absorbed,
    # one squeezed) and the epoch's 64 offsets, 4 AES blocks.
    for expected in ((0, 0, 64), (1, 2, 4 + 64)):
        obs.reset()
        _value, ops = store.proxy.finalize("k", response, counter=1)
        measured = ledger.registry_ops_snapshot()
        assert (
            measured.get("prf.calls", 0),
            measured.get("shake256.blocks", 0),
            measured.get("aes.blocks", 0),
        ) == expected
        assert ops.prf == expected[0]


def test_every_call_shape_derives_each_epoch_once(metered):
    """``access``, ``access_pipelined`` (16 keys, depth 8) and ``access_batch``
    spend the same AES blocks, PRF calls and XOF blocks per access, for a
    GET and for a PUT: no shape derives an epoch, or a label run, twice —
    and that is what the cost model predicts."""
    config = StoreConfig(value_len=160, group_bits=2)
    keys = [f"k{n:02d}" for n in range(16)]
    store = LblOrtoa(config)
    try:
        store.initialize({key: bytes(160) for key in keys})
        shapes = {
            "access": lambda requests: [store.access(r) for r in requests],
            "access_pipelined": lambda requests: store.access_pipelined(requests, depth=8),
            "access_batch": store.access_batch,
        }
        seen = {}
        for (name, run), write in itertools.product(shapes.items(), (False, True)):
            requests = [
                Request.write(key, bytes([write]) * 160) if write else Request.read(key)
                for key in keys
            ]
            counter = store.proxy.counter(keys[0])
            assert {store.proxy.counter(key) for key in keys} == {counter}
            obs.reset()
            run(requests)
            ops = ledger.registry_ops_snapshot()
            seen[name, write] = tuple(
                ops[op] / len(keys) for op in ("aes.blocks", "prf.calls", "shake256.blocks")
            )
            model = LblCostModel.from_config(config, key=keys[0], counter=counter).ops()
            expected = tuple(model[op] for op in ("aes.blocks", "prf.calls", "shake256.blocks"))
            assert seen[name, write] == expected, name
        assert len(set(seen.values())) == 1, seen
    finally:
        store.close()
