"""Server access windows: a fused window must be transparent.

:meth:`~repro.core.lbl.server.LblServer.process_many` serves a window of
requests — a batch frame, or a lone access frame as a window of one — and
fuses how many storage accesses and row opens the window costs, and
nothing else.  These tests pin the transparency claims:

* protocol equivalence — ``process_many`` is the server's only access path
  (``process`` is a window of one), so the property compares it against a
  small sequential oracle written in this file: any windowing of any
  interleaving (same-key chains, corrupt ciphertexts, missing keys) yields
  exactly the oracle's responses, errors, op counts, final label state,
  storage access counts and — with capture on — per-request span
  attributes and ``lbl.server.*`` counters;
* fusion — a window of distinct present keys is exactly one storage
  multi-get, one window-wide ``rows.open_rows`` (a run of rows per
  request, each under its own nonce), one storage multi-put;
* obliviousness — a fused GET window and a fused PUT window are
  shape-identical, in wire bytes and in every span attribute the server
  emits, and the sharded obliviousness audit passes over TCP shards;
* attribution — each request's ledger row gets its byte-exact closed-form
  share of the fused open, and a row-less window-mate leaks nothing into
  anyone else's row (the model==ledger equality is exercised through
  ``run_model_check``'s ``batch`` cell);
* error-path telemetry — failed opens emit their span and
  ``lbl.server.*`` counters too.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.base import OpCounts
from repro.core.lbl import LblOrtoa
from repro.core.lbl.server import SERVER_SPAN, LblServer
from repro.core.messages import LblAccessRequest, LblAccessResponse
from repro.crypto import rows
from repro.crypto.labels import StoredRecord
from repro.errors import (
    ConfigurationError,
    KeyNotFoundError,
    OrtoaError,
    ProtocolError,
)
from repro.types import Request, StoreConfig

pytestmark = pytest.mark.timeout(300)

KEYS = tuple(f"f{i}" for i in range(4))
VALUE_LEN = 8
LABEL_LEN = 16  # StoreConfig's default 128-bit labels

#: One access: (key index, is_write, written byte, fault) where fault is
#: 0 = clean, 1 = corrupt group-0 entries, 2 = unknown encoded key,
#: 3 = last table dropped (table count mismatch), 4 = the same slab declared
#: as one wide entry per group (table count still right, but no slot above 0
#: to open — found after the earlier groups were already gathered).
WORKLOADS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=len(KEYS) - 1),
        st.booleans(),
        st.integers(min_value=1, max_value=250),
        st.integers(min_value=0, max_value=4),
    ),
    min_size=1,
    max_size=10,
)


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _protocol() -> LblOrtoa:
    store = LblOrtoa(StoreConfig(value_len=VALUE_LEN, group_bits=2))
    store.initialize(
        {key: bytes([i + 1]) * VALUE_LEN for i, key in enumerate(KEYS)}
    )
    return store


def _clone_server(server: LblServer) -> LblServer:
    clone = LblServer()
    for encoded_key, record in server.store._data.items():
        clone.load(encoded_key, record)
    return clone


def _corrupt_group0(request: LblAccessRequest) -> LblAccessRequest:
    """Flip the last byte — a check byte — of every group-0 row (lengths
    preserved)."""
    group0 = tuple(ct[:-1] + bytes([ct[-1] ^ 0xFF]) for ct in request.tables[0])
    return LblAccessRequest.from_tables(
        request.encoded_key, (group0,) + request.tables[1:], request.nonce
    )


def _build_workload(store: LblOrtoa, workload) -> list[LblAccessRequest]:
    built = []
    for key_index, is_write, byte, fault in workload:
        key = KEYS[key_index]
        request = (
            Request.write(key, bytes([byte]) * VALUE_LEN)
            if is_write
            else Request.read(key)
        )
        lbl_request, _ops = store.proxy.prepare(request)
        if fault == 1:
            lbl_request = _corrupt_group0(lbl_request)
        elif fault == 2:
            lbl_request = dataclasses.replace(lbl_request, encoded_key=b"\xee" * 16)
        elif fault == 3:
            lbl_request = LblAccessRequest.from_tables(
                lbl_request.encoded_key, lbl_request.tables[:-1], lbl_request.nonce
            )
        elif fault == 4:
            lbl_request = dataclasses.replace(
                lbl_request,
                table_size=1,
                entry_len=lbl_request.table_size * lbl_request.entry_len,
            )
        built.append(lbl_request)
    return built


class _SequentialOracle:
    """§5.2 step 2 with §10.2 rows, one request at a time, on a plain dict.

    get → open the designated slot of every group → rotate → put.  Shares
    no code with :class:`LblServer`: it keeps one ``(label, slot)`` pair per
    group instead of two blobs, slices the request's ``tables`` view, opens
    with the scalar :func:`rows.open_row`, and keeps its own storage access
    counts and the observation record the server must emit.
    """

    def __init__(self, server: LblServer) -> None:
        self.state = {
            key: [
                (record.labels[g * LABEL_LEN : (g + 1) * LABEL_LEN], record.slots[g])
                for g in range(len(record.labels) // LABEL_LEN)
            ]
            for key, record in server.store._data.items()
        }
        self.gets = 0
        self.puts = 0

    def records(self) -> dict[bytes, StoredRecord]:
        """The state in the server's stored form."""
        return {
            key: StoredRecord(
                b"".join(label for label, _slot in groups),
                bytes(slot for _label, slot in groups),
            )
            for key, groups in self.state.items()
        }

    def _open(self, request, stored, seen):
        """Returns the rotated groups; ``seen`` accumulates attempt counts."""
        tables = request.tables
        if len(tables) != len(stored):
            raise ProtocolError(f"table count {len(tables)} != stored groups {len(stored)}")
        if request.entry_len != LABEL_LEN + 1 + rows.CHECK_LEN:
            raise ProtocolError(
                f"entry length {request.entry_len} is no row of a {LABEL_LEN}-byte label"
            )
        for group, (table, (_label, slot)) in enumerate(zip(tables, stored)):
            if slot >= len(table):
                raise ProtocolError(f"bad decrypt index at group {group}")
        payloads = [
            rows.open_row(label, table[slot], request.nonce)
            for table, (label, slot) in zip(tables, stored)
        ]
        seen["decrypt_attempts"] = len(payloads)
        seen["failed_decrypts"] = payloads.count(None)
        updated = []
        for group, payload in enumerate(payloads):
            if payload is None:
                raise ProtocolError(f"designated entry failed to open at group {group}")
            updated.append((payload[:-1], payload[-1]))
            seen["opened_labels"] += 1
        return updated

    def access(self, request: LblAccessRequest) -> tuple[tuple, dict]:
        """One access: ``(outcome, span attributes the server must emit)``."""
        seen = dict(
            key_fingerprint=request.encoded_key.hex()[:16],
            groups=len(request.tables),
            table_entries=sum(len(table) for table in request.tables),
            ciphertext_bytes=sum(len(e) for table in request.tables for e in table),
            decrypt_attempts=0,
            failed_decrypts=0,
            opened_labels=0,
            labels_rewritten=0,
            storage_writes=0,
        )
        self.gets += 1
        try:
            stored = self.state.get(request.encoded_key)
            if stored is None:
                raise KeyNotFoundError(
                    f"lbl-server: key {request.encoded_key.hex()[:16]}… not found"
                )
            updated = self._open(request, stored, seen)
        except OrtoaError as exc:
            seen["error"] = str(exc)
            return ("err", type(exc).__name__, str(exc)), seen
        self.state[request.encoded_key] = updated
        self.puts += 1
        seen.update(labels_rewritten=len(updated), storage_writes=1)
        response = LblAccessResponse.from_labels([label for label, _slot in updated])
        ops = OpCounts(
            kv_ops=2,
            aead_dec=seen["decrypt_attempts"] - seen["failed_decrypts"],
            failed_dec=seen["failed_decrypts"],
        )
        return ("ok", response.to_bytes(), ops), seen


def _normalized(fused_results) -> list[tuple]:
    results = []
    for item in fused_results:
        if isinstance(item, OrtoaError):
            results.append(("err", type(item).__name__, str(item)))
        else:
            response, ops = item
            results.append(("ok", response.to_bytes(), ops))
    return results


def _by_key(records) -> dict[str, list[dict]]:
    """Observation records grouped per key, each key's in access order.

    A window serves its repeated keys after its distinct ones, so spans of
    *different* keys may finish out of arrival order; one key's never do.
    """
    grouped: dict[str, list[dict]] = {}
    for record in records:
        grouped.setdefault(record["key_fingerprint"], []).append(record)
    return grouped


# --------------------------------------------------------------------- #
# Equivalence: any windowing == the sequential oracle
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("window_size", [1, 3, None], ids=["w1", "w3", "whole"])
@pytest.mark.parametrize("capture", [False, True], ids=["obs-off", "obs-on"])
@settings(max_examples=15, deadline=None)
@given(WORKLOADS)
def test_fused_window_equals_sequential_loop(capture, window_size, workload):
    store = _protocol()
    server = _clone_server(store.server)
    oracle = _SequentialOracle(server)
    built = _build_workload(store, workload)
    expected = [oracle.access(request) for request in built]

    gets, puts = server.store.get_count, server.store.put_count
    size = window_size or len(built)
    obs.reset()
    if capture:
        obs.enable()
    try:
        actual = []
        for start in range(0, len(built), size):
            window = built[start : start + size]
            if window_size == 1:
                # ``process`` is the window of one that raises its error.
                try:
                    actual.append(server.process(window[0]))
                except OrtoaError as exc:
                    actual.append(exc)
            else:
                actual += server.process_many(window)
        spans = [s["attributes"] for s in obs.TRACER.export() if s["name"] == SERVER_SPAN]
        counters = obs.REGISTRY.snapshot()["counters"]
    finally:
        obs.disable()

    assert _normalized(actual) == [outcome for outcome, _seen in expected]
    # Same final label state: every rotation (and every skipped rotation
    # on failure) landed identically, at the same storage access counts.
    assert server.store._data == oracle.records()
    assert server.store.get_count - gets == oracle.gets
    assert server.store.put_count - puts == oracle.puts
    if not capture:
        assert spans == []
        return
    records = [seen for _outcome, seen in expected]
    assert _by_key(spans) == _by_key(records)
    for counter, attribute in (
        ("lbl.server.decrypt_attempts", "decrypt_attempts"),
        ("lbl.server.failed_decrypts", "failed_decrypts"),
        ("lbl.server.labels_rewritten", "labels_rewritten"),
    ):
        assert counters.get(counter, 0) == sum(r[attribute] for r in records)
    assert counters.get("lbl.server.requests", 0) == len(records)


def test_same_key_chain_preserves_rotation_order():
    store = _protocol()
    fused_server = _clone_server(store.server)
    # Three accesses to one key in one window: each consumes the labels its
    # predecessor installs, so the fused path must chain them in order.
    built = _build_workload(
        store, [(0, True, 10, 0), (0, True, 20, 0), (0, False, 0, 0)]
    )
    results = fused_server.process_many(built)
    assert all(not isinstance(item, OrtoaError) for item in results)
    # A chain cannot share a storage access — each link reads what the
    # previous one wrote — so three accesses to one key are three windows
    # of one on the same path, not a second implementation.
    assert fused_server.store.multi_get_count == 3
    assert fused_server.store.multi_put_count == 3
    assert fused_server.store.get_count == 3


def test_failed_request_is_isolated_from_window_mates():
    store = _protocol()
    fused_server = _clone_server(store.server)
    built = _build_workload(
        store, [(0, False, 0, 0), (1, False, 0, 1), (2, False, 0, 0)]
    )
    results = fused_server.process_many(built)
    assert not isinstance(results[0], OrtoaError)
    assert isinstance(results[1], ProtocolError)
    assert not isinstance(results[2], OrtoaError)


def test_odd_row_width_request_is_isolated_from_window_mates():
    """A request that declares another entry width than its stored labels
    make is refused on its own, before the window-wide open."""
    store = _protocol()
    fused_server = _clone_server(store.server)
    built = _build_workload(
        store, [(0, False, 0, 0), (1, False, 0, 0), (2, True, 7, 0)]
    )
    odd = built[1]
    assert odd.entry_len == 25
    built[1] = dataclasses.replace(odd, table_size=odd.table_size * 5, entry_len=5)
    results = fused_server.process_many(built)
    assert not isinstance(results[0], OrtoaError)
    assert isinstance(results[1], ProtocolError)
    assert str(results[1]) == "entry length 5 is no row of a 16-byte label"
    assert not isinstance(results[2], OrtoaError)
    # Refused before commit: the key still holds its initial labels.
    assert fused_server.store.get(odd.encoded_key) == store.server.store.get(
        odd.encoded_key
    )


def test_process_many_empty_and_row_validation():
    store = _protocol()
    assert store.server.process_many([]) == []
    built = _build_workload(store, [(0, False, 0, 0)])
    with pytest.raises(ConfigurationError):
        store.server.process_many(built, rows=[])


# --------------------------------------------------------------------- #
# Fusion: one multi-get, one open_rows, one multi-put per window
# --------------------------------------------------------------------- #

def test_window_is_one_multiget_one_open_one_multiput(monkeypatch):
    import repro.crypto.rows as rows_mod

    store = _protocol()
    server = store.server
    built = [store.proxy.prepare(Request.read(key))[0] for key in KEYS]

    open_calls: list[list[tuple[bytes, int, int]]] = []
    original = rows_mod.open_rows

    def counting(runs):
        open_calls.append(
            [
                (nonce, len(keys) // LABEL_LEN, len(picks) * row_len)
                for nonce, keys, _slab, row_len, picks in runs
            ]
        )
        return original(runs)

    monkeypatch.setattr(rows_mod, "open_rows", counting)
    results = server.process_many(built)

    assert all(not isinstance(item, OrtoaError) for item in results)
    # One call over exactly the designated rows — a run per request, each
    # under that request's own nonce — and no other entry of any slab.
    num_groups = built[0].num_groups
    assert open_calls == [
        [(request.nonce, num_groups, num_groups * request.entry_len) for request in built]
    ]
    assert len({request.nonce for request in built}) == len(KEYS)
    assert server.store.multi_get_count == 1
    assert server.store.multi_put_count == 1


def test_multi_get_and_put_account_per_key():
    store = _protocol()
    server = store.server
    before_gets = server.store.get_count
    before_puts = server.store.put_count
    built = [store.proxy.prepare(Request.read(key))[0] for key in KEYS]
    server.process_many(built)
    # Per-key accounting matches a sequential loop exactly; only the multi
    # counters reveal that one fused storage access served the window.
    assert server.store.get_count == before_gets + len(KEYS)
    assert server.store.put_count == before_puts + len(KEYS)


# --------------------------------------------------------------------- #
# Obliviousness: fused GET and PUT windows are shape-identical
# --------------------------------------------------------------------- #

def _window_observations(requests, server):
    obs.reset()
    obs.enable()
    results = server.process_many(requests)
    assert all(not isinstance(item, OrtoaError) for item in results)
    spans = [
        span
        for span in obs.TRACER.export()
        if span["name"] == SERVER_SPAN
    ]
    shapes = [
        {
            key: value
            for key, value in span["attributes"].items()
            if key != "key_fingerprint"
        }
        for span in spans
    ]
    wire = [
        (len(request.to_bytes()), len(response.to_bytes()))
        for request, (response, _ops) in zip(requests, results)
    ]
    obs.disable()
    return shapes, wire


def test_fused_get_and_put_windows_are_shape_identical():
    get_store = _protocol()
    put_store = _protocol()
    get_built = [
        get_store.proxy.prepare(Request.read(key))[0] for key in KEYS
    ]
    put_built = [
        put_store.proxy.prepare(
            Request.write(key, bytes([99]) * VALUE_LEN)
        )[0]
        for key in KEYS
    ]
    get_shapes, get_wire = _window_observations(get_built, get_store.server)
    put_shapes, put_wire = _window_observations(put_built, put_store.server)
    assert get_shapes == put_shapes
    assert get_wire == put_wire


def test_sharded_audit_passes_with_fusion_on():
    from repro.core.sharded import ShardedLblDeployment
    from repro.obs.audit import run_sharded_audit
    from repro.transport.cluster import ShardCluster

    config = StoreConfig(value_len=16, group_bits=2)
    with ShardCluster(2, in_process=True) as cluster:
        dep = ShardedLblDeployment(config, cluster.addresses)
        try:
            report = run_sharded_audit(dep, num_keys=16, seed=3)
        finally:
            dep.close()
    assert report.passed, report.summary()


# --------------------------------------------------------------------- #
# Attribution: closed-form per-row shares, no leakage across rows
# --------------------------------------------------------------------- #

def test_fused_rows_get_exact_shares_and_rowless_mates_leak_nothing():
    from repro.obs import ledger

    obs.enable()
    store = _protocol()
    built = [
        store.proxy.prepare(Request.read(KEYS[0]))[0],
        store.proxy.prepare(Request.read(KEYS[1]))[0],
    ]
    num_groups = built[0].num_groups
    with ledger.track(label="tracked") as tracked:
        pass
    with ledger.track(label="ambient") as ambient:
        results = store.server.process_many(built, rows=[tracked, None])
    assert all(not isinstance(item, OrtoaError) for item in results)
    assert tracked.snapshot()["ops"].get("aead.decrypts", 0) == num_groups
    # The row-less window-mate must not bill the flushing thread's row.
    assert ambient.snapshot()["ops"].get("aead.decrypts", 0) == 0


def test_rows_omitted_inherits_ambient_row_like_sequential():
    from repro.obs import ledger

    obs.enable()
    store = _protocol()
    built = [
        store.proxy.prepare(Request.read(KEYS[0]))[0],
        store.proxy.prepare(Request.read(KEYS[1]))[0],
    ]
    num_groups = built[0].num_groups
    with ledger.track(label="caller") as caller:
        results = store.server.process_many(built)
    assert all(not isinstance(item, OrtoaError) for item in results)
    assert caller.snapshot()["ops"].get("aead.decrypts", 0) == 2 * num_groups


def test_model_check_batch_cell_is_exact():
    from repro.analysis.costmodel import run_model_check

    report = run_model_check(value_sizes=(4,))
    assert report["ok"], report["cases"]
    batch = [case for case in report["cases"] if case["path"] == "batch"]
    assert {case["op"] for case in batch} == {"get", "put"}


# --------------------------------------------------------------------- #
# Satellite bugfix: error paths emit spans and counters
# --------------------------------------------------------------------- #

def test_point_and_permute_error_path_emits_span_and_counters():
    store = _protocol()
    built, _ops = store.proxy.prepare(Request.read(KEYS[0]))
    corrupt = _corrupt_group0(built)
    obs.enable()
    with pytest.raises(ProtocolError):
        store.server.process(corrupt)
    counters = obs.REGISTRY.snapshot()["counters"]
    assert counters.get("lbl.server.requests", 0) == 1
    num_groups = built.num_groups
    # open_rows attempted every designated row; only group 0 failed.
    assert counters.get("lbl.server.decrypt_attempts", 0) == num_groups
    assert counters.get("lbl.server.failed_decrypts", 0) == 1
    spans = [s for s in obs.TRACER.export() if s["name"] == SERVER_SPAN]
    assert len(spans) == 1
    assert "error" in spans[0]["attributes"]
