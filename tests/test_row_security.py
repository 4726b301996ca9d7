"""The two hazards of a one-call point-and-permute row, pinned.

``docs/security-model.md`` ("Point-and-permute rows") has the argument; the
tests are its executable half.

(a) **Same-epoch re-prepare.**  Batch rollback and WAL recovery re-prepare a
    key under the *same* old labels a refused or lost request already used.
    The row pad must therefore be fresh per request, or the two tables are a
    two-time pad: XOR-ing them cancels the pad and shows whether GET or PUT
    payloads lie underneath.
(b) **Refusal before commit.**  A server whose stored labels are not the
    keys of the rows it is told to open — a request one epoch ahead, a wrong
    or missing nonce, a damaged check byte — must refuse *before* it commits
    anything; rollback and the WAL's one-epoch window depend on the stored
    labels surviving a refused request.  What the 8 check bytes do *not*
    cover is pinned too: a flipped label bit is committed and surfaces in
    ``finalize``; a flipped slot byte makes the *next* access be refused.
"""

import dataclasses
import random

import pytest

from repro import obs
from repro.core.lbl import LblOrtoa
from repro.core.lbl import proxy as proxy_module
from repro.core.lbl.server import SERVER_SPAN
from repro.core.messages import LblAccessRequest, LblAccessResponse
from repro.crypto import rows
from repro.errors import ProtocolError, TamperDetectedError
from repro.security.distinguisher import make_first_block_adversary
from repro.security.games import (
    RorRwGame,
    ideal_lbl_output,
    real_lbl_output,
    uniform_random_accesses,
)
from repro.security.simulators import LblSimulator
from repro.types import Request, StoreConfig
from tests import lbl_reference

CONFIG = StoreConfig(value_len=8, group_bits=2)
STORED = b"stored!!"
WRITTEN = b"written!"


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _store() -> LblOrtoa:
    store = LblOrtoa(CONFIG)
    store.initialize({"k": STORED, "other": b"\x07" * 8})
    return store


# --------------------------------------------------------------------- #
# (a) same-epoch re-prepare: the pad is never reused
# --------------------------------------------------------------------- #


def pad_reuse_detected(first: LblAccessRequest, second: LblAccessRequest) -> bool:
    """What an honest-but-curious server can test on two tables for one key.

    XOR corresponding rows.  Under a reused pad the pad cancels and leaves
    ``payload ⊕ payload'``: its 8 check bytes are zero in *every* row, and
    the whole row is zero wherever the two requests carry the same label
    (a GET row under a GET, or a PUT of the value already stored).  Under
    fresh pads each XOR is uniformly random and an 8-byte zero run has
    probability ~2^-64 per position.
    """
    assert (first.table_size, first.entry_len) == (second.table_size, second.entry_len)
    for table_a, table_b in zip(first.tables, second.tables):
        for row_a, row_b in zip(table_a, table_b):
            xored = bytes(a ^ b for a, b in zip(row_a, row_b))
            if row_a == row_b or bytes(rows.CHECK_LEN) in xored:
                return True
    return False


#: Each hazard is pinned on the kernel and on the row-at-a-time reference.
PREPARES = pytest.mark.parametrize(
    "prepare",
    [lambda proxy, request: proxy.prepare(request)[0], lbl_reference.prepare],
    ids=["kernel", "scalar"],
)


def _prepare_get_then_put_at_one_epoch(store: LblOrtoa, prepare):
    """The re-prepare both rollback paths perform: same key, same old labels."""
    epoch = store.proxy.counter("k")
    get = prepare(store.proxy, Request.read("k"))
    store.proxy.force_counter("k", epoch)
    put = prepare(store.proxy, Request.write("k", WRITTEN))
    return get, put


@PREPARES
@pytest.mark.parametrize("label_bits", [128, 256])
def test_same_epoch_reprepare_never_reuses_a_pad(prepare, label_bits):
    config = dataclasses.replace(CONFIG, label_bits=label_bits)
    store = LblOrtoa(config)
    store.initialize({"k": STORED})
    get, put = _prepare_get_then_put_at_one_epoch(store, prepare)
    assert get.nonce != put.nonce and len(get.nonce) == rows.ROW_NONCE_LEN
    assert not pad_reuse_detected(get, put)
    # Same for a GET re-prepared as a GET, the lost-request retry.
    store.proxy.force_counter("k", store.proxy.counter("k") - 1)
    again = prepare(store.proxy, Request.read("k"))
    assert not pad_reuse_detected(get, again)
    # Either table is still the one the server's labels open.
    response, _server_ops = store.server.process(put)
    assert store.proxy.finalize("k", response)[0] == WRITTEN


@PREPARES
def test_negative_control_fixed_nonce_is_a_two_time_pad(monkeypatch, prepare):
    """The detector is not vacuous: pin the nonce and it fires, and the
    XOR of the two tables then says which one was the PUT."""
    monkeypatch.setattr(
        proxy_module.secrets, "token_bytes", lambda n: b"\x42" * n
    )
    store = LblOrtoa(CONFIG)
    store.initialize({"k": STORED})
    get, put = _prepare_get_then_put_at_one_epoch(store, prepare)
    assert get.nonce == put.nonce
    assert pad_reuse_detected(get, put)
    # GET ⊕ GET cancels entirely; GET ⊕ PUT does not: the operation type
    # (and whether the written group equals the stored one) is readable.
    store.proxy.force_counter("k", store.proxy.counter("k") - 1)
    again = prepare(store.proxy, Request.read("k"))
    assert again.slab == get.slab
    assert put.slab != get.slab


def test_kernel_with_a_fixed_nonce_cancels_under_xor():
    keys = b"".join(bytes([i]) * 16 for i in range(1, 5))
    get_labels = b"".join(bytes([0x10 + i]) * 16 for i in range(4))
    put_labels = bytes([0x77]) * 64
    slots, nonce = bytes(4), b"n" * 16
    get = LblAccessRequest(b"k", rows.seal_rows(keys, get_labels, slots, nonce), 4, 25, nonce)
    put = LblAccessRequest(b"k", rows.seal_rows(keys, put_labels, slots, nonce), 4, 25, nonce)
    assert pad_reuse_detected(get, put)
    fresh = LblAccessRequest(
        b"k", rows.seal_rows(keys, put_labels, slots, b"m" * 16), 4, 25, b"m" * 16
    )
    assert not pad_reuse_detected(get, fresh)
    # The nonce is a tweak inside the permutation, not a mask over the pad:
    # a nonce one bit away shares nothing.
    near = b"o" + b"n" * 15
    close = LblAccessRequest(b"k", rows.seal_rows(keys, put_labels, slots, near), 4, 25, near)
    assert not pad_reuse_detected(get, close)
    # The one documented exception: t_j = nonce ⊕ j, so two nonces that differ
    # by a block index (probability ~2^-126 for random ones) share that block
    # crosswise — block 1 of one pad is block 0 of the other.
    twin = b"n" * 15 + bytes([ord("n") ^ 1])
    ((first, *_),) = get.tables
    (second, *_), = LblAccessRequest(
        b"k", rows.seal_rows(keys, put_labels, slots, twin), 4, 25, twin
    ).tables
    assert first[16:] == bytes(a ^ b for a, b in zip(second[:9], put_labels[:9]))


# --------------------------------------------------------------------- #
# ROR-RW: the simulator emits the row shape; repeated rows give no edge
# --------------------------------------------------------------------- #


def test_simulator_emits_the_point_and_permute_shape():
    store = _store()
    real, _ops = store.proxy.prepare(Request.read("k"))
    simulator = LblSimulator(CONFIG, rng=random.Random(3))
    simulated = [simulator.simulate("k") for _ in range(3)]
    for message in simulated:
        assert (message.table_size, message.entry_len, message.num_groups) == (
            real.table_size, real.entry_len, real.num_groups,
        )
        assert len(message.nonce) == len(real.nonce) == rows.ROW_NONCE_LEN
        assert len(message.to_bytes()) == len(real.to_bytes())
    assert len({message.nonce for message in simulated}) == 3
    # Per group, exactly one row opens under the label the previous access
    # installed — the chain an honest server would follow — and it carries
    # the label the simulator now holds; the other T-1 rows are noise.
    held = list(simulator._state["k"])
    message = simulator.simulate("k")
    for group, table in enumerate(message.tables):
        opened = [rows.open_row(held[group], row, message.nonce) for row in table]
        (payload,) = [p for p in opened if p is not None]
        assert payload[:-1] == simulator._state["k"][group]


def test_repeated_block_adversary_sees_slab_rows_and_nonces():
    adversary = make_first_block_adversary()
    row_a, row_b, row_c = (bytes([i]) * 25 for i in (1, 2, 3))

    def message(key: bytes, slab_rows, nonce: bytes) -> bytes:
        return LblAccessRequest.from_tables(key, [slab_rows], nonce).to_bytes()

    distinct = [
        message(b"A" * 16, [row_a, row_b], b"n" * 16),
        message(b"B" * 16, [row_c, bytes(25)], b"m" * 16),
    ]
    assert not adversary(distinct)
    # A row that recurs in a later message's slab, deep past the prefix.
    assert adversary(distinct + [message(b"C" * 16, [bytes([9]) * 25, row_b], b"o" * 16)])
    # A nonce that recurs under a different key (prefixes differ).
    assert adversary(distinct + [message(b"C" * 16, [bytes([9]) * 25, bytes([8]) * 25], b"n" * 16)])


def test_repeated_block_adversary_has_no_edge_on_point_and_permute():
    accesses = uniform_random_accesses(["k0", "k1"], 6, 8, random.Random(11))
    game = RorRwGame(
        real=lambda a: real_lbl_output(CONFIG, a),
        ideal=lambda a: ideal_lbl_output(CONFIG, a),
        rng=random.Random(13),
    )
    # Neither world ever repeats a row or a nonce: the adversary always
    # answers "ideal" and its advantage is exactly zero.
    assert game.advantage(make_first_block_adversary(), accesses, rounds=20) == 0.0


def test_repeated_block_adversary_wins_against_a_fixed_nonce(monkeypatch):
    accesses = uniform_random_accesses(["k0", "k1"], 6, 8, random.Random(11))
    ideal = ideal_lbl_output(CONFIG, accesses)
    monkeypatch.setattr(proxy_module.secrets, "token_bytes", lambda n: b"\x42" * n)
    real = real_lbl_output(CONFIG, accesses)
    adversary = make_first_block_adversary()
    assert adversary(real) and not adversary(ideal)


# --------------------------------------------------------------------- #
# (b) refusal before commit
# --------------------------------------------------------------------- #


def _refused(store: LblOrtoa, request: LblAccessRequest):
    """Process ``request`` expecting a refusal; returns (error, span attributes)."""
    encoded = request.encoded_key
    before = store.server.store.get(encoded)
    puts = store.server.store.put_count
    obs.reset()
    obs.enable()
    try:
        with pytest.raises(ProtocolError) as excinfo:
            store.server.process(request)
        (span,) = [s for s in obs.TRACER.export() if s["name"] == SERVER_SPAN]
    finally:
        obs.disable()
    # Nothing was committed: the stored record is byte-identical.
    assert store.server.store.put_count == puts
    assert store.server.store.get(encoded) == before
    return excinfo.value, span["attributes"]


def _flip(request: LblAccessRequest, group: int, slot: int, byte: int, bit: int = 0):
    """``request`` with one bit flipped in row ``(group, slot)`` — addressed
    through the row-by-row view, wherever the slab keeps that byte."""
    tables = [list(table) for table in request.tables]
    row = bytearray(tables[group][slot])
    row[byte] ^= 1 << bit
    tables[group][slot] = bytes(row)
    return LblAccessRequest.from_tables(request.encoded_key, tables, request.nonce)


def _designated_slot(store: LblOrtoa, group: int) -> int:
    encoded = store.keychain.encode_key("k")
    return store.server.store.get(encoded).slots[group]


def test_request_one_epoch_ahead_is_refused_before_commit():
    """The WAL's uncertainty window: the proxy's counter outran the server."""
    store = _store()
    store.proxy.prepare(Request.read("k"))  # a request the server never saw
    ahead, _ops = store.proxy.prepare(Request.read("k"))
    error, seen = _refused(store, ahead)
    assert str(error) == "designated entry failed to open at group 0"
    assert seen["decrypt_attempts"] == seen["failed_decrypts"] == ahead.num_groups
    assert seen["opened_labels"] == seen["labels_rewritten"] == 0
    # Rolling back (what a deployment's WAL resync does) re-synchronizes the key.
    store.proxy.force_counter("k", 0)
    assert store.read("k") == STORED


def test_replayed_stale_epoch_slab_is_refused_before_commit():
    """A slab sealed under labels the server has since rotated away — a
    duplicate delivery, a replay — opens to nothing and changes nothing."""
    store = _store()
    applied, _ops = store.proxy.prepare(Request.write("k", WRITTEN))
    response, _server_ops = store.server.process(applied)
    assert store.proxy.finalize("k", response)[0] == WRITTEN
    error, seen = _refused(store, applied)
    assert str(error) == "designated entry failed to open at group 0"
    assert seen["failed_decrypts"] == applied.num_groups
    assert store.read("k") == WRITTEN


@pytest.mark.parametrize("nonce", [b"", b"\x00" * 16, None], ids=["missing", "zero", "bit"])
def test_wrong_or_missing_nonce_is_refused_before_commit(nonce):
    store = _store()
    built, _ops = store.proxy.prepare(Request.write("k", WRITTEN))
    if nonce is None:
        nonce = bytes([built.nonce[0] ^ 1]) + built.nonce[1:]
    if not nonce:
        # A request without its 16-byte nonce is no request: refused as
        # it is built (or parsed), before any server sees it.
        with pytest.raises(ProtocolError, match="nonce must be 16 bytes"):
            dataclasses.replace(built, nonce=nonce)
    else:
        error, seen = _refused(store, dataclasses.replace(built, nonce=nonce))
        assert str(error) == "designated entry failed to open at group 0"
        assert seen["failed_decrypts"] == built.num_groups  # one per refused row
    # The untouched request still applies afterwards.
    response, _server_ops = store.server.process(built)
    assert store.proxy.finalize("k", response)[0] == WRITTEN


@pytest.mark.parametrize("group", [0, 17])
@pytest.mark.parametrize("check_byte", [0, 7])
def test_flipped_check_bit_in_a_designated_row_is_refused_before_commit(group, check_byte):
    store = _store()
    built, _ops = store.proxy.prepare(Request.read("k"))
    slot = _designated_slot(store, group)
    position = built.entry_len - rows.CHECK_LEN + check_byte
    error, seen = _refused(store, _flip(built, group, slot, position, bit=3))
    assert str(error) == f"designated entry failed to open at group {group}"
    assert seen["decrypt_attempts"] == built.num_groups
    assert seen["failed_decrypts"] == 1  # only the damaged row
    # A flip in a row the server was *not* told to open is never looked at.
    other = _flip(built, group, slot ^ 1, position)
    response, _server_ops = store.server.process(other)
    assert store.proxy.finalize("k", response)[0] == STORED


def test_flipped_label_bit_is_committed_and_caught_by_finalize():
    """Where detection moved: the check bytes are not a MAC over the body."""
    store = _store()
    built, _ops = store.proxy.prepare(Request.read("k"))
    damaged = _flip(built, 5, _designated_slot(store, 5), byte=2)
    response, _server_ops = store.server.process(damaged)  # no refusal
    with pytest.raises(TamperDetectedError, match="group 5"):
        store.proxy.finalize("k", response)
    # The key is now unreadable — what a tampering server could always do
    # by corrupting its own store — and every later access says so.
    with pytest.raises((ProtocolError, TamperDetectedError)):
        store.read("k")
    assert store.read("other") == b"\x07" * 8


@pytest.mark.parametrize("shape", ["truncated", "padded", "narrow"])
def test_a_mis_shaped_reply_is_tampering_not_a_configuration_error(shape):
    """The reply is untrusted input: one label missing, one label too many,
    or the same bytes as 8-byte labels fails §5.4's check in ``finalize``."""
    store = _store()
    built, _ops = store.proxy.prepare(Request.read("k"))
    response, _server_ops = store.server.process(built)
    labels, width = response.labels, response.label_len
    reply = {
        "truncated": LblAccessResponse(labels[:-width], width),
        "padded": LblAccessResponse(labels + labels[:width], width),
        "narrow": LblAccessResponse(labels, 8),
    }[shape]
    with pytest.raises(TamperDetectedError, match="data was tampered"):
        store.proxy.finalize("k", reply)
    assert store.proxy.finalize("k", response)[0] == STORED  # the honest reply


@pytest.mark.parametrize("bit", [0, 1, 2, 7])
def test_flipped_slot_bit_makes_the_next_access_be_refused_never_misread(bit):
    store = _store()
    built, _ops = store.proxy.prepare(Request.write("k", WRITTEN))
    group = 9
    slot_byte = built.entry_len - rows.CHECK_LEN - 1
    damaged = _flip(built, group, _designated_slot(store, group), slot_byte, bit)
    response, _server_ops = store.server.process(damaged)
    # The labels themselves are intact, so this access still reads right...
    assert store.proxy.finalize("k", response)[0] == WRITTEN
    # ...but the server now points at the wrong row (bits 0-1) or past the
    # table (bits 2-7) for that group: the next access is refused there.
    following, _ops = store.proxy.prepare(Request.read("k"))
    error, seen = _refused(store, following)
    if bit < CONFIG.group_bits:
        assert str(error) == f"designated entry failed to open at group {group}"
        assert seen["failed_decrypts"] == 1
    else:
        assert str(error) == f"bad decrypt index at group {group}"
        assert seen["decrypt_attempts"] == 0
