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
    labels surviving a refused request.  Each of those is a wrong key for
    the whole record, so group 0's check block catches it.  What it does
    *not* cover is pinned too: a flipped label bit in any other group is
    committed and surfaces in ``finalize`` (§5.4), whose reply digest no
    longer matches.  A slot rides in its label's low bits, so a flipped
    slot bit is a flipped label bit: caught the same way, and the key stays
    unreadable, never misread.
(c) **The reply.**  Packed slots and one digest of the opened labels: a
    flipped bit, set pad bits, a wrong length, another epoch's or another
    key's reply are each refused by ``finalize``, and the key's next honest
    access succeeds.
"""

import dataclasses
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.lbl import LblOrtoa
from repro.core.lbl import proxy as proxy_module
from repro.core.messages import LblAccessRequest, LblAccessResponse
from repro.crypto import rows
from repro.errors import ProtocolError, TamperDetectedError
from repro.security.audit import PATHS, fresh_rows, run_audit
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
    ``payload ⊕ payload'``: its 15 check bytes are zero in every head row,
    and the whole row is zero wherever the two requests carry the same
    label (a GET row under a GET, or a PUT of the value already stored).
    Under fresh pads each XOR is uniformly random and a 15-byte zero run
    has probability ~2^-120 per position.
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
    nonce = b"n" * 16

    def request(labels: bytes, nonce: bytes) -> LblAccessRequest:
        return LblAccessRequest(b"k", rows.seal_rows(keys, labels, 16, nonce, 4), 4, 16, nonce)

    get, put = request(get_labels, nonce), request(put_labels, nonce)
    assert pad_reuse_detected(get, put)
    fresh = request(put_labels, b"m" * 16)
    assert not pad_reuse_detected(get, fresh)
    # The nonce is a tweak inside the permutation, not a mask over the pad:
    # a nonce one bit away shares nothing.
    assert not pad_reuse_detected(get, request(put_labels, b"o" + b"n" * 15))
    # The documented exceptions.  N_j = π⁻¹(nonce ⊕ j), so two nonces that
    # differ by a block index (probability ~2^-126 for random ones) share that
    # block crosswise — block 1 of one pad (a head row's check) is block 0 of
    # the other.
    twin = b"n" * 15 + bytes([ord("n") ^ 1])
    ((first, *_),) = get.tables
    ((second, *_),) = request(put_labels, twin).tables
    assert first[16:] == bytes(a ^ b for a, b in zip(second[:16], put_labels[:16]))
    # And p(x) = p(x ⊕ N), N = π⁻¹(nonce): two keys of one request that differ
    # by N (probability ≤ n²/2^(128−y) among n independent labels) share a pad.
    n_0 = lbl_reference._pi(nonce, inverse=True)
    partner = bytes(a ^ b for a, b in zip(keys[:16], n_0))
    pair = rows.seal_rows(keys[:16] + partner, get_labels[:32], 16, nonce, 1)
    assert lbl_reference.xor(pair[:16], get_labels[:16]) == lbl_reference.xor(
        pair[16:32], get_labels[16:32]
    )


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
    # installed — the chain an honest server would follow — to the label the
    # simulator now holds; the other T-1 rows are noise.  Group 0's rows say
    # which one by their check blocks; every other row opens to something.
    held = list(simulator._state["k"])
    message = simulator.simulate("k")
    opened = [
        lbl_reference.open_row(held[0], row, message.nonce, 16) for row in message.tables[0]
    ]
    (payload,) = [p for p in opened if p is not None]
    assert payload == simulator._state["k"][0]
    for group, table in enumerate(message.tables[1:], start=1):
        pad = lbl_reference.seal_row(held[group], bytes(16), message.nonce, head=False)
        opened = [lbl_reference.xor(row, pad) for row in table]
        assert opened.count(simulator._state["k"][group]) == 1


def test_repeated_block_adversary_sees_slab_rows_and_nonces():
    """The repeated-block adversary is the audit's exact "fresh rows" check:
    it reads every slab row and request nonce, not just a prefix."""
    row_a, row_b, row_c = (bytes([i]) * 25 for i in (1, 2, 3))

    def message(key: bytes, slab_rows, nonce: bytes) -> bytes:
        return LblAccessRequest.from_tables(key, [slab_rows], nonce).to_bytes()

    distinct = [
        message(b"A" * 16, [row_a, row_b], b"n" * 16),
        message(b"B" * 16, [row_c, bytes(25)], b"m" * 16),
    ]
    assert fresh_rows("access", distinct).passed
    # A row that recurs in a later message's slab, deep past the prefix.
    check = fresh_rows(
        "access", distinct + [message(b"C" * 16, [bytes([9]) * 25, row_b], b"o" * 16)]
    )
    assert check.passed is False
    assert check.detail == "0 of 3 request nonces and 1 of 6 slab rows repeat"
    # A nonce that recurs under a different key (prefixes differ).
    check = fresh_rows(
        "access", distinct + [message(b"C" * 16, [bytes([9]) * 25, bytes([8]) * 25], b"n" * 16)]
    )
    assert check.detail == "1 of 3 request nonces and 0 of 6 slab rows repeat"


def test_repeated_block_adversary_has_no_edge_on_point_and_permute():
    """Neither world ever repeats a row or a nonce: the check passes on the
    frames the honest stack sent and on the simulator's."""
    report = run_audit(LblOrtoa(CONFIG), num_keys=8, seed=11)
    checks = {(c.path, c.claim): c for c in report.checks}
    for path in PATHS:
        assert checks[path, "fresh rows"].passed, checks[path, "fresh rows"].detail
    simulator = LblSimulator(CONFIG, rng=random.Random(13))
    simulated = [simulator.simulate(key).to_bytes() for key in ["k0", "k1"] * 3]
    assert fresh_rows("access", simulated).passed


def test_repeated_block_adversary_wins_against_a_fixed_nonce(monkeypatch):
    """Pin the proxy's row nonce: the audit's fresh-rows check fails, and
    nothing else in the audit sees it."""
    monkeypatch.setattr(
        proxy_module, "secrets", SimpleNamespace(token_bytes=lambda n: b"\x42" * n)
    )
    report = run_audit(LblOrtoa(CONFIG), num_keys=8, seed=11, paths=("access",))
    (failure,) = report.failures
    assert failure.claim == "fresh rows"
    assert failure.detail.startswith("7 of 8 request nonces")


# --------------------------------------------------------------------- #
# (b) refusal before commit
# --------------------------------------------------------------------- #


def _refused(store: LblOrtoa, request: LblAccessRequest):
    """Process ``request`` expecting a refusal; returns (error, how far the
    ``lbl.server.*`` counters moved, plus the rows that opened)."""
    encoded = request.encoded_key
    before = store.server.store.get(encoded)
    puts = store.server.store.put_count
    obs.reset()
    obs.enable()
    try:
        with pytest.raises(ProtocolError) as excinfo:
            store.server.process(request)
        counters = obs.REGISTRY.snapshot()["counters"]
    finally:
        obs.disable()
    # Nothing was committed: the stored record is byte-identical.
    assert store.server.store.put_count == puts
    assert store.server.store.get(encoded) == before
    seen = {
        name: counters.get(f"lbl.server.{name}", 0)
        for name in ("requests", "decrypt_attempts", "failed_decrypts", "labels_rewritten")
    }
    assert seen["requests"] == 1
    seen["opened_labels"] = seen["decrypt_attempts"] - seen["failed_decrypts"]
    return excinfo.value, seen


def _flip(request: LblAccessRequest, group: int, slot: int, byte: int, bit: int = 0):
    """``request`` with one bit flipped in row ``(group, slot)`` — addressed
    through the row-by-row view, wherever the slab keeps that byte."""
    tables = [list(table) for table in request.tables]
    row = bytearray(tables[group][slot])
    row[byte] ^= 1 << bit
    tables[group][slot] = bytes(row)
    return LblAccessRequest.from_tables(request.encoded_key, tables, request.nonce)


def _designated_slot(store: LblOrtoa, group: int) -> int:
    """The slot the stored label of ``group`` names: its byte 15's low bits."""
    encoded = store.keychain.encode_key("k")
    return store.server.store.get(encoded)[group * 16 + 15] % (1 << CONFIG.group_bits)


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


@pytest.mark.parametrize("check_byte", [0, 14, rows.CHECK_LEN - 1])
def test_flipped_check_bit_in_a_designated_row_is_refused_before_commit(check_byte):
    """Only group 0's rows carry a check block; a damaged one in the row the
    server opens refuses the whole request, every group counted failed."""
    store = _store()
    built, _ops = store.proxy.prepare(Request.read("k"))
    slot = _designated_slot(store, 0)
    position = built.entry_len + check_byte
    error, seen = _refused(store, _flip(built, 0, slot, position, bit=3))
    assert str(error) == "designated entry failed to open at group 0"
    assert seen["decrypt_attempts"] == built.num_groups
    assert seen["failed_decrypts"] == built.num_groups
    # A flip in a row the server was *not* told to open is never looked at.
    other = _flip(built, 0, slot ^ 1, position)
    response, _server_ops = store.server.process(other)
    assert store.proxy.finalize("k", response)[0] == STORED


def test_flipped_label_bit_is_committed_and_caught_by_finalize():
    """Where detection moved: the check block is not a MAC over the body."""
    store = _store()
    built, _ops = store.proxy.prepare(Request.read("k"))
    damaged = _flip(built, 5, _designated_slot(store, 5), byte=2)
    response, _server_ops = store.server.process(damaged)  # no refusal
    with pytest.raises(TamperDetectedError, match="reply digest"):
        store.proxy.finalize("k", response)
    # The key is now unreadable — what a tampering server could always do
    # by corrupting its own store — and every later access says so.
    with pytest.raises((ProtocolError, TamperDetectedError)):
        store.read("k")
    assert store.read("other") == b"\x07" * 8


@pytest.mark.parametrize("shape", ["truncated", "padded", "narrow"])
def test_a_mis_shaped_reply_is_tampering_not_a_configuration_error(shape):
    """The reply is untrusted input: one slot byte missing, one too many, or
    the same bytes as 1-bit slots fails §5.4's check in ``finalize``."""
    store = _store()
    built, _ops = store.proxy.prepare(Request.read("k"))
    response, _server_ops = store.server.process(built)
    slots, digest = response.slots, response.digest
    reply = {
        "truncated": LblAccessResponse(slots[:-1], CONFIG.group_bits, digest),
        "padded": LblAccessResponse(slots + slots[:1], CONFIG.group_bits, digest),
        "narrow": LblAccessResponse(slots, 1, digest),
    }[shape]
    with pytest.raises(TamperDetectedError, match="data was tampered"):
        store.proxy.finalize("k", reply)
    assert store.proxy.finalize("k", response)[0] == STORED  # the honest reply


@pytest.mark.parametrize("bit", [0, 1, 2, 7])
def test_flipped_slot_bit_makes_the_next_access_be_refused_never_misread(bit):
    """The slot rides in the low ``y`` bits of a label's byte 15, so a
    flipped slot bit is a flipped label bit, and every bit of that byte is
    caught alike: this access's digest does not match (a flipped slot bit
    also spells another value, whose label the server never opened), and
    every later access of the key is refused — by group 0's check or by the
    digest — never misread.  (When the slot had a byte of its own, bits
    ``≥ y`` were read past and refused only at the next access.)"""
    store = _store()
    built, _ops = store.proxy.prepare(Request.write("k", WRITTEN))
    group = 9
    damaged = _flip(built, group, _designated_slot(store, group), 15, bit)
    response, _server_ops = store.server.process(damaged)
    with pytest.raises(TamperDetectedError, match="reply digest"):
        store.proxy.finalize("k", response)
    for _ in range(2):
        with pytest.raises((ProtocolError, TamperDetectedError)):
            store.read("k")
    assert store.read("other") == b"\x07" * 8


@pytest.mark.parametrize("group", [1, 17, CONFIG.num_groups - 1])
@pytest.mark.parametrize("field", ["label", "slot"])
def test_a_flipped_byte_outside_group_0_is_committed_and_caught_by_finalize(field, group):
    """Outside group 0 a row is a sealed label, naming its slot in the low
    bits of byte 15: nothing at the server can tell a damaged one, so it is
    committed — and §5.4 catches it at this access, the label by the digest
    over it, the slot bit (one of its ``y``) by the digest over the labels
    the value it spells selects."""
    store = _store()
    built, _ops = store.proxy.prepare(Request.read("k"))
    byte = 0 if field == "label" else 15
    damaged = _flip(built, group, _designated_slot(store, group), byte)
    puts = store.server.store.put_count
    response, _server_ops = store.server.process(damaged)
    assert store.server.store.put_count == puts + 1  # committed
    with pytest.raises(TamperDetectedError, match="reply digest"):
        store.proxy.finalize("k", response)


# --------------------------------------------------------------------- #
# (c) the reply: packed slots and one digest
# --------------------------------------------------------------------- #

_OPS = st.none() | st.binary(min_size=8, max_size=8)  # a GET, or a PUT of 8 bytes


def _request(key: str, written: "bytes | None") -> Request:
    return Request.read(key) if written is None else Request.write(key, written)


def _served(store: LblOrtoa, key: str = "k", written: "bytes | None" = None):
    """Prepare and serve one access; its reply's wire bytes."""
    built, _ops = store.proxy.prepare(_request(key, written))
    return store.server.process(built)[0].to_bytes()


def _refuses(store: LblOrtoa, frame: bytes, expected: bytes) -> None:
    """``finalize`` refuses ``frame`` as the reply for ``k``, and the key's
    next honest access reads ``expected``: the server committed, so proxy
    and server are still in step."""
    with pytest.raises(TamperDetectedError, match="data was tampered"):
        store.proxy.finalize("k", LblAccessResponse.from_bytes(frame))
    assert store.read("k") == expected


@settings(max_examples=60, deadline=None)
@given(written=_OPS, data=st.data())
def test_any_flipped_slot_or_digest_bit_is_refused(written, data):
    store = _store()
    frame = bytearray(_served(store, written=written))
    bit = data.draw(st.integers(min_value=24, max_value=8 * len(frame) - 1))  # past the header
    frame[bit // 8] ^= 0x80 >> bit % 8
    _refuses(store, bytes(frame), written or STORED)


@settings(max_examples=30, deadline=None)
@given(written=_OPS, pad=st.integers(min_value=1, max_value=63))
def test_set_pad_bits_are_refused_where_slots_do_not_fill_the_last_byte(written, pad):
    """y = 3 at 8 B: 22 slots of 3 bits leave 6 pad bits in the ninth byte."""
    store = LblOrtoa(StoreConfig(value_len=8, group_bits=3))
    store.initialize({"k": STORED})
    frame = bytearray(_served(store, written=written))
    assert len(frame) == 3 + 9 + 16 and frame[3 + 8] & 63 == 0
    frame[3 + 8] |= pad
    with pytest.raises(TamperDetectedError, match="zero pad bits"):
        store.proxy.finalize("k", LblAccessResponse.from_bytes(bytes(frame)))
    assert store.read("k") == (written or STORED)


@settings(max_examples=40, deadline=None)
@given(written=_OPS, cut=st.integers(min_value=1, max_value=24), extra=st.binary(max_size=24))
def test_a_truncated_or_over_long_reply_is_refused(written, cut, extra):
    store = _store()
    frame = _served(store, written=written)
    assert len(frame) == 3 + 8 + 16
    shorter = frame[:-cut]
    _refuses(store, shorter, written or STORED)
    _refuses(store, _served(store) + (extra or b"\x00"), written or STORED)


@settings(max_examples=20, deadline=None)
@given(first=_OPS, second=_OPS)
def test_the_previous_epochs_reply_replayed_is_refused(first, second):
    """The digest covers one epoch's labels: the key's reply of one access
    before does not pass for this one, whatever either access did."""
    store = _store()
    previous = _served(store, written=first)
    store.proxy.finalize("k", LblAccessResponse.from_bytes(previous))
    _served(store, written=second)
    _refuses(store, previous, second or first or STORED)


@settings(max_examples=20, deadline=None)
@given(mine=_OPS, theirs=_OPS)
def test_another_keys_reply_at_the_same_epoch_is_refused(mine, theirs):
    store = _store()
    _served(store, "k", mine)
    foreign = _served(store, "other", theirs)
    _refuses(store, foreign, mine or STORED)
    store.proxy.finalize("other", LblAccessResponse.from_bytes(foreign))
    assert store.read("other") == (theirs or b"\x07" * 8)
