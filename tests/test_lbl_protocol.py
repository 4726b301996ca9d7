"""LBL-ORTOA specific tests: label lifecycle, optimizations, tamper handling."""

import hashlib
import hmac
import random

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lbl import LblOrtoa
from repro.core.lbl.proxy import LblProxy
from repro.core.lbl.server import LblServer
from repro.crypto.keys import KeyChain
from repro.crypto.labels import StoredRecord
from repro.crypto.prf import encode_components
from repro.errors import ProtocolError, TamperDetectedError
from repro.types import Request, StoreConfig
from tests import lbl_reference

RECORDS = {"k1": b"hello", "k2": b"world"}


def make(group_bits=1, value_len=8):
    config = StoreConfig(value_len=value_len, group_bits=group_bits)
    p = LblOrtoa(config)
    p.initialize(RECORDS)
    return p


# --------------------------------------------------------------------- #
# Label lifecycle
# --------------------------------------------------------------------- #

def test_labels_rotate_on_every_access_including_reads():
    """§5: updating labels only for writes would leak the op type, so *every*
    access must rewrite the stored labels."""
    p = make()
    encoded = p.keychain.encode_key("k1")
    before = p.server.store.get(encoded).labels
    p.read("k1")
    after_read = p.server.store.get(encoded).labels
    assert before != after_read
    p.write("k1", b"x")
    after_write = p.server.store.get(encoded).labels
    assert after_read != after_write


def test_counter_increments_per_access():
    p = make()
    assert p.proxy.counter("k1") == 0
    p.read("k1")
    assert p.proxy.counter("k1") == 1
    p.write("k1", b"v")
    assert p.proxy.counter("k1") == 2
    assert p.proxy.counter("k2") == 0


def test_proxy_state_is_8_bytes_per_object():
    """§5.3.1: counters only — 8 bytes per key, megabytes not gigabytes."""
    p = make()
    assert p.proxy.proxy_state_bytes == 8 * len(RECORDS)


def test_server_never_sees_plaintext_or_plain_keys():
    p = make()
    p.write("k1", b"secret42")
    for encoded_key in p.server.store:
        assert b"k1" != encoded_key and b"k2" != encoded_key
        assert b"secret42" not in p.server.store.get(encoded_key).labels


def test_write_response_echoes_written_value():
    p = make()
    t = p.access(Request.write("k1", b"newvalue"))
    assert t.response.value == b"newvalue"


# --------------------------------------------------------------------- #
# Message size scaling (the §5.3.2 communication analysis)
# --------------------------------------------------------------------- #

def test_request_size_scales_linearly_with_value_len():
    sizes = {}
    for value_len in (8, 16, 32):
        p = make(value_len=value_len)
        t = p.access(Request.read("k1"))
        sizes[value_len] = t.request_bytes
    growth_1 = sizes[16] - sizes[8]
    growth_2 = sizes[32] - sizes[16]
    assert growth_2 == pytest.approx(2 * growth_1, rel=0.05)


def test_y2_halves_group_count_but_doubles_table():
    """§10.1: y=2 sends 4 encryptions per 2 bits — same total ciphertext
    count as y=1's 2 per bit, so request size stays in the same ballpark."""
    t1 = make(group_bits=1).access(Request.read("k1"))
    t2 = make(group_bits=2).access(Request.read("k1"))
    assert t2.request_bytes == pytest.approx(t1.request_bytes, rel=0.15)


def test_y3_increases_communication():
    """§10.1 / Figure 6: beyond y=2 communication grows as 2^y / y."""
    t2 = make(group_bits=2).access(Request.read("k1"))
    t4 = make(group_bits=4).access(Request.read("k1"))
    assert t4.request_bytes > 1.5 * t2.request_bytes


def test_y2_halves_server_storage():
    p1, p2 = make(group_bits=1), make(group_bits=2)
    n1 = len(p1.server.store.get(p1.keychain.encode_key("k1")).labels)
    n2 = len(p2.server.store.get(p2.keychain.encode_key("k1")).labels)
    assert n2 == n1 // 2 == 32 * 16


# --------------------------------------------------------------------- #
# Point-and-permute (§10.2)
# --------------------------------------------------------------------- #

def test_pnp_server_does_exactly_one_decryption_per_group():
    p = make(group_bits=2)
    t = p.access(Request.read("k1"))
    server_ops = t.ops_at("server")
    assert server_ops.aead_dec == p.proxy.codec.num_groups
    assert server_ops.failed_dec == 0


def test_base_protocol_wastes_decryptions():
    """The §5.2 tables §10.2 replaces, opened by the reference's trial scan:
    with 4-entry shuffled tables the server tries 2.5 entries per group in
    expectation, strictly more work than the one open per group above."""
    p = make(group_bits=2)
    keychain, config = p.keychain, p.config
    stored = lbl_reference.record_labels(keychain, config, "k1", 0, config.pad(RECORDS["k1"]))
    rng, total_failed = random.Random(1), 0
    for counter in range(5):
        tables = lbl_reference.build_request(keychain, config, "k1", counter, base=True, rng=rng)
        stored, attempts, failures = lbl_reference.open_base(stored, tables)
        assert attempts == failures + config.num_groups
        total_failed += failures
    assert total_failed > 0


def test_pnp_stored_indices_stay_consistent():
    p = make(group_bits=2)
    for i in range(6):
        p.write("k1", bytes([i]) * 8)
        assert p.read("k1") == bytes([i]) * 8


def test_pnp_rejects_missing_indices():
    server = LblServer()
    with pytest.raises(ProtocolError):
        server.load(b"ek", StoredRecord(b"l" * 16))
    with pytest.raises(ProtocolError):
        server.load(b"ek", StoredRecord(b"l" * 16, b"\x00\x01\x02"))  # 16 B over 3 groups
    server.load(b"ek", StoredRecord(b"l" * 32, b"\x00\x01"))


# --------------------------------------------------------------------- #
# Failure handling
# --------------------------------------------------------------------- #

def test_tampered_server_labels_detected_on_read():
    """§5.4: the proxy detects any label corruption at decode time."""
    p = make()
    encoded = p.keychain.encode_key("k1")
    labels, slots = p.server.store.get(encoded)
    p.server.store.put(encoded, StoredRecord(bytes(16) + labels[16:], slots))
    with pytest.raises((TamperDetectedError, ProtocolError)):
        p.read("k1")


def test_server_detects_stale_label_state():
    """If the server's label is from the wrong counter epoch no entry opens."""
    p = make()
    encoded = p.keychain.encode_key("k1")
    old_record = p.server.store.get(encoded)
    p.read("k1")  # rotates labels
    p.server.store.put(encoded, old_record)  # roll the server back
    with pytest.raises(ProtocolError):
        p.read("k1")


def test_refused_access_leaves_the_key_usable():
    """The server refuses one access before commit: the refusal reaches the
    caller, the stored record is byte for byte what it was, and the retry
    reads the right value (the key's counter was taken back)."""
    p = make(group_bits=2)
    p.write("k1", b"kept")
    encoded = p.keychain.encode_key("k1")
    before = p.server.store.get(encoded)
    process_many = p.server.process_many

    def refuse_once(requests, rows=None):
        del p.server.process_many  # the next window is served as usual
        return [ProtocolError("refused before commit") for _ in requests]

    p.server.process_many = refuse_once
    with pytest.raises(ProtocolError, match="refused before commit"):
        p.read("k1")
    assert p.server.process_many == process_many
    assert p.server.store.get(encoded) == before
    assert p.read("k1") == p.config.pad(b"kept")


def test_table_shape_mismatch_rejected():
    p = make()
    req, _ = p.proxy.prepare(Request.read("k1"))
    bad = type(req).from_tables(req.encoded_key, req.tables[:-1], req.nonce)
    with pytest.raises(ProtocolError):
        p.server.process(bad)


# --------------------------------------------------------------------- #
# Property tests
# --------------------------------------------------------------------- #

@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["read", "write"]), st.binary(max_size=8)),
        min_size=1,
        max_size=20,
    ),
    group_bits=st.sampled_from([1, 2]),
)
@settings(max_examples=25, deadline=None)
def test_lbl_behaves_like_a_dict(ops, group_bits):
    config = StoreConfig(value_len=8, group_bits=group_bits)
    p = LblOrtoa(config)
    p.initialize({"k": b"init"})
    expected = config.pad(b"init")
    for op, value in ops:
        if op == "write":
            expected = config.pad(value)
            p.write("k", value)
        else:
            assert p.read("k") == expected
    assert p.read("k") == expected


# --------------------------------------------------------------------- #
# The composed stack against a reference written straight from §10.2
# --------------------------------------------------------------------- #

class _Reference:
    """What proxy and server must agree on, from bare library calls: per
    epoch one prefix-keyed SHAKE-256 output (labels, then offsets); per
    point-and-permute row the pad ``π(π(x) ⊕ t_j) ⊕ π(x)`` for every block
    ``j`` of the row, ``π`` AES-128 under the public constant key, ``x`` the
    stored label's first 16 bytes and ``t_j = nonce ⊕ j``, the row read as
    its label from the slab's first run and its 9-byte tail from the
    second.  Shares no code with ``LabelCodec``, ``rows`` or ``LblServer``."""

    PI = algorithms.AES(bytes.fromhex("243f6a8885a308d313198a2e03707344"))

    def pi(self, block: bytes) -> bytes:
        encryptor = Cipher(self.PI, modes.ECB()).encryptor()
        return encryptor.update(block) + encryptor.finalize()

    def __init__(self, master: bytes, config: StoreConfig) -> None:
        head = (0).to_bytes(4, "big") + encode_components("subkey", "labels")
        self.key = hmac.new(master, head, hashlib.sha256).digest().ljust(136, b"\x00")
        self.y = config.group_bits
        self.L, self.T, self.G = config.label_bits // 8, 1 << self.y, config.num_groups

    def epoch(self, key: str, ct: int):
        """``(label(i, v), offsets)`` of one epoch."""
        G, T, L = self.G, self.T, self.L
        blob = hashlib.shake_256(
            self.key + encode_components(G, T, L) + encode_components(key, ct)
        ).digest(G * T * L + G)
        return (lambda i, v: blob[(i * T + v) * L :][:L]), [b % T for b in blob[G * T * L :]]

    def groups(self, value: bytes) -> list[int]:
        bits = "".join(f"{byte:08b}" for byte in value).ljust(self.G * self.y, "0")
        return [int(bits[i : i + self.y], 2) for i in range(0, len(bits), self.y)]

    def record(self, key: str, ct: int, value: bytes) -> tuple[bytes, bytes]:
        """What the server stores once epoch ``ct`` holds ``value``."""
        label, offsets = self.epoch(key, ct)
        chosen = self.groups(value)
        slots = bytes(v ^ r for v, r in zip(chosen, offsets))
        return b"".join(label(i, v) for i, v in enumerate(chosen)), slots

    def open(self, request, key: str, ct: int, stored: bytes) -> bytes:
        """The labels a server holding ``stored`` at epoch ``ct`` opens."""
        label, offsets = self.epoch(key, ct)
        opened = []
        xor = lambda a, b: bytes(p ^ q for p, q in zip(a, b))  # noqa: E731
        rows, width = self.G * self.T, self.L + 9
        for i, v in enumerate(self.groups(stored)):
            at = i * self.T + (v ^ offsets[i])
            hidden = self.pi(label(i, v)[:16])
            row = request.slab[at * self.L :][: self.L]
            row += request.slab[rows * self.L + at * 9 :][:9]
            plain = b""
            for j in range(0, width, 16):
                tweak = int.from_bytes(request.nonce, "big") ^ (j // 16)
                pad = xor(self.pi(xor(hidden, tweak.to_bytes(16, "big"))), hidden)
                plain += xor(row[j : j + 16], pad)
            assert plain[self.L + 1 :] == bytes(8) and len(plain) == width
            assert request.entry_len == width and len(request.slab) == rows * width
            opened.append(plain[: self.L])
        return b"".join(opened)


@given(
    group_bits=st.sampled_from([1, 2, 4, 8]),
    label_bits=st.sampled_from([128, 160, 256, 440]),
    value_len=st.sampled_from([1, 2, 50, 160]),
    ops=st.lists(st.tuples(st.booleans(), st.integers(0, 2**32)), min_size=1, max_size=4),
)
@settings(max_examples=25, deadline=None)
def test_proxy_and_server_match_the_reference(group_bits, label_bits, value_len, ops):
    config = StoreConfig(value_len=value_len, group_bits=group_bits, label_bits=label_bits)
    master = b"reference-master-key-0123456789!"
    proxy = LblProxy(config, KeyChain(master, label_bits=label_bits))
    server = LblServer()
    reference = _Reference(master, config)
    value = bytes(range(value_len))
    ((encoded, record),) = proxy.initial_records({"obj": value})
    server.load(encoded, record)
    assert server.store.get(encoded) == reference.record("obj", 0, value)
    for epoch, (is_write, seed) in enumerate(ops):
        written = random.Random(seed).randbytes(value_len) if is_write else None
        request = Request.write("obj", written) if is_write else Request.read("obj")
        built, _ops = proxy.prepare(request)
        response, _server_ops = server.process(built)
        # The request opens to the same labels under both...
        assert response.labels == reference.open(built, "obj", epoch, value)
        value = written if is_write else value
        # ...which are the reference's record of the next epoch.
        assert server.store.get(encoded) == reference.record("obj", epoch + 1, value)
        assert proxy.finalize("obj", response)[0] == value
