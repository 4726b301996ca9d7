"""Wire-format round-trip and robustness tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import messages as m
from repro.core.lbl import LblOrtoa
from repro.crypto import rows
from repro.errors import ConfigurationError, ProtocolError
from repro.types import Request, StoreConfig


def test_read_request_roundtrip():
    req = m.ReadRequest(b"encoded-key")
    assert m.ReadRequest.from_bytes(req.to_bytes()) == req


def test_read_response_roundtrip():
    resp = m.ReadResponse(b"ciphertext-bytes")
    assert m.ReadResponse.from_bytes(resp.to_bytes()) == resp


def test_write_request_roundtrip():
    req = m.WriteRequest(b"key", b"ct")
    assert m.WriteRequest.from_bytes(req.to_bytes()) == req


def test_write_ack_roundtrip():
    assert m.WriteAck.from_bytes(m.WriteAck().to_bytes()) == m.WriteAck()


def test_tee_messages_roundtrip():
    req = m.TeeAccessRequest(b"key", b"selector", b"newvalue")
    assert m.TeeAccessRequest.from_bytes(req.to_bytes()) == req
    resp = m.TeeAccessResponse(b"result")
    assert m.TeeAccessResponse.from_bytes(resp.to_bytes()) == resp


def test_fhe_messages_roundtrip():
    req = m.FheAccessRequest(b"key", b"cr" * 50, b"cw" * 50, b"nv" * 100)
    assert m.FheAccessRequest.from_bytes(req.to_bytes()) == req
    resp = m.FheAccessResponse(b"result" * 100)
    assert m.FheAccessResponse.from_bytes(resp.to_bytes()) == resp


#: The check block of a head row (group 0's rows end in one).
CHECKS = b"c" * rows.CHECK_LEN


def test_lbl_request_roundtrip():
    tables = (
        (b"A0a" + b"x" * rows.CHECK_LEN, b"A1b" + b"y" * rows.CHECK_LEN),
        (b"B0c", b"B1d"),
    )
    req = m.LblAccessRequest.from_tables(b"key", tables, nonce=b"n" * 16)
    # Two runs: every row (a sealed label), then group 0's check blocks.
    assert req.slab == b"A0aA1bB0cB1d" + b"x" * rows.CHECK_LEN + b"y" * rows.CHECK_LEN
    assert (req.table_size, req.entry_len, req.num_groups) == (2, 3, 2)
    assert req.tables == tables
    assert m.LblAccessRequest.from_bytes(req.to_bytes()) == req


def test_lbl_request_roundtrip_y2():
    tables = (tuple(row + CHECKS for row in (b"a", b"b", b"c", b"d")),) + (
        (b"a", b"b", b"c", b"d"),
    ) * 2
    req = m.LblAccessRequest.from_tables(b"key", tables, b"n" * 16)
    parsed = m.LblAccessRequest.from_bytes(req.to_bytes())
    assert parsed.tables == tables
    assert parsed.nonce == b"n" * 16


@pytest.mark.parametrize("nonce", [b"", b"n" * 15, b"n" * 17], ids=["none", "15", "17"])
def test_lbl_request_without_a_16_byte_nonce_is_refused(nonce):
    """Every request carries its rows' 16-byte nonce: one without it is
    refused as it is built and as it is parsed."""
    with pytest.raises(ProtocolError, match="nonce must be 16 bytes"):
        m.LblAccessRequest(b"key", b"\xaa" * 88, 4, 3, nonce)
    good = m.LblAccessRequest(b"key", b"\xaa" * 88, 4, 3, b"N" * 16).to_bytes()
    header = (20).to_bytes(4, "big") + b"\x00\x04\x00\x03" + b"N" * 16
    shape = (4 + len(nonce)).to_bytes(4, "big") + b"\x00\x04\x00\x03" + nonce
    with pytest.raises(ProtocolError, match="nonce must be 16 bytes"):
        m.LblAccessRequest.from_bytes(good.replace(header, shape))


def test_lbl_request_wire_layout_is_header_key_slab():
    req = m.LblAccessRequest(b"K" * 16, b"\xaa" * 88, 4, 3, b"N" * 16)
    assert req.to_bytes() == (
        b"\x20"
        + (20).to_bytes(4, "big") + b"\x00\x04\x00\x03" + b"N" * 16
        + (16).to_bytes(4, "big") + b"K" * 16
        + (88).to_bytes(4, "big") + b"\xaa" * 88
    )


def test_y8_request_survives_the_wire():
    """``table_size = 256`` needs the u16 shape header (it was one byte)."""
    config = StoreConfig(value_len=2, group_bits=8)
    store = LblOrtoa(config)
    store.initialize({"k": b"\x01\xfe"})
    for request, expected in (
        (Request.read("k"), b"\x01\xfe"),
        (Request.write("k", b"\xff\x00"), b"\xff\x00"),
        (Request.read("k"), b"\xff\x00"),
    ):
        built, _ops = store.proxy.prepare(request)
        assert built.table_size == 256 and built.num_groups == 2
        parsed = m.LblAccessRequest.from_bytes(built.to_bytes())
        assert parsed == built
        response, _server_ops = store.server.process(parsed)
        reply = m.LblAccessResponse.from_bytes(response.to_bytes())
        assert store.proxy.finalize("k", reply)[0] == expected


def test_group_bits_above_8_rejected_at_configuration():
    with pytest.raises(ConfigurationError):
        StoreConfig(value_len=2, group_bits=9)


def test_label_bits_above_440_rejected_with_point_and_permute():
    """A 440-bit label is four blocks of pad, its head row five with the
    check block; 440 bits stays the limit."""
    with pytest.raises(ConfigurationError, match="at most 440"):
        StoreConfig(value_len=2, label_bits=448)
    config = StoreConfig(value_len=2, group_bits=2, label_bits=440)
    store = LblOrtoa(config)
    store.initialize({"k": b"hi"})
    built, _ops = store.proxy.prepare(Request.write("k", b"yo"))
    assert built.entry_len == 55
    assert len(built.slab) == built.num_groups * 4 * 55 + 4 * rows.CHECK_LEN
    response, _server_ops = store.server.process(built)
    assert store.proxy.finalize("k", response)[0] == b"yo"
    assert store.read("k") == b"yo"


@pytest.mark.parametrize("label_bits", [8, 64, 120])
def test_label_bits_below_128_rejected(label_bits):
    """A label seeds a 16-byte-or-wider row pad: a narrower one used to
    initialize and then fail every access."""
    with pytest.raises(ConfigurationError, match="at least 128"):
        StoreConfig(value_len=8, label_bits=label_bits)


def test_lbl_response_roundtrip():
    resp = m.LblAccessResponse(b"\x1b\xe4", 2, bytes(range(16)))
    assert m.LblAccessResponse.from_bytes(resp.to_bytes()) == resp


def test_lbl_response_is_width_then_slots_then_digest():
    resp = m.LblAccessResponse(b"\x1b\xe4", 2, b"d" * 16)
    assert resp.to_bytes() == b"\x21\x00\x02\x1b\xe4" + b"d" * 16
    # The digest is the last 16 bytes; a shorter body is all digest, which
    # ``finalize`` refuses as tampering rather than the parser as malformed.
    assert m.LblAccessResponse.from_bytes(b"\x21\x00\x02stray") == (
        m.LblAccessResponse(b"", 2, b"stray")
    )
    for bits in (0, 9, 16):
        with pytest.raises(ProtocolError, match="slot width"):
            m.LblAccessResponse(b"", bits, b"d" * 16)
    with pytest.raises(ProtocolError):
        m.LblAccessResponse.from_bytes(b"\x21\x00")
    with pytest.raises(ProtocolError):
        m.LblAccessResponse.from_bytes(b"\x20\x00\x02" + b"d" * 16)
    # The label-per-group reply of the format before is refused by its width.
    with pytest.raises(ProtocolError, match="slot width"):
        m.LblAccessResponse.from_bytes(b"\x21\x00\x10" + b"l" * 32)


def test_lbl_request_rejects_empty_tables():
    with pytest.raises(ProtocolError):
        m.LblAccessRequest.from_tables(b"key", (), b"n" * 16)
    with pytest.raises(ProtocolError):
        m.LblAccessRequest(b"key", b"", 2, 4, b"n" * 16)
    # Group 0's check bytes alone are no table.
    with pytest.raises(ProtocolError):
        m.LblAccessRequest(b"key", CHECKS * 2, 2, 4, b"n" * 16)


def test_lbl_request_rejects_ragged_tables():
    head = (b"ab" + CHECKS, b"cd" + CHECKS)
    with pytest.raises(ProtocolError):
        m.LblAccessRequest.from_tables(b"key", (head, (b"ef",)), b"n" * 16)
    with pytest.raises(ProtocolError):
        m.LblAccessRequest.from_tables(b"key", ((head[0], head[1] + b"e"),), b"n" * 16)
    # Only group 0's rows carry check bytes.
    with pytest.raises(ProtocolError):
        m.LblAccessRequest.from_tables(b"key", (head, head), b"n" * 16)


def test_lbl_request_rejects_slab_that_is_not_whole_tables():
    whole = m.LblAccessRequest(b"key", b"x" * 88, 4, 3, b"n" * 16)
    assert whole.num_groups == 2
    with pytest.raises(ProtocolError):
        m.LblAccessRequest(b"key", b"x" * 87, 4, 3, b"n" * 16)
    cut = whole.to_bytes()[: -(4 + 88)] + (87).to_bytes(4, "big") + b"x" * 87
    with pytest.raises(ProtocolError, match="whole number of group tables"):
        m.LblAccessRequest.from_bytes(cut)
    for table_size, entry_len in ((0, 3), (4, 0), (1 << 16, 3)):
        with pytest.raises(ProtocolError):
            m.LblAccessRequest(b"key", b"x" * 88, table_size, entry_len, b"n" * 16)


def test_old_per_field_lbl_frame_is_rejected():
    """The pre-slab format: a 1-byte table-size field, the key, then one
    length-prefixed field per ciphertext."""

    def field(body: bytes) -> bytes:
        return len(body).to_bytes(4, "big") + body

    old = b"\x20" + field(b"\x02") + field(b"k" * 16) + b"".join(
        field(bytes([i]) * 45) for i in range(4)
    )
    with pytest.raises(ProtocolError):
        m.LblAccessRequest.from_bytes(old)
    # Even with exactly three fields the 1-byte header does not parse.
    with pytest.raises(ProtocolError):
        m.LblAccessRequest.from_bytes(
            b"\x20" + field(b"\x01") + field(b"k" * 16) + field(b"c" * 45)
        )
    # ...and the old per-label response states no slot width.
    with pytest.raises(ProtocolError):
        m.LblAccessResponse.from_bytes(b"\x21" + field(b"l" * 16) + field(b"m" * 16))


@pytest.mark.parametrize("group_bits", [1, 2, 3, 8])
def test_old_25_byte_row_frame_is_refused(group_bits):
    """The format before group 0 alone carried check bytes: every row
    ``label ‖ slot ‖ 8 check bytes``, 25 bytes at 128-bit labels.  No such
    slab is a whole number of tables behind 16-byte check blocks, at any
    group count — the frame is refused as it is parsed, and the server
    refuses that row width even when a slab happens to parse."""
    table_size = 1 << group_bits
    for groups in (1, 2, 3, 64, 640):
        header = (20).to_bytes(4, "big") + (table_size << 16 | 25).to_bytes(4, "big")
        slab = b"s" * (groups * table_size * 25)
        frame = (
            b"\x20" + header + b"n" * 16
            + (16).to_bytes(4, "big") + b"k" * 16
            + len(slab).to_bytes(4, "big") + slab
        )
        with pytest.raises(ProtocolError, match="whole number of group tables"):
            m.LblAccessRequest.from_bytes(frame)
    store = LblOrtoa(StoreConfig(value_len=2, group_bits=group_bits))
    store.initialize({"k": b"hi"})
    built, _ops = store.proxy.prepare(Request.read("k"))
    wide = m.LblAccessRequest(
        built.encoded_key, built.slab + bytes(built.table_size * built.num_groups * 9),
        built.table_size, 25, built.nonce,
    )
    assert wide.num_groups == built.num_groups
    groups = built.num_groups
    with pytest.raises(
        ProtocolError, match=f"{groups} tables of 25-byte rows do not fit a {16 * groups}-byte"
    ):
        store.server.process(wide)


@pytest.mark.parametrize("group_bits", [1, 2, 3, 8])
def test_slot_byte_row_frame_is_refused(group_bits):
    """The format before the slot rode in the label: 17-byte rows (label ‖
    slot byte) and 15 check bytes per head row.  Behind 16-byte check
    blocks no such slab is a whole number of tables, at any group count."""
    table_size = 1 << group_bits
    for groups in (1, 2, 3, 64, 640):
        slab = b"s" * (groups * table_size * 17 + table_size * 15)
        with pytest.raises(ProtocolError, match="whole number of group tables"):
            m.LblAccessRequest(b"k" * 16, slab, table_size, 17, b"n" * 16)


def test_wrong_tag_rejected():
    req = m.ReadRequest(b"key").to_bytes()
    with pytest.raises(ProtocolError):
        m.WriteRequest.from_bytes(req)


def test_truncated_message_rejected():
    data = m.TeeAccessRequest(b"key", b"sel", b"val").to_bytes()
    with pytest.raises(ProtocolError):
        m.TeeAccessRequest.from_bytes(data[:-2])


def test_empty_buffer_rejected():
    with pytest.raises(ProtocolError):
        m.ReadRequest.from_bytes(b"")


def test_size_is_fields_plus_framing():
    req = m.WriteRequest(b"k" * 16, b"c" * 100)
    # 1 tag byte + 2 fields x (4-byte length + body)
    assert len(req.to_bytes()) == 1 + (4 + 16) + (4 + 100)


@given(st.binary(max_size=64), st.binary(max_size=256), st.binary(max_size=256))
@settings(max_examples=50)
def test_tee_request_roundtrip_property(key, sel, val):
    req = m.TeeAccessRequest(key, sel, val)
    assert m.TeeAccessRequest.from_bytes(req.to_bytes()) == req


@given(
    groups=st.integers(min_value=1, max_value=8),
    table_size=st.sampled_from([2, 4, 256]),
    entry_len=st.integers(min_value=1, max_value=60),
    data=st.data(),
)
@settings(max_examples=50)
def test_lbl_request_roundtrip_property(groups, table_size, entry_len, data):
    size, nonce = groups * table_size * entry_len + table_size * rows.CHECK_LEN, b"n" * 16
    slab = data.draw(st.binary(min_size=size, max_size=size))
    req = m.LblAccessRequest(b"key", slab, table_size, entry_len, nonce)
    parsed = m.LblAccessRequest.from_bytes(req.to_bytes())
    assert parsed == req
    assert m.LblAccessRequest.from_tables(b"key", parsed.tables, nonce) == req
    assert len(req.to_bytes()) == 1 + (4 + 4 + len(nonce)) + (4 + 3) + (4 + size)


@given(
    st.binary(max_size=200),
    st.integers(min_value=1, max_value=8),
    st.binary(min_size=16, max_size=16),
)
@settings(max_examples=50)
def test_lbl_response_roundtrip_property(slots, bits, digest):
    resp = m.LblAccessResponse(slots, bits, digest)
    assert m.LblAccessResponse.from_bytes(resp.to_bytes()) == resp
    assert len(resp.to_bytes()) == 3 + len(slots) + 16


def test_get_and_put_frames_are_length_identical():
    for label_bits in (128, 192, 256):
        config = StoreConfig(value_len=5, group_bits=2, label_bits=label_bits)
        store = LblOrtoa(config)
        store.initialize({"k": b"hello"})
        sizes = set()
        for request in (Request.read("k"), Request.write("k", b"world")):
            built, _ops = store.proxy.prepare(request)
            response, _server_ops = store.server.process(built)
            sizes.add((len(built.to_bytes()), len(response.to_bytes())))
        assert len(sizes) == 1
