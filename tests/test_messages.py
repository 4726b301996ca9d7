"""Wire-format round-trip and robustness tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import messages as m
from repro.core.lbl import LblOrtoa
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


def test_lbl_request_roundtrip():
    tables = (
        (b"ct00", b"ct01"),
        (b"ct10", b"ct11"),
    )
    req = m.LblAccessRequest.from_tables(b"key", tables, nonce=b"n" * 16)
    assert req.slab == b"ct00ct01ct10ct11"
    assert (req.table_size, req.entry_len, req.num_groups) == (2, 4, 2)
    assert m.LblAccessRequest.from_bytes(req.to_bytes()) == req


def test_lbl_request_roundtrip_y2():
    tables = ((b"a", b"b", b"c", b"d"),) * 3
    req = m.LblAccessRequest.from_tables(b"key", tables, b"n" * 16)
    parsed = m.LblAccessRequest.from_bytes(req.to_bytes())
    assert parsed.tables == tables
    assert parsed.nonce == b"n" * 16


@pytest.mark.parametrize("nonce", [b"", b"n" * 15, b"n" * 17], ids=["none", "15", "17"])
def test_lbl_request_without_a_16_byte_nonce_is_refused(nonce):
    """Every request carries its rows' 16-byte nonce: one without it is
    refused as it is built and as it is parsed."""
    with pytest.raises(ProtocolError, match="nonce must be 16 bytes"):
        m.LblAccessRequest(b"key", b"\xaa" * 24, 4, 3, nonce)
    good = m.LblAccessRequest(b"key", b"\xaa" * 24, 4, 3, b"N" * 16).to_bytes()
    header = (20).to_bytes(4, "big") + b"\x00\x04\x00\x03" + b"N" * 16
    shape = (4 + len(nonce)).to_bytes(4, "big") + b"\x00\x04\x00\x03" + nonce
    with pytest.raises(ProtocolError, match="nonce must be 16 bytes"):
        m.LblAccessRequest.from_bytes(good.replace(header, shape))


def test_lbl_request_wire_layout_is_header_key_slab():
    req = m.LblAccessRequest(b"K" * 16, b"\xaa" * 24, 4, 3, b"N" * 16)
    assert req.to_bytes() == (
        b"\x20"
        + (20).to_bytes(4, "big") + b"\x00\x04\x00\x03" + b"N" * 16
        + (16).to_bytes(4, "big") + b"K" * 16
        + (24).to_bytes(4, "big") + b"\xaa" * 24
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
    """A row's label + slot byte + 8 check bytes must fit 64 bytes (four
    blocks of pad)."""
    with pytest.raises(ConfigurationError, match="at most 440"):
        StoreConfig(value_len=2, label_bits=448)
    config = StoreConfig(value_len=2, group_bits=2, label_bits=440)
    store = LblOrtoa(config)
    store.initialize({"k": b"hi"})
    built, _ops = store.proxy.prepare(Request.write("k", b"yo"))
    assert built.entry_len == 55 + 1 + 8 == 64
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
    resp = m.LblAccessResponse.from_labels((b"label1", b"label2", b"label3"))
    assert resp == m.LblAccessResponse(b"label1label2label3", 6)
    assert resp.opened_labels == (b"label1", b"label2", b"label3")
    assert m.LblAccessResponse.from_bytes(resp.to_bytes()) == resp


def test_lbl_response_is_width_then_labels():
    resp = m.LblAccessResponse(b"label1label2", 6)
    assert resp.to_bytes() == b"\x21\x00\x06label1label2"
    assert m.LblAccessResponse.from_bytes(b"\x21\x00\x00") == m.LblAccessResponse(b"", 0)
    assert m.LblAccessResponse.from_labels(()).opened_labels == ()
    with pytest.raises(ProtocolError):
        m.LblAccessResponse.from_labels((b"long-label", b"short"))
    with pytest.raises(ProtocolError):
        m.LblAccessResponse(b"label1labe", 6)
    with pytest.raises(ProtocolError):
        m.LblAccessResponse(b"", 1 << 16)
    with pytest.raises(ProtocolError):
        m.LblAccessResponse.from_bytes(b"\x21\x00\x06label1labe")
    with pytest.raises(ProtocolError):
        m.LblAccessResponse.from_bytes(b"\x21\x00\x00stray")


def test_lbl_request_rejects_empty_tables():
    with pytest.raises(ProtocolError):
        m.LblAccessRequest.from_tables(b"key", (), b"n" * 16)
    with pytest.raises(ProtocolError):
        m.LblAccessRequest(b"key", b"", 2, 4, b"n" * 16)


def test_lbl_request_rejects_ragged_tables():
    with pytest.raises(ProtocolError):
        m.LblAccessRequest.from_tables(b"key", ((b"a", b"b"), (b"c",)), b"n" * 16)
    with pytest.raises(ProtocolError):
        m.LblAccessRequest.from_tables(b"key", ((b"a", b"bb"),), b"n" * 16)


def test_lbl_request_rejects_slab_that_is_not_whole_tables():
    whole = m.LblAccessRequest(b"key", b"x" * 24, 4, 3, b"n" * 16)
    assert whole.num_groups == 2
    with pytest.raises(ProtocolError):
        m.LblAccessRequest(b"key", b"x" * 23, 4, 3, b"n" * 16)
    cut = whole.to_bytes()[: -(4 + 24)] + (23).to_bytes(4, "big") + b"x" * 23
    with pytest.raises(ProtocolError, match="whole number of group tables"):
        m.LblAccessRequest.from_bytes(cut)
    for table_size, entry_len in ((0, 3), (4, 0), (1 << 16, 3)):
        with pytest.raises(ProtocolError):
            m.LblAccessRequest(b"key", b"x" * 24, table_size, entry_len, b"n" * 16)


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
    # ...and the old per-label response is not a whole number of labels.
    with pytest.raises(ProtocolError):
        m.LblAccessResponse.from_bytes(b"\x21" + field(b"l" * 16) + field(b"m" * 16))


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
    size, nonce = groups * table_size * entry_len, b"n" * 16
    slab = data.draw(st.binary(min_size=size, max_size=size))
    req = m.LblAccessRequest(b"key", slab, table_size, entry_len, nonce)
    parsed = m.LblAccessRequest.from_bytes(req.to_bytes())
    assert parsed == req
    assert m.LblAccessRequest.from_tables(b"key", parsed.tables, nonce) == req
    assert len(req.to_bytes()) == 1 + (4 + 4 + len(nonce)) + (4 + 3) + (4 + size)


@given(
    st.integers(min_value=1, max_value=40).flatmap(
        lambda n: st.lists(st.binary(min_size=n, max_size=n), max_size=12)
    )
)
@settings(max_examples=50)
def test_lbl_response_roundtrip_property(labels):
    resp = m.LblAccessResponse.from_labels(labels)
    assert m.LblAccessResponse.from_bytes(resp.to_bytes()) == resp
    assert list(resp.opened_labels) == labels


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
