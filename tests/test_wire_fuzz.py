"""Fuzz tests: parsers must fail *cleanly* (ProtocolError/ConfigurationError),
never with unexpected exceptions, on arbitrary or mutated input.

The final section points the same adversarial streams at a *live*
:class:`~repro.transport.LblTcpServer` over real sockets: a garbage,
truncated, or oversized frame may earn an error reply or a hangup, but
must never take the server down for other connections."""

import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import messages as m
from repro.crypto import rows
from repro.crypto.fhe import FheCiphertext, FheParams
from repro.errors import ConfigurationError, OrtoaError, ProtocolError
from repro.transport import framing
from repro.transport.framing import (
    _LEN,
    MAX_FRAME_BYTES,
    MAX_REQUEST_ID,
    unwrap_mux,
    wrap_mux,
)
from repro.transport.server import (
    ERROR_TAG,
    LOAD_TAG,
    OBS_DUMP_TAG,
    OBS_PULL_TAG,
    pack_load,
    unpack_load,
)
from tests.test_admission import serving

PARSERS = [
    m.ReadRequest,
    m.ReadResponse,
    m.WriteRequest,
    m.WriteAck,
    m.TeeAccessRequest,
    m.TeeAccessResponse,
    m.LblAccessRequest,
    m.LblAccessResponse,
    m.FheAccessRequest,
    m.FheAccessResponse,
    m.LblBatchRequest,
    m.LblBatchResponse,
    m.LblErrorEntry,
]


@pytest.mark.parametrize("parser", PARSERS, ids=lambda p: p.__name__)
@given(data=st.binary(max_size=300))
@settings(max_examples=30, deadline=None)
def test_parsers_never_crash_on_garbage(parser, data):
    try:
        parser.from_bytes(data)
    except ProtocolError:
        pass  # the only acceptable failure mode


@given(
    mutation_at=st.integers(min_value=0, max_value=10_000),
    new_byte=st.integers(min_value=0, max_value=255),
)
@settings(max_examples=50, deadline=None)
def test_lbl_request_mutation_is_rejected_or_parses(mutation_at, new_byte):
    """Any single-byte mutation of a valid message either still frames
    correctly (payload corruption is the entries' own job) or raises cleanly."""
    checks = bytes(rows.CHECK_LEN)  # group 0's rows end in check bytes
    tables = ((b"ct-one" * 4 + checks, b"ct-two" * 4 + checks),) + (
        (b"ct-one" * 4, b"ct-two" * 4),
    ) * 2
    original = m.LblAccessRequest.from_tables(
        b"encoded-key", tables, b"nonce" * 3 + b"!"
    ).to_bytes()
    mutated = bytearray(original)
    mutated[mutation_at % len(mutated)] = new_byte
    try:
        parsed = m.LblAccessRequest.from_bytes(bytes(mutated))
        assert isinstance(parsed.tables, tuple)
    except ProtocolError:
        pass


@given(data=st.binary(max_size=400))
@settings(max_examples=30, deadline=None)
def test_fhe_ciphertext_parser_never_crashes(data):
    params = FheParams(n=8, q_bits=40)
    try:
        FheCiphertext.from_bytes(params, data)
    except ConfigurationError:
        pass


@given(
    truncate_to=st.integers(min_value=0, max_value=100),
)
@settings(max_examples=30, deadline=None)
def test_truncated_fhe_ciphertext_rejected(truncate_to):
    from repro.crypto.fhe import FheScheme

    params = FheParams(n=8, q_bits=40)
    blob = FheScheme(params).encrypt_scalar(1).to_bytes()
    if truncate_to >= len(blob):
        return
    with pytest.raises(ConfigurationError):
        FheCiphertext.from_bytes(params, blob[:truncate_to])


def test_cross_protocol_tag_confusion_rejected():
    """Feeding one protocol's message to another parser must fail."""
    checks = bytes(rows.CHECK_LEN)
    lbl = m.LblAccessRequest.from_tables(
        b"k", ((b"a" + checks, b"b" + checks),), b"n" * 16
    ).to_bytes()
    tee = m.TeeAccessRequest(b"k", b"s", b"v").to_bytes()
    with pytest.raises(ProtocolError):
        m.TeeAccessRequest.from_bytes(lbl)
    with pytest.raises(ProtocolError):
        m.LblAccessRequest.from_bytes(tee)
    with pytest.raises(ProtocolError):
        m.FheAccessRequest.from_bytes(tee)


# --------------------------------------------------------------------- #
# Bulk-load records (server-side parser for untrusted bytes)
# --------------------------------------------------------------------- #

stored_labels = st.binary(min_size=1, max_size=320)


@given(encoded_key=st.binary(min_size=1, max_size=64), labels=stored_labels)
@settings(max_examples=50, deadline=None)
def test_load_record_roundtrip(encoded_key, labels):
    decoded_key, decoded_labels = unpack_load(pack_load(encoded_key, labels))
    assert decoded_key == encoded_key
    assert decoded_labels == labels


@given(data=st.binary(max_size=300))
@settings(max_examples=50, deadline=None)
def test_unpack_load_never_crashes_on_garbage(data):
    try:
        unpack_load(data)
    except OrtoaError:
        pass  # ProtocolError or StorageError; nothing rawer may escape


@given(
    encoded_key=st.binary(min_size=1, max_size=32),
    labels=stored_labels,
    truncate_to=st.integers(min_value=0, max_value=200),
    claimed_len=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=50, deadline=None)
def test_unpack_load_adversarial_lengths(encoded_key, labels, truncate_to, claimed_len):
    """Truncations and lying key-length headers must fail cleanly."""
    blob = pack_load(encoded_key, labels)
    try:
        unpack_load(blob[: truncate_to % (len(blob) + 1)])
    except OrtoaError:
        pass
    # Rewrite the 4-byte key length to an arbitrary claim.
    lying = bytes([LOAD_TAG]) + claimed_len.to_bytes(4, "big") + blob[5:]
    try:
        unpack_load(lying)
    except OrtoaError:
        pass


# --------------------------------------------------------------------- #
# Mux framing (request-id envelope for pipelined transport)
# --------------------------------------------------------------------- #

@given(
    request_id=st.integers(min_value=0, max_value=MAX_REQUEST_ID),
    payload=st.binary(max_size=200),
)
@settings(max_examples=50, deadline=None)
def test_mux_roundtrip(request_id, payload):
    assert unwrap_mux(wrap_mux(request_id, payload)) == (request_id, payload)


@given(data=st.binary(max_size=200))
@settings(max_examples=50, deadline=None)
def test_unwrap_mux_never_crashes_on_garbage(data):
    try:
        request_id, inner = unwrap_mux(data)
    except ProtocolError:
        pass
    else:
        # Anything accepted must re-wrap to the identical bytes.
        assert wrap_mux(request_id, inner) == data


@given(
    mutation_at=st.integers(min_value=0, max_value=10_000),
    new_byte=st.integers(min_value=0, max_value=255),
)
@settings(max_examples=50, deadline=None)
def test_batch_response_mutation_is_rejected_or_parses(mutation_at, new_byte):
    """Mixed success/error batch responses survive single-byte mutation
    without raw struct/index errors escaping the parser."""
    original = m.LblBatchResponse(
        (
            m.LblAccessResponse(b"slots", 2, b"digest-one" * 2),
            m.LblErrorEntry("stale label at epoch 4"),
            m.LblAccessResponse(b"\xff", 8, b"digest-two" * 2),
        )
    ).to_bytes()
    mutated = bytearray(original)
    mutated[mutation_at % len(mutated)] = new_byte
    try:
        parsed = m.LblBatchResponse.from_bytes(bytes(mutated))
        assert isinstance(parsed.responses, tuple)
    except ProtocolError:
        pass


# --------------------------------------------------------------------- #
# Live server under adversarial byte streams
# --------------------------------------------------------------------- #

PING = bytes([OBS_PULL_TAG])


@pytest.fixture(scope="module")
def live_server():
    """One server shared by every fuzz example in this module.

    Sharing is the point: each example attacks the same server, so a wedge
    or crash caused by example N fails the liveness probes of N+1.
    """
    with serving() as server:
        yield server


def assert_server_alive(server) -> None:
    """A well-formed request on a fresh connection still completes."""
    probe = socket.create_connection(server.address, timeout=30)
    try:
        framing.send_frame(probe, framing.wrap_mux(1, PING))
        _rid, inner = unwrap_mux(framing.recv_frame(probe))
        assert inner[:1] == bytes([OBS_DUMP_TAG])
    finally:
        probe.close()


def exchange(server, blob: bytes, timeout: float = 10.0) -> bytes | None:
    """Send raw bytes; return the first reply frame, or None on hangup.

    A timeout (the server neither replying nor hanging up) is the one
    outcome that fails the test: it means the connection wedged.
    """
    sock = socket.create_connection(server.address, timeout=timeout)
    try:
        sock.sendall(blob)
        try:
            return framing.recv_frame(sock)
        except ProtocolError:
            return None  # server hung up cleanly
        except TimeoutError:
            pytest.fail(f"server neither replied nor hung up for {blob[:40]!r}")
    finally:
        sock.close()


#: The only first bytes the server serves: the two mux envelopes.  Garbage
#: behind them may parse by coincidence; any other frame — a well-formed
#: access or load record included — must earn an error frame.
MUX_TAGS = {framing.MUX_TAG, framing.MUX_TRACED_TAG}


@given(payload=st.binary(min_size=0, max_size=300))
@settings(max_examples=25, deadline=None)
def test_live_server_replies_or_hangs_up_on_garbage_frames(live_server, payload):
    """A well-framed garbage payload earns an error reply or a hangup."""
    reply = exchange(live_server, _LEN.pack(len(payload)) + payload)
    if not payload or payload[0] not in MUX_TAGS:
        # A plain frame: the reply is one explicit error frame, never a
        # hangup or a fake success.
        assert reply is not None and reply[:1] == bytes([ERROR_TAG]), reply
    assert_server_alive(live_server)


@given(
    request_id=st.integers(min_value=0, max_value=MAX_REQUEST_ID),
    inner=st.binary(min_size=0, max_size=200),
)
@settings(max_examples=25, deadline=None)
def test_live_server_answers_garbage_mux_frames_under_their_id(
    live_server, request_id, inner
):
    """Garbage *inside* a mux envelope is answered under that request id,
    so a pipelined client can fail just the one future."""
    frame = wrap_mux(request_id, inner)
    reply = exchange(live_server, _LEN.pack(len(frame)) + frame)
    if reply is not None and reply[:1] != bytes([ERROR_TAG]):
        reply_id, reply_inner = unwrap_mux(reply)
        assert reply_id == request_id
        # Almost always an error frame; a coincidentally-valid control
        # frame (obs pull, load record) may earn its genuine ack.
        assert reply_inner[:1] in (
            bytes([ERROR_TAG]),
            bytes([OBS_DUMP_TAG]),
            bytes([LOAD_TAG + 1]),  # LOAD_ACK
        )
    assert_server_alive(live_server)


@given(
    claimed=st.integers(min_value=0, max_value=2**32 - 1),
    delivered=st.binary(max_size=100),
)
@settings(max_examples=25, deadline=None)
def test_live_server_survives_lying_length_prefixes(live_server, claimed, delivered):
    """Length prefixes that promise more (or less) than delivered.

    Over-claims beyond MAX_FRAME_BYTES must be refused outright; short
    deliveries just look like a slow client until we hang up first.
    """
    sock = socket.create_connection(live_server.address, timeout=10)
    try:
        sock.sendall(_LEN.pack(claimed) + delivered)
        if claimed > MAX_FRAME_BYTES:
            # The server must refuse without reading the (absent) payload.
            try:
                reply = framing.recv_frame(sock)
                assert reply[:1] == bytes([ERROR_TAG])
            except ProtocolError:
                pass  # immediate hangup is acceptable too
    finally:
        sock.close()
    assert_server_alive(live_server)


@given(raw=st.binary(min_size=1, max_size=300))
@settings(max_examples=25, deadline=None)
def test_live_server_survives_unframed_byte_storm(live_server, raw):
    """Raw bytes with no framing discipline at all, then a hard close."""
    sock = socket.create_connection(live_server.address, timeout=10)
    try:
        sock.sendall(raw)
    finally:
        sock.close()
    assert_server_alive(live_server)


def test_live_server_survives_max_frame_boundary(live_server):
    """Frames exactly at, one under, and one over the size limit."""
    at_limit_ok = _LEN.pack(MAX_FRAME_BYTES)
    over_limit = _LEN.pack(MAX_FRAME_BYTES + 1)
    # Over the limit: refused before any payload is read.
    reply = exchange(live_server, over_limit)
    assert reply is None or reply[:1] == bytes([ERROR_TAG])
    # At the limit: legal length, we just never deliver the body; the
    # server must not block anyone else while waiting, and our hangup
    # must reap the connection.
    sock = socket.create_connection(live_server.address, timeout=10)
    try:
        sock.sendall(at_limit_ok)
        assert_server_alive(live_server)
    finally:
        sock.close()
    assert_server_alive(live_server)
