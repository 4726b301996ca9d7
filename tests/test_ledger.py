"""Unit tests for the per-request resource ledger (:mod:`repro.obs.ledger`).

The ledger duplicates a handful of wire-format literals so it can stay a
leaf module (imported by the crypto layer); the pinning tests here are what
keeps those copies honest against the canonical definitions in
:mod:`repro.transport.framing`, :mod:`repro.core.messages`, and
:mod:`repro.crypto.aead` — as do the cost-model constants they feed.
"""

import threading

import pytest

from repro import obs
from repro.analysis import costmodel
from repro.core import messages
from repro.crypto import rows
from repro.crypto.keys import KeyChain
from repro.obs import ledger
from repro.obs.export import prometheus_text
from repro.transport import framing
from repro.transport.server import ERROR_TAG, LOAD_TAG, OBS_DUMP_TAG, OBS_PULL_TAG


@pytest.fixture(autouse=True)
def fresh_obs():
    obs.reset()
    obs.enable()
    yield
    obs.disable()
    obs.reset()


def _nonzero(snapshot):
    """Registry reset zeroes counters but keeps them registered; compare
    only the live values."""
    return {name: value for name, value in snapshot.items() if value}


# --------------------------------------------------------------------- #
# Wire-literal pinning
# --------------------------------------------------------------------- #

def test_mux_literals_match_framing():
    assert ledger._MUX_TAG == framing.MUX_TAG
    assert ledger._MUX_TRACED_TAG == framing.MUX_TRACED_TAG
    assert ledger._MUX_HEADER == 1 + framing.REQUEST_ID_BYTES
    assert (
        ledger._MUX_TRACED_HEADER
        == 1 + framing.REQUEST_ID_BYTES + framing.TRACE_CONTEXT_BYTES
    )


def test_framed_mux_bytes_matches_real_wrapping():
    payload = b"\x20" + b"x" * 41
    plain = framing.wrap_mux(7, payload)
    traced = framing.wrap_mux(7, payload, trace_context=b"\x00" * 16)
    # The transport counts 4 length-prefix bytes plus the wrapped payload.
    assert ledger.framed_mux_bytes(len(payload), traced=False) == 4 + len(plain)
    assert ledger.framed_mux_bytes(len(payload), traced=True) == 4 + len(traced)


def test_costmodel_literals_match_implementation():
    assert costmodel.ENCODED_KEY_BYTES == KeyChain(b"\x01" * 16).key_encoding_prf.out_bytes
    assert (
        costmodel.DECRYPT_INDEX_BYTES, costmodel.ROW_CHECK_BYTES, costmodel.ROW_NONCE_BYTES
    ) == (rows.SLOT_LEN, rows.CHECK_LEN, rows.ROW_NONCE_LEN)
    assert costmodel.MUX_HEADER_BYTES == 1 + framing.REQUEST_ID_BYTES
    assert (
        costmodel.MUX_TRACED_HEADER_BYTES
        == 1 + framing.REQUEST_ID_BYTES + framing.TRACE_CONTEXT_BYTES
    )


@pytest.mark.parametrize(
    "tag, expected",
    [
        (messages.LblAccessRequest.TAG, "access"),
        (messages.LblAccessResponse.TAG, "access"),
        (messages.LblBatchRequest.TAG, "batch"),
        (messages.LblBatchResponse.TAG, "batch"),
        (LOAD_TAG, "load"),
        (OBS_PULL_TAG, "obs"),
        (OBS_DUMP_TAG, "obs"),
        (ERROR_TAG, "error"),
        (0x05, "other"),
    ],
)
def test_frame_type_classifies_tags(tag, expected):
    assert ledger.frame_type(bytes([tag]) + b"body") == expected


def test_frame_type_unwraps_mux_envelopes():
    inner = bytes([messages.LblAccessRequest.TAG]) + b"body"
    assert ledger.frame_type(framing.wrap_mux(1, inner)) == "access"
    assert (
        ledger.frame_type(framing.wrap_mux(1, inner, trace_context=b"\x00" * 16))
        == "access"
    )
    assert ledger.frame_type(b"") == "other"
    assert ledger.frame_type(bytes([framing.MUX_TAG])) == "other"


# --------------------------------------------------------------------- #
# Rows and attribution
# --------------------------------------------------------------------- #

def test_track_attributes_ambient_ops_and_wire():
    with ledger.track("req", trace_id=42) as row:
        ledger.add_op("prf.calls", 3)
        ledger.add_prf(2, 10)
        ledger.credit_wire("access", "sent", 100)
        ledger.credit_wire("access", "received", 25)
    snap = row.snapshot()
    assert snap["label"] == "req"
    assert snap["trace_id"] == 42
    assert snap["ops"] == {"prf.calls": 5, "sha256.compressions": 10}
    assert snap["wire"] == {"access.sent": 100, "access.received": 25}
    assert row.wire_bytes == 125
    assert ledger.completed_rows()[-1] is row


def test_track_nests_and_restores_outer_row():
    with ledger.track("outer") as outer:
        with ledger.track("inner"):
            ledger.add_op("aead.encrypts")
        ledger.add_op("prf.calls")
        assert ledger.current_row() is outer
    assert ledger.current_row() is None
    inner_row, outer_row = ledger.completed_rows()
    assert inner_row.ops == {"aead.encrypts": 1}
    assert outer_row.ops == {"prf.calls": 1}


def test_count_wire_is_registry_only():
    with ledger.track("req") as row:
        ledger.count_wire("access", "sent", 64, role="server")
    assert row.wire == {}
    assert _nonzero(ledger.registry_wire_snapshot()) == {"server.access.sent": 64}


def test_credit_wire_is_row_only():
    with ledger.track("req"):
        ledger.credit_wire("access", "sent", 64)
    assert _nonzero(ledger.registry_wire_snapshot()) == {}


def test_ops_hit_registry_and_row():
    with ledger.track("req"):
        ledger.add_op("aead.encrypts", 4)
    assert _nonzero(ledger.registry_ops_snapshot()) == {"aead.encrypts": 4}


def test_disabled_ledger_is_inert():
    obs.disable()
    with ledger.track("req") as row:
        ledger.add_op("prf.calls", 9)
        ledger.add_prf(1, 2)
        ledger.credit_wire("access", "sent", 10)
        ledger.count_wire("access", "sent", 10)
    assert row.ops == {}
    assert row.wire == {}
    assert _nonzero(ledger.registry_ops_snapshot()) == {}
    assert _nonzero(ledger.registry_wire_snapshot()) == {}


def test_activate_carries_row_across_threads():
    row = ledger.LedgerRow(label="hop")

    def work():
        token = ledger.activate(row)
        try:
            ledger.add_op("prf.calls", 7)
        finally:
            ledger.deactivate(token)

    thread = threading.Thread(target=work)
    thread.start()
    thread.join()
    assert row.ops == {"prf.calls": 7}
    ledger.retire(row)
    assert ledger.completed_rows() == [row]


def test_completed_rows_are_bounded():
    for i in range(ledger.MAX_COMPLETED_ROWS + 5):
        ledger.retire(ledger.LedgerRow(label=str(i)))
    rows = ledger.completed_rows()
    assert len(rows) == ledger.MAX_COMPLETED_ROWS
    assert rows[-1].label == str(ledger.MAX_COMPLETED_ROWS + 4)


# --------------------------------------------------------------------- #
# Prometheus export
# --------------------------------------------------------------------- #

def test_ledger_counters_export_to_prometheus():
    ledger.add_op("aead.encrypts", 2)
    ledger.count_wire("access", "sent", 128, role="server")
    text = prometheus_text()
    assert "repro_ledger_ops_aead_encrypts_total 2" in text
    assert "repro_ledger_wire_server_access_sent_bytes_total 128" in text
