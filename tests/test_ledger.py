"""Unit tests for the resource ledger's process totals (:mod:`repro.obs.ledger`).

The ledger duplicates a handful of wire-format literals so it can stay a
leaf module (imported by the crypto layer); the pinning tests here are what
keeps those copies honest against the canonical definitions in
:mod:`repro.transport.framing`, :mod:`repro.core.messages`, and
:mod:`repro.crypto.aead` — as do the cost-model constants they feed.
"""

import pytest

from repro import obs
from repro.analysis import costmodel
from repro.core import messages
from repro.crypto import labels, rows
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


def test_costmodel_literals_match_implementation():
    assert costmodel.ENCODED_KEY_BYTES == KeyChain(b"\x01" * 16).key_encoding_prf.out_bytes
    assert (costmodel.ROW_CHECK_BYTES, costmodel.ROW_NONCE_BYTES) == (
        rows.CHECK_LEN, rows.ROW_NONCE_LEN
    )
    assert costmodel.REPLY_DIGEST_BYTES == labels.REPLY_DIGEST_LEN
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
# Registry totals
# --------------------------------------------------------------------- #

def test_count_wire_is_registry_only():
    ledger.count_wire("access", "sent", 64, role="server")
    assert _nonzero(ledger.registry_wire_snapshot()) == {"server.access.sent": 64}
    assert _nonzero(ledger.registry_ops_snapshot()) == {}


def test_ops_hit_registry_and_row():
    ledger.add_op("aead.encrypts", 4)
    ledger.add_prf(2, 10)
    assert _nonzero(ledger.registry_ops_snapshot()) == {
        "aead.encrypts": 4,
        "prf.calls": 2,
        "sha256.compressions": 10,
    }


def test_disabled_ledger_is_inert():
    obs.disable()
    ledger.add_op("prf.calls", 9)
    ledger.add_prf(1, 2)
    ledger.count_wire("access", "sent", 10)
    assert _nonzero(ledger.registry_ops_snapshot()) == {}
    assert _nonzero(ledger.registry_wire_snapshot()) == {}


# --------------------------------------------------------------------- #
# Prometheus export
# --------------------------------------------------------------------- #

def test_ledger_counters_export_to_prometheus():
    ledger.add_op("aead.encrypts", 2)
    ledger.count_wire("access", "sent", 128, role="server")
    text = prometheus_text()
    assert "repro_ledger_ops_aead_encrypts_total 2" in text
    assert "repro_ledger_wire_server_access_sent_bytes_total 128" in text
