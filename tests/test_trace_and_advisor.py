"""Tests for the deployment advisor (§6.3.2)."""

import pytest

from repro.analysis.advisor import recommend
from repro.errors import ConfigurationError


def test_tee_wins_when_available_and_trusted():
    rec = recommend(value_len=160, server_rtt_ms="oregon",
                    tee_available=True, tee_trusted=True)
    assert rec.protocol == "tee"


def test_tee_unavailable_falls_through_to_rule():
    rec = recommend(value_len=160, server_rtt_ms="oregon",
                    tee_available=True, tee_trusted=False)
    assert rec.protocol in ("lbl", "baseline")


def test_small_values_near_server_pick_lbl():
    rec = recommend(value_len=50, server_rtt_ms="oregon")
    assert rec.protocol == "lbl"
    assert rec.rule_satisfied


def test_large_values_near_server_pick_baseline():
    rec = recommend(value_len=600, server_rtt_ms="oregon")
    assert rec.protocol == "baseline"
    assert not rec.rule_satisfied


def test_gdpr_distance_rescues_lbl_at_300b():
    """Figure 3d's scenario through the advisor."""
    near = recommend(value_len=300, server_rtt_ms="oregon")
    far = recommend(value_len=300, server_rtt_ms="london")
    assert far.protocol == "lbl"
    # Near the server, 300 B sits at the crossover; either answer is
    # defensible but the far case must flip decisively toward LBL.
    assert far.rtt_ms > near.rtt_ms


def test_recommendation_carries_the_numbers():
    rec = recommend(value_len=160, server_rtt_ms=100.0)
    assert rec.rtt_ms == 100.0
    assert rec.lbl_compute_ms > 0
    assert rec.lbl_overhead_ms > 0
    assert "§6.3.2" in rec.reason or "6.1" in rec.reason


def test_advisor_validation():
    with pytest.raises(ConfigurationError):
        recommend(value_len=160, server_rtt_ms="atlantis")
    with pytest.raises(ConfigurationError):
        recommend(value_len=160, server_rtt_ms=-5.0)
