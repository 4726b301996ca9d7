"""Deployment advisor: the paper's §6.3.2 decision rule, operationalized.

"How should an application choose between LBL-ORTOA and the 2RTT baseline?"
The paper's answer is the inequality ``c > p + o`` (cross-datacenter RTT
versus LBL's compute plus large-message overhead), plus the observation that
TEE-ORTOA dominates whenever trusted enclaves are actually available and
trusted.  :func:`recommend` evaluates both for a concrete deployment by
measuring a *real* LBL transcript at the requested value size and pricing it
with the cost model — no hand-waved constants.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.lbl import LblOrtoa
from repro.errors import ConfigurationError
from repro.harness.calibration import CostModel
from repro.sim.network import DATACENTER_RTT_MS, DEFAULT_BANDWIDTH_MBPS, NetworkLink
from repro.types import Request, StoreConfig


@dataclass(frozen=True, slots=True)
class Recommendation:
    """The advisor's verdict with the numbers behind it."""

    protocol: str  # "tee" | "lbl" | "baseline"
    rtt_ms: float  # c
    lbl_compute_ms: float  # p
    lbl_overhead_ms: float  # o
    reason: str

    @property
    def rule_satisfied(self) -> bool:
        """The §6.3.2 inequality c > p + o."""
        return self.rtt_ms > self.lbl_compute_ms + self.lbl_overhead_ms


def recommend(
    value_len: int,
    server_rtt_ms: float | str,
    bandwidth_mbps: float = DEFAULT_BANDWIDTH_MBPS,
    tee_available: bool = False,
    tee_trusted: bool = False,
    cost_model: CostModel | None = None,
) -> Recommendation:
    """Pick a protocol for one deployment.

    Args:
        value_len: Fixed object size in bytes.
        server_rtt_ms: Proxy→server RTT in ms, or a Table 2 datacenter name.
        bandwidth_mbps: Proxy→server bandwidth.
        tee_available: The cloud offers enclaves in the right region (§6.1
            notes SGX regions are limited).
        tee_trusted: The application accepts TEE side-channel risk (§4.3).
        cost_model: Compute pricing; defaults to the paper calibration.
    """
    if isinstance(server_rtt_ms, str):
        try:
            server_rtt_ms = DATACENTER_RTT_MS[server_rtt_ms]
        except KeyError:
            known = ", ".join(sorted(DATACENTER_RTT_MS))
            raise ConfigurationError(
                f"unknown datacenter {server_rtt_ms!r}; known: {known}"
            ) from None
    if server_rtt_ms < 0:
        raise ConfigurationError("server_rtt_ms must be non-negative")
    cost_model = cost_model or CostModel.paper_like()

    # Measure a real LBL access at this value size.
    config = StoreConfig(value_len=value_len, group_bits=2, point_and_permute=True)
    protocol = LblOrtoa(config, rng=random.Random(0))
    protocol.initialize({"probe": bytes(value_len)})
    transcript = protocol.access(Request.read("probe"))
    p = sum(
        cost_model.phase_ms(cost_model.priced_ops(config, phase))
        for phase in transcript.phases
    )
    link = NetworkLink(server_rtt_ms, bandwidth_mbps)
    # Priced at the cost model's message sizes when it states any (the
    # paper's entry format under ``paper_like``), like the figure runs.
    wire = cost_model.lbl_round_trip(config) or transcript.round_trips[0]
    o = link.overhead_ms(wire.request_bytes, wire.response_bytes)

    if tee_available and tee_trusted:
        return Recommendation(
            "tee", server_rtt_ms, p, o,
            "TEE-ORTOA dominates when enclaves are available and their "
            "side-channel risk is acceptable: one round, tiny messages, "
            "negligible compute (§6.1).",
        )
    if server_rtt_ms > p + o:
        return Recommendation(
            "lbl", server_rtt_ms, p, o,
            f"c = {server_rtt_ms:.1f} ms exceeds p + o = {p:.1f} + {o:.1f} ms: "
            "saving a round beats shipping bigger messages (§6.3.2).",
        )
    return Recommendation(
        "baseline", server_rtt_ms, p, o,
        f"c = {server_rtt_ms:.1f} ms is below p + o = {p:.1f} + {o:.1f} ms: "
        "the extra round is cheaper than LBL's compute+overhead at this "
        "value size (§6.3.2).",
    )


__all__ = ["Recommendation", "recommend"]
