"""Dollar-cost estimate for operating LBL-ORTOA (paper §6.3.3).

The paper prices a deployment against Google Cloud list prices: storage per
GB-month, network egress per GB, function invocations per million, and CPU
time.  This module recomputes the estimate from first principles so every
assumption is explicit and sweepable (the paper's headline: ~$0.000023 per
request for 1M objects of 160 B with 128-bit labels).

Bytes per access and bytes per stored object are no longer hand-derived
bit formulas: they come from :class:`repro.analysis.costmodel.LblCostModel`,
whose closed forms are asserted equal to the wire ledger by tier-1 tests —
so the dollar figure inherits byte-exactness from the implementation
instead of drifting from it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.costmodel import LblCostModel
from repro.errors import ConfigurationError


@dataclass(frozen=True, slots=True)
class CloudPrices:
    """Google Cloud list prices used in §6.3.3."""

    storage_per_gb_month: float = 0.02
    network_per_gb: float = 0.12
    invocations_per_million: float = 0.4
    cpu_per_100ms: float = 0.00000165


@dataclass(frozen=True, slots=True)
class LblCostEstimate:
    """Breakdown of monthly/per-access dollar costs."""

    storage_gb: float
    storage_per_month: float
    network_gb_per_million_accesses: float
    network_per_million_accesses: float
    compute_per_million_accesses: float
    total_per_million_accesses: float

    @property
    def per_request(self) -> float:
        """Dollar cost of a single access."""
        return self.total_per_million_accesses / 1_000_000


def estimate_lbl_cost(
    num_objects: int = 1_000_000,
    value_bits: int = 1280,
    label_bits: int = 128,
    group_bits: int = 2,
    compute_ms_per_access: float = 2.0,
    prices: CloudPrices | None = None,
) -> LblCostEstimate:
    """Estimate LBL-ORTOA's operating cost.

    Defaults are the paper's configuration: the §10-optimized protocol
    (``y = 2`` with point-and-permute), 128-bit labels, 160 B values, 1M
    objects, and 2 ms of label encryption/decryption CPU per access.

    Storage and communication come from the ledger-validated cost model:
    per object the server holds the encoded key plus ``ceil(t/y)`` labels
    (§5.3.1 with §10.1's grouping); per access the wire carries
    ``2^y · ceil(t/y)`` AEAD ciphertexts out and one opened label per group
    back — including real framing, nonces, and tags, exactly as measured.
    """
    if num_objects < 1 or value_bits < 1:
        raise ConfigurationError("num_objects and value_bits must be positive")
    if value_bits % 8 != 0:
        raise ConfigurationError("value_bits must be a multiple of 8")
    if group_bits < 1:
        raise ConfigurationError("group_bits must be >= 1")
    prices = prices or CloudPrices()

    model = LblCostModel(
        value_len=value_bits // 8,
        group_bits=group_bits,
        label_bits=label_bits,
    )
    storage_gb = model.storage_bytes_per_object * num_objects / 1e9
    network_gb = model.bytes_per_access * 1_000_000 / 1e9

    compute_cost = (
        1_000_000 / 1_000_000 * prices.invocations_per_million
        + 1_000_000 * (compute_ms_per_access / 100.0) * prices.cpu_per_100ms
    )

    storage_cost = storage_gb * prices.storage_per_gb_month
    network_cost = network_gb * prices.network_per_gb
    return LblCostEstimate(
        storage_gb=storage_gb,
        storage_per_month=storage_cost,
        network_gb_per_million_accesses=network_gb,
        network_per_million_accesses=network_cost,
        compute_per_million_accesses=compute_cost,
        total_per_million_accesses=network_cost + compute_cost,
    )


__all__ = ["CloudPrices", "LblCostEstimate", "estimate_lbl_cost"]
