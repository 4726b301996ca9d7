"""Storage-vs-communication overhead analysis (paper appendix §10.1, Fig 6).

One label representing ``y`` plaintext bits trades storage for bandwidth:

* storage factor   ``f_s(y) = 1 / y``      (labels per plaintext bit),
* communication factor ``f_c(y) = 2^y / y``  (ciphertexts per plaintext bit).

``f_c`` is flat between y=1 and y=2 (both equal 2) while ``f_s`` halves, so
the combined overhead is minimized at **y = 2** — the paper's chosen
optimum.  :func:`overhead_factors` computes the analytic curves and
:func:`measured_factors` validates them against actual protocol byte counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.lbl import LblOrtoa
from repro.errors import ConfigurationError
from repro.types import Request, StoreConfig


@dataclass(frozen=True, slots=True)
class OverheadFactors:
    """Analytic overhead factors for one value of ``y``."""

    y: int
    storage_factor: float
    communication_factor: float

    @property
    def total(self) -> float:
        """Combined storage + communication overhead factor."""
        return self.storage_factor + self.communication_factor


def overhead_factors(max_y: int = 6) -> list[OverheadFactors]:
    """The Figure 6 curves for ``y = 1 .. max_y``."""
    if max_y < 1:
        raise ConfigurationError("max_y must be >= 1")
    return [
        OverheadFactors(
            y=y,
            storage_factor=1.0 / y,
            communication_factor=(1 << y) / y,
        )
        for y in range(1, max_y + 1)
    ]


def optimal_y(max_y: int = 6) -> int:
    """The ``y`` minimizing total overhead — the paper finds 2."""
    return min(overhead_factors(max_y), key=lambda f: f.total).y


def measured_factors(y: int, value_len: int = 16) -> OverheadFactors:
    """Empirical factors from a real LBL deployment at group size ``y``.

    Storage is counted in labels stored per plaintext bit; communication in
    table ciphertexts sent per plaintext bit — the same units as the
    analytic curves, so the two should agree exactly.
    """
    config = StoreConfig(value_len=value_len, group_bits=y)
    protocol = LblOrtoa(config)
    protocol.initialize({"k": b"x"})
    encoded = protocol.keychain.encode_key("k")
    stored = protocol.server.store.get(encoded)
    labels_stored = len(stored) // (config.label_bits // 8)
    request, _ = protocol.proxy.prepare(Request.read("k"))
    ciphertexts_sent = request.num_groups * request.table_size
    bits = config.value_bits
    return OverheadFactors(
        y=y,
        storage_factor=labels_stored / bits,
        communication_factor=ciphertexts_sent / bits,
    )


__all__ = ["OverheadFactors", "overhead_factors", "optimal_y", "measured_factors"]
