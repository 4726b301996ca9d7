"""The ORTOA protocol family (the paper's primary contribution).

Four interchangeable protocols implement the same single-key GET/PUT API
while hiding (or, for the baseline, emulating the state-of-the-art way of
hiding) the operation type from the storage server:

* :class:`~repro.core.baseline.TwoRoundBaseline` — read-then-write, 2 RTT
  (the comparison point of §6).
* :class:`~repro.core.fhe_ortoa.FheOrtoa` — homomorphic select, 1 RTT (§3).
* :class:`~repro.core.tee_ortoa.TeeOrtoa` — enclave select, 1 RTT (§4).
* :class:`~repro.core.lbl.LblOrtoa` — label-based select, 1 RTT (§5, §10).

All four return an :class:`~repro.core.base.AccessTranscript` from
``access()`` so the experiment harness can replay the communication and
computation profile of each request on the simulated WAN.

The names resolve on first use (PEP 562): the LBL deployment imports the
transport package, whose server imports this package's LBL server half.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "OrtoaProtocol": "repro.core.base",
    "AccessTranscript": "repro.core.base",
    "PhaseRecord": "repro.core.base",
    "OpCounts": "repro.core.base",
    "TwoRoundBaseline": "repro.core.baseline",
    "FheOrtoa": "repro.core.fhe_ortoa",
    "TeeOrtoa": "repro.core.tee_ortoa",
    "LblOrtoa": "repro.core.sharded",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
