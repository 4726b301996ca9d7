"""Security analysis machinery for ORTOA (paper §7 and appendix §11).

The paper defines *real-vs-random read-write indistinguishability*
(ROR-RW): an adversary controlling the external server sees a sequence of
accesses and must not be able to tell whether it was produced by the real
protocol over meaningful requests or by a simulator that saw only the keys
(never the operation types or values).

* :mod:`repro.security.simulators` — the Ideal-world simulators (Figure 7
  for LBL-ORTOA, plus dummy-encryption simulators for the TEE and FHE
  variants).
* :mod:`repro.security.audit` — the obliviousness checker behind
  ``repro obs``, and the one place the Figure 5 experiment runs: a
  :class:`~repro.security.audit.RecordingLink` on each shard's link records
  what the server sees (frames, and stored records where the store is in
  this process), and :func:`~repro.security.audit.run_audit` asserts one
  round trip, GET/PUT shape identity, ROR-RW against the Figure 7 simulator
  (exact shape and size tests, and a byte-histogram distance under a bound
  derived from the sample) and fresh rows over it.
  :func:`~repro.security.audit.judge_requests` judges frames a caller
  recorded itself.

Empirical indistinguishability obviously does not *prove* security — the
paper's hybrid argument does that — but it catches implementation-level
leaks (size differences, deterministic nonces, skipped shuffles) that a
proof on paper would never notice.
"""

from repro.security.audit import (
    AuditReport,
    RecordingLink,
    judge_requests,
    run_audit,
    shape_fingerprint,
    size_advantage,
)
from repro.security.simulators import FheSimulator, LblSimulator, TeeSimulator

__all__ = [
    "AuditReport",
    "RecordingLink",
    "run_audit",
    "judge_requests",
    "LblSimulator",
    "TeeSimulator",
    "FheSimulator",
    "shape_fingerprint",
    "size_advantage",
]
