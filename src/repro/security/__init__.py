"""Security analysis machinery for ORTOA (paper §7 and appendix §11).

The paper defines *real-vs-random read-write indistinguishability*
(ROR-RW): an adversary controlling the external server sees a sequence of
accesses and must not be able to tell whether it was produced by the real
protocol over meaningful requests or by a simulator that saw only the keys
(never the operation types or values).

* :mod:`repro.security.simulators` — the Ideal-world simulators (Figure 7
  for LBL-ORTOA, plus dummy-encryption simulators for the TEE and FHE
  variants).
* :mod:`repro.security.games` — the Real/Ideal game of Figure 5, run as an
  empirical experiment: collect both outputs, hand them to a distinguisher,
  and measure its advantage.
* :mod:`repro.security.distinguisher` — structural checks (shape equality)
  and statistical adversaries (byte histograms, size features) used by the
  test suite to certify that the implementations leak nothing observable.
* :mod:`repro.security.audit` — the obliviousness checker behind
  ``repro obs``: a :class:`~repro.security.audit.RecordingLink` on each
  shard's link records what the server sees (frames, and stored records
  where the store is in this process), and
  :func:`~repro.security.audit.run_audit` asserts one round trip, GET/PUT
  shape identity, and ROR-RW against the Figure 7 simulator over it.
  :func:`~repro.security.games.real_lbl_output` is read from the same link.

Empirical indistinguishability obviously does not *prove* security — the
paper's hybrid argument does that — but it catches implementation-level
leaks (size differences, deterministic nonces, skipped shuffles) that a
proof on paper would never notice.
"""

from repro.security.audit import AuditReport, RecordingLink, run_audit
from repro.security.distinguisher import (
    byte_histogram_advantage,
    shape_fingerprint,
    size_advantage,
)
from repro.security.games import Access, RorRwGame, real_lbl_output
from repro.security.simulators import FheSimulator, LblSimulator, TeeSimulator

__all__ = [
    "AuditReport",
    "RecordingLink",
    "run_audit",
    "Access",
    "RorRwGame",
    "real_lbl_output",
    "LblSimulator",
    "TeeSimulator",
    "FheSimulator",
    "shape_fingerprint",
    "byte_histogram_advantage",
    "size_advantage",
]
