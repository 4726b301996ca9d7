"""Resource ledger: wire bytes and crypto ops, metered process-wide.

The paper's cost story (§6.3.3, Table 2) is a budget — bytes per access and
primitive invocations per access.  Each access's own budget is its
:class:`~repro.core.base.AccessTranscript` (per-phase ``OpCounts`` and the
``RoundTrip`` bytes), always built.  This module keeps the process totals
behind it, metered where the costs actually happen:

* **Wire bytes** are counted where frames cross a socket
  (:mod:`repro.transport.pipeline`, :mod:`repro.transport.server`) or the
  in-process link (:class:`repro.transport.pipeline.LocalLink`, unframed,
  ``role="local"``), keyed by frame type × direction × role
  (``ledger.wire.{role}.{frame}.{direction}.bytes``).
* **Crypto ops** are counted inside the primitives themselves
  (:mod:`repro.crypto.prf`, :mod:`repro.crypto.rows`, the label cache) so
  every fast path — batch kernel, cache hit — is metered where it
  short-circuits (``ledger.ops.{primitive}``).

A run's cost is the difference of two snapshots
(:func:`registry_ops_snapshot`, :func:`registry_wire_snapshot`); ``repro
plan --check`` diffs them around each access against
:class:`~repro.analysis.costmodel.LblCostModel`.

Everything here is inert unless :data:`repro.obs._state.enabled` is set;
callers additionally guard their call sites, keeping the disabled path at
one attribute load.

This module is imported by the crypto layer, so it must stay a leaf: it
imports only :mod:`repro.obs._state` and :mod:`repro.obs.metrics`.
"""

from __future__ import annotations

from repro.obs import _state as _obs
from repro.obs.metrics import REGISTRY

# Wire-format literals, duplicated from repro.transport.framing and
# repro.core.messages so the ledger stays import-cycle-free.  The framing
# tests pin the canonical values; test_ledger.py pins these copies to them.
_MUX_TAG = 0x50
_MUX_TRACED_TAG = 0x51
_MUX_HEADER = 9  # 1 tag + 8-byte request id
_MUX_TRACED_HEADER = 25  # + 16-byte trace context

_FRAME_NAMES = {
    0x20: "access",  # LblAccessRequest
    0x21: "access",  # LblAccessResponse
    0x22: "batch",  # LblBatchRequest
    0x23: "batch",  # LblBatchResponse
    0x40: "load",  # LOAD_TAG
    0x41: "load",  # LOAD_ACK_TAG
    0x60: "obs",  # OBS_PULL_TAG
    0x61: "obs",  # OBS_DUMP_TAG
    0x7E: "overload",  # OVERLOAD_TAG (load shedding)
    0x7F: "error",  # ERROR_TAG
}


def frame_type(payload: bytes) -> str:
    """Classify a frame payload (mux or plain) for ledger keys.

    Mux envelopes are unwrapped first so a pipelined access and a lockstep
    access land under the same ``access`` key.
    """
    if not payload:
        return "other"
    tag = payload[0]
    if tag == _MUX_TAG:
        payload = payload[_MUX_HEADER:]
    elif tag == _MUX_TRACED_TAG:
        payload = payload[_MUX_TRACED_HEADER:]
    if not payload:
        return "other"
    return _FRAME_NAMES.get(payload[0], "other")


def count_wire(frame: str, direction: str, nbytes: int, role: str = "client") -> None:
    """Meter real wire traffic into the process-wide registry.

    Called at transport boundaries.  ``direction`` is ``sent`` or
    ``received`` from ``role``'s point of view.
    """
    if not _obs.enabled:
        return
    REGISTRY.counter(f"ledger.wire.{role}.{frame}.{direction}.bytes").inc(nbytes)


def add_op(primitive: str, n: int = 1) -> None:
    """Count ``n`` invocations of ``primitive`` in the registry."""
    if not _obs.enabled or n == 0:
        return
    REGISTRY.counter(f"ledger.ops.{primitive}").inc(n)


def add_prf(calls: int, compressions: int) -> None:
    """Convenience for the PRF hooks: count calls and their SHA-256
    compressions in one place."""
    if not _obs.enabled:
        return
    REGISTRY.counter("ledger.ops.prf.calls").inc(calls)
    REGISTRY.counter("ledger.ops.sha256.compressions").inc(compressions)


def registry_ops_snapshot() -> dict[str, int]:
    """Current ``ledger.ops.*`` registry totals keyed by primitive name."""
    snap = REGISTRY.snapshot()["counters"]
    prefix = "ledger.ops."
    return {
        name[len(prefix):]: value
        for name, value in snap.items()
        if name.startswith(prefix)
    }


def registry_wire_snapshot() -> dict[str, int]:
    """Current ``ledger.wire.*`` registry totals keyed by
    ``role.frame.direction``."""
    snap = REGISTRY.snapshot()["counters"]
    prefix = "ledger.wire."
    return {
        name[len(prefix):-len(".bytes")]: value
        for name, value in snap.items()
        if name.startswith(prefix) and name.endswith(".bytes")
    }


__all__ = [
    "frame_type",
    "count_wire",
    "add_op",
    "add_prf",
    "registry_ops_snapshot",
    "registry_wire_snapshot",
]
