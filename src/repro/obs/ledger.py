"""Per-request resource ledger: wire bytes and crypto ops, attributed.

The paper's cost story (§6.3.3, Table 2) is a budget — bytes per access and
primitive invocations per access — so this module meters both at the places
they actually happen and attributes them to the request that caused them:

* **Wire bytes** are counted where frames cross a socket
  (:mod:`repro.transport.pipeline`, :mod:`repro.transport.server`) or the
  in-process link (:class:`repro.transport.pipeline.LocalLink`, unframed,
  ``role="local"``), keyed by frame type × direction × role, and credited
  per request by :class:`repro.core.sharded.ShardedLblDeployment`.
* **Crypto ops** are counted inside the primitives themselves
  (:mod:`repro.crypto.prf`, :mod:`repro.crypto.aead`, the label cache) so
  every fast path — batch kernel, cache hit — is metered where it
  short-circuits.

Attribution uses a :mod:`contextvars` ambient row: :func:`track` opens a
:class:`LedgerRow` for the current context, instrumented code calls
:func:`add_op` / :func:`credit_wire`, and the row lands in a bounded
archive when the block exits.  Code that interleaves requests or hops
threads (batch prepares, the pipelined window, server handler threads)
activates rows explicitly with :func:`activate` so bytes and ops never
cross-attribute between interleaved requests.

Two write paths exist on purpose, to make double-crediting impossible:

* :func:`count_wire` writes **only** the process-wide registry
  (``ledger.wire.{role}.{frame}.{direction}.bytes``).  Transport layers
  call it — they see real socket traffic but cannot split a mux frame
  fairly between pipelined requests.
* :func:`credit_wire` writes **only** the ambient (or given) row.  The
  deployment layer calls it — it knows exactly which bytes belong to which
  request, including each request's share of batch envelopes.

:func:`add_op` writes both, because a primitive invocation is unambiguous:
whoever is running when the PRF evaluates owns that evaluation.

Everything here is inert unless :data:`repro.obs._state.enabled` is set;
callers additionally guard their call sites, keeping the disabled path at
one attribute load.

This module is imported by the crypto layer, so it must stay a leaf: it
imports only :mod:`repro.obs._state` and :mod:`repro.obs.metrics`.
"""

from __future__ import annotations

import contextvars
import threading
from collections import deque
from contextlib import contextmanager
from typing import Any, Iterator

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


def framed_mux_bytes(payload_len: int, traced: bool = True) -> int:
    """Wire footprint of one mux-wrapped payload: 4-byte frame length plus
    the mux header (25 bytes with a trace context, 9 without) plus payload.

    The deployment layer uses this to credit a request's row with exactly
    the bytes the transport layer counts for the same frame.
    """
    return 4 + (_MUX_TRACED_HEADER if traced else _MUX_HEADER) + payload_len


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


class LedgerRow:
    """Resource totals of one tracked request (or one server-side handling).

    ``wire`` is keyed ``"{frame}.{direction}"`` → bytes; ``ops`` is keyed by
    primitive name → count.  Rows are mutated from whichever thread is doing
    the request's work, so each row carries its own lock.
    """

    __slots__ = ("label", "trace_id", "wire", "ops", "_lock")

    def __init__(self, label: str = "", trace_id: int | None = None) -> None:
        self.label = label
        self.trace_id = trace_id
        self.wire: dict[str, int] = {}
        self.ops: dict[str, int] = {}
        self._lock = threading.Lock()

    def credit_wire(self, frame: str, direction: str, nbytes: int) -> None:
        """Add ``nbytes`` under ``{frame}.{direction}``."""
        key = f"{frame}.{direction}"
        with self._lock:
            self.wire[key] = self.wire.get(key, 0) + nbytes

    def add_op(self, primitive: str, n: int = 1) -> None:
        """Count ``n`` invocations of ``primitive``."""
        with self._lock:
            self.ops[primitive] = self.ops.get(primitive, 0) + n

    @property
    def wire_bytes(self) -> int:
        """Total bytes across every frame type and direction."""
        return sum(self.wire.values())

    def snapshot(self) -> dict[str, Any]:
        """Plain-dict copy (JSON-ready, safe to keep after the row retires)."""
        with self._lock:
            return {
                "label": self.label,
                "trace_id": self.trace_id,
                "wire": dict(self.wire),
                "ops": dict(self.ops),
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LedgerRow(label={self.label!r}, wire={self.wire}, ops={self.ops})"


_ROW: contextvars.ContextVar[LedgerRow | None] = contextvars.ContextVar(
    "repro_ledger_row", default=None
)

#: Retired rows, newest last.  Bounded so long runs cannot grow without
#: limit; 1024 rows comfortably covers any audit or validation batch.
MAX_COMPLETED_ROWS = 1024
_completed: deque[LedgerRow] = deque(maxlen=MAX_COMPLETED_ROWS)
_completed_lock = threading.Lock()


def current_row() -> LedgerRow | None:
    """The row receiving ambient credit in this context, if any."""
    return _ROW.get()


def activate(row: LedgerRow | None) -> contextvars.Token:
    """Make ``row`` the ambient row for this thread/context.

    Returns the token to pass to :func:`deactivate`.  Used by code that
    carries a row across a thread hop (worker pools, reader threads), where
    the :func:`track` context manager of the originating thread is not
    visible.
    """
    return _ROW.set(row)


def deactivate(token: contextvars.Token) -> None:
    """Undo a matching :func:`activate`."""
    _ROW.reset(token)


def retire(row: LedgerRow) -> None:
    """Archive a finished row into the bounded completed deque."""
    with _completed_lock:
        _completed.append(row)


@contextmanager
def track(label: str = "", trace_id: int | None = None) -> Iterator[LedgerRow]:
    """Open a ledger row for the duration of a ``with`` block.

    The row becomes the ambient attribution target; on exit it is archived
    (see :func:`completed_rows`) and the previous ambient row — possibly
    ``None`` — is restored, so tracked sections nest.
    """
    row = LedgerRow(label=label, trace_id=trace_id)
    token = _ROW.set(row)
    try:
        yield row
    finally:
        _ROW.reset(token)
        retire(row)


def completed_rows() -> list[LedgerRow]:
    """Retired rows, oldest first (bounded by :data:`MAX_COMPLETED_ROWS`)."""
    with _completed_lock:
        return list(_completed)


def reset() -> None:
    """Drop all retired rows (registry counters are reset via obs.reset())."""
    with _completed_lock:
        _completed.clear()


def count_wire(frame: str, direction: str, nbytes: int, role: str = "client") -> None:
    """Meter real wire traffic into the process-wide registry **only**.

    Called at transport boundaries.  ``direction`` is ``sent`` or
    ``received`` from ``role``'s point of view.  Deliberately does *not*
    touch the ambient row — per-request attribution is the deployment
    layer's job (:func:`credit_wire`), and doing both here would
    double-credit.
    """
    if not _obs.enabled:
        return
    REGISTRY.counter(f"ledger.wire.{role}.{frame}.{direction}.bytes").inc(nbytes)


def credit_wire(
    frame: str, direction: str, nbytes: int, row: LedgerRow | None = None
) -> None:
    """Credit bytes to a request's row **only** (ambient row when ``row`` is
    ``None``).  The registry totals come from :func:`count_wire` at the
    transport layer; crediting them here too would double-count."""
    if not _obs.enabled:
        return
    if row is None:
        row = _ROW.get()
    if row is not None:
        row.credit_wire(frame, direction, nbytes)


def credit_op(primitive: str, n: int = 1, row: LedgerRow | None = None) -> None:
    """Credit ``n`` invocations of ``primitive`` to a request's row **only**
    (ambient row when ``row`` is ``None``).

    The fused-dispatch counterpart of :func:`credit_wire`: a window-wide
    crypto call runs under ``activate(None)`` so the primitive meters the
    registry once for the real invocation, then the flusher splits the
    attempt counts closed-form across the requests it served with this
    helper.  Crediting the registry here too would double-count the fused
    call."""
    if not _obs.enabled or n == 0:
        return
    if row is None:
        row = _ROW.get()
    if row is not None:
        row.add_op(primitive, n)


def add_op(primitive: str, n: int = 1) -> None:
    """Count ``n`` invocations of ``primitive`` in the registry and the
    ambient row (if one is active)."""
    if not _obs.enabled or n == 0:
        return
    REGISTRY.counter(f"ledger.ops.{primitive}").inc(n)
    row = _ROW.get()
    if row is not None:
        row.add_op(primitive, n)


def add_prf(calls: int, compressions: int) -> None:
    """Convenience for the PRF hooks: count calls and their SHA-256
    compressions in one place."""
    if not _obs.enabled:
        return
    REGISTRY.counter("ledger.ops.prf.calls").inc(calls)
    REGISTRY.counter("ledger.ops.sha256.compressions").inc(compressions)
    row = _ROW.get()
    if row is not None:
        row.add_op("prf.calls", calls)
        row.add_op("sha256.compressions", compressions)


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
    "LedgerRow",
    "MAX_COMPLETED_ROWS",
    "frame_type",
    "framed_mux_bytes",
    "track",
    "current_row",
    "activate",
    "deactivate",
    "retire",
    "completed_rows",
    "reset",
    "count_wire",
    "credit_wire",
    "credit_op",
    "add_op",
    "add_prf",
    "registry_ops_snapshot",
    "registry_wire_snapshot",
]
