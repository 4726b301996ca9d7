"""Concurrency support for LBL-ORTOA: per-key serialization and batching.

The paper's proxy serves 32+ concurrent client threads (§6).  Correctness
under concurrency hinges on one invariant: accesses to the *same* object
must be serialized, because each access consumes the server's current
labels (counter epoch ``ct``) and installs epoch ``ct + 1`` — two in-flight
accesses to one key would both build tables against epoch ``ct`` and the
second would fail to decrypt at the server.  Accesses to *different* keys
commute freely.

:class:`ConcurrentLblProxy` enforces exactly that with striped per-key
locks, and :func:`access_batch` amortizes the WAN round trip over many
requests (distinct or repeated keys) — the natural next optimization once
round trips, not bytes, are the scarce resource.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.core.base import (
    AccessTranscript,
    OpCounts,
    OrtoaProtocol,
    PhaseRecord,
    RoundTrip,
)
from repro.core.lbl import LblOrtoa
from repro.core.lbl.proxy import LblProxy
from repro.core.messages import LblAccessResponse, LblErrorEntry
from repro.errors import ConfigurationError
from repro.obs import ledger as _ledger
from repro.types import Request, Response


@contextmanager
def hold_stripes(
    stripes: "list[threading.Lock]", indices: Iterable[int]
) -> Iterator[None]:
    """Hold several stripes of one lock table at once, deadlock-free.

    Stripes are acquired in ascending index order (deduplicated), so any
    two holders — a coalesced flush or a batch frame locking its whole
    window, a lone access or load frame locking one key — order their
    acquisitions identically and can never cycle.  Released in reverse
    order.
    """
    ordered = sorted(set(indices))
    acquired: "list[threading.Lock]" = []
    try:
        for index in ordered:
            stripe = stripes[index]
            stripe.acquire()
            acquired.append(stripe)
        yield
    finally:
        for stripe in reversed(acquired):
            stripe.release()


@dataclass(frozen=True, slots=True)
class BatchTranscript:
    """One combined round trip serving many requests.

    ``per_request`` holds the individual transcripts (their round-trip
    entries describe each request's share of the combined message);
    ``combined`` is the single wire exchange the batch actually costs.
    """

    per_request: tuple[AccessTranscript, ...]
    combined: RoundTrip

    @property
    def num_requests(self) -> int:
        """How many requests the batch served."""
        return len(self.per_request)

    @property
    def amortized_rounds(self) -> float:
        """Round trips per request (1/batch size)."""
        return 1.0 / len(self.per_request) if self.per_request else 0.0


def access_batch(protocol: LblOrtoa, requests: list[Request]) -> BatchTranscript:
    """Serve many requests in one logical round trip.

    Preparation is proxy-local, so all tables can be built up front — even
    for repeated keys, since each ``prepare`` advances the key's counter and
    the server applies the tables in order.  The server processes the whole
    batch before the single response travels back.

    Args:
        protocol: The deployment to run the batch on.
        requests: One or more requests; order is preserved and meaningful
            for repeated keys.
    """
    if not requests:
        raise ConfigurationError("batch must contain at least one request")
    prepared = []
    for request in requests:
        epoch = protocol.proxy.counter(request.key) + 1
        lbl_request, proxy_ops = protocol.proxy.prepare(request)
        prepared.append((request, lbl_request, proxy_ops, epoch))

    total_request_bytes = sum(len(p[1].to_bytes()) for p in prepared)
    total_response_bytes = 0
    transcripts = []
    for request, lbl_request, proxy_ops, epoch in prepared:
        response, server_ops = protocol.server.process(lbl_request)
        value, finalize_ops = protocol.proxy.finalize(request.key, response, counter=epoch)
        total_response_bytes += len(response.to_bytes())
        transcripts.append(
            AccessTranscript(
                op=request.op,
                phases=(
                    PhaseRecord("proxy-build-tables", "proxy", proxy_ops),
                    PhaseRecord("server-open-and-update", "server", server_ops),
                    PhaseRecord("proxy-decode", "proxy", finalize_ops),
                ),
                round_trips=(
                    RoundTrip(len(lbl_request.to_bytes()), len(response.to_bytes())),
                ),
                response=Response(request.key, value),
            )
        )
    return BatchTranscript(
        per_request=tuple(transcripts),
        combined=RoundTrip(total_request_bytes, total_response_bytes),
    )


def finalize_batch_entries(
    proxy: LblProxy,
    prepared: list[tuple[Request, OpCounts, int]],
    entries: tuple["LblAccessResponse | LblErrorEntry", ...],
    shares: list[tuple[int, int]],
    rows: "list[_ledger.LedgerRow | None] | None" = None,
) -> tuple[dict[int, AccessTranscript], dict[int, str]]:
    """Finalize a batch response whose entries may include per-request errors.

    Successful entries decode as usual.  For each failed entry the proxy's
    counter for that key is rolled back to the last epoch the server
    actually applied (the epoch before the key's *first* failure — the
    server processes a batch in order, so once a key fails every later
    request for it in the same batch fails too), which re-synchronizes
    proxy and server so a retry decrypts correctly.

    Args:
        proxy: The trusted proxy that prepared the batch.
        prepared: Per request: (request, prepare-phase op counts, epoch).
        entries: The batch response entries, in request order.
        shares: Per request: its (request bytes, response bytes) share of
            the wire exchange that carried it.
        rows: Optional per-request ledger rows (parallel positions); each
            entry's finalize crypto is attributed to its own row.

    Returns:
        ``(transcripts, failures)`` keyed by original request index.
    """
    transcripts: dict[int, AccessTranscript] = {}
    failures: dict[int, str] = {}
    first_failed_epoch: dict[str, int] = {}
    for index, ((request, proxy_ops, epoch), entry, share) in enumerate(
        zip(prepared, entries, shares)
    ):
        if isinstance(entry, LblErrorEntry):
            failures[index] = entry.message
            key = request.key
            first_failed_epoch[key] = min(
                first_failed_epoch.get(key, epoch), epoch
            )
            continue
        row = rows[index] if rows is not None else None
        token = _ledger.activate(row) if row is not None else None
        try:
            value, finalize_ops = proxy.finalize(request.key, entry, counter=epoch)
        finally:
            if token is not None:
                _ledger.deactivate(token)
        transcripts[index] = AccessTranscript(
            op=request.op,
            phases=(
                PhaseRecord("proxy-build-tables", "proxy", proxy_ops),
                PhaseRecord("server-remote", "server", OpCounts(kv_ops=2)),
                PhaseRecord("proxy-decode", "proxy", finalize_ops),
            ),
            round_trips=(RoundTrip(share[0], share[1]),),
            response=Response(request.key, value),
        )
    for key, epoch in first_failed_epoch.items():
        proxy.force_counter(key, epoch - 1)
    return transcripts, failures


class ConcurrentLblProxy:
    """Thread-safe front door over any single-threaded ORTOA deployment.

    Accesses to the same key are serialized by a striped lock (stripes keep
    the lock table bounded; collisions only cost parallelism, never
    correctness).  A separate shuffle lock protects the shared RNG used by
    the non-point-and-permute table shuffle.

    Args:
        protocol: The underlying single-threaded deployment — an in-process
            :class:`LblOrtoa`, a :class:`~repro.transport.client.RemoteLblOrtoa`,
            or a :class:`~repro.core.sharded.ShardedLblDeployment`.
        num_stripes: Lock stripes; more stripes = more key parallelism.
    """

    def __init__(self, protocol: OrtoaProtocol, num_stripes: int = 64) -> None:
        if num_stripes < 1:
            raise ConfigurationError("num_stripes must be >= 1")
        self._protocol = protocol
        self._stripes = [threading.Lock() for _ in range(num_stripes)]
        self._shuffle_lock = threading.Lock()
        self._needs_shuffle_lock = not protocol.config.point_and_permute
        self.completed = 0
        self._completed_lock = threading.Lock()

    def _lock_for(self, key: str) -> threading.Lock:
        return self._stripes[hash(key) % len(self._stripes)]

    def access(self, request: Request) -> AccessTranscript:
        """Thread-safe oblivious access (per-key serialization)."""
        with self._lock_for(request.key):
            if self._needs_shuffle_lock:
                # The shuffled variant draws from a shared RNG during
                # prepare; serialize that draw across keys.
                with self._shuffle_lock:
                    transcript = self._protocol.access(request)
            else:
                transcript = self._protocol.access(request)
        with self._completed_lock:
            self.completed += 1
        return transcript

    def read(self, key: str) -> bytes:
        """Thread-safe oblivious GET."""
        return self.access(Request.read(key)).response.value

    def write(self, key: str, value: bytes) -> None:
        """Thread-safe oblivious PUT."""
        self.access(Request.write(key, self._protocol.config.pad(value)))


__all__ = [
    "ConcurrentLblProxy",
    "BatchTranscript",
    "access_batch",
    "finalize_batch_entries",
    "hold_stripes",
]
