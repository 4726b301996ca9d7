"""Two helpers of the LBL access paths: stripe locking and batch finalize.

Accesses to the *same* object must be serialized, because each access
consumes the server's current labels (counter epoch ``ct``) and installs
epoch ``ct + 1`` — two in-flight accesses to one key would both build
tables against epoch ``ct`` and the second would fail to decrypt at the
server.  Accesses to *different* keys commute freely.  The trusted side
enforces that in :class:`~repro.core.sharded.ShardedLblDeployment`; the
server side holds :func:`hold_stripes` while it serves a window.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterable, Iterator

from repro.core.base import AccessTranscript, OpCounts, RoundTrip
from repro.core.lbl.proxy import LblProxy
from repro.core.messages import LblAccessResponse, LblErrorEntry
from repro.types import Request


@contextmanager
def hold_stripes(
    stripes: "list[threading.Lock]", indices: Iterable[int]
) -> Iterator[None]:
    """Hold several stripes of one lock table at once, deadlock-free.

    Stripes are acquired in ascending index order (deduplicated), so any
    two holders — a batch frame locking a window of it, a lone access or
    load frame locking one key — order their acquisitions identically and
    can never cycle.  Released in reverse
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


def finalize_batch_entries(
    proxy: LblProxy,
    prepared: list[tuple[Request, OpCounts, int]],
    entries: tuple["LblAccessResponse | LblErrorEntry", ...],
    shares: list[tuple[int, int]],
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
        value, finalize_ops = proxy.finalize(request.key, entry, counter=epoch)
        transcripts[index] = proxy.transcript(
            request, proxy_ops, finalize_ops, RoundTrip(*share), value
        )
    for key, epoch in first_failed_epoch.items():
        proxy.force_counter(key, epoch - 1)
    return transcripts, failures


__all__ = ["finalize_batch_entries", "hold_stripes"]
