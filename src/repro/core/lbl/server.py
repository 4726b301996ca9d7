"""The untrusted storage server of LBL-ORTOA (paper §5.2 step 2, §10.2).

Per group the server holds exactly one secret label and the slot index to
open next — per object, one :class:`~repro.crypto.labels.StoredRecord` of
two blobs.  On receiving a request it names only the row its stored index
points at in the request's slab and opens those rows in one pass of a
fixed-key permutation (:func:`repro.crypto.rows.open_rows`): one open per
group instead of the §5.2 base protocol's trial decryptions of up to
``2^y`` entries, exactly the §10.2 optimization.  A row whose check bytes do
not open to zero — a stale epoch, a wrong nonce — refuses the request
before anything is committed.

The opened payload becomes the group's new stored label and slot, so
*every* access rewrites storage — the server cannot distinguish a read from
a write by watching its own state.

:meth:`LblServer.process_many` is the one implementation of that step.  It
serves a *window* of requests — a lone access frame is a window of one
(:meth:`LblServer.process`) and a batch frame is a window — as exactly one
storage multi-get, one window-wide :func:`repro.crypto.rows.open_rows`,
and one multi-put of the rotated labels, with per-request error isolation
and byte-exact ledger attribution.  There is no second path to keep
byte-identical: what the obliviousness audit observes is what every
transport runs.

When :mod:`repro.obs` capture is enabled, each request emits a
:data:`SERVER_SPAN` span describing everything this component could observe
about it — table shapes, ciphertext bytes, decryption attempts, storage
rewrites.  The obliviousness auditor (:mod:`repro.obs.audit`) consumes
exactly this stream: if the span attributes distinguish reads from writes,
the protocol leaks.  Spans and ``lbl.server.*`` counters are emitted on
error paths too (a failed decrypt is an observation like any other), with
the same attribute set plus an ``error`` string whose presence is
operation-independent.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add

from repro.core.base import OpCounts
from repro.core.messages import LblAccessRequest, LblAccessResponse
from repro.crypto import rows as row_kernel
from repro.crypto.labels import StoredRecord
from repro.errors import ConfigurationError, OrtoaError, ProtocolError
from repro.obs import _state as _obs
from repro.obs import ledger as _ledger
from repro.obs.metrics import REGISTRY
from repro.obs.trace import TRACER
from repro.storage.kv import KeyValueStore
from repro.core.lbl.proxy import DECRYPT_INDEX_BYTES

#: Span name of the per-request server-side observation record.
SERVER_SPAN = "lbl.server.process"


@lru_cache(maxsize=256)
def _access_ops(opened: int, failed: int) -> OpCounts:
    """The (frozen, hence shareable) op counts of one served access."""
    return OpCounts(kv_ops=2, aead_dec=opened, failed_dec=failed)


class LblServer:
    """Stores per-group labels and applies encryption tables obliviously."""

    def __init__(self) -> None:
        self.store: KeyValueStore[StoredRecord] = KeyValueStore("lbl-server")

    def load(self, encoded_key: bytes, record: StoredRecord) -> None:
        """Bulk-load one object's labels at initialization."""
        labels, slots = record
        if not slots or not labels or len(labels) % len(slots):
            raise ProtocolError("LBL server needs one slot per label")
        self.store.put_new(encoded_key, StoredRecord(labels, slots))

    def _commit_many(self, items: list[tuple[bytes, StoredRecord]]) -> list[bool]:
        """Persist a window's rotated labels in one storage multi-put;
        returns whether each item's record was rewritten.

        Split out so test doubles can model a *leaky* server that skips the
        rewrite — the behaviour the obliviousness auditor must flag.
        """
        self.store.put_many(items)
        return [True] * len(items)

    def _emit_telemetry(
        self,
        span,
        request: LblAccessRequest,
        decrypts: int = 0,
        failed: int = 0,
        opened: int = 0,
        rewritten: int = 0,
        error: OrtoaError | None = None,
    ) -> None:
        """Finish one request's server-side observation record.

        Success and error paths emit the same attribute set and counters —
        the only extra attribute on failure is the (operation-independent)
        ``error``.
        """
        attributes = dict(
            # The encoded key is already the server's storage key, so
            # recording its prefix adds no observation power — but it
            # lets the auditor pair spans with requests even when a
            # worker pool processes them out of submission order.
            key_fingerprint=request.encoded_key.hex()[:16],
            groups=request.num_groups,
            table_entries=request.num_groups * request.table_size,
            ciphertext_bytes=len(request.slab),
            decrypt_attempts=decrypts,
            failed_decrypts=failed,
            opened_labels=opened,
            labels_rewritten=rewritten,
            storage_writes=1 if rewritten else 0,
        )
        if error is not None:
            attributes["error"] = str(error)
        span.set_attributes(**attributes)
        TRACER.end(span)
        REGISTRY.counter("lbl.server.requests").inc()
        REGISTRY.counter("lbl.server.decrypt_attempts").inc(decrypts)
        REGISTRY.counter("lbl.server.failed_decrypts").inc(failed)
        REGISTRY.counter("lbl.server.labels_rewritten").inc(rewritten)

    def process(self, request: LblAccessRequest) -> tuple[LblAccessResponse, OpCounts]:
        """Open one entry per group, update stored labels, return the labels.

        A window of one: raises the error :meth:`process_many` isolated.
        """
        (result,) = self.process_many([request])
        if isinstance(result, OrtoaError):
            raise result
        return result

    def process_many(
        self,
        requests: "list[LblAccessRequest]",
        rows: "list[_ledger.LedgerRow | None] | None" = None,
    ) -> "list[tuple[LblAccessResponse, OpCounts] | OrtoaError]":
        """Serve a window of requests — the server's one access path.

        Returns a list parallel to ``requests`` where each position holds
        either that request's ``(response, ops)`` or the
        :class:`~repro.errors.OrtoaError` it failed with — per-request error
        isolation, so one corrupt request cannot poison its window-mates.

        The window's first request per key ("front") costs exactly one
        storage multi-get, one window-wide :func:`repro.crypto.rows.open_rows`
        over every request's designated rows, and one multi-put of the
        rotated labels.  The second and later requests for one key ("tail")
        consume the labels their predecessor installs, so they are served as
        the next window, after this one's commit — preserving each key's
        label-rotation order.

        The crypto runs with no ambient ledger row (the registry still
        meters each real invocation once); each request's row is then
        credited its closed-form share of the attempt counts, so
        per-request ledger rows are byte-exact regardless of window shape.

        Args:
            requests: The window, in arrival order (meaningful for
                repeated keys).
            rows: Optional per-request ledger rows (parallel positions).
                A ``None`` position credits no row at all (registry-only) —
                an untracked window-mate must never leak its share into the
                flushing thread's ambient row.  Omitting ``rows`` entirely
                attributes every request to the caller's ambient row.
        """
        if rows is not None and len(rows) != len(requests):
            raise ConfigurationError("rows must parallel requests")
        if not requests:
            return []
        capture = _obs.enabled
        if capture and rows is None:
            rows = [_ledger.current_row()] * len(requests)
        store = self.store
        results: list = [None] * len(requests)
        spans: list = [None] * len(requests)

        front: list[int] = []
        tail: list[int] = []
        seen: set[bytes] = set()
        for index, request in enumerate(requests):
            encoded_key = request.encoded_key
            if encoded_key in seen:
                tail.append(index)
                continue
            seen.add(encoded_key)
            if capture:
                spans[index] = TRACER.start_span(SERVER_SPAN)
            if encoded_key in store:
                front.append(index)
                continue
            try:
                store.get(encoded_key)  # the store words (and counts) the miss
            except OrtoaError as exc:
                results[index] = exc
                if capture:
                    self._emit_telemetry(spans[index], request, error=exc)

        # Gather: validate each front request against its stored record and
        # pick its designated rows — the only entries of its slab ever
        # opened — into the window-wide open.
        records = (
            store.get_many([requests[index].encoded_key for index in front])
            if front
            else []
        )
        opening: list[tuple[int, int]] = []
        runs: list[tuple[bytes, bytes, bytes, int, list[int]]] = []
        for index, record in zip(front, records):
            request = requests[index]
            groups, table_size = request.num_groups, request.table_size
            stored_groups = len(record.slots)
            label_len = len(record.labels) // max(stored_groups, 1)
            try:
                if groups != stored_groups:
                    raise ProtocolError(
                        f"table count {groups} != stored groups {stored_groups}"
                    )
                if request.entry_len != (
                    label_len + DECRYPT_INDEX_BYTES + row_kernel.CHECK_LEN
                ):
                    raise ProtocolError(
                        f"entry length {request.entry_len} is no row of a "
                        f"{label_len}-byte label"
                    )
                if max(record.slots) >= table_size:
                    bad = next(
                        g for g, slot in enumerate(record.slots) if slot >= table_size
                    )
                    raise ProtocolError(f"bad decrypt index at group {bad}")
                picks = map(add, range(0, groups * table_size, table_size), record.slots)
                run = (request.nonce, record.labels, request.slab, request.entry_len)
                runs.append((*run, list(picks)))
            except OrtoaError as exc:
                results[index] = exc
                if capture:
                    self._emit_telemetry(spans[index], request, error=exc)
                continue
            opening.append((index, label_len))

        # Open: the ambient row is cleared so each real crypto invocation
        # meters the registry exactly once; per-request shares are credited
        # closed-form below.
        commits: list[tuple[bytes, StoredRecord]] = []
        committed: list[tuple[int, int, int]] = []
        token = _ledger.activate(None) if capture else None
        try:
            opened_runs = iter(row_kernel.open_rows(runs))
            for index, label_len in opening:
                request = requests[index]
                groups = request.num_groups
                # Every designated row was attempted, whatever this
                # request's window-mates (or its own other groups) did.
                labels, slots, failures = next(opened_runs)
                decrypts, failed = groups, len(failures)
                error: OrtoaError | None = None
                if failures:
                    opened = failures[0]
                    error = ProtocolError(
                        f"designated entry failed to open at group {opened}"
                    )
                else:
                    # The opened labels and slot bytes, each back to back,
                    # are the new record (and the labels are the reply).
                    opened = groups
                    updated = StoredRecord(labels, slots)
                if capture and rows[index] is not None:
                    _ledger.credit_op("aead.decrypts", decrypts - failed, rows[index])
                    _ledger.credit_op("aead.decrypt_failures", failed, rows[index])
                    if labels:
                        # One seed block and its pad blocks per designated
                        # row (a run refused for its shape permuted nothing).
                        blocks = 1 + row_kernel.row_blocks(request.entry_len)
                        _ledger.credit_op("aes.blocks", groups * blocks, rows[index])
                if error is not None:
                    results[index] = error
                    if capture:
                        self._emit_telemetry(
                            spans[index], request, decrypts, failed, opened,
                            error=error,
                        )
                    continue
                commits.append((request.encoded_key, updated))
                if capture:
                    committed.append((index, decrypts, failed))
                results[index] = (
                    LblAccessResponse(updated.labels, label_len),
                    _access_ops(decrypts - failed, failed),
                )
        finally:
            if token is not None:
                _ledger.deactivate(token)

        if commits:
            written = self._commit_many(commits)
            if capture:
                for (index, decrypts, failed), rewrote in zip(committed, written):
                    groups = requests[index].num_groups
                    self._emit_telemetry(
                        spans[index], requests[index], decrypts, failed, groups,
                        groups if rewrote else 0,
                    )

        if tail:
            # Same-key followers consume the labels this window just
            # committed: they are the next window, in arrival order.
            served = self.process_many(
                [requests[index] for index in tail],
                [rows[index] for index in tail] if rows is not None else None,
            )
            for index, result in zip(tail, served):
                results[index] = result
        return results


__all__ = ["LblServer", "SERVER_SPAN"]
