"""The untrusted storage server of LBL-ORTOA (paper §5.2 step 2, §10.2).

Per group the server holds exactly one secret label, whose low bits name
the slot to open next — per object, the label run.  On receiving a request
it names only the row each stored label points at in the request's slab and
opens those rows in two passes of a fixed-key permutation
(:func:`repro.crypto.rows.open_rows`): one open per group instead of the
§5.2 base protocol's trial decryptions of up to ``2^y`` entries, exactly the
§10.2 optimization.  When group 0's row — the one designated row with a
check block — does not open to zeros (a stale epoch, a wrong nonce: a
wrong key for the whole record), the request is refused before anything is
committed, every group counted as failed.

The opened label becomes the group's new stored label, so
*every* access rewrites storage — the server cannot distinguish a read from
a write by watching its own state.  The reply is a function of that new
record alone: its slots packed at ``y`` bits and one digest of its labels
(:class:`~repro.core.messages.LblAccessResponse`).

:meth:`LblServer.process_many` is the one implementation of that step.  It
serves a *window* of requests — a lone access frame is a window of one
(:meth:`LblServer.process`), a batch frame's arrived requests a window — as one
storage multi-get, one window-wide :func:`repro.crypto.rows.open_rows`,
and one multi-put of the rotated labels, with per-request error isolation.
There is no second path to keep byte-identical: what the obliviousness
checker records is what every transport runs.

When :mod:`repro.obs` capture is enabled, each request is one
:data:`SERVER_SPAN` span (with an ``error`` attribute when it fails) and
moves the ``lbl.server.*`` counters, on error paths too.  What the server
*observes* is not telemetry: :mod:`repro.security.audit` records it on the
link — the frames, and the stored records around them — and checks it.
"""

from __future__ import annotations

from functools import lru_cache

from repro.core.base import OpCounts
from repro.core.messages import LblAccessRequest, LblAccessResponse
from repro.crypto import rows as row_kernel
from repro.crypto.labels import pack_slots, reply_digest
from repro.errors import OrtoaError, ProtocolError
from repro.obs import _state as _obs
from repro.obs.metrics import REGISTRY
from repro.obs.trace import TRACER
from repro.storage.kv import KeyValueStore

#: Span name of one served request.
SERVER_SPAN = "lbl.server.process"


@lru_cache(maxsize=256)
def _access_ops(groups: int) -> OpCounts:
    """The (frozen, hence shareable) op counts of one served access."""
    return OpCounts(kv_ops=2, aead_dec=groups)


class LblServer:
    """Stores per-group labels and applies encryption tables obliviously."""

    def __init__(self) -> None:
        self.store: KeyValueStore[bytes] = KeyValueStore("lbl-server")

    def load(self, encoded_key: bytes, record: bytes) -> None:
        """Bulk-load one object's label run at initialization."""
        if not record:
            raise ProtocolError("LBL server needs a label per group")
        self.store.put_new(encoded_key, bytes(record))

    def _commit_many(self, items: list[tuple[bytes, bytes]]) -> list[bool]:
        """Persist a window's rotated labels in one storage multi-put;
        returns whether each item's record was rewritten.

        Split out so test doubles can model a *leaky* server that skips the
        rewrite — the behaviour :mod:`repro.security.audit` must flag.
        """
        self.store.put_many(items)
        return [True] * len(items)

    def _emit_telemetry(
        self,
        span,
        decrypts: int = 0,
        failed: int = 0,
        rewritten: int = 0,
        error: OrtoaError | None = None,
    ) -> None:
        """Finish one request's span and move the ``lbl.server.*`` counters."""
        if error is not None:
            span.set_attributes(error=str(error))
        TRACER.end(span)
        REGISTRY.counter("lbl.server.requests").inc()
        REGISTRY.counter("lbl.server.decrypt_attempts").inc(decrypts)
        REGISTRY.counter("lbl.server.failed_decrypts").inc(failed)
        REGISTRY.counter("lbl.server.labels_rewritten").inc(rewritten)

    def process(self, request: LblAccessRequest) -> tuple[LblAccessResponse, OpCounts]:
        """Open one entry per group, update stored labels, return the reply.

        A window of one: raises the error :meth:`process_many` isolated.
        """
        (result,) = self.process_many([request])
        if isinstance(result, OrtoaError):
            raise result
        return result

    def process_many(
        self, requests: "list[LblAccessRequest]"
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

        Args:
            requests: The window, in arrival order (meaningful for
                repeated keys).
        """
        if not requests:
            return []
        capture = _obs.enabled
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
                    self._emit_telemetry(spans[index], error=exc)

        # Gather: validate each front request against its stored record and
        # pick its designated rows — the only entries of its slab ever
        # opened — into the window-wide open.
        records = (
            store.get_many([requests[index].encoded_key for index in front])
            if front
            else []
        )
        opening: list[int] = []
        runs: list[tuple[bytes, bytes, bytes, int, int]] = []
        for index, labels in zip(front, records):
            request = requests[index]
            groups, width = request.num_groups, request.entry_len
            if len(labels) != groups * width:
                error = ProtocolError(
                    f"{groups} tables of {width}-byte rows do not fit "
                    f"a {len(labels)}-byte stored record"
                )
                results[index] = error
                if capture:
                    self._emit_telemetry(spans[index], error=error)
                continue
            runs.append((request.nonce, labels, request.slab, width, request.table_size))
            opening.append(index)

        # Open: one window-wide call, each request's runs in order.
        commits: list[tuple[bytes, bytes]] = []
        committed: list[int] = []
        for index, opened in zip(opening, row_kernel.open_rows(runs)):
            request = requests[index]
            groups = request.num_groups
            # Every designated row was attempted, whatever this request's
            # window-mates did; group 0's check speaks for the whole record.
            if opened is None:
                error = ProtocolError("designated entry failed to open at group 0")
                results[index] = error
                if capture:
                    self._emit_telemetry(spans[index], groups, groups, error=error)
                continue
            # The opened labels, back to back, are the new record; the reply
            # is the slots in their low bits, packed, and their digest.
            commits.append((request.encoded_key, opened))
            committed.append(index)
            bits = request.table_size.bit_length() - 1
            slots = opened[row_kernel.BLOCK - 1 :: request.entry_len]
            reply = pack_slots(slots, bits), bits, reply_digest(opened)
            results[index] = (LblAccessResponse(*reply), _access_ops(groups))

        if commits:
            written = self._commit_many(commits)
            if capture:
                for index, rewrote in zip(committed, written):
                    groups = requests[index].num_groups
                    self._emit_telemetry(spans[index], groups, 0, groups if rewrote else 0)

        if tail:
            # Same-key followers consume the labels this window just
            # committed: they are the next window, in arrival order.
            served = self.process_many([requests[index] for index in tail])
            for index, result in zip(tail, served):
                results[index] = result
        return results


__all__ = ["LblServer", "SERVER_SPAN"]
