"""Cross-process trace-context propagation and span-forest merging.

PR 2 split one logical ORTOA access across processes: the trusted client
prepares and finalizes, a shard server opens the table, and each side runs
its own :class:`~repro.obs.trace.Tracer`.  Without propagation the server's
spans are disconnected roots and the question the paper's Fig. 3c asks —
*where did this access's round trip go?* — cannot be answered from the
trace.  This module closes the gap in two steps:

1. **Wire format** — :class:`TraceContext` is the client access span's
   ``(trace_id, span_id)`` serialized as a fixed
   :data:`TRACE_CONTEXT_BYTES`-byte extension on the multiplexed frame
   header (:func:`repro.transport.framing.wrap_mux`).  It is always exactly
   16 bytes and carries no operation-dependent state, so GET and PUT frames
   stay byte-identically shaped — telemetry must not become the leak
   (tested in ``tests/test_kernel_obliviousness.py``).
2. **Merging** — a server parents its request span under the propagated
   context via :func:`remote_parent` and marks it with the
   :data:`REMOTE_PARENT_ATTR` attribute.  :func:`merge_span_dumps` then
   rewrites each remote process's locally-numbered span ids into the
   client's id space (both tracers count from 1, so raw ids collide),
   keeping exactly the links flagged as remote pointing at client spans.

The result is one span list in which every server-side span is a
descendant of the client access span that caused it; :func:`trace_roots`,
:func:`orphan_spans` and :func:`render_tree` answer the structural
questions tests and the ``repro trace`` CLI ask of it (``--exemplars``
prints the slowest roots' trees).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any, Iterable

from repro.errors import ProtocolError
from repro.obs.trace import Span

#: Serialized size of one trace context: 8-byte trace id + 8-byte span id.
TRACE_CONTEXT_BYTES = 16

#: Attribute marking a span whose ``parent_id`` refers to a span in
#: *another* process's tracer (the propagated client context).
REMOTE_PARENT_ATTR = "remote_parent"

_CTX = struct.Struct(">QQ")


@dataclass(frozen=True)
class TraceContext:
    """The propagated identity of a client-side span: ``(trace_id, span_id)``."""

    trace_id: int
    span_id: int

    @classmethod
    def from_span(cls, span: Span) -> "TraceContext":
        """Capture the context of an open client span."""
        return cls(trace_id=span.trace_id, span_id=span.span_id)

    def encode(self) -> bytes:
        """Fixed 16-byte wire form (big-endian trace id then span id)."""
        try:
            return _CTX.pack(self.trace_id, self.span_id)
        except struct.error as exc:
            raise ProtocolError(f"trace context out of range: {exc}") from None

    @classmethod
    def decode(cls, data: bytes) -> "TraceContext":
        """Parse the 16-byte wire form back into a context."""
        if len(data) != TRACE_CONTEXT_BYTES:
            raise ProtocolError(
                f"trace context must be {TRACE_CONTEXT_BYTES} bytes, got {len(data)}"
            )
        trace_id, span_id = _CTX.unpack(data)
        return cls(trace_id=trace_id, span_id=span_id)


def remote_parent(ctx: TraceContext) -> Span:
    """A synthetic parent standing in for the remote client span.

    The stub is never recorded; passing it as ``parent`` to
    :meth:`~repro.obs.trace.Tracer.span` makes the local span inherit the
    propagated trace id and point its ``parent_id`` at the client span.
    The caller must also set :data:`REMOTE_PARENT_ATTR` on the local span
    so :func:`merge_span_dumps` knows not to rewrite that link.
    """
    return Span(
        name="<remote>",
        span_id=ctx.span_id,
        trace_id=ctx.trace_id,
        parent_id=None,
        start=0.0,
        attributes={},
    )


# --------------------------------------------------------------------- #
# Merging per-process span dumps
# --------------------------------------------------------------------- #


def merge_span_dumps(
    local_spans: list[dict[str, Any]],
    remote_dumps: Iterable[list[dict[str, Any]]],
) -> list[dict[str, Any]]:
    """Merge remote processes' span dumps into the local span list.

    Every process numbers spans from 1, so remote ids are rewritten into
    fresh ids above the local maximum.  Links inside one remote dump move
    together; a link flagged :data:`REMOTE_PARENT_ATTR` is kept verbatim
    because it already refers to a *local* (client) span id carried over
    the wire.  Remote trace ids are rewritten the same way unless they were
    propagated (i.e. they belong to a remote-parented tree), so unrelated
    server-local roots cannot collide with client traces.

    Spans are dicts as produced by :meth:`~repro.obs.trace.Span.to_dict`
    (or shipped back over the obs-pull control frame).  Each merged remote
    span gains a ``process`` attribute naming its dump index (unless the
    dump already tagged one).
    """
    merged = [dict(span) for span in local_spans]
    next_id = 1 + max(
        (int(span["span_id"]) for span in merged),
        default=0,
    )
    for dump_index, dump in enumerate(remote_dumps):
        mapping: dict[int, int] = {}
        for span in dump:
            mapping[int(span["span_id"])] = next_id
            next_id += 1
        propagated_traces = {
            int(span["trace_id"])
            for span in dump
            if span.get("attributes", {}).get(REMOTE_PARENT_ATTR)
        }
        for span in dump:
            out = dict(span)
            attributes = dict(out.get("attributes") or {})
            attributes.setdefault("process", f"shard-{dump_index}")
            out["attributes"] = attributes
            out["span_id"] = mapping[int(span["span_id"])]
            parent_id = span.get("parent_id")
            if parent_id is not None and not attributes.get(REMOTE_PARENT_ATTR):
                out["parent_id"] = mapping.get(int(parent_id))
            trace_id = int(span["trace_id"])
            if trace_id not in propagated_traces:
                out["trace_id"] = mapping.get(trace_id, trace_id)
            merged.append(out)
    return merged


def spans_by_id(spans: Iterable[dict[str, Any]]) -> dict[int, dict[str, Any]]:
    """Index a span list by span id."""
    return {int(span["span_id"]): span for span in spans}


def trace_roots(spans: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Spans with no parent — the roots of each trace tree."""
    return [span for span in spans if span.get("parent_id") is None]


def render_tree(root: dict[str, Any], spans: list[dict[str, Any]]) -> list[str]:
    """``root`` and its descendants in ``spans``, one indented line each.

    Children follow their parent in start order; a span merged in from a
    shard carries its ``process`` tag.
    """
    children: dict[int, list[dict[str, Any]]] = {}
    for span in spans:
        if span.get("parent_id") is not None:
            children.setdefault(int(span["parent_id"]), []).append(span)
    lines: list[str] = []

    def _walk(span: dict[str, Any], depth: int) -> None:
        duration = span.get("duration")
        shown = "?" if duration is None else f"{duration * 1e3:.2f} ms"
        process = (span.get("attributes") or {}).get("process")
        suffix = f"  [{process}]" if process else ""
        lines.append(f"{'  ' * depth}{span['name']}  {shown}{suffix}")
        for child in sorted(
            children.get(int(span["span_id"]), []), key=lambda s: s.get("start", 0.0)
        ):
            _walk(child, depth + 1)

    _walk(root, 0)
    return lines


def orphan_spans(spans: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Spans whose parent id resolves to no span in the list.

    After a correct merge this is empty: every propagated link lands on the
    client span that originated the request.
    """
    known = set(spans_by_id(spans))
    return [
        span
        for span in spans
        if span.get("parent_id") is not None and int(span["parent_id"]) not in known
    ]


def ancestor_chain(
    span: dict[str, Any], index: dict[int, dict[str, Any]]
) -> list[dict[str, Any]]:
    """The parent chain of ``span`` from its parent up to its root."""
    chain = []
    seen: set[int] = set()
    current = span
    while current.get("parent_id") is not None:
        parent_id = int(current["parent_id"])
        if parent_id in seen or parent_id not in index:
            break  # cycle or orphan — stop rather than loop forever
        seen.add(parent_id)
        current = index[parent_id]
        chain.append(current)
    return chain


__all__ = [
    "TraceContext",
    "TRACE_CONTEXT_BYTES",
    "REMOTE_PARENT_ATTR",
    "remote_parent",
    "merge_span_dumps",
    "spans_by_id",
    "trace_roots",
    "render_tree",
    "orphan_spans",
    "ancestor_chain",
]
