"""A lightweight span tracer with parent/child nesting.

Spans time one logical operation and carry free-form attributes::

    from repro import obs

    obs.enable()
    with obs.TRACER.span("lbl.access", key="alice") as span:
        ...
        span.set_attribute("decrypts", 640)

Nesting follows the call structure via a :class:`contextvars.ContextVar`, so
it is correct across threads (each thread sees its own current span).  Code
that cannot use a ``with`` block — e.g. a discrete-event client generator
whose lifetime interleaves with hundreds of sibling processes — uses the
manual :meth:`Tracer.start_span` / :meth:`Tracer.end` pair instead.

Timestamps come from :mod:`repro.obs.clock`'s global time source, so the
same tracer records wall seconds in live runs and simulated milliseconds
inside :class:`repro.sim.core.Environment` runs.

When observability is disabled (the default) ``span()`` yields a shared
no-op span and records nothing; the cost is one attribute check.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from typing import Any, Iterator

from repro.obs import _state
from repro.obs import clock as obs_clock


class Span:
    """One timed operation with attributes and a position in a trace tree."""

    __slots__ = ("name", "span_id", "trace_id", "parent_id", "start", "end", "attributes")

    def __init__(
        self,
        name: str,
        span_id: int,
        trace_id: int,
        parent_id: int | None,
        start: float,
        attributes: dict[str, Any],
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.start = start
        self.end: float | None = None
        self.attributes = attributes

    def set_attribute(self, key: str, value: Any) -> None:
        """Attach or overwrite one attribute."""
        self.attributes[key] = value

    def set_attributes(self, **attributes: Any) -> None:
        """Attach several attributes at once."""
        self.attributes.update(attributes)

    @property
    def duration(self) -> float | None:
        """End minus start in the recording clock's unit; None while open."""
        if self.end is None:
            return None
        return self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation of this span."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "trace_id": self.trace_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "attributes": dict(self.attributes),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, id={self.span_id}, parent={self.parent_id})"


class _NoopSpan:
    """Shared do-nothing span returned while observability is disabled."""

    __slots__ = ()

    def set_attribute(self, key: str, value: Any) -> None:
        pass

    def set_attributes(self, **attributes: Any) -> None:
        pass


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Creates spans, tracks the current one per context, keeps finished ones."""

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._current: Any = None  # ContextVar, created lazily in reset()
        self.finished: list[Span] = []
        self.reset()

    def reset(self) -> None:
        """Drop all finished spans and restart span-id numbering."""
        import contextvars

        with self._lock:
            self.finished = []
            self._ids = itertools.count(1)
            self._current = contextvars.ContextVar("repro-obs-span", default=None)

    # ------------------------------------------------------------------ #
    # Span lifecycle
    # ------------------------------------------------------------------ #

    def current_span(self) -> Span | None:
        """The innermost open span of this context, if any."""
        return self._current.get()

    def start_span(
        self,
        name: str,
        parent: Span | None = None,
        *,
        root: bool = False,
        **attributes: Any,
    ) -> Span:
        """Open a span without making it current (manual API).

        Args:
            name: Span name (dotted, e.g. ``"sharded.access"``).
            parent: Explicit parent; defaults to the context's current span.
            root: Force a new root span even if a current span exists.
            **attributes: Initial attributes.

        The caller must pass the span to :meth:`end`.
        """
        if parent is None and not root:
            parent = self._current.get()
        with self._lock:
            span_id = next(self._ids)
        trace_id = parent.trace_id if parent is not None else span_id
        parent_id = parent.span_id if parent is not None else None
        return Span(name, span_id, trace_id, parent_id, obs_clock.now(), dict(attributes))

    def end(self, span: Span) -> Span:
        """Close ``span`` and move it to :attr:`finished`."""
        span.end = obs_clock.now()
        with self._lock:
            self.finished.append(span)
        return span

    @contextmanager
    def span(
        self, name: str, parent: Span | None = None, **attributes: Any
    ) -> Iterator[Span | _NoopSpan]:
        """Context-managed span, nested under the context's current span.

        ``parent`` overrides the context's current span — used by servers
        parenting under a propagated remote context
        (:mod:`repro.obs.propagate`).

        An exception escaping the block closes the span with
        ``error=True`` / ``error_type`` attributes and bumps the
        ``trace.span_errors`` counter, then propagates — failed operations
        must not vanish from the trace as if they had succeeded.

        No-op (yields the shared :data:`NOOP_SPAN`) while observability is
        disabled.
        """
        if not _state.enabled:
            yield NOOP_SPAN
            return
        span = self.start_span(name, parent=parent, **attributes)
        token = self._current.set(span)
        try:
            yield span
        except BaseException as exc:
            span.set_attributes(error=True, error_type=type(exc).__name__)
            from repro.obs.metrics import REGISTRY

            REGISTRY.counter("trace.span_errors").inc()
            raise
        finally:
            self._current.reset(token)
            self.end(span)

    # ------------------------------------------------------------------ #
    # Inspection / export
    # ------------------------------------------------------------------ #

    def spans(self, name: str | None = None) -> list[Span]:
        """Finished spans, optionally filtered by exact name."""
        if name is None:
            return list(self.finished)
        return [s for s in self.finished if s.name == name]

    def export(self) -> list[dict[str, Any]]:
        """All finished spans as dicts, in completion order."""
        return [span.to_dict() for span in self.finished]


#: The process-wide default tracer all built-in instrumentation writes to.
TRACER = Tracer()


__all__ = ["Span", "Tracer", "TRACER", "NOOP_SPAN"]
