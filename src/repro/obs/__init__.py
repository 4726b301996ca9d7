"""``repro.obs`` — tracing, metrics, logging, the resource ledger, doctor.

The paper's claims are quantitative (one round trip per access, a latency
breakdown, a per-access byte and crypto budget), so this package makes the
corresponding quantities first-class observables:

* :mod:`repro.obs.trace` — context-manager spans with parent/child nesting
  and pluggable wall/sim time sources;
* :mod:`repro.obs.metrics` — counters, gauges, fixed-bucket histograms with
  snapshot/reset semantics and JSON export;
* :mod:`repro.obs.logging` — the ``repro.*`` logger hierarchy behind the
  CLI's ``--log-level`` flag;
* :mod:`repro.obs.propagate` — the 16-byte trace-context wire extension
  and the cross-process span-dump merge used by the sharded deployment;
* :mod:`repro.obs.export` — Chrome trace-event JSON (Perfetto-loadable)
  and Prometheus text exposition, plus the ``--metrics-port`` scrape
  endpoint;
* :mod:`repro.obs.doctor` — ``repro doctor``: scrape those endpoints and
  name a deployment's bottleneck;
* :mod:`repro.obs.ledger` — the resource ledger: process totals of wire
  bytes per frame type/direction and of crypto-primitive invocations,
  validated against the closed-form cost model
  (:mod:`repro.analysis.costmodel`).

Whether the server's view of a GET equals its view of a PUT is not a
telemetry question: :mod:`repro.security.audit` records that view on each
shard's link, capture on or off.

Capture is off by default; every instrumentation site guards its emission
behind a single flag check, so the disabled path is effectively free::

    from repro import obs

    obs.enable()
    ... run a workload ...
    bundle = obs.export()          # {"clock": ..., "spans": [...], "metrics": {...}}
    obs.disable()
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

from repro.obs import _state
from repro.obs import ledger
from repro.obs.clock import (
    Clock,
    FakeClock,
    SimClock,
    WallClock,
    get_time_source,
    now,
    set_time_source,
    use_clock,
)
from repro.obs.logging import get_logger, setup as setup_logging
from repro.obs.export import (
    chrome_trace,
    prometheus_text,
    start_metrics_server,
    write_chrome_trace,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    LogHistogram,
    MetricsRegistry,
    REGISTRY,
)
from repro.obs.propagate import TraceContext, merge_span_dumps
from repro.obs.trace import NOOP_SPAN, Span, Tracer, TRACER


def enable() -> None:
    """Turn on span/metric capture process-wide."""
    _state.enabled = True


def disable() -> None:
    """Turn off capture (already-recorded data is kept until :func:`reset`)."""
    _state.enabled = False


def is_enabled() -> bool:
    """Whether capture is currently on."""
    return _state.enabled


def reset() -> None:
    """Drop all recorded spans and zero every metric (the ledger's totals
    included)."""
    TRACER.reset()
    REGISTRY.reset()


@contextmanager
def capture(*, fresh: bool = True) -> Iterator[None]:
    """Enable capture for the duration of a ``with`` block.

    Args:
        fresh: Reset spans and metrics on entry so the block's data stands
            alone.  The previous enabled/disabled state is restored on exit.
    """
    previous = _state.enabled
    if fresh:
        reset()
    _state.enabled = True
    try:
        yield
    finally:
        _state.enabled = previous


def export() -> dict[str, Any]:
    """One JSON-ready bundle: clock metadata, finished spans, and the
    metric snapshot."""
    clock = get_time_source()
    return {
        "clock": {"type": type(clock).__name__, "unit": clock.unit},
        "spans": TRACER.export(),
        "metrics": REGISTRY.snapshot(),
    }


__all__ = [
    "ledger",
    "enable",
    "disable",
    "is_enabled",
    "reset",
    "capture",
    "export",
    "Clock",
    "WallClock",
    "SimClock",
    "FakeClock",
    "get_time_source",
    "set_time_source",
    "now",
    "use_clock",
    "Span",
    "Tracer",
    "TRACER",
    "NOOP_SPAN",
    "Counter",
    "Gauge",
    "Histogram",
    "LogHistogram",
    "MetricsRegistry",
    "REGISTRY",
    "TraceContext",
    "merge_span_dumps",
    "chrome_trace",
    "write_chrome_trace",
    "prometheus_text",
    "start_metrics_server",
    "get_logger",
    "setup_logging",
]
