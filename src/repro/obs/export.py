"""Exporters: Chrome trace-event JSON and Prometheus text exposition.

Two consumers, two formats:

* **Chrome trace events** (:func:`chrome_trace`) — load the file in
  ``chrome://tracing`` or https://ui.perfetto.dev to see the merged span
  forest on a timeline, one row per trace, one process lane per shard.
  Produced by ``repro trace --chrome out.json``.
* **Prometheus text exposition** (:func:`prometheus_text`) — scraped live
  from a running :class:`~repro.transport.server.LblTcpServer` started
  with ``metrics_port=`` (see :func:`start_metrics_server`), and read by
  ``repro doctor``.  Counters map to ``*_total``, gauges to plain samples
  (plus ``*_max``), and log-bucket histograms to summary quantiles
  (``{quantile="0.99"}``) so tail latency is one PromQL-free read.

:func:`parse_prometheus_text` is the matching reader — ``repro doctor`` uses
it to diff successive scrapes, and tests use it to prove the exposition is
parseable.
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import Any, Iterable

from repro.errors import ProtocolError
from repro.obs.metrics import REGISTRY, MetricsRegistry

#: Quantiles exposed for every log-bucket histogram.
SUMMARY_QUANTILES = (0.5, 0.9, 0.99, 0.999)

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)\s*$"
)
_LABEL_RE = re.compile(r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>[^"]*)"')


def metric_name(name: str) -> str:
    """A dotted instrument name as a Prometheus metric name (``repro_`` prefix)."""
    return "repro_" + _NAME_RE.sub("_", name)


# --------------------------------------------------------------------- #
# Chrome trace events
# --------------------------------------------------------------------- #

#: Multipliers from a clock unit to the microseconds Chrome expects.
_UNIT_TO_US = {"s": 1e6, "sim_ms": 1e3, "ms": 1e3, "tick": 1.0, "us": 1.0}


def chrome_trace(
    spans: Iterable[dict[str, Any]], clock_unit: str = "s"
) -> dict[str, Any]:
    """Render a span dump as a Chrome trace-event JSON object.

    Each finished span becomes one complete (``"ph": "X"``) event; its
    ``pid`` is the span's ``process`` attribute (``client`` when absent,
    i.e. the merging process itself), its ``tid`` the trace id — so every
    logical access reads as one horizontal track.  Span/parent ids travel
    in ``args`` so the nesting survives the format round trip.  Open spans
    (no end timestamp) are skipped.
    """
    scale = _UNIT_TO_US.get(clock_unit, 1e6)
    events = []
    for span in spans:
        if span.get("end") is None:
            continue
        attributes = dict(span.get("attributes") or {})
        process = attributes.pop("process", "client")
        args: dict[str, Any] = {
            "span_id": span["span_id"],
            "parent_id": span.get("parent_id"),
        }
        for key, value in attributes.items():
            args[key] = value if isinstance(value, (int, float, bool)) else str(value)
        events.append(
            {
                "name": span["name"],
                "cat": "repro",
                "ph": "X",
                "ts": float(span["start"]) * scale,
                "dur": (float(span["end"]) - float(span["start"])) * scale,
                "pid": str(process),
                "tid": int(span["trace_id"]),
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    path: str, spans: Iterable[dict[str, Any]], clock_unit: str = "s"
) -> int:
    """Write :func:`chrome_trace` output to ``path``; returns the event count."""
    trace = chrome_trace(spans, clock_unit)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle, indent=2, default=str)
    return len(trace["traceEvents"])


# --------------------------------------------------------------------- #
# Prometheus text exposition
# --------------------------------------------------------------------- #


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    return repr(float(value)) if not float(value).is_integer() else str(int(value))


def prometheus_text(registry: MetricsRegistry = REGISTRY) -> str:
    """The registry's snapshot in Prometheus text exposition format."""
    snap = registry.snapshot()
    lines: list[str] = []
    for name, value in sorted(snap["counters"].items()):
        metric = metric_name(name)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric}_total {_format_value(value)}")
    for name, gauge in sorted(snap["gauges"].items()):
        metric = metric_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_format_value(gauge['value'])}")
        lines.append(f"{metric}_max {_format_value(gauge['max'])}")
    for name, hist in sorted(snap["log_histograms"].items()):
        metric = metric_name(name)
        lines.append(f"# TYPE {metric} summary")
        for q, key in zip(SUMMARY_QUANTILES, ("p50", "p90", "p99", "p999")):
            lines.append(
                f'{metric}{{quantile="{format(q, "g")}"}} '
                f"{_format_value(hist.get(key, 0.0))}"
            )
        lines.append(f"{metric}_sum {_format_value(hist['sum'])}")
        lines.append(f"{metric}_count {hist['count']}")
    return "\n".join(lines) + "\n"


def parse_prometheus_text(
    text: str,
) -> dict[str, list[tuple[dict[str, str], float]]]:
    """Parse exposition text into ``{metric: [(labels, value), ...]}``.

    Raises :class:`~repro.errors.ProtocolError` on a malformed sample line,
    so tests double as a format check.
    """
    samples: dict[str, list[tuple[dict[str, str], float]]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ProtocolError(f"malformed exposition line: {line!r}")
        labels = {
            m.group("key"): m.group("value")
            for m in _LABEL_RE.finditer(match.group("labels") or "")
        }
        raw = match.group("value")
        value = float("inf") if raw == "+Inf" else float(raw)
        samples.setdefault(match.group("name"), []).append((labels, value))
    return samples


# --------------------------------------------------------------------- #
# Scrape endpoint
# --------------------------------------------------------------------- #


class _MetricsHandler(BaseHTTPRequestHandler):
    registry: MetricsRegistry = REGISTRY

    def do_GET(self) -> None:  # noqa: N802 - http.server interface
        body = prometheus_text(self.registry).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "text/plain; version=0.0.4")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *_args) -> None:  # pragma: no cover - silence stderr
        pass


def start_metrics_server(
    host: str = "127.0.0.1",
    port: int = 0,
    registry: MetricsRegistry = REGISTRY,
) -> HTTPServer:
    """Serve ``registry`` as Prometheus text on ``http://host:port/metrics``.

    Every path answers the same exposition (scrape configs vary); port 0
    picks an ephemeral port — read ``server.server_address``.  Runs on a
    daemon thread; call ``shutdown()`` + ``server_close()`` to stop.
    """
    handler = type("_BoundMetricsHandler", (_MetricsHandler,), {"registry": registry})
    server = HTTPServer((host, port), handler)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-metrics", daemon=True
    )
    thread.start()
    return server


__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "prometheus_text",
    "parse_prometheus_text",
    "metric_name",
    "start_metrics_server",
    "SUMMARY_QUANTILES",
]
