"""Exporters: Chrome trace-event JSON and the metrics scrape endpoint.

* **Chrome trace events** (:func:`chrome_trace`) — load the file in
  ``chrome://tracing`` or https://ui.perfetto.dev to see the merged span
  forest on a timeline, one row per trace, one process lane per shard.
  Produced by ``repro trace --chrome out.json``.
* **The scrape endpoint** (:func:`start_metrics_server`) — a running
  :class:`~repro.transport.server.LblTcpServer` started with
  ``metrics_port=`` answers its registry's JSON snapshot
  (:meth:`~repro.obs.metrics.MetricsRegistry.to_json`, the same document
  as ``obs.export()["metrics"]``), which ``repro doctor`` reads by
  registry name.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Iterable

from repro.obs.metrics import REGISTRY, MetricsRegistry


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
# Scrape endpoint
# --------------------------------------------------------------------- #


def start_metrics_server(
    host: str = "127.0.0.1",
    port: int = 0,
    registry: MetricsRegistry = REGISTRY,
) -> "http.server.HTTPServer":
    """Serve ``registry``'s JSON snapshot on ``http://host:port/metrics``.

    Every path answers the same document (:meth:`MetricsRegistry.to_json`);
    port 0 picks an ephemeral port — read ``server.server_address``.  Runs
    on a daemon thread; call ``shutdown()`` + ``server_close()`` to stop.
    The HTTP stack is imported here, so a process that serves no endpoint
    never loads it.
    """
    from http.server import BaseHTTPRequestHandler, HTTPServer

    class _MetricsHandler(BaseHTTPRequestHandler):
        def do_GET(self) -> None:  # noqa: N802 - http.server interface
            body = registry.to_json().encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *_args) -> None:  # pragma: no cover - silence stderr
            pass

    server = HTTPServer((host, port), _MetricsHandler)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-metrics", daemon=True
    )
    thread.start()
    return server


__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "start_metrics_server",
]
