"""``repro top`` — a refreshing terminal view of a running deployment.

Polls one or more Prometheus scrape endpoints (shard servers started with
``metrics_port=``, see :func:`repro.obs.export.start_metrics_server`) and
renders throughput, tail latency, cache effectiveness, and queue depth per
target.  Rates are derived by differencing successive scrapes, so the
first refresh shows totals and every later one shows live ops/s.

The rendering is a pure function of two scrapes
(:func:`target_row` / :func:`render_top`), so tests exercise it without a
terminal; the CLI loop (:func:`run_top`) only adds the polling cadence and
the ANSI clear between frames.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any, Mapping

from repro.obs.export import parse_prometheus_text

Samples = Mapping[str, list[tuple[dict[str, str], float]]]

#: ANSI: clear screen + home cursor (plain strings keep tests readable).
CLEAR = "\x1b[2J\x1b[H"


def scrape(url: str, timeout: float = 5.0) -> Samples:
    """Fetch and parse one endpoint; ``{}`` if the target is unreachable."""
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return parse_prometheus_text(response.read().decode("utf-8"))
    except (urllib.error.URLError, OSError, ValueError):
        return {}


def _value(samples: Samples, metric: str, labels: dict[str, str] | None = None) -> float | None:
    for sample_labels, value in samples.get(metric, []):
        if labels is None or all(sample_labels.get(k) == v for k, v in labels.items()):
            return value
    return None


def _wire_bytes_total(samples: Samples) -> float | None:
    """Sum of every ``repro_ledger_wire_*_bytes_total`` counter on a target
    (all roles, frame types, and directions), or ``None`` when the target
    exports no ledger counters (observability off)."""
    total, found = 0.0, False
    for metric, entries in samples.items():
        if metric.startswith("repro_ledger_wire_") and metric.endswith(
            "_bytes_total"
        ):
            found = True
            total += sum(value for _labels, value in entries)
    return total if found else None


def target_row(
    target: str,
    current: Samples,
    previous: Samples | None,
    interval_s: float,
) -> dict[str, Any]:
    """One display row: throughput, percentiles, hit rate, queue depth."""
    dispatched = _value(current, "repro_transport_requests_dispatched_total")
    ops_per_s = None
    if previous is not None and dispatched is not None and interval_s > 0:
        before = _value(previous, "repro_transport_requests_dispatched_total")
        if before is not None:
            ops_per_s = max(0.0, dispatched - before) / interval_s
    wire_bytes = _wire_bytes_total(current)
    mb_per_s = None
    if previous is not None and wire_bytes is not None and interval_s > 0:
        wire_before = _wire_bytes_total(previous)
        if wire_before is not None:
            mb_per_s = max(0.0, wire_bytes - wire_before) / interval_s / 1e6
    shed_total = _value(current, "repro_transport_overload_frames_sent_total")
    shed_per_s = None
    if previous is not None and shed_total is not None and interval_s > 0:
        shed_before = _value(
            previous, "repro_transport_overload_frames_sent_total"
        )
        if shed_before is not None:
            shed_per_s = max(0.0, shed_total - shed_before) / interval_s
    in_flight = _value(current, "repro_transport_server_in_flight")
    max_in_flight = _value(current, "repro_transport_server_max_in_flight")
    occupancy = None
    if in_flight is not None and max_in_flight:
        occupancy = in_flight / max_in_flight
    roundtrip = "repro_transport_pipeline_roundtrip_seconds"
    return {
        "target": target,
        "up": bool(current),
        "requests": dispatched,
        "ops_per_s": ops_per_s,
        "wire_bytes": wire_bytes,
        "mb_per_s": mb_per_s,
        "p50_ms": _ms(_value(current, roundtrip, {"quantile": "0.5"})),
        "p99_ms": _ms(_value(current, roundtrip, {"quantile": "0.99"})),
        "service_p99_ms": _ms(
            _value(
                current,
                "repro_transport_server_service_seconds",
                {"quantile": "0.99"},
            )
        ),
        "cache_hit_rate": _value(current, "repro_lbl_proxy_label_cache_hit_rate"),
        "queue_depth": in_flight,
        "span_errors": _value(current, "repro_trace_span_errors_total"),
        "shed_per_s": shed_per_s,
        "in_flight_occupancy": occupancy,
    }


def _ms(seconds: float | None) -> float | None:
    return None if seconds is None else seconds * 1000.0


def _cell(value: Any, fmt: str = "{:.1f}") -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return fmt.format(value)
    return str(value)


def render_top(rows: list[dict[str, Any]], *, refreshed_at: str = "") -> str:
    """Render rows as the fixed-width ``repro top`` table."""
    header = (
        f"{'TARGET':24s} {'REQS':>8s} {'OPS/S':>8s} {'MB/S':>7s} {'RT p50':>8s} "
        f"{'RT p99':>8s} {'SVC p99':>8s} {'HIT%':>6s} {'QUEUE':>6s} {'ERRS':>5s} "
        f"{'SHED/S':>7s} {'OCC%':>5s}"
    )
    lines = [f"repro top — {len(rows)} target(s)  {refreshed_at}".rstrip(), header]
    for row in rows:
        if not row["up"]:
            lines.append(f"{row['target']:24s} {'DOWN':>8s}")
            continue
        hit = row["cache_hit_rate"]
        occ = row.get("in_flight_occupancy")
        lines.append(
            f"{row['target']:24s}"
            f" {_cell(row['requests'], '{:.0f}'):>8s}"
            f" {_cell(row['ops_per_s']):>8s}"
            f" {_cell(row.get('mb_per_s'), '{:.2f}'):>7s}"
            f" {_cell(row['p50_ms'], '{:.2f}'):>8s}"
            f" {_cell(row['p99_ms'], '{:.2f}'):>8s}"
            f" {_cell(row['service_p99_ms'], '{:.2f}'):>8s}"
            f" {_cell(None if hit is None else hit * 100.0):>6s}"
            f" {_cell(row['queue_depth'], '{:.0f}'):>6s}"
            f" {_cell(row['span_errors'], '{:.0f}'):>5s}"
            f" {_cell(row.get('shed_per_s')):>7s}"
            f" {_cell(occ if occ is None else occ * 100.0, '{:.0f}'):>5s}"
        )
    lines.append("")
    lines.append(
        "RT/SVC in ms; OPS/S, MB/S, SHED/S from scrape deltas; "
        "OCC% = in-flight over window; ctrl-c to quit"
    )
    return "\n".join(lines)


def run_top(
    targets: list[str],
    interval_s: float = 1.0,
    iterations: int | None = None,
    clear: bool = True,
    write=print,
    json_mode: bool = False,
) -> int:
    """Poll ``targets`` and redraw until interrupted (or ``iterations``).

    Targets are ``host:port`` of metrics endpoints; a bare target gets
    ``http://`` and ``/metrics`` added.  Returns 0; unreachable targets
    render as DOWN rather than aborting the loop (shards may restart).

    Args:
        json_mode: Emit one JSON object per refresh
            (``{"refreshed_at": ..., "targets": [rows]}``) instead of the
            ANSI table — scriptable ``repro top --json``.
    """
    urls = [
        t if t.startswith("http") else f"http://{t}/metrics" for t in targets
    ]
    previous: dict[str, Samples] = {}
    ticks = 0
    try:
        while iterations is None or ticks < iterations:
            if ticks:
                time.sleep(interval_s)
            rows = []
            for target, url in zip(targets, urls):
                current = scrape(url)
                rows.append(
                    target_row(target, current, previous.get(target), interval_s)
                )
                if current:
                    previous[target] = current
            refreshed_at = time.strftime("%H:%M:%S")
            if json_mode:
                write(
                    json.dumps({"refreshed_at": refreshed_at, "targets": rows})
                )
            else:
                frame = render_top(rows, refreshed_at=refreshed_at)
                write((CLEAR if clear else "") + frame)
            ticks += 1
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    return 0


__all__ = ["scrape", "target_row", "render_top", "run_top", "CLEAR"]
