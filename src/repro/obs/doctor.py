"""``repro doctor`` — scrape a deployment and name its bottleneck.

It scrapes every shard's metrics endpoint twice (:func:`collect_signals`),
reduces each target to one row (:func:`target_row`: throughput, wire and
shed rates, in-flight occupancy, prepare vs service vs round-trip latency),
and hands the rows to :func:`diagnose` — a pure function, so the
attribution logic is testable on synthetic signal dicts without sockets.
``repro doctor --json`` prints every target's row.

Attribution taxonomy (the four ways the stack saturates):

* **shedding** — the admission window is rejecting work outright
  (``SHED/s > 0``); always reported first, then the *cause* of the
  pressure is attributed below.
* **dispatch** — the server side is the constraint: the in-flight window
  runs near full (a saturated shard shows here, whatever it is busy with).
* **crypto** — the proxy's table builds dominate the latency budget.
* **wire** — neither side is busy yet round trips dwarf service time:
  the network (or a slow consumer) holds the latency.

A cause whose series no target exposes scores ``None`` — "not measured at
these targets".  Prepare and round-trip times are recorded by the trusted
side, so a shard in its own process exposes neither: only a cluster that
shares the proxy's registry measures every cause.  The verdict is
``healthy`` only when every cause was measured and none crossed its
threshold; otherwise it is ``incomplete``.

The verdict is compared against the symbolic cost model's predicted
per-shard capacity (:mod:`repro.analysis.costmodel`), so "2.1k ops/s on 4
shards" reads as "44% of the 4.8k ops/s the model predicts" rather than a
bare number.
"""

from __future__ import annotations

import time
import urllib.error
import urllib.request
from typing import Any, Mapping

from repro.analysis.costmodel import (
    DEFAULT_SHARD_OPS_PER_SEC,
    DEFAULT_TARGET_UTILIZATION,
)
from repro.obs.export import parse_prometheus_text

Samples = Mapping[str, list[tuple[dict[str, str], float]]]

#: In-flight occupancy at or above which dispatch is considered saturated.
OCCUPANCY_SATURATED = 0.8

#: Prepare p99 (ms) at which a prepare-dominated latency budget counts as
#: crypto saturation.  The share alone is not enough: an idle deployment's
#: prepares also dominate its tiny service times, and that is not a
#: bottleneck — prepares must be both dominant *and* absolutely slow.
PREPARE_SATURATED_MS = 20.0

#: Minimum score before a cause is named the bottleneck at all.
SCORE_FLOOR = 0.5


def scrape(url: str, timeout: float = 5.0) -> Samples:
    """Fetch and parse one endpoint; ``{}`` if the target is unreachable."""
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return parse_prometheus_text(response.read().decode("utf-8"))
    except (urllib.error.URLError, OSError, ValueError):
        return {}


def _value(
    samples: Samples, metric: str, labels: dict[str, str] | None = None
) -> float | None:
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


def _rate(
    current: float | None, before: float | None, interval_s: float
) -> float | None:
    if current is None or before is None or interval_s <= 0:
        return None
    return max(0.0, current - before) / interval_s


def _ms(seconds: float | None) -> float | None:
    return None if seconds is None else seconds * 1000.0


def target_row(
    target: str,
    current: Samples,
    previous: Samples | None,
    interval_s: float,
) -> dict[str, Any]:
    """One target's signal vector from two scrapes (``previous`` may be
    ``None``: rates are then ``None``).  ``None`` marks a series the target
    does not expose."""
    previous = previous or {}
    dispatched = "repro_transport_requests_dispatched_total"
    shed = "repro_transport_overload_frames_sent_total"
    wire_rate = _rate(
        _wire_bytes_total(current), _wire_bytes_total(previous), interval_s
    )
    in_flight = _value(current, "repro_transport_server_in_flight")
    max_in_flight = _value(current, "repro_transport_server_max_in_flight")
    roundtrip = "repro_transport_pipeline_roundtrip_seconds"
    p99 = {"quantile": "0.99"}
    return {
        "target": target,
        "up": bool(current),
        "requests": _value(current, dispatched),
        "ops_per_s": _rate(
            _value(current, dispatched), _value(previous, dispatched), interval_s
        ),
        "wire_bytes": _wire_bytes_total(current),
        "mb_per_s": None if wire_rate is None else wire_rate / 1e6,
        "p50_ms": _ms(_value(current, roundtrip, {"quantile": "0.5"})),
        "p99_ms": _ms(_value(current, roundtrip, p99)),
        "service_p99_ms": _ms(
            _value(current, "repro_transport_server_service_seconds", p99)
        ),
        "prepare_p99_ms": _ms(
            _value(current, "repro_lbl_proxy_prepare_seconds", p99)
        ),
        "queue_depth": in_flight,
        "span_errors": _value(current, "repro_trace_span_errors_total"),
        "shed_per_s": _rate(_value(current, shed), _value(previous, shed), interval_s),
        "in_flight_occupancy": (
            in_flight / max_in_flight
            if in_flight is not None and max_in_flight
            else None
        ),
    }


def collect_signals(
    targets: list[str], interval_s: float = 1.0
) -> list[dict[str, Any]]:
    """Two timed scrapes per target, reduced to signal vectors.

    The pause between scrapes is what turns counters into rates
    (``ops_per_s``, ``shed_per_s``).
    """
    urls = [
        t if t.startswith("http") else f"http://{t}/metrics" for t in targets
    ]
    first = [scrape(url) for url in urls]
    time.sleep(interval_s)
    return [
        target_row(target, scrape(url), first[i] or None, interval_s)
        for i, (target, url) in enumerate(zip(targets, urls))
    ]


def _score_dispatch(signal: Mapping[str, Any]) -> float | None:
    occupancy = signal.get("in_flight_occupancy")
    if occupancy is None:
        return None
    return min(occupancy / OCCUPANCY_SATURATED, 1.0)


def _score_crypto(signal: Mapping[str, Any]) -> float | None:
    prepare = signal.get("prepare_p99_ms")
    if prepare is None:
        return None
    if not prepare:
        return 0.0
    service = signal.get("service_p99_ms")
    prepare_share = 1.0 if service is None else prepare / (prepare + service)
    return prepare_share * min(prepare / PREPARE_SATURATED_MS, 1.0)


def _score_wire(signal: Mapping[str, Any]) -> float | None:
    roundtrip = signal.get("p99_ms")
    if roundtrip is None:
        return None
    if not roundtrip:
        return 0.0
    service = signal.get("service_p99_ms") or 0.0
    prepare = signal.get("prepare_p99_ms") or 0.0
    busy = min(service + prepare, roundtrip)
    return (roundtrip - busy) / roundtrip


_SCORERS = {"dispatch": _score_dispatch, "crypto": _score_crypto, "wire": _score_wire}


def _worst(up: list[Mapping[str, Any]], scorer) -> Mapping[str, Any]:
    return max(up, key=lambda signal: scorer(signal) or 0.0)


def diagnose(
    signals: list[Mapping[str, Any]],
    *,
    predicted_ops_per_shard: float = DEFAULT_SHARD_OPS_PER_SEC
    * DEFAULT_TARGET_UTILIZATION,
) -> dict[str, Any]:
    """Attribute a deployment's state to its bottleneck.  Pure function.

    Args:
        signals: One signal vector per target, as produced by
            :func:`collect_signals` (tests pass synthetic dicts).
        predicted_ops_per_shard: The cost model's sustained per-shard
            capacity at target utilization — the baseline the measured
            throughput is compared against.

    Returns:
        ``{"bottleneck", "shedding", "scores", "reasons",
        "measured_ops_per_s", "predicted_ops_per_s", "utilization",
        "targets"}`` — ``bottleneck`` is ``"dispatch"``, ``"crypto"``,
        ``"wire"``, ``"healthy"`` (every cause measured, none saturated),
        ``"incomplete"`` (none saturated, but some cause's series is on no
        target; its score is ``None``) or ``"unreachable"``; ``shedding`` is
        True when any target rejected work during the observation window.
    """
    up = [s for s in signals if s.get("up", True)]
    shed_per_s = sum(s.get("shed_per_s") or 0.0 for s in up)
    measured = sum(s.get("ops_per_s") or 0.0 for s in up)
    predicted = predicted_ops_per_shard * len(signals) if signals else 0.0
    scores: dict[str, float | None] = {}
    for cause, scorer in _SCORERS.items():
        measured_scores = [x for x in map(scorer, up) if x is not None]
        scores[cause] = max(measured_scores, default=None)
    known = {cause: x for cause, x in scores.items() if x is not None}
    shedding = shed_per_s > 0.0

    reasons: list[str] = []
    if not up:
        bottleneck = "unreachable"
        reasons.append("no target answered its metrics scrape")
    else:
        best = max(known, key=known.__getitem__, default=None)
        # Shedding means the deployment is overloaded even if no single
        # score clears the floor — attribute to the strongest signal.
        if best is not None and (shedding or known[best] >= SCORE_FLOOR):
            bottleneck = best
        elif len(known) < len(scores):
            bottleneck = "incomplete"
        else:
            bottleneck = "healthy"
        if shedding:
            reasons.append(
                f"admission control is shedding ({shed_per_s:.1f} req/s rejected)"
            )
        if known.get("dispatch", 0.0) >= SCORE_FLOOR:
            worst = _worst(up, _score_dispatch)
            occupancy = worst.get("in_flight_occupancy") or 0.0
            reasons.append(
                f"dispatch: {worst.get('target', '?')} in-flight window at "
                f"{occupancy * 100.0:.0f}%"
            )
        if known.get("crypto", 0.0) >= SCORE_FLOOR:
            worst = _worst(up, _score_crypto)
            reasons.append(
                f"crypto: {worst.get('target', '?')} prepare p99 "
                f"{worst.get('prepare_p99_ms') or 0.0:.2f} ms dominates its "
                f"service p99 {worst.get('service_p99_ms') or 0.0:.2f} ms"
            )
        if known.get("wire", 0.0) >= SCORE_FLOOR:
            worst = _worst(up, _score_wire)
            reasons.append(
                "wire: round-trip p99 "
                f"{worst.get('p99_ms') or 0.0:.2f} ms vs service p99 "
                f"{worst.get('service_p99_ms') or 0.0:.2f} ms — time is off-CPU"
            )
        for cause in scores:
            if cause not in known:
                reasons.append(f"{cause}: not measured at these targets")
        if bottleneck in ("healthy", "incomplete"):
            reasons.append("no saturation signal crossed its threshold")

    return {
        "bottleneck": bottleneck,
        "shedding": shedding,
        "shed_per_s": shed_per_s,
        "scores": scores,
        "reasons": reasons,
        "measured_ops_per_s": measured,
        "predicted_ops_per_s": predicted,
        "utilization": (measured / predicted) if predicted else None,
        "targets": [dict(s) for s in signals],
    }


def render_doctor(diagnosis: Mapping[str, Any]) -> str:
    """The diagnosis as a terminal report."""
    lines = [
        f"repro doctor — {len(diagnosis['targets'])} target(s)",
        "",
        f"verdict: {diagnosis['bottleneck'].upper()}"
        + ("  (shedding load)" if diagnosis["shedding"] else ""),
    ]
    for reason in diagnosis["reasons"]:
        lines.append(f"  - {reason}")
    lines.append("")
    scores = diagnosis["scores"]
    lines.append(
        "saturation scores: "
        + "  ".join(
            f"{cause}=" + ("not measured" if score is None else f"{score:.2f}")
            for cause, score in sorted(scores.items())
        )
    )
    measured = diagnosis["measured_ops_per_s"]
    predicted = diagnosis["predicted_ops_per_s"]
    utilization = diagnosis["utilization"]
    line = f"throughput: {measured:.1f} ops/s measured"
    if predicted:
        line += f" vs {predicted:.1f} ops/s predicted (cost model)"
    if utilization is not None:
        line += f" — {utilization * 100.0:.0f}% of predicted capacity"
    lines.append(line)
    for signal in diagnosis["targets"]:
        if not signal.get("up", True):
            lines.append(f"  {signal.get('target', '?')}: DOWN")
    lines.append("")
    return "\n".join(lines)


def run_doctor(
    targets: list[str],
    interval_s: float = 1.0,
    *,
    predicted_ops_per_shard: float | None = None,
    write=print,
    json_mode: bool = False,
) -> int:
    """Scrape ``targets``, diagnose, and print the report.

    Returns 0 when the verdict is ``healthy``, 1 otherwise (a bottleneck,
    an unmeasured cause, or an unreachable target) — scriptable as a
    health gate.
    """
    import json as _json

    signals = collect_signals(targets, interval_s)
    kwargs: dict[str, Any] = {}
    if predicted_ops_per_shard is not None:
        kwargs["predicted_ops_per_shard"] = predicted_ops_per_shard
    diagnosis = diagnose(signals, **kwargs)
    if json_mode:
        write(_json.dumps(diagnosis, indent=2, default=str))
    else:
        write(render_doctor(diagnosis))
    return 0 if diagnosis["bottleneck"] == "healthy" else 1


__all__ = [
    "OCCUPANCY_SATURATED",
    "PREPARE_SATURATED_MS",
    "SCORE_FLOOR",
    "scrape",
    "target_row",
    "collect_signals",
    "diagnose",
    "render_doctor",
    "run_doctor",
]
