"""``repro doctor`` — scrape a deployment and name its bottleneck.

``repro top`` shows *that* a deployment is saturated; ``doctor`` says
*where*.  It scrapes every shard's metrics endpoint twice
(:func:`collect_signals`, reusing :func:`repro.obs.top.scrape`), reduces
each target to a small signal vector (throughput, shed rate, in-flight
occupancy, prepare vs service vs round-trip latency), and hands the vectors to
:func:`diagnose` — a pure function, so the attribution logic is testable on
synthetic signal dicts without sockets.

Attribution taxonomy (the four ways the stack saturates):

* **shedding** — the admission window is rejecting work outright
  (``SHED/s > 0``); always reported first, then the *cause* of the
  pressure is attributed below.
* **dispatch** — the server side is the constraint: the in-flight window
  runs near full (a saturated shard shows here, whatever it is busy with).
* **crypto** — the proxy's table builds dominate the latency budget.
* **wire** — neither side is busy yet round trips dwarf service time:
  the network (or a slow consumer) holds the latency.

The verdict is compared against the symbolic cost model's predicted
per-shard capacity (:mod:`repro.analysis.costmodel`), so "2.1k ops/s on 4
shards" reads as "44% of the 4.8k ops/s the model predicts" rather than a
bare number.
"""

from __future__ import annotations

import time
from typing import Any, Mapping

from repro.analysis.costmodel import (
    DEFAULT_SHARD_OPS_PER_SEC,
    DEFAULT_TARGET_UTILIZATION,
)
from repro.obs.top import Samples, scrape, target_row

#: In-flight occupancy at or above which dispatch is considered saturated.
OCCUPANCY_SATURATED = 0.8

#: Prepare p99 (ms) at which a prepare-dominated latency budget counts as
#: crypto saturation.  The share alone is not enough: an idle deployment's
#: prepares also dominate its tiny service times, and that is not a
#: bottleneck — prepares must be both dominant *and* absolutely slow.
PREPARE_SATURATED_MS = 20.0

#: Minimum score before a cause is named the bottleneck at all.
SCORE_FLOOR = 0.5


def _signal(
    current: Samples, previous: Samples | None, interval_s: float, target: str
) -> dict[str, Any]:
    """Reduce two scrapes of one target to the doctor's signal vector."""
    row = target_row(target, current, previous, interval_s)

    def _value(metric: str, labels: dict[str, str] | None = None) -> float | None:
        for sample_labels, value in current.get(metric, []):
            if labels is None or all(
                sample_labels.get(k) == v for k, v in labels.items()
            ):
                return value
        return None

    prepare_p99 = _value(
        "repro_lbl_proxy_prepare_seconds", {"quantile": "0.99"}
    )
    row["prepare_p99_ms"] = None if prepare_p99 is None else prepare_p99 * 1e3
    return row


def collect_signals(
    targets: list[str], interval_s: float = 1.0
) -> list[dict[str, Any]]:
    """Two timed scrapes per target, reduced to signal vectors.

    The pause between scrapes is what turns counters into rates
    (``ops_per_s``, ``shed_per_s``) — same technique as ``repro top``.
    """
    urls = [
        t if t.startswith("http") else f"http://{t}/metrics" for t in targets
    ]
    first = [scrape(url) for url in urls]
    time.sleep(interval_s)
    return [
        _signal(scrape(url), first[i] or None, interval_s, target)
        for i, (target, url) in enumerate(zip(targets, urls))
    ]


def _score_dispatch(signal: Mapping[str, Any]) -> float:
    occupancy = signal.get("in_flight_occupancy") or 0.0
    return min(occupancy / OCCUPANCY_SATURATED, 1.0)


def _score_crypto(signal: Mapping[str, Any]) -> float:
    prepare = signal.get("prepare_p99_ms")
    if not prepare:
        return 0.0
    service = signal.get("service_p99_ms")
    prepare_share = 1.0 if service is None else prepare / (prepare + service)
    return prepare_share * min(prepare / PREPARE_SATURATED_MS, 1.0)


def _score_wire(signal: Mapping[str, Any]) -> float:
    roundtrip = signal.get("p99_ms")
    service = signal.get("service_p99_ms") or 0.0
    prepare = signal.get("prepare_p99_ms") or 0.0
    if not roundtrip:
        return 0.0
    busy = min(service + prepare, roundtrip)
    return (roundtrip - busy) / roundtrip


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
        ``"wire"``, or ``"healthy"``; ``shedding`` is True when any target
        rejected work during the observation window.
    """
    up = [s for s in signals if s.get("up", True)]
    shed_per_s = sum(s.get("shed_per_s") or 0.0 for s in up)
    measured = sum(s.get("ops_per_s") or 0.0 for s in up)
    predicted = predicted_ops_per_shard * len(signals) if signals else 0.0
    scores = {
        "dispatch": max((_score_dispatch(s) for s in up), default=0.0),
        "crypto": max((_score_crypto(s) for s in up), default=0.0),
        "wire": max((_score_wire(s) for s in up), default=0.0),
    }
    shedding = shed_per_s > 0.0

    reasons: list[str] = []
    if not up:
        bottleneck = "unreachable"
        reasons.append("no target answered its metrics scrape")
    else:
        best = max(scores, key=lambda cause: scores[cause])
        # Shedding means the deployment is overloaded even if no single
        # score clears the floor — attribute to the strongest signal.
        bottleneck = best if shedding or scores[best] >= SCORE_FLOOR else "healthy"
        if shedding:
            reasons.append(
                f"admission control is shedding ({shed_per_s:.1f} req/s rejected)"
            )
        if scores["dispatch"] >= SCORE_FLOOR:
            worst = max(up, key=_score_dispatch)
            occupancy = worst.get("in_flight_occupancy") or 0.0
            reasons.append(
                f"dispatch: {worst.get('target', '?')} in-flight window at "
                f"{occupancy * 100.0:.0f}%"
            )
        if scores["crypto"] >= SCORE_FLOOR:
            worst = max(up, key=_score_crypto)
            reasons.append(
                f"crypto: {worst.get('target', '?')} prepare p99 "
                f"{worst.get('prepare_p99_ms') or 0.0:.2f} ms dominates its "
                f"service p99 {worst.get('service_p99_ms') or 0.0:.2f} ms"
            )
        if scores["wire"] >= SCORE_FLOOR:
            worst = max(up, key=_score_wire)
            reasons.append(
                "wire: round-trip p99 "
                f"{worst.get('p99_ms') or 0.0:.2f} ms vs service p99 "
                f"{worst.get('service_p99_ms') or 0.0:.2f} ms — time is off-CPU"
            )
        if bottleneck == "healthy":
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
        + "  ".join(f"{cause}={scores[cause]:.2f}" for cause in sorted(scores))
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

    Returns 0 when the verdict is ``healthy``, 1 when a bottleneck (or an
    unreachable target) was found — scriptable as a health gate.
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
    "collect_signals",
    "diagnose",
    "render_doctor",
    "run_doctor",
]
