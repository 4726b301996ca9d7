"""``repro doctor`` — scrape a deployment and name its bottleneck.

It reads every shard's metrics endpoint twice (:func:`collect_signals`):
each answer is that process's registry snapshot, read by registry name
(``transport.requests_dispatched``, the ``p99`` of
``transport.pipeline.roundtrip.seconds``, …), and a target that answered
is up, whatever its registry holds.  It reduces each target to one row
(:func:`target_row`: throughput, wire and shed rates, in-flight occupancy,
prepare vs service vs round-trip latency), and hands the rows to
:func:`diagnose` — a pure function, so the attribution logic is testable
on synthetic signal dicts without sockets.
``repro doctor --json`` prints every target's row.

Attribution taxonomy (the four ways the stack saturates):

* **shedding** — the admission window is rejecting work outright
  (``SHED/s > 0``); always reported first, then the *cause* of the
  pressure is attributed below.
* **dispatch** — the server side is the constraint: the in-flight window
  runs near full (a saturated shard shows here, whatever it is busy with).
* **crypto** — the proxy's table builds dominate the latency budget.
* **wire** — neither side is busy yet round trips are slow and dwarf
  service time: the network (or a slow consumer) holds the latency.

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

import json
import time
import urllib.error
import urllib.request
from typing import Any, Mapping

from repro.analysis.costmodel import (
    DEFAULT_SHARD_OPS_PER_SEC,
    DEFAULT_TARGET_UTILIZATION,
)

#: A registry snapshot as the endpoint answers it
#: (:meth:`~repro.obs.metrics.MetricsRegistry.snapshot`).
Snapshot = Mapping[str, Any]

#: In-flight occupancy at or above which dispatch is considered saturated.
OCCUPANCY_SATURATED = 0.8

#: Prepare p99 (ms) at which a prepare-dominated latency budget counts as
#: crypto saturation.  The share alone is not enough: an idle deployment's
#: prepares also dominate its tiny service times, and that is not a
#: bottleneck — prepares must be both dominant *and* absolutely slow.
PREPARE_SATURATED_MS = 20.0

#: Off-CPU time (ms) at which off-CPU-dominated round trips read as wire
#: saturation, as PREPARE_SATURATED_MS for prepares: a busy loopback trip is
#: mostly off-CPU too.  Table 2's nearest server (21.84 ms) is twice this.
WIRE_SATURATED_MS = 10.0

#: Minimum score before a cause is named the bottleneck at all.
SCORE_FLOOR = 0.5


def scrape(url: str, timeout: float = 5.0) -> Snapshot:
    """Fetch one endpoint's registry snapshot; ``{}`` if the target did not
    answer (an answer always holds the three instrument kinds, even from
    an empty registry)."""
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return json.loads(response.read())
    except (urllib.error.URLError, OSError, ValueError):
        return {}


def _counter(snap: Snapshot, name: str) -> float | None:
    return snap.get("counters", {}).get(name)


def _gauge(snap: Snapshot, name: str) -> float | None:
    gauge = snap["gauges"].get(name)
    return None if gauge is None else gauge["value"]


def _quantile_ms(snap: Snapshot, name: str, quantile: str = "p99") -> float | None:
    hist = snap["log_histograms"].get(name)
    return None if hist is None else hist[quantile] * 1000.0


def _wire_bytes_total(snap: Snapshot) -> float | None:
    """Sum of every ``ledger.wire.*.bytes`` counter on a target (all roles,
    frame types, and directions), or ``None`` when the target holds no
    ledger counters (observability off, or nothing served yet)."""
    counts = [
        value
        for name, value in snap.get("counters", {}).items()
        if name.startswith("ledger.wire.") and name.endswith(".bytes")
    ]
    return sum(counts) if counts else None


def _rate(
    current: float | None, before: float | None, interval_s: float
) -> float | None:
    if current is None or before is None or interval_s <= 0:
        return None
    return max(0.0, current - before) / interval_s


def target_row(
    target: str,
    current: Snapshot,
    previous: Snapshot | None,
    interval_s: float,
) -> dict[str, Any]:
    """One target's signal vector from two snapshots (``current`` is ``{}``
    when the target did not answer; with no ``previous`` rates are
    ``None``).  ``None`` marks a series the target does not hold."""
    if not current:
        return {"target": target, "up": False}
    previous = previous or {}
    dispatched = "transport.requests_dispatched"
    shed = "transport.overload_frames_sent"
    wire_rate = _rate(
        _wire_bytes_total(current), _wire_bytes_total(previous), interval_s
    )
    in_flight = _gauge(current, "transport.server.in_flight")
    max_in_flight = _gauge(current, "transport.server.max_in_flight")
    roundtrip = "transport.pipeline.roundtrip.seconds"
    return {
        "target": target,
        "up": True,
        "requests": _counter(current, dispatched),
        "ops_per_s": _rate(
            _counter(current, dispatched), _counter(previous, dispatched), interval_s
        ),
        "wire_bytes": _wire_bytes_total(current),
        "mb_per_s": None if wire_rate is None else wire_rate / 1e6,
        "p50_ms": _quantile_ms(current, roundtrip, "p50"),
        "p99_ms": _quantile_ms(current, roundtrip),
        "service_p99_ms": _quantile_ms(current, "transport.server.service.seconds"),
        "prepare_p99_ms": _quantile_ms(current, "lbl.proxy.prepare.seconds"),
        "queue_depth": in_flight,
        "span_errors": _counter(current, "trace.span_errors"),
        "shed_per_s": _rate(
            _counter(current, shed), _counter(previous, shed), interval_s
        ),
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
        target_row(target, scrape(url), before, interval_s)
        for target, url, before in zip(targets, urls, first)
    ]


def _score_dispatch(signal: Mapping[str, Any]) -> float | None:
    occupancy = signal.get("in_flight_occupancy")
    return None if occupancy is None else min(occupancy / OCCUPANCY_SATURATED, 1.0)


def _dominant_and_slow(part: float, whole: float, saturated_ms: float) -> float:
    """``part``'s share of ``whole``, scaled down until ``part`` is slow too."""
    return part / whole * min(part / saturated_ms, 1.0) if whole else 0.0


def _score_crypto(signal: Mapping[str, Any]) -> float | None:
    prepare = signal.get("prepare_p99_ms")
    service = signal.get("service_p99_ms") or 0.0
    if prepare is None:
        return None
    return _dominant_and_slow(prepare, prepare + service, PREPARE_SATURATED_MS)


def _score_wire(signal: Mapping[str, Any]) -> float | None:
    roundtrip = signal.get("p99_ms")
    busy = (signal.get("service_p99_ms") or 0.0) + (signal.get("prepare_p99_ms") or 0.0)
    if roundtrip is None:
        return None
    return _dominant_and_slow(max(roundtrip - busy, 0.0), roundtrip, WIRE_SATURATED_MS)


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
    signals = collect_signals(targets, interval_s)
    kwargs: dict[str, Any] = {}
    if predicted_ops_per_shard is not None:
        kwargs["predicted_ops_per_shard"] = predicted_ops_per_shard
    diagnosis = diagnose(signals, **kwargs)
    if json_mode:
        write(json.dumps(diagnosis, indent=2, default=str))
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
