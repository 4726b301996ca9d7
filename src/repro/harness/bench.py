"""Benchmark trajectory recording and the regression-vs-best gate.

Every gate in ``benchmarks/test_*`` measures something (a speedup ratio,
an overhead fraction) and asserts a floor — but a floor says nothing about
*drift*: a kernel that slid from 5.5x to 3.1x still passes a 3x gate.
:class:`BenchRecorder` keeps the trajectory: each run appends
``(run id, metric, value)`` rows to ``BENCH_history.json`` at the repo
root, and :func:`check_history` fails when the latest run regressed more
than a threshold against the best previous recording of the same metric.

Only *self-relative* metrics (ratios, fractions) should be gated
(``gate=True``): they compare across machines, so a laptop-recorded best
is a fair bar for a CI runner.  Raw ops/sec rows ride along ungated as the
trajectory record.  ``python -m repro bench check`` runs the gate in CI;
with no prior runs to compare it warns instead of failing, so an empty
trajectory bootstraps itself.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
import uuid
from dataclasses import dataclass
from typing import Any

from repro.errors import ConfigurationError

#: Default trajectory file, at the repo root.
DEFAULT_HISTORY = pathlib.Path(__file__).resolve().parents[3] / "BENCH_history.json"

#: Default allowed regression of a gated metric vs the recorded best.
DEFAULT_THRESHOLD = 0.20


def _default_run_id() -> str:
    """CI run id when available, else a timestamped unique id."""
    ci_run = os.environ.get("GITHUB_RUN_ID")
    if ci_run:
        return f"ci-{ci_run}"
    return time.strftime("%Y%m%dT%H%M%S") + "-" + uuid.uuid4().hex[:6]


class BenchRecorder:
    """Appends one run's benchmark metrics to the trajectory file.

    Args:
        path: Trajectory file (created on first record).
        run_id: Identity shared by every metric of one run; defaults to
            the CI run id or a fresh timestamp.
    """

    def __init__(
        self,
        path: pathlib.Path | str = DEFAULT_HISTORY,
        run_id: str | None = None,
    ) -> None:
        self.path = pathlib.Path(path)
        self.run_id = run_id or _default_run_id()

    def record(
        self,
        metric: str,
        value: float,
        *,
        unit: str | None = None,
        higher_is_better: bool = True,
        gate: bool = True,
    ) -> dict[str, Any]:
        """Append one measurement; returns the stored entry.

        ``gate=False`` records the value for the trajectory without it
        participating in :func:`check_history` — use it for raw ops/sec
        and anything else that does not compare across machines.
        """
        entry = {
            "run_id": self.run_id,
            "metric": metric,
            "value": float(value),
            "unit": unit,
            "higher_is_better": bool(higher_is_better),
            "gate": bool(gate),
        }
        history = load_history(self.path)
        history["entries"].append(entry)
        self.path.write_text(
            json.dumps(history, indent=2) + "\n", encoding="utf-8"
        )
        return entry


def load_history(path: pathlib.Path | str = DEFAULT_HISTORY) -> dict[str, Any]:
    """The trajectory file's contents (``{"entries": []}`` when absent)."""
    path = pathlib.Path(path)
    if not path.exists():
        return {"entries": []}
    data = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(data, dict) or not isinstance(data.get("entries"), list):
        raise ConfigurationError(f"{path} is not a BENCH history file")
    return data


def best_value(
    entries: list[dict[str, Any]], metric: str, *, exclude_run: str | None = None
) -> float | None:
    """The best prior recording of ``metric`` (None if never recorded)."""
    values = [
        e["value"]
        for e in entries
        if e["metric"] == metric and e["run_id"] != exclude_run
    ]
    if not values:
        return None
    higher = all(
        e.get("higher_is_better", True) for e in entries if e["metric"] == metric
    )
    return max(values) if higher else min(values)


@dataclass
class GateResult:
    """Verdict of one gated metric in the latest run."""

    metric: str
    value: float
    best: float | None
    regressed: bool
    message: str


def check_history(
    path: pathlib.Path | str = DEFAULT_HISTORY,
    threshold: float = DEFAULT_THRESHOLD,
) -> list[GateResult]:
    """Compare the latest run's gated metrics against the best prior runs.

    Returns one :class:`GateResult` per gated metric of the latest run.
    A metric with no prior recording yields ``regressed=False`` with a
    bootstrap message (warn-only first run); the caller decides the exit
    code from the ``regressed`` flags.
    """
    entries = load_history(path)["entries"]
    if not entries:
        return []
    latest_run = entries[-1]["run_id"]
    results = []
    for entry in entries:
        if entry["run_id"] != latest_run or not entry.get("gate", True):
            continue
        metric, value = entry["metric"], entry["value"]
        best = best_value(entries, metric, exclude_run=latest_run)
        if best is None:
            results.append(
                GateResult(
                    metric, value, None, False,
                    f"{metric}: {value:g} (first recording, nothing to compare)",
                )
            )
            continue
        if entry.get("higher_is_better", True):
            regressed = value < best * (1.0 - threshold)
            direction = "below"
        else:
            regressed = value > best * (1.0 + threshold)
            direction = "above"
        verdict = "REGRESSED" if regressed else "ok"
        results.append(
            GateResult(
                metric, value, best, regressed,
                f"{metric}: {value:g} vs best {best:g} "
                f"({verdict}; fails when >{threshold:.0%} {direction} best)",
            )
        )
    return results


__all__ = [
    "BenchRecorder",
    "GateResult",
    "load_history",
    "best_value",
    "check_history",
    "DEFAULT_HISTORY",
    "DEFAULT_THRESHOLD",
]
