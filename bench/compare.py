#!/usr/bin/env python3
"""Do two full reports of ``bench/run.py --out`` agree?

    python3 bench/compare.py bench/out/set1.json bench/out/set2.json

Every end-to-end metric must differ by no more than its own bound in either
direction, and for reports of one seed and window length every exact count
must be equal.  A set with a run marked
noisy (the host changed regime inside a window) should be re-run, not
compared; a pair whose mean canary times differ by more than 10 % ran under
different host conditions, which the reference-speed scaling is there to
absorb, so that is only noted.  Exit code 0 = agree, 1 = disagree,
2 = a set is noisy.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench import metrics, stats  # noqa: E402 - needs the path entry above

CANARY_PAIR_LIMIT = 0.10


def compare(first: dict, second: dict) -> tuple[list[str], list[str], list[str]]:
    """Return ``(disagreements, noisy runs, notes)`` between two reports."""
    bounds = {e["name"]: e for e in metrics.declared()["end_to_end"]}
    disagreements, noise, notes = [], [], []
    # Counts repeat exactly only for the same inputs and the same window.
    same_inputs = (first["seed"], first["seconds"]) == (second["seed"], second["seconds"])
    for workload, a in first["workloads"].items():
        b = second["workloads"].get(workload)
        if b is None or "end_to_end" not in a or "end_to_end" not in b:
            disagreements.append(f"{workload}: missing from one report")
            continue
        if a.get("noisy") or b.get("noisy"):
            noise.append(f"{workload}: a run is marked noisy")
        canaries = [r["diagnostics"]["host.canary_ms"] for r in (a, b)]
        if abs(canaries[0] - canaries[1]) / min(canaries) > CANARY_PAIR_LIMIT:
            notes.append(f"{workload}: canary {canaries[0]:.2f} vs {canaries[1]:.2f} ms")
        for name, entry in bounds.items():
            x, y = a["end_to_end"][name], b["end_to_end"][name]
            worse = max(
                stats.worsening(x, y, entry["better"]),
                stats.worsening(y, x, entry["better"]),
            )
            if worse > entry["bound"]:
                disagreements.append(
                    f"{workload}.{name}: {x:.6g} vs {y:.6g} "
                    f"differ by {worse:.3f} > bound {entry['bound']}"
                )
        for section in ("end_to_end", "layers") if same_inputs else ():
            for name in metrics.EXACT:
                if name in a.get(section, {}) and a[section][name] != b[section][name]:
                    disagreements.append(
                        f"{workload}.{name}: exact count {a[section][name]} "
                        f"vs {b[section][name]}"
                    )
    return disagreements, noise, notes


def main(argv: list[str]) -> int:
    """Compare the two report files named on the command line."""
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    reports = []
    for path in argv:
        with open(path) as handle:
            reports.append(json.load(handle))
    disagreements, noise, notes = compare(*reports)
    for line in notes:
        print(f"NOTE   {line}")
    for line in noise:
        print(f"NOISY  {line}")
    for line in disagreements:
        print(f"DIFFER {line}")
    if noise:
        return 2
    if disagreements:
        return 1
    print("the two sets agree within every metric's bound; exact counts are equal")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
