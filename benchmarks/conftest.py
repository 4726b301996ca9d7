"""Shared helpers for the figure-reproduction benchmarks.

Each benchmark regenerates one paper table/figure, renders it as text, and
saves it under ``results/`` (pytest captures stdout, so the files are the
durable record; EXPERIMENTS.md is written from them).  A benchmark's gate
is the floor it asserts; ``BENCHMARK.json`` is the repo's one performance
record.
"""

from __future__ import annotations

import pathlib

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


def save_table(name: str, text: str) -> None:
    """Persist a rendered table and echo it (visible with ``pytest -s``)."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    print(f"\n{text}\n[saved to {path}]")
