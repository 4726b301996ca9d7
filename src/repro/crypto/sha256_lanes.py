"""Stub left behind by the deleted SHA-256 lane engine."""

from __future__ import annotations

# ``bench/run.py --trace 1`` reads this for the per-layer metric
# ``crypto.lanes_threshold``, and ``bench/`` + ``BENCHMARK.json`` were closed
# to the PR that deleted the engine.  The benchmark PR of ROADMAP 3(e) drops
# that metric and deletes this file with it.


def calibrate(force: bool = False) -> int:
    """``0``: no batch size routes to lanes; every batch hashes with ``hashlib``."""
    return 0
