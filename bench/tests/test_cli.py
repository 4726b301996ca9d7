"""The command the driver calls: output schema, failure mode, reproducible counts."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench import metrics

ROOT = Path(__file__).resolve().parents[2]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(workload, seed, seconds, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def _result(completed):
    assert completed.returncode == 0, completed.stderr[-2000:]
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_last_line_carries_exactly_the_declared_metrics(trace, section):
    result = _result(_run("tiny_burst", 1, 1, trace))
    declared = {e["name"]: e["unit"] for e in metrics.declared()[section]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float)), name
    if trace == 0:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "bench", tmp_path / "bench",
        ignore=shutil.ignore_patterns("__pycache__", "out"),
    )
    completed = _run("paper_point", 1, 1, 0, cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


def test_unknown_workload_is_refused():
    completed = _run("no_such_workload", 1, 1, 0)
    assert completed.returncode != 0 and completed.stdout.strip() == ""


@pytest.mark.parametrize("seed", [1, 2])
def test_a_seed_reproduces_every_exact_count(seed):
    """2 s smoke runs: same seed, same wire bytes, op counts and cache hit rate."""
    first = _result(_run("zipf_cached", seed, 2, 1))["metrics"]
    second = _result(_run("zipf_cached", seed, 2, 1))["metrics"]
    for name in metrics.EXACT:
        if name in first:
            assert first[name]["value"] == second[name]["value"], name
    assert 0.0 < first["cache.hit_rate"]["value"] < 1.0
    wire = [
        _result(_run("tiny_burst", seed, 1, 0))["metrics"]["wire_bytes_per_op"]["value"]
        for _ in range(2)
    ]
    assert wire[0] == wire[1]
