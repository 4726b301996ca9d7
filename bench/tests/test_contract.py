"""``BENCHMARK.json`` keeps to the driver's contract."""

import re

from bench import metrics

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_top_level_keys_command_and_paths():
    doc = metrics.declared()
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert doc["paths"] == ["bench"]
    assert doc["command"] == ["python3", "bench/run.py"]
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    # 4 + 22 runs per workload, each with its set-up, inside the driver's cap.
    runs = 4 + 22 * len(doc["workloads"])
    assert runs * (doc["run_seconds"] + 14) <= 3420


def test_metric_entries_are_well_formed_and_names_unique():
    doc = metrics.declared()
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = []
    for entry in doc["workloads"]:
        assert set(entry) == {"name", "why"}
        names.append(entry["name"])
    for entry in doc["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 <= entry["bound"] <= 0.25
        names.append(entry["name"])
    for entry in doc["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
        names.append(entry["name"])
    for entry in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("higher", "lower")
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))


def test_setup_time_is_gated_with_the_largest_bound():
    entries = {e["name"]: e for e in metrics.declared()["end_to_end"]}
    setup = entries["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(e["bound"] for e in entries.values())


def test_exact_metrics_are_declared():
    doc = metrics.declared()
    declared = {e["name"] for e in doc["end_to_end"] + doc["per_layer"]}
    assert set(metrics.EXACT) <= declared
