"""Tests for the command-line interface."""

import json

import pytest

from repro import obs
from repro.cli import EXPERIMENTS, main


def test_list_shows_every_experiment(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out


def test_run_table2(capsys):
    assert main(["run", "table2"]) == 0
    out = capsys.readouterr().out
    assert "oregon" in out and "21.84" in out


def test_run_figure6(capsys):
    assert main(["run", "figure6"]) == 0
    out = capsys.readouterr().out
    assert "storage_factor" in out


def test_run_unknown_experiment(capsys):
    assert main(["run", "figure99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_run_with_out_file(tmp_path, capsys):
    out_file = tmp_path / "table.txt"
    assert main(["run", "dollar_cost", "--out", str(out_file)]) == 0
    assert "usd_per_request" in out_file.read_text()
    assert str(out_file) in capsys.readouterr().out


def test_demo(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "read back: b'world'" in out
    assert "op type hidden" in out


def test_cost(capsys):
    assert main(["cost"]) == 0
    assert "storage_gb" in capsys.readouterr().out


def test_missing_command_exits():
    with pytest.raises(SystemExit):
        main([])


def test_run_csv_format(capsys):
    assert main(["run", "table2", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "location,rtt_ms"
    assert "oregon,21.84" in out


def test_reproduce_writes_all_tables(tmp_path, capsys, monkeypatch):
    """Run the reproduce-all driver against fast stand-in experiments."""
    import repro.cli as cli

    fast = {
        "table2": cli.EXPERIMENTS["table2"],
        "figure6": cli.EXPERIMENTS["figure6"],
        "dollar_cost": cli.EXPERIMENTS["dollar_cost"],
    }
    monkeypatch.setattr(cli, "EXPERIMENTS", fast)
    out_dir = tmp_path / "repro-out"
    assert cli.main(["reproduce", "--out", str(out_dir)]) == 0
    for name in fast:
        assert (out_dir / f"{name}.txt").exists()
    assert "all 3 experiments" in capsys.readouterr().out


def test_reproduce_reports_failures(tmp_path, capsys, monkeypatch):
    import repro.cli as cli

    def boom():
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(
        cli, "EXPERIMENTS", {"broken": (boom, "always fails")}
    )
    assert cli.main(["reproduce", "--out", str(tmp_path / "o")]) == 1
    assert "FAILED" in capsys.readouterr().err


def test_run_json_output_parses(capsys):
    assert main(["run", "table2", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert isinstance(rows, list) and rows
    assert any(row.get("location") == "oregon" for row in rows)


def test_run_obs_json_writes_span_bundle(tmp_path, capsys):
    out = tmp_path / "obs.json"
    assert main(["run", "table2", "--obs-json", str(out)]) == 0
    bundle = json.loads(out.read_text())
    assert bundle["experiment"] == "table2"
    assert set(bundle) >= {"clock", "spans", "metrics"}
    assert "wrote" in capsys.readouterr().out
    # Capture is torn back down after the run.
    assert not obs.is_enabled()


def test_obs_command_passes_on_honest_protocol(capsys):
    """The default audit runs over two process-backed shards."""
    assert main(["obs", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "2 process-backed shard(s)" in out
    assert "obliviousness audit: PASS" in out
    for path in ("access", "access_pipelined", "access_batch"):
        for claim in ("one round trip", "shape identity, frames", "ROR-RW"):
            assert f"[ok  ] {path} / {claim}: " in out
        assert f"[n/a ] {path} / shape identity, storage: not observed" in out
    # The shards' counters are pulled back and printed with this process's.
    assert "lbl.server.decrypt_attempts" in out


def test_obs_command_fails_on_leaky_control(tmp_path, capsys):
    bundle_path = tmp_path / "leaky.json"
    code = main(
        ["obs", "--keys", "16", "--seed", "0", "--leaky", "--json", str(bundle_path)]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "obliviousness audit: FAIL" in out
    assert "[LEAK] access / shape identity, storage" in out
    bundle = json.loads(bundle_path.read_text())
    assert bundle["protocol"] == "lbl-ortoa-leaky"
    assert bundle["audit"]["passed"] is False


def test_log_level_flag_accepted(capsys):
    assert main(["--log-level", "debug", "list"]) == 0
    assert "table2" in capsys.readouterr().out
