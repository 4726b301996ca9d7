"""Smoke tests: every shipped example must run cleanly end to end.

Examples are documentation that executes; letting one rot breaks the
quickstart experience, so they are part of the suite.
"""

import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES_DIR = ROOT / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


def test_examples_directory_is_populated():
    """Every example ships and is listed in the README, and only those."""
    names = {path.name for path in EXAMPLES}
    assert "quickstart.py" in names
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert set(re.findall(r"^\* `(\w+\.py)` — ", readme, re.M)) == names


@pytest.mark.parametrize("example", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs_cleanly(example):
    # As a user runs one from a checkout: PYTHONPATH=src, nothing installed.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, str(example)],
        capture_output=True,
        text=True,
        timeout=180,
        env=env,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip(), "examples must narrate what they show"
    # Failure phrases examples print when an internal check breaks.
    assert "NOT detected" not in completed.stdout
