"""The shipped examples print exactly their committed golden output.

``examples/custom_monitor.py`` is the one caller of a monitor that
overrides only ``handle_event`` (the adapter path of the handler
dispatch), and ``examples/bug_hunt.py`` the one that builds traces from
items; their stdout is committed under ``tests/golden/examples/`` and CI
runs the same diff.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "examples"


@pytest.mark.parametrize("example", ["custom_monitor", "bug_hunt"])
def test_example_prints_its_golden_output(example):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "examples" / f"{example}.py")],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / f"{example}.txt").read_text()
