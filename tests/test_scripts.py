"""Smoke tests: the example scripts run end to end on the current API."""

import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _run(script, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_michelson_report(tmp_path):
    csv_path = tmp_path / "sweep.csv"
    proc = _run("michelson_report.py", "--sweep-csv", str(csv_path))
    assert proc.returncode == 0, proc.stderr
    assert len(csv_path.read_text().splitlines()) == 201  # header + 200 rows
    assert "('q_out', 'p_in')" in proc.stdout


def test_feedback_design_demo():
    proc = _run("feedback_design_demo.py", "--starts", "1")
    assert proc.returncode == 0, proc.stderr
    found = re.search(r"^(\d+) certified candidates", proc.stdout, re.M)
    assert found and int(found.group(1)) >= 1
