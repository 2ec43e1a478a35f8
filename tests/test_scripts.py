"""The demo scripts run end to end: both import checker and distinction
internals, so a refactor that breaks them shows here."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(name):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name)],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_blowup_demo():
    r = _run("blowup_demo.py")
    assert r.returncode == 0, r.stderr
    assert "refinement sizes along the chain: [5, 9, 16, 44]" in r.stdout
    assert "CapacityExceeded" in r.stdout


def test_crosscheck_demo():
    r = _run("crosscheck_demo.py")
    assert r.returncode == 0, r.stderr
    assert "all cross-checks passed" in r.stdout
