"""The suite's pytest settings report a failing Hypothesis test as a
failure: the run goes on to the next test and exits 1."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_a_failing_hypothesis_test_fails_alone(tmp_path):
    (tmp_path / "test_sample.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 5\n"
        "\n"
        "def test_passes():\n"
        "    pass\n"
    )
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_sample.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert run.returncode == 1
