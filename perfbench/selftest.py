#!/usr/bin/env python3
"""Smoke test of the benchmark itself: every workload once at the tiny size,
untraced and traced, plus one run where the program is missing.

    python3 perfbench/selftest.py

Checks that the result line has exactly the contract's keys, that every
end-to-end metric of BENCHMARK.json is printed with its unit, that all
verdicts match the oracle, that the traced run reports every per-layer
metric (or names it absent with a reason), and that a directory holding only
the benchmark fails without printing a result.  Exits 1 on the first
failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd, workload, trace):
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
        "--seconds", "1", "--trace", str(trace), "--size", "tiny",
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(proc, expected, workload):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    absent = {ln.split()[1].rstrip(":") for ln in lines if ln.startswith("absent ")}
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in expected}, sorted(set(metrics) ^ {m["name"] for m in expected})
    for m in expected:
        got = metrics[m["name"]]
        assert set(got) == {"value", "unit"}, got
        assert got["unit"] == m["unit"], (m, got)
        assert isinstance(got["value"], (int, float)), got
    return metrics, absent


def main():
    for w in SPEC["workloads"]:
        name = w["name"]
        metrics, _ = check_result(run(ROOT, name, 0), SPEC["end_to_end"], name)
        assert metrics["verdicts_ok"]["value"] == 1.0, metrics
        assert all(metrics[m]["value"] > 0 for m in metrics), metrics
        layers, absent = check_result(run(ROOT, name, 1), SPEC["per_layer"], name)
        assert layers["checker.chain_length"]["value"] > 0 or "checker.chain_length" in absent
        print(f"ok  {name}: {len(metrics)} end-to-end and {len(layers)} per-layer metrics"
              + (f", absent: {sorted(absent)}" if absent else ""))

    # Without the program the benchmark must fail and print no result.
    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    try:
        proc = run(bare, SPEC["workloads"][0]["name"], 0)
        assert proc.returncode != 0, proc.stdout
        assert '"correct"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare)
    print("ok  without src/: exit", proc.returncode, "and no result")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as e:
        print(f"FAIL: {e}", file=sys.stderr)
        sys.exit(1)
