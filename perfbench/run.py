#!/usr/bin/env python3
"""Seeded end-to-end and per-layer benchmark of `epmu check`.

    python3 perfbench/run.py --workload knowledge_chain --seed 1 --seconds 20 --trace 0

A query is the whole path from text to verdict: parse the system (or parity
game, then encode and compile it), parse the formula, check.  The workload
runs in a child process, one query at a time, pass after pass over a fixed
seeded instance set until --seconds are used.  Every verdict is compared
with an `epmu.oracle` reference computed afterwards, outside the timing.
Times are reference seconds: measured seconds scaled by the host's speed,
sampled next to the work (speed.py).

--trace 0 prints the end-to-end metrics; --trace 1 wraps each layer's public
functions, prints the per-layer metrics and writes the spans of one traced
pass to perfbench/out/.  The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Exit status is 0 when every verdict matched, 1 when one did not, and 2 when
the run could not be made (no result line is printed then).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracing import METRICS as LAYER_METRICS  # noqa: E402

DEADLINE_S = 170  # the whole run, set-up and references included
SETUP_ROUNDS = 8  # set-up-only processes, besides the measuring one


class RunError(Exception):
    """The benchmark could not be run; no result is printed."""


def _worker(args, extra, timeout):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--size", args.size, *extra,
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as e:  # run() has killed and reaped it
        raise RunError(f"worker exceeded {timeout:.0f} s") from e
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RunError(f"worker failed ({proc.returncode}):\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _import_epmu():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import epmu
        import epmu.formula  # noqa: F401
        import epmu.oracle  # noqa: F401
        import epmu.system  # noqa: F401
        import epmu.translate  # noqa: F401
    except ImportError as e:
        raise RunError(f"cannot import epmu from {ROOT / 'src'}: {e}") from e
    return epmu


def _quantile(values, q):
    """Nearest-rank quantile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def _per_query(passes, key="ref_times"):
    """Each query's median time over the passes that reached it."""
    return [
        statistics.median(t for t in ts if t is not None)
        for ts in zip(*(p[key] for p in passes))
    ]


def measure(args):
    t_start = time.perf_counter()
    queries = workloads.make_queries(args.workload, args.seed, args.size)

    def set_up(rounds):
        for _ in range(rounds):
            s = _worker(args, ["--setup-only"], DEADLINE_S - (time.perf_counter() - t_start))
            setups.append((s["import_s"] + s["generate_s"]) * s["setup_scale"])

    # Half the set-ups before the measuring process and half after it, so
    # that they sample the host at two moments half a minute apart.
    setups = []
    set_up(SETUP_ROUNDS // 2)
    spans_out = HERE / "out" / f"{args.workload}-spans.jsonl.gz"
    extra = ["--spans-out", str(spans_out)] if args.trace else []
    res = _worker(args, extra, DEADLINE_S - (time.perf_counter() - t_start))
    setups.append((res["import_s"] + res["generate_s"]) * res["setup_scale"])
    set_up(SETUP_ROUNDS - SETUP_ROUNDS // 2)
    if res["queries"] != len(queries):
        raise RunError("worker generated a different instance set")

    epmu = _import_epmu()
    t_ref = time.perf_counter()
    refs = "".join("1" if workloads.reference(epmu, q) else "0" for q in queries)
    ref_s = time.perf_counter() - t_ref

    all_passes = res["passes"] + res.get("traced", [])
    attempted = sum(len(p["verdicts"]) - p["verdicts"].count("-") for p in all_passes)
    failed = sum(p["verdicts"].count("E") for p in all_passes)
    agree = sum(v == r for p in all_passes for v, r in zip(p["verdicts"], refs))
    mismatched = attempted - failed - agree

    per_query = _per_query(res["passes"])
    lines = [
        f"workload {args.workload} seed {args.seed} size {args.size}: "
        f"{len(queries)} queries x {len(res['passes'])} untraced"
        + (f" + {len(res['traced'])} traced" if args.trace else "")
        + " passes",
        f"ops_failed {failed}/{attempted}  verdict mismatches {mismatched}/{attempted}"
        f"  (references {ref_s:.2f} s, not timed)",
    ]
    lines += [f"  {qid}: {msg}" for qid, msg in res["errors"].items()]

    if not args.trace:
        metrics = {
            "solve_s": (sum(per_query), "s"),
            "check_s.p50": (_quantile(per_query, 0.5), "s"),
            "check_s.p90": (_quantile(per_query, 0.9), "s"),
            "verdicts_ok": (agree / attempted, "ratio"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (res["peak_rss_kb"] / 1024, "MB"),
        }
        lines.append(
            f"solve_s sums each query's median pass; percentiles over "
            f"{len(per_query)} per-query times; setup_s is the median of "
            f"{len(setups)} set-ups; all in reference seconds"
        )
        lines.append(f"wall-clock solve_s {sum(_per_query(res['passes'], 'times')):.6g} s")
    else:
        traced = res["traced"]
        metrics = {}
        # A span does not line up with the speed samples, so a pass's layer
        # times are scaled by the pass's ratio of reference to measured time.
        scales = [sum(t["ref_times"]) / sum(t["times"]) for t in traced]
        for name, (unit, *_rest) in LAYER_METRICS.items():
            vals = [t["layers"][name] for t in traced]
            # counts repeat exactly pass after pass; times take the fastest
            if unit == "s":
                metrics[name] = (min(v * k for v, k in zip(vals, scales)), unit)
            else:
                metrics[name] = (vals[0], unit)
        traced_solve = sum(_per_query(traced))
        metrics["trace.solve_s"] = (traced_solve, "s")
        metrics["trace.overhead_s"] = (traced_solve - sum(per_query), "s")
        for name, reason in traced[0]["missing"].items():
            lines.append(f"absent {name}: {reason}")
        lines.append(f"spans of the first traced pass: {spans_out.relative_to(ROOT)}")

    for name, (value, unit) in metrics.items():
        lines.append(f"{name:28s} {value:.6g} {unit}")
    result = {
        "correct": mismatched == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return lines, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny is the self-test's instance set")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    try:
        lines, result = measure(args)
    except RunError as e:
        print(f"benchmark not run: {e}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
