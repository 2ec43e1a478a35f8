"""One workload in one process: import epmu, generate the inputs, then decide
every query in a closed loop (one client, one query at a time, no threads)
pass after pass until the time is up.  Every chunk of about CHUNK_S of work
lies between two speed samples (speed.py), which turn its queries' seconds
into reference seconds.  Prints one JSON object on stdout.

Started by run.py with the repository's src/ on PYTHONPATH; not meant to be
run by hand.
"""

from __future__ import annotations

import argparse
import gzip
import json
import random
import resource
import time
from pathlib import Path

import speed

SETUP_BEFORE = speed.sample()
T_START = time.perf_counter()
import epmu  # noqa: E402
import epmu.checker  # noqa: E402,F401
import epmu.formula  # noqa: E402,F401
import epmu.system  # noqa: E402,F401
import epmu.translate  # noqa: E402,F401

IMPORT_S = time.perf_counter() - T_START

import workloads  # noqa: E402


CHUNK_S = 0.05  # query time between two speed samples


def run_pass(queries, order, tracer=None, deadline=None):
    """Decide the queries once each, in the given order, stopping at the
    first chunk boundary past deadline.  Returns the per-query seconds and
    reference seconds (None for a query not reached), the verdict string
    (1/0 per query, E for a query that raised, - for one not reached) and
    the errors by query id, indexed like queries."""
    n = len(queries)
    times, ref_times, verdicts, errors = [None] * n, [None] * n, ["-"] * n, {}
    perf = time.perf_counter
    chunk, before = [], speed.sample()

    def close_chunk():
        nonlocal chunk, before
        after = speed.sample()
        factor = speed.scale(before, after)
        for j in chunk:
            ref_times[j] = times[j] * factor
        chunk, before = [], after

    t_chunk = perf()
    for i in order:
        q = queries[i]
        rec = tracer.root(q.qid) if tracer else None
        t0 = perf()
        try:
            verdicts[i] = "1" if workloads.solve(epmu, q) else "0"
        except Exception as e:  # counted under ops_failed, the loop goes on
            verdicts[i] = "E"
            errors[q.qid] = f"{type(e).__name__}: {e}"
        times[i] = perf() - t0
        if rec:
            tracer.close(rec)
        chunk.append(i)
        if perf() - t_chunk >= CHUNK_S:
            close_chunk()
            if deadline is not None and perf() >= deadline:
                break
            t_chunk = perf()
    if chunk:
        close_chunk()
    return {"times": times, "ref_times": ref_times, "verdicts": "".join(verdicts)}, errors


def orders(n, seed):
    """The first pass in generation order, each later one shuffled, so that
    a query's repeats fall at unrelated moments of the run."""
    rng = random.Random(seed)
    order = list(range(n))
    yield list(order)
    while True:
        rng.shuffle(order)
        yield list(order)


def write_spans(path, tracer, header):
    path.parent.mkdir(parents=True, exist_ok=True)
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    with gzip.open(path, "wt") as out:
        out.write(json.dumps(header) + "\n")
        for name, start, end, parent, qid in tracer.spans:
            out.write(f'["{name}",{start - t0:.9f},{end - t0:.9f},{parent},{qid}]\n')


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", type=Path)
    args = ap.parse_args()

    t0 = time.perf_counter()
    queries = workloads.make_queries(args.workload, args.seed, args.size)
    generate_s = time.perf_counter() - t0
    out = {
        "import_s": IMPORT_S, "generate_s": generate_s, "queries": len(queries),
        "setup_scale": speed.scale(SETUP_BEFORE, speed.sample()),
    }
    if args.setup_only:
        print(json.dumps(out))
        return

    # A traced run spends half its time untraced, to measure the overhead.
    # The first pass is whole; a later untraced one stops at the deadline.
    t_loop = time.perf_counter()
    deadline = t_loop + (args.seconds / 2 if args.trace else args.seconds)
    passes, errors = [], {}
    order = orders(len(queries), args.seed)
    while not passes or time.perf_counter() < deadline:
        p, errs = run_pass(queries, next(order), deadline=deadline if passes else None)
        passes.append(p)
        errors.update(errs)
    out["passes"] = passes

    if args.trace:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        uninstall = tracer.install()
        traced = []
        try:
            while not traced or time.perf_counter() - t_loop < args.seconds:
                tracer.reset()
                p, errs = run_pass(queries, next(order), tracer)
                errors.update(errs)
                p["layers"], p["missing"] = layer_metrics(
                    tracer.self_times(), tracer.counts, tracer.absent, tracer.failed_counters
                )
                traced.append(p)
                if len(traced) == 1 and args.spans_out:
                    write_spans(
                        args.spans_out, tracer,
                        {"workload": args.workload, "seed": args.seed,
                         "fields": ["name", "start_s", "end_s", "parent", "query"],
                         "counts": dict(tracer.counts)},
                    )
        finally:
            uninstall()
        out["traced"] = traced

    out["errors"] = {str(k): v for k, v in sorted(errors.items())[:20]}
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))


if __name__ == "__main__":
    main()
