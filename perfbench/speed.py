"""How fast the host runs Python right now, measured next to the work.

The CPU speed of a shared host drifts: a fixed pure-Python loop takes
anywhere from one to three times its quiet-host time, in phases of a second
to minutes, and a run's queries all slow down by the same share.  Each
timing is therefore paired with calibration rounds taken just before and
just after it, and reported as reference seconds: measured seconds times
REF_ROUND_S over the mean calibration round, that is, the time the same
work takes when a calibration round takes REF_ROUND_S.

The calibration round is the benchmark's own code and imports nothing from
`epmu`, so a change to the program cannot change it.  It does what the
program does most (frozensets, dict and set updates, small function calls)
and runs with the garbage collector off, so that objects the program keeps
alive cannot slow it.
"""

from __future__ import annotations

import gc
import time

REF_ROUND_S = 0.0007  # one round on a quiet 2-vCPU host, Python 3.11
ROUNDS = 3  # rounds per sample


def _key(i):
    return frozenset((i % 7, i % 11, i % 13))


def _round():
    seen = {}
    union = set()
    for i in range(1500):
        k = _key(i)
        seen[k] = seen.get(k, 0) + 1
        if i % 50 == 0:
            union |= k
    return len(seen) + len(union)


def sample():
    """Mean seconds of one calibration round, over ROUNDS rounds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        perf = time.perf_counter
        t0 = perf()
        for _ in range(ROUNDS):
            _round()
        return (perf() - t0) / ROUNDS
    finally:
        if enabled:
            gc.enable()


def scale(before, after):
    """Factor that turns seconds measured between two samples into
    reference seconds."""
    return REF_ROUND_S / ((before + after) / 2)
