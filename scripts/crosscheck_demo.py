#!/usr/bin/env python3
"""Cross-validate the symbolic checker against the brute-force oracles on
seeded random instances and print a one-line tally per suite.

Usage: python3 scripts/crosscheck_demo.py [--seed N] [--count N]
"""

import argparse
import random
import time

from epmu.checker import check
from epmu.distinction import compute_gamma, distinction, is_distinguished
from epmu.formula import modal_depth, to_positive_form
from epmu.gen import (
    exhaustive_tiny_games,
    random_epistemic_ff_formula,
    random_plain_formula,
    random_system,
    small_game_family,
)
from epmu.oracle import eval_tree, reachability_strategy_oracle
from epmu.system import bounded_unfold
from epmu.translate import atl_until_instance, compile_modal


def timed(label, fn):
    t0 = time.perf_counter()
    n = fn()
    print(f"{label:<42} {n:>4} instances agree  ({time.perf_counter() - t0:.2f}s)")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--count", type=int, default=50)
    args = ap.parse_args()
    rng = random.Random(args.seed)

    def verdicts_vs_tree():
        n = 0
        for _ in range(args.count):
            m = distinction(random_system(rng, max_states=3, agents=("a",)), "a")
            assert is_distinguished(m, "a")
            f = to_positive_form(
                random_epistemic_ff_formula(rng, 2, ("p", "q"), ("a",))
            )
            t = bounded_unfold(m, modal_depth(f))
            assert check(m, f).holds == eval_tree(t, f).root_holds
            n += 1
        return n

    def plain_invariance():
        n = 0
        for _ in range(args.count):
            m = random_system(rng, max_states=4)
            f = random_plain_formula(rng, 6, ("p", "q", "r"))
            assert check(m, f).holds == check(distinction(m, "a"), f).holds
            n += 1
        return n

    def gamma_reflexive():
        n = 0
        for _ in range(args.count):
            m = random_system(rng)
            g = compute_gamma(m, "a")
            assert all((q, q) in g.pairs for q in m.states)
            n += 1
        return n

    def until_games():
        games = exhaustive_tiny_games() + small_game_family(10, rng)
        for g in games:
            mp, phi = atl_until_instance(g, "a0", "p1", "p2")
            c = compile_modal(mp)
            got = check(c.system, c.compile_formula(phi)).holds
            assert got == reachability_strategy_oracle(g, "a0", "p1", "p2")
        return len(games)

    timed("checker vs tree oracle (distinguished)", verdicts_vs_tree)
    timed("plain verdicts invariant under refinement", plain_invariance)
    timed("knowledge-transfer relation reflexive", gamma_reflexive)
    timed("until translation vs strategy search", until_games)
    print("all cross-checks passed")


if __name__ == "__main__":
    main()
