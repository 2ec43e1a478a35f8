"""Exact refinement chains, pinned to recorded values.

Other tests bound the chain (sizes grow, iteration counts stay below the
region size) or compare verdicts with an oracle; these pin it exactly.  A
change in how the chain is threaded through the tree, how a fixpoint region
is refined, or how Kleene iteration runs shows up here as a changed number
even when every verdict stays right.
"""

import random
import runpy
from pathlib import Path

import pytest

from epmu import check, eval_state_naive, parse_formula
from epmu.gen import random_system
from epmu.translate import ParityGame, compile_modal, parity_encoding

ROOT = Path(__file__).resolve().parents[1]

# The formula shapes of the knowledge_chain benchmark workload: closed nested
# knowledge, and common-knowledge fixpoints refined for both agents.
CHAIN_FORMULAS = (
    "K a . K b . K a . K b . p",
    "EX K a . AX K b . p",
    "P b . EX K a . (p | K b . q)",
    "K b . EX P a . AX K b . ~p",
    "AX (nu Z . q & K b . Z & K a . Z)",
    "EX AX C{a,b} r",
)

N1 = "((1,{1}),{(1,{1})})"
N2 = "(((1,{1}),{(1,{1})}),{((1,{1}),{(1,{1})})})"
N4 = "((((1,{1}),{(1,{1})}),{((1,{1}),{(1,{1})})}),{(((1,{1}),{(1,{1})}),{((1,{1}),{(1,{1})})})})"

# (system seed, formula index, holds, refinement_sizes, iteration_counts,
# initial_state); systems are random_system(Random(seed), max_states=8,
# chain_obs=True) at seeds whose chains grow at more than one step.
CHAIN_GOLDEN = [
    (4, 0, True, [4, 6, 8, 8, 8], [], N4),
    (4, 1, False, [4, 6, 8], [], N1),
    (4, 2, False, [4, 6, 8, 8], [], N2),
    (4, 3, False, [4, 6, 8, 8], [], N2),
    (4, 4, False, [4, 8], [2], N1),
    (4, 5, False, [4, 8], [3], N1),
    (5, 0, True, [5, 7, 10, 10, 10], [], N4),
    (5, 1, False, [5, 7, 10], [], N1),
    (5, 2, False, [5, 7, 10, 10], [], N2),
    (5, 3, False, [5, 7, 10, 10], [], N2),
    (5, 4, False, [5, 10], [3], N1),
    (5, 5, False, [5, 10], [3], N1),
    (11, 0, False, [8, 12, 22, 22, 22], [], N4),
    (11, 1, False, [8, 12, 22], [], N1),
    (11, 2, True, [8, 12, 22, 22], [], N2),
    (11, 3, True, [8, 12, 22, 22], [], N2),
    (11, 4, False, [8, 22], [3], N1),
    (11, 5, True, [8, 22], [2], N1),
]


def _system(seed):
    return random_system(random.Random(seed), max_states=8, chain_obs=True)


def _shape(verdict):
    v = verdict
    return v.holds, v.refinement_sizes, v.iteration_counts, v.initial_state


@pytest.mark.parametrize("seed,index,holds,sizes,iters,initial", CHAIN_GOLDEN)
def test_chain_formula_shape(seed, index, holds, sizes, iters, initial):
    v = check(_system(seed), parse_formula(CHAIN_FORMULAS[index]))
    assert _shape(v) == (holds, sizes, iters, initial)


def test_blowup_demo_shape():
    demo = runpy.run_path(str(ROOT / "scripts" / "blowup_demo.py"))
    v = check(demo["SYSTEM"], parse_formula(demo["FORMULA"]))
    assert _shape(v) == (True, [5, 9, 16, 44], [3, 3, 3], N2)


def _game(priority, targets):
    """A perfect-information game over states 1..n: targets[q] lists the
    successor for the moves (x,u), (x,v), (y,u), (y,v)."""
    states = sorted(priority)
    alphabets = {"e": ["x", "y"], "o": ["u", "v"]}
    moves = [(a, b) for a in alphabets["e"] for b in alphabets["o"]]
    trans = [
        (q, {"e": a, "o": b}, targets[q][i])
        for q in states
        for i, (a, b) in enumerate(moves)
    ]
    atoms = [f"s{q}" for q in states]
    labels = {q: {f"s{q}"} for q in states}
    obs = {"e": set(atoms), "o": set(atoms)}
    return ParityGame(states, 1, trans, atoms, labels, obs, alphabets,
                      priority=priority, players=("e", "o"))


# Nested alternating binders: priorities 1..4 and 2..5.
PARITY_GOLDEN = [
    (
        _game({1: 1, 2: 2, 3: 4}, {1: (2, 3, 1, 3), 2: (1, 2, 3, 3), 3: (1, 1, 2, 3)}),
        (True, [10, 12], [3, 1, 3, 1, 2, 1], "((1;i),{(1;i)})"),
    ),
    (
        _game(
            {1: 3, 2: 5, 3: 2, 4: 4},
            {1: (2, 3, 4, 1), 2: (1, 3, 2, 4), 3: (4, 4, 1, 2), 4: (1, 2, 3, 4)},
        ),
        (False, [14, 14], [2] * 63, "((1;i),{(1;i)})"),
    ),
]


@pytest.mark.parametrize("game,expected", PARITY_GOLDEN, ids=["p1-4", "p2-5"])
def test_parity_encoding_shape(game, expected):
    ext, phi = parity_encoding(game, 0)
    c = compile_modal(ext)
    assert _shape(check(c.system, c.compile_formula(phi))) == expected


NAIVE_FORMULAS = (
    "mu Z . (K a . p) | EX Z",
    "nu Z . ~r & AX (K b . Z)",
    "nu Z . p | AX (P a . Z)",
    "mu X . (nu Y . (K b . q & EX X) | (r & AX Y)) | P a . p",
    "nu Z . (q | r) & EX (P b . Z)",
)

# (system seed, formula index, eval_state_naive set)
NAIVE_GOLDEN = [
    (5, 0, []),
    (5, 1, []),
    (5, 2, [1, 2, 3, 4, 5]),
    (5, 3, [1, 2, 3, 4, 5]),
    (5, 4, [2, 3, 4, 5]),
    (11, 0, [1, 2, 3, 4, 5, 6, 7, 8]),
    (11, 1, []),
    (11, 2, [1, 2, 3, 4, 5, 6, 7, 8]),
    (11, 3, [2, 3, 4, 5, 7, 8]),
    (11, 4, [1, 2, 3, 4, 5, 6, 7]),
]


@pytest.mark.parametrize("seed,index,states", NAIVE_GOLDEN)
def test_naive_sets(seed, index, states):
    got = eval_state_naive(_system(seed), parse_formula(NAIVE_FORMULAS[index]))
    assert sorted(got) == states
