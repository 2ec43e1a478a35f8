"""Seeded random instances for property tests, acceptance suites, and the
experiment scripts.  Everything is driven by an explicit random.Random so
runs are reproducible from a seed."""

from __future__ import annotations

import itertools

from . import formula as fm
from .system import MultiAgentSystem
from .translate import LabeledSystem


def random_system(rng, max_states=5, atoms=("p", "q", "r"), agents=("a", "b"), chain_obs=False):
    """A reachable serial system with random labels and observabilities.

    With chain_obs the observable sets are nested (first agent's set inside
    the second's, and so on)."""
    n = rng.randint(1, max_states)
    states = list(range(1, n + 1))
    delta = set()
    for q in states:
        succs = rng.sample(states, rng.randint(1, n))
        for r in succs:
            delta.add((q, r))
    # keep everything reachable from 1: close over what 1 reaches, then wire
    # each state still unreached in from a reached one and close over it
    reach = set()
    for q in states:
        if q in reach:
            continue
        if reach:
            delta.add((rng.choice(sorted(reach)), q))
        reach.add(q)
        frontier = [q]
        while frontier:
            x = frontier.pop()
            for q2, r in delta:
                if q2 == x and r not in reach:
                    reach.add(r)
                    frontier.append(r)
    labels = {q: frozenset(p for p in atoms if rng.random() < 0.4) for q in states}
    if chain_obs:
        obs = {}
        cur = set()
        for a in agents:
            cur = cur | {p for p in atoms if rng.random() < 0.5}
            obs[a] = set(cur)
    else:
        obs = {a: {p for p in atoms if rng.random() < 0.5} for a in agents}
    return MultiAgentSystem(states, 1, delta, atoms, labels, obs)


def random_plain_formula(rng, size, atoms):
    """A closed plain mu-calculus formula with at most `size` operators."""

    def go(budget, scope):
        choices = ["atom", "negatom", "true", "false"]
        if scope:
            choices.append("var")
        if budget > 1:
            choices += ["and", "or", "ax", "ex", "mu", "nu"] * 2
        kind = rng.choice(choices)
        if kind == "atom":
            return fm.Atom(rng.choice(atoms)), 1
        if kind == "negatom":
            return fm.NegAtom(rng.choice(atoms)), 1
        if kind == "true":
            return fm.TRUE, 1
        if kind == "false":
            return fm.FALSE, 1
        if kind == "var":
            return fm.Var(rng.choice(sorted(scope))), 1
        if kind in ("and", "or"):
            l, nl = go((budget - 1) // 2 + 1, scope)
            r, nr = go(budget - 1 - nl, scope)
            return (fm.And if kind == "and" else fm.Or)(l, r), nl + nr + 1
        if kind in ("ax", "ex"):
            c, nc = go(budget - 1, scope)
            return (fm.AX if kind == "ax" else fm.EX)(c), nc + 1
        var = f"Z{len(scope) + 1}"
        c, nc = go(budget - 1, scope | {var})
        return (fm.Mu if kind == "mu" else fm.Nu)(var, c), nc + 1

    f, _ = go(size, frozenset())
    return f


def random_epistemic_ff_formula(rng, modal_depth, atoms, agents):
    """Fixpoint-free epistemic formula of bounded AX/EX nesting."""

    def go(depth, fuel):
        choices = ["atom", "negatom"]
        if fuel > 0:
            choices += ["and", "or", "know", "poss"] * 2
            if depth > 0:
                choices += ["ax", "ex"] * 2
        kind = rng.choice(choices)
        if kind == "atom":
            return fm.Atom(rng.choice(atoms))
        if kind == "negatom":
            return fm.NegAtom(rng.choice(atoms))
        if kind in ("and", "or"):
            return (fm.And if kind == "and" else fm.Or)(
                go(depth, fuel - 1), go(depth, fuel - 1)
            )
        if kind in ("ax", "ex"):
            return (fm.AX if kind == "ax" else fm.EX)(go(depth - 1, fuel - 1))
        return (fm.Know if kind == "know" else fm.Poss)(
            rng.choice(agents), go(depth, fuel - 1)
        )

    return go(modal_depth, modal_depth + 3)


def random_single_binder_formula(rng, atoms, agents=()):
    """One mu/nu binder whose body actually uses the bound variable."""
    var = "Z"

    def body(fuel):
        if fuel <= 1:
            return rng.choice([fm.AX(fm.Var(var)), fm.EX(fm.Var(var))])
        kind = rng.choice(["and", "or", "ax", "ex"] + (["know", "poss"] if agents else []))
        leaf = rng.choice(
            [fm.Atom(rng.choice(atoms)), fm.NegAtom(rng.choice(atoms))]
        )
        if kind in ("and", "or"):
            return (fm.And if kind == "and" else fm.Or)(leaf, body(fuel - 1))
        if kind in ("ax", "ex"):
            return (fm.AX if kind == "ax" else fm.EX)(body(fuel - 1))
        return (fm.Know if kind == "know" else fm.Poss)(
            rng.choice(agents), body(fuel - 1)
        )

    binder = rng.choice([fm.Mu, fm.Nu])
    return binder(var, body(rng.randint(1, 3)))


def small_game_family(count, rng, max_states=3, actions=("x", "y")):
    """Deterministic two-player labeled games for the until-instance suite:
    random total transition functions with random p1/p2 labels and a random
    observable subset for the acting agent."""
    games = []
    while len(games) < count:
        n = rng.randint(1, max_states)
        states = list(range(1, n + 1))
        na0 = rng.randint(1, len(actions))
        nopp = rng.randint(1, len(actions))
        alphabets = {"a0": list(actions[:na0]), "opp": list(actions[:nopp])}
        trans = []
        for q in states:
            for alpha in alphabets["a0"]:
                for beta in alphabets["opp"]:
                    r = rng.choice(states)
                    trans.append((q, {"a0": alpha, "opp": beta}, r))
        atoms = ["p1", "p2"]
        labels = {
            q: {p for p in atoms if rng.random() < 0.45} for q in states
        }
        obs = {
            "a0": {p for p in atoms if rng.random() < 0.5},
            "opp": set(),
        }
        g = LabeledSystem(states, 1, trans, atoms, labels, obs, alphabets)
        games.append(g)
    return games


def exhaustive_tiny_games():
    """All 2-state deterministic games with one a0 action and two opponent
    replies, over all p1/p2 labelings of state 2 (state 1 always has p1)."""
    out = []
    states = [1, 2]
    for t1u, t1v, t2u, t2v in itertools.product(states, repeat=4):
        for lab2 in [set(), {"p1"}, {"p2"}, {"p1", "p2"}]:
            trans = [
                (1, {"a0": "x", "opp": "u"}, t1u),
                (1, {"a0": "x", "opp": "v"}, t1v),
                (2, {"a0": "x", "opp": "u"}, t2u),
                (2, {"a0": "x", "opp": "v"}, t2v),
            ]
            g = LabeledSystem(
                states,
                1,
                trans,
                ["p1", "p2"],
                {1: {"p1"}, 2: set(lab2)},
                {"a0": set(), "opp": set()},
                {"a0": ["x"], "opp": ["u", "v"]},
            )
            out.append(g)
    return out
