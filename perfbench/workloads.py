"""Seeded inputs for the benchmark, the query path they run through, and the
independent reference verdicts they are checked against.

Generation is the benchmark's own code and imports nothing from `epmu`, so a
change to the program cannot change the inputs it is measured on.  Every
input is produced as text: system and game files in the `.mas`/`.pg` JSON
formats and formulas in the concrete syntax.  The generators mirror
`epmu.gen.random_system(..., chain_obs=True)` and
`epmu.gen.random_epistemic_ff_formula`, except that the cost factors (state
count, observation pattern, priority count) cycle through fixed ranges
instead of being drawn, so that the whole-set cost varies little between
seeds.  A run's size is set by these parameters alone; no instance is ever
dropped after its cost or verdict is seen.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

ATOMS = ("p", "q", "r")
AGENTS = ("a", "b")


@dataclass(frozen=True)
class Query:
    """One unit of work: text in, verdict out.

    kind is "system" (parse_system + parse_formula + check) or "game"
    (parse_parity_game + parity_encoding + compile_modal + compile_formula,
    written out as text and then checked like a system).
    ref_formula is the fixpoint-free formula the tree oracle evaluates in
    place of formula when formula has a common-knowledge fixpoint.
    """

    qid: int
    kind: str
    text: str
    formula: str = ""
    ref_formula: str = ""


# ---------------------------------------------------------------------------
# Workload parameters.  "full" is what the benchmark measures; "tiny" is the
# self-test size.

PARAMS = {
    "knowledge_chain": {
        "full": {"systems": 3000, "sizes": range(5, 9)},
        "tiny": {"systems": 6, "sizes": range(3, 6)},
    },
    "parity_games": {
        "full": {"games": 720, "sizes": range(8, 13), "priorities": range(4, 7)},
        "tiny": {"games": 3, "sizes": range(3, 6), "priorities": range(2, 5)},
    },
    "small_formulas": {
        "full": {"systems": 600, "formulas_per_system": 10, "sizes": range(1, 5)},
        "tiny": {"systems": 4, "formulas_per_system": 3, "sizes": range(1, 5)},
    },
}

WORKLOADS = tuple(PARAMS)

# Closed nested knowledge (the chain of subset constructions) and common
# knowledge fixpoints (a region refined for both agents, then Kleene
# iteration).  Each fixpoint formula is paired with its reference: under
# nested observation the union of both agents' indistinguishability relations
# closes to the coarser one, so common knowledge of phi is "K x . phi" for the
# agent x that observes less, and the tree oracle can decide it.
CHAIN_FORMULAS = (
    ("K a . K b . K a . K b . p", None),
    ("EX K a . AX K b . p", None),
    ("P b . EX K a . (p | K b . q)", None),
    ("K b . EX P a . AX K b . ~p", None),
    ("AX (nu Z . q & K b . Z & K a . Z)", "AX K {x} . q"),
    ("EX AX C{a,b} r", "EX AX K {x} . r"),
)

# Nested observation patterns (atoms seen by a, atoms seen by b), a's set
# inside b's.  Cycling through them keeps the mix of cheap and expensive
# subset constructions the same for every seed; which atoms fill each
# pattern is drawn.
OBS_PATTERNS = ((0, 1), (1, 1), (1, 2), (0, 2), (1, 3), (2, 3), (0, 3), (2, 2))


def _cycle(values, i):
    values = tuple(values)
    return values[i % len(values)]


def _random_obs(rng, pattern):
    na, nb = pattern
    order = list(ATOMS)
    rng.shuffle(order)
    return {"a": sorted(order[:na]), "b": sorted(order[:nb])}


def _random_system_dict(rng, n, obs):
    """Reachable serial system on states 1..n, edges and labels drawn as in
    epmu.gen.random_system."""
    states = list(range(1, n + 1))
    succ = {q: set(rng.sample(states, rng.randint(1, n))) for q in states}

    def reach_from(q):
        reach.add(q)
        stack = [q]
        while stack:
            for r in succ[stack.pop()]:
                if r not in reach:
                    reach.add(r)
                    stack.append(r)

    reach = set()
    reach_from(1)
    for q in states:
        if q not in reach:
            succ[rng.choice(sorted(reach))].add(q)
            reach_from(q)
    return {
        "states": [
            {"id": q, "atoms": [p for p in ATOMS if rng.random() < 0.4]}
            for q in states
        ],
        "initial": 1,
        "transitions": [[q, r] for q in states for r in sorted(succ[q])],
        "atoms": list(ATOMS),
        "agents": {a: {"obs": obs[a]} for a in AGENTS},
    }


def _coarser_agent(obs):
    return "a" if set(obs["a"]) <= set(obs["b"]) else "b"


def knowledge_chain(seed, size="full"):
    """One formula per system, in rotation: independent systems keep the
    whole-set time steadier between seeds than six queries on each."""
    prm = PARAMS["knowledge_chain"][size]
    rng = random.Random(seed)
    queries = []
    for i in range(prm["systems"]):
        obs = _random_obs(rng, _cycle(OBS_PATTERNS, i))
        text = json.dumps(_random_system_dict(rng, _cycle(prm["sizes"], i), obs))
        formula, ref = _cycle(CHAIN_FORMULAS, i)
        ref = ref.format(x=_coarser_agent(obs)) if ref else ""
        queries.append(Query(i, "system", text, formula, ref))
    return queries


def _random_ff_formula(rng, modal_depth, fuel):
    """Text of a fixpoint-free epistemic formula with at most modal_depth
    nested AX/EX and at most fuel nested operators, drawn as in
    epmu.gen.random_epistemic_ff_formula (which uses fuel = modal_depth + 3)."""

    def go(depth, fuel):
        choices = ["atom", "negatom"]
        if fuel > 0:
            choices += ["and", "or", "know", "poss"] * 2
            if depth > 0:
                choices += ["ax", "ex"] * 2
        kind = rng.choice(choices)
        if kind == "atom":
            return rng.choice(ATOMS)
        if kind == "negatom":
            return "~" + rng.choice(ATOMS)
        if kind in ("and", "or"):
            op = " & " if kind == "and" else " | "
            return "(" + go(depth, fuel - 1) + op + go(depth, fuel - 1) + ")"
        if kind in ("ax", "ex"):
            return ("AX " if kind == "ax" else "EX ") + go(depth - 1, fuel - 1)
        op = "K" if kind == "know" else "P"
        return f"{op} {rng.choice(AGENTS)} . " + go(depth, fuel - 1)

    return go(modal_depth, fuel)


def small_formulas(seed, size="full"):
    """At most four nested operators: with five, about one formula in a few
    thousand stacks enough alternating K/P operators to raise the process's
    peak memory by 10-25 MB, and that one query then decides peak_rss_mb."""
    prm = PARAMS["small_formulas"][size]
    rng = random.Random(seed)
    queries = []
    for i in range(prm["systems"]):
        obs = _random_obs(rng, _cycle(OBS_PATTERNS, i))
        text = json.dumps(_random_system_dict(rng, _cycle(prm["sizes"], i), obs))
        for _ in range(prm["formulas_per_system"]):
            formula = _random_ff_formula(rng, modal_depth=2, fuel=4)
            queries.append(Query(len(queries), "system", text, formula))
    return queries


def _random_game_dict(rng, n, max_priority, shape):
    """Perfect-information concurrent game on states 1..n with one target
    per (state, joint action).  A random spanning tree over the action slots
    makes every state reachable, so n is the game's real size."""
    alphabets = {"e": ["x", "y"], "o": ["u"]} if shape else {"e": ["x"], "o": ["u", "v"]}
    slots = [(x, u) for x in alphabets["e"] for u in alphabets["o"]]
    target = {}
    for r in range(2, n + 1):
        free = [(q, s) for q in range(1, r) for s in slots if (q, s) not in target]
        target[rng.choice(free)] = r
    labels = []
    for q in range(1, n + 1):
        for s in slots:
            labels.append([q, {"e": s[0], "o": s[1]}, target.get((q, s)) or rng.randint(1, n)])
    # every priority 1..max_priority occurs, the rest are drawn
    prios = list(range(1, max_priority + 1))[:n]
    prios += [rng.randint(1, max_priority) for _ in range(n - len(prios))]
    rng.shuffle(prios)
    atoms = [f"s{q}" for q in range(1, n + 1)]
    return {
        "states": [
            {"id": q, "atoms": [f"s{q}"], "priority": prios[q - 1]}
            for q in range(1, n + 1)
        ],
        "initial": 1,
        "atoms": atoms,
        "agents": {"e": {"obs": atoms}, "o": {"obs": atoms}},
        "actions": {"alphabets": alphabets, "labels": labels},
        "players": ["e", "o"],
    }


def parity_games(seed, size="full"):
    prm = PARAMS["parity_games"][size]
    rng = random.Random(seed)
    queries = []
    for i in range(prm["games"]):
        game = _random_game_dict(
            rng, _cycle(prm["sizes"], i), _cycle(prm["priorities"], i), i % 2
        )
        queries.append(Query(i, "game", json.dumps(game)))
    return queries


GENERATORS = {
    "knowledge_chain": knowledge_chain,
    "parity_games": parity_games,
    "small_formulas": small_formulas,
}


def make_queries(workload, seed, size="full"):
    return GENERATORS[workload](seed, size)


# ---------------------------------------------------------------------------
# The measured path


def solve(epmu, q):
    """Decide one query from its text, as `epmu translate parity` followed by
    `epmu check` does for a game and `epmu check` alone for a system.  Every
    call goes through the module attribute so that trace wrappers see it."""
    system_text, formula_text = q.text, q.formula
    if q.kind == "game":
        game = epmu.translate.parse_parity_game(q.text)
        extended, phi = epmu.translate.parity_encoding(game, 0)
        compiled = epmu.translate.compile_modal(extended)
        system_text = json.dumps(epmu.system.system_to_dict(compiled.system))
        formula_text = epmu.formula.pretty(compiled.compile_formula(phi))
    m = epmu.system.parse_system(system_text)
    f = epmu.formula.parse_formula(formula_text, agents=m.agents)
    return epmu.checker.check(m, f).holds


# ---------------------------------------------------------------------------
# Independent references (never epmu.checker)


def reference(epmu, q):
    """Expected verdict from epmu.oracle: Zielonka for games, the
    bounded-tree evaluator for everything else."""
    oracle = epmu.oracle
    if q.kind == "game":
        game = epmu.translate.parse_parity_game(q.text)
        return game.q0 in oracle.parity_oracle(game, 0)
    m = epmu.system.parse_system(q.text)
    f = epmu.formula.parse_formula(q.ref_formula or q.formula, agents=m.agents)
    prefix = epmu.system.bounded_unfold(m, epmu.formula.modal_depth(f))
    return oracle.eval_tree(prefix, f).root_holds
