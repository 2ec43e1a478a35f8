import ast
import random
import re
from pathlib import Path

import pytest

import epmu.oracle

from epmu import formula as fm
from epmu.distinction import compute_gamma
from epmu.errors import CapacityExceeded, DepthInsufficient, EpmuError, UnknownAgent, UnknownAtom
from epmu.formula import parse_formula, to_positive_form
from epmu.gen import random_system
from epmu.oracle import (
    eval_tree,
    gamma_by_runs,
    parity_oracle,
    reachability_strategy_oracle,
)
from epmu.system import MultiAgentSystem, bounded_unfold
from epmu.translate import LabeledSystem, ParityGame


class TestEvalTree:
    def test_free_variable_refused(self, sys2):
        t = bounded_unfold(sys2, 2)
        with pytest.raises(EpmuError, match="the tree oracle needs a closed formula"):
            eval_tree(t, fm.And(fm.Atom("p"), fm.Var("Z")))

    def test_knowledge_of_next(self, sys2):
        t = bounded_unfold(sys2, 2)
        assert eval_tree(t, parse_formula("K a . EX p")).root_holds

    def test_ax_knowledge_fails(self, sys2):
        t = bounded_unfold(sys2, 2)
        ns = eval_tree(t, parse_formula("AX K a . p"))
        assert not ns.root_holds
        # the failure comes from node 1.3: its class {1.3} misses p
        inner = eval_tree(t, parse_formula("K a . p"), require_root=False)
        assert (1, 2) in inner.nodes and (1, 3) not in inner.nodes

    def test_true_is_all_nodes(self, sys1):
        t = bounded_unfold(sys1, 3)
        ns = eval_tree(t, fm.TRUE)
        assert ns.nodes == frozenset(t.nodes)

    def test_valid_depth_trimming(self, sys1):
        t = bounded_unfold(sys1, 3)
        ns = eval_tree(t, parse_formula("EX q"))
        assert ns.valid_depth == 2
        assert all(len(x) - 1 <= 2 for x in ns.nodes)

    def test_depth_insufficient(self, sys1):
        t = bounded_unfold(sys1, 1)
        with pytest.raises(DepthInsufficient):
            eval_tree(t, parse_formula("AX AX p"))

    def test_rejects_fixpoints(self, sys1):
        t = bounded_unfold(sys1, 2)
        with pytest.raises(EpmuError):
            eval_tree(t, parse_formula("mu Z . p | EX Z"))

    def test_level_completeness(self, sys2):
        # membership at every valid depth agrees with a per-level re-check:
        # complement of the result within a level is exactly the non-members
        t = bounded_unfold(sys2, 4)
        ns = eval_tree(t, to_positive_form(parse_formula("K a . ~p")))
        for d in range(ns.valid_depth + 1):
            level = set(t.by_depth[d])
            members = {x for x in ns.nodes if len(x) - 1 == d}
            for cls in t.sim_classes("a", d).values():
                ok = all("p" not in t.system.label(y[-1]) for y in cls)
                for x in cls:
                    assert (x in members) == ok
            assert members <= level

    def test_knowledge_is_class_invariant(self, sys2):
        t = bounded_unfold(sys2, 4)
        ns = eval_tree(t, to_positive_form(parse_formula("K a . ~p")), require_root=False)
        for d in range(ns.valid_depth + 1):
            for cls in t.sim_classes("a", d).values():
                inside = [x in ns.nodes for x in cls]
                assert all(inside) or not any(inside)


def _deadlock_system(rng):
    """A random system of up to 5 states in which some states may have no
    successor."""
    n = rng.randint(1, 5)
    states = list(range(n))
    delta = [(q, r) for q in states for r in states if rng.random() < 0.35]
    labels = {q: {a for a in ("p", "q") if rng.random() < 0.5} for q in states}
    return MultiAgentSystem(states, 0, delta, ["p", "q"], labels, {"a": {"p"}})


def _modal_formula(rng, depth):
    if depth == 0 or rng.random() < 0.2:
        return rng.choice([fm.Atom("p"), fm.Atom("q"), fm.NegAtom("p"), fm.TRUE, fm.FALSE])
    kind = rng.choice([fm.AX, fm.EX, fm.AX, fm.EX, fm.And, fm.Or, fm.Not])
    if kind in (fm.And, fm.Or):
        return kind(_modal_formula(rng, depth - 1), _modal_formula(rng, depth - 1))
    return kind(_modal_formula(rng, depth - 1))


def _scan_eval(prefix, g):
    """Tree semantics with AX/EX read from each node's children."""
    nodes = frozenset(prefix.nodes)
    if isinstance(g, fm.TrueF):
        return nodes
    if isinstance(g, fm.FalseF):
        return frozenset()
    if isinstance(g, (fm.Atom, fm.NegAtom)):
        S = frozenset(x for x in nodes if g.name in prefix.system.labels[x[-1]])
        return S if isinstance(g, fm.Atom) else nodes - S
    if isinstance(g, fm.Not):
        return nodes - _scan_eval(prefix, g.child)
    if isinstance(g, (fm.And, fm.Or)):
        S1, S2 = _scan_eval(prefix, g.left), _scan_eval(prefix, g.right)
        return S1 & S2 if isinstance(g, fm.And) else S1 | S2
    S = _scan_eval(prefix, g.child)
    if isinstance(g, fm.AX):
        return frozenset(x for x in nodes if all(y in S for y in _children(prefix, x)))
    return frozenset(x for x in nodes if any(y in S for y in _children(prefix, x)))


def _children(prefix, x):
    """The runs that extend x by one step, if x is above the last level."""
    if len(x) > prefix.depth:
        return []
    return [x + (r,) for r in prefix.system.successors(x[-1])]


class TestEvalTreeModal:
    def test_ax_ex_match_a_scan_of_the_children(self):
        rng = random.Random(23)
        dead = 0
        for _ in range(150):
            m = _deadlock_system(rng)
            dead += bool(m.deadlocks())
            t = bounded_unfold(m, rng.randint(0, 4))
            for _ in range(8):
                f = _modal_formula(rng, 4)
                ns = eval_tree(t, f, require_root=False)
                want = _scan_eval(t, f)
                assert ns.nodes == {x for x in want if len(x) - 1 <= ns.valid_depth}
                assert ns.root_holds == ((m.q0,) in want)
        assert dead > 50


class TestGammaByRuns:
    def test_sys1_saturation(self, sys1):
        g = gamma_by_runs(sys1, "a", 4)
        assert g.pairs == compute_gamma(sys1, "a").pairs

    def test_sys2_asymmetry(self, sys2):
        g = gamma_by_runs(sys2, "a", 5)
        assert (5, 4) in g and (4, 5) not in g

    def test_depth_zero_single_state(self):
        m = MultiAgentSystem([1], 1, [(1, 1)], ["p"], {}, {"a": {"p"}})
        g = gamma_by_runs(m, "a", 0)
        assert g.pairs == {(1, 1)}

    def test_antitone_in_depth(self):
        rng = random.Random(4)
        for _ in range(10):
            m = random_system(rng)
            prev = None
            for d in range(0, 5):
                cur = gamma_by_runs(m, "a", d).pairs
                if prev is not None:
                    assert cur <= prev
                prev = cur
            assert compute_gamma(m, "a").pairs <= prev


def one_step_game(win):
    """Single a0 action from q0; lands on a p2-state iff win."""
    lab2 = {"p2"} if win else set()
    return LabeledSystem(
        [1, 2], 1,
        [(1, {"a0": "x", "b": "u"}, 2), (2, {"a0": "x", "b": "u"}, 2)],
        ["p1", "p2"], {1: {"p1"}, 2: lab2},
        {"a0": set(), "b": set()}, {"a0": ["x"], "b": ["u"]},
    )


class TestStrategyOracle:
    def test_one_step_win(self):
        assert reachability_strategy_oracle(one_step_game(True), "a0", "p1", "p2")

    def test_objective_unreachable(self):
        assert not reachability_strategy_oracle(one_step_game(False), "a0", "p1", "p2")

    def test_imperfect_information_loses_where_perfect_wins(self):
        # opponent splits q0 into two look-alike states that demand opposite
        # actions; with full observation the choice is easy
        def build(obs):
            return LabeledSystem(
                [1, 2, 3, 4, 5], 1,
                [
                    (1, {"a0": "x", "b": "u"}, 2),
                    (1, {"a0": "x", "b": "v"}, 3),
                    (1, {"a0": "y", "b": "u"}, 5),
                    (1, {"a0": "y", "b": "v"}, 5),
                    (2, {"a0": "x", "b": "u"}, 4), (2, {"a0": "x", "b": "v"}, 4),
                    (2, {"a0": "y", "b": "u"}, 5), (2, {"a0": "y", "b": "v"}, 5),
                    (3, {"a0": "y", "b": "u"}, 4), (3, {"a0": "y", "b": "v"}, 4),
                    (3, {"a0": "x", "b": "u"}, 5), (3, {"a0": "x", "b": "v"}, 5),
                    (4, {"a0": "x", "b": "u"}, 4), (4, {"a0": "x", "b": "v"}, 4),
                    (4, {"a0": "y", "b": "u"}, 4), (4, {"a0": "y", "b": "v"}, 4),
                    (5, {"a0": "x", "b": "u"}, 5), (5, {"a0": "x", "b": "v"}, 5),
                    (5, {"a0": "y", "b": "u"}, 5), (5, {"a0": "y", "b": "v"}, 5),
                ],
                ["p1", "p2", "s2", "s3"],
                {1: {"p1"}, 2: {"p1", "s2"}, 3: {"p1", "s3"}, 4: {"p2"}, 5: set()},
                {"a0": set(obs), "b": set()},
                {"a0": ["x", "y"], "b": ["u", "v"]},
            )

        blind = build([])
        sighted = build(["s2", "s3"])
        assert not reachability_strategy_oracle(blind, "a0", "p1", "p2")
        assert reachability_strategy_oracle(sighted, "a0", "p1", "p2")

    def test_more_than_14_beliefs_exceed_the_cap(self):
        # a blind walk down a chain of 16 states: one belief per state
        g = LabeledSystem(
            range(16), 0,
            [(q, {"a0": "x", "b": "u"}, min(q + 1, 15)) for q in range(16)],
            ["p1", "p2"], {}, {"a0": set(), "b": set()}, {"a0": ["x"], "b": ["u"]},
        )
        with pytest.raises(CapacityExceeded, match="count 16 exceeds cap 14 during strategy enumeration"):
            reachability_strategy_oracle(g, "a0", "p1", "p2")

    def test_action_without_transition_loses(self):
        # y has no transition from 1, and x leads to a sink without p1/p2:
        # choosing y is not a way to win
        g = LabeledSystem(
            [1, 2], 1,
            [(1, {"a0": "x", "b": "u"}, 2), (2, {"a0": "x", "b": "u"}, 2),
             (2, {"a0": "y", "b": "u"}, 2)],
            ["p1", "p2"], {1: {"p1"}, 2: set()},
            {"a0": set(), "b": set()}, {"a0": ["x", "y"], "b": ["u"]},
        )
        assert not reachability_strategy_oracle(g, "a0", "p1", "p2")


def loop_game(priority):
    return ParityGame(
        [1], 1,
        [(1, {"e": "x", "o": "u"}, 1)],
        ["s1"], {1: {"s1"}}, {"e": {"s1"}, "o": {"s1"}},
        {"e": ["x"], "o": ["u"]},
        priority={1: priority}, players=("e", "o"),
    )


class TestParityOracle:
    def test_even_selfloop_wins(self):
        assert parity_oracle(loop_game(2)) == {1}

    def test_odd_selfloop_loses(self):
        assert parity_oracle(loop_game(1)) == frozenset()

    def test_controlled_entry_to_even_state(self):
        # from state 1 (priority 1) the even player chooses to move to the
        # priority-2 state and stay there
        g = ParityGame(
            [1, 2], 1,
            [
                (1, {"e": "x", "o": "u"}, 2),
                (1, {"e": "y", "o": "u"}, 1),
                (2, {"e": "x", "o": "u"}, 2),
                (2, {"e": "y", "o": "u"}, 2),
            ],
            ["s1", "s2"], {1: {"s1"}, 2: {"s2"}},
            {"e": {"s1", "s2"}, "o": {"s1", "s2"}},
            {"e": ["x", "y"], "o": ["u"]},
            priority={1: 1, 2: 2}, players=("e", "o"),
        )
        assert parity_oracle(g) == {1, 2}

    @staticmethod
    def opponent_controls(players=("e", "o")):
        # o chooses whether to stay in the odd state
        return ParityGame(
            [1, 2], 1,
            [
                (1, {"e": "x", "o": "u"}, 2),
                (1, {"e": "x", "o": "v"}, 1),
                (2, {"e": "x", "o": "u"}, 1),
                (2, {"e": "x", "o": "v"}, 1),
            ],
            ["s1", "s2"], {1: {"s1"}, 2: {"s2"}},
            {"e": {"s1", "s2"}, "o": {"s1", "s2"}},
            {"e": ["x"], "o": ["u", "v"]},
            priority={1: 1, 2: 2}, players=players,
        )

    def test_state_without_a_playable_action_loses(self):
        # state 2 has no transition, so a play that reaches it goes on in the
        # odd sink: neither state wins for either player, though both are even
        g = ParityGame(
            [1, 2], 1, [(1, {"e": "x", "o": "u"}, 2)],
            [], {}, {"e": set(), "o": set()}, {"e": ["x"], "o": ["u"]},
            priority={1: 2, 2: 2}, players=("e", "o"),
        )
        assert parity_oracle(g, 0) == parity_oracle(g, 1) == frozenset()

    def test_opponent_controls(self):
        # the even player loses
        assert parity_oracle(self.opponent_controls()) == frozenset()

    @pytest.mark.parametrize("index", [-1, 2, True, False, 1.0, "0", None])
    def test_player_index_is_0_or_1(self, index):
        with pytest.raises(EpmuError, match=f"^player index {re.escape(repr(index))} is not 0 or 1$"):
            parity_oracle(loop_game(2), index)

    def test_index_1_is_the_second_player(self):
        assert parity_oracle(self.opponent_controls(), 1) == {1, 2}
        assert parity_oracle(self.opponent_controls(("o", "e")), 0) == {1, 2}


class TestUndeclaredNames:
    """An undeclared atom or agent raises the checker's error, not a
    KeyError or a silent answer."""

    @pytest.mark.parametrize("text", ["typo", "EX ~typo", "K a . typo", "AX (p | typo)"])
    def test_atom_in_eval_tree(self, sys1, text):
        with pytest.raises(UnknownAtom, match="^unknown atom: typo$"):
            eval_tree(bounded_unfold(sys1, 2), parse_formula(text))

    @pytest.mark.parametrize("text", ["K z . p", "EX P z . ~q"])
    def test_agent_in_eval_tree(self, sys1, text):
        with pytest.raises(UnknownAgent, match="^unknown agent: z$"):
            eval_tree(bounded_unfold(sys1, 2), parse_formula(text))

    @pytest.mark.parametrize("depth", [0, 2])
    def test_agent_in_gamma_by_runs_and_sim_classes(self, sys1, depth):
        with pytest.raises(UnknownAgent, match="^unknown agent: z$"):
            gamma_by_runs(sys1, "z", depth)
        with pytest.raises(UnknownAgent, match="^unknown agent: z$"):
            bounded_unfold(sys1, 2).sim_classes("z", depth)


def test_oracle_imports_nothing_from_the_checker():
    """The oracle is the cross-check, so within the package it reads only
    formulas, errors and systems, at module level or inside a function."""
    tree = ast.parse(Path(epmu.oracle.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                imported.add(node.module)
            else:
                imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("epmu"):
            imported.add(node.module.partition(".")[2] or "epmu")
        elif isinstance(node, ast.Import):
            imported.update(
                a.name.partition(".")[2] or "epmu" for a in node.names if a.name.startswith("epmu")
            )
    assert imported == {"formula", "errors", "system"}
