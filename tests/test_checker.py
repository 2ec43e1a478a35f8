import pytest

from epmu import formula as fm
from epmu.checker import (
    check,
    check_with_sets,
    eval_state_naive,
    ex_f,
    kleene,
    node_set_on_prefix,
)
from epmu.errors import (
    EpmuError,
    FormulaTooDeep,
    FragmentRejected,
    MonotonicityViolated,
    depth_guarded,
)
from epmu.formula import parse_formula, to_positive_form
from epmu.oracle import eval_tree
from epmu.system import MultiAgentSystem, bounded_unfold


class TestCheck:
    def test_ex_knowledge(self, sys2):
        assert check(sys2, parse_formula("EX K a . p")).holds

    def test_ax_knowledge(self, sys2):
        assert not check(sys2, parse_formula("AX K a . p")).holds

    def test_eventually_knowledge(self, sys2):
        assert check(sys2, parse_formula("mu Z . (K a . p) | EX Z")).holds

    def test_fragment_rejection(self, sys1):
        m = MultiAgentSystem(
            list(sys1.states), sys1.q0, list(sys1.delta), list(sys1.atoms),
            dict(sys1.labels), {"a": {"p"}, "b": {"q"}},
        )
        with pytest.raises(FragmentRejected) as e:
            check(m, parse_formula("nu Z . p & K a . Z & K b . Z"))
        w = e.value.witness
        assert {w.agent_a, w.agent_b} == {"a", "b"}

    def test_atom_set(self, sys1):
        _, chain, S = check_with_sets(sys1, parse_formula("q"))
        assert S == {2} and len(chain.systems) == 1

    def test_knowledge_closed_set(self, sys2):
        _, chain, S = check_with_sets(sys2, parse_formula("K a . p"))
        d = chain.final
        assert {d.pair_of[i] for i in S} == {(2, frozenset({2}))}

    def test_least_fixpoint_region(self, sys1):
        # reach a q-state
        verdict, chain, S = check_with_sets(sys1, parse_formula("mu Z . q | EX Z"))
        assert verdict.holds and S == {1, 2}

    def test_greatest_fixpoint_with_poss(self, sys2):
        f = parse_formula("nu Z . p | AX (P a . Z)")
        verdict, chain, _ = check_with_sets(sys2, f)
        # validated independently against the oracle in acceptance tests;
        # here just pin the verdict and the refinement shape
        assert len(chain.final) == 6  # evaluated in the a-refined system
        uf = fm.unfold_fixpoint(to_positive_form(f), 6)
        t = bounded_unfold(sys2, fm.modal_depth(uf))
        assert verdict.holds == eval_tree(t, uf).root_holds

    def test_mu_z_z_empty(self, sys1):
        assert not check(sys1, fm.Mu("Z", fm.Var("Z"))).holds

    def test_duality(self, sys2):
        for text in ["EX K a . p", "mu Z . (K a . p) | EX Z", "nu Z . ~p & AX Z"]:
            f = parse_formula(text)
            assert check(sys2, f).holds != check(sys2, fm.dual(f)).holds

    def test_statistics(self, sys2):
        v = check(sys2, parse_formula("mu Z . (K a . p) | EX Z"))
        assert v.refinement_sizes[0] == 5
        assert all(x <= y for x, y in zip(v.refinement_sizes, v.refinement_sizes[1:]))
        assert v.iteration_counts and all(
            c <= max(v.refinement_sizes) + 1 for c in v.iteration_counts
        )
        assert v.wall_time >= 0

    def test_conjunction_threads_chain(self, sys2):
        # left conjunct refines; right conjunct must see the extended chain
        f = parse_formula("(K a . p | ~p) & EX K a . p")
        assert check(sys2, f).holds


class TestDeepFormulas:
    def test_long_conjunction_names_the_phase(self, sys1):
        f = parse_formula(" & ".join(["p"] * 500))
        with pytest.raises(FormulaTooDeep) as e:
            check(sys1, f)
        assert e.value.phase in ("positive form", "syntax tree", "evaluation")

    def test_depth_guard_names_the_phase(self):
        def dive(n):
            return dive(n + 1)

        with pytest.raises(FormulaTooDeep, match="evaluation phase"):
            depth_guarded("evaluation", dive, 0)

    def test_free_variable_rejected(self, sys1):
        with pytest.raises(EpmuError, match="free fixpoint variables: Z"):
            check(sys1, fm.Or(fm.Atom("p"), fm.Var("Z")))


class TestKleene:
    def test_identity(self):
        result, n = kleene(lambda S: S, frozenset(), 5)
        assert result == frozenset() and n == 1

    def test_constant(self):
        C = frozenset({1, 2})
        result, n = kleene(lambda S: C, frozenset(), 5)
        assert result == C and n == 2

    def test_reachability(self, sys1):
        op = lambda S: frozenset({2}) | ex_f(sys1, S)
        result, _ = kleene(op, frozenset(), len(sys1))
        assert result == {1, 2}

    def test_non_monotone_caught(self):
        flip = lambda S: frozenset() if S else frozenset({1})
        with pytest.raises(MonotonicityViolated):
            kleene(flip, frozenset(), 3)


class TestNaive:
    def test_memoryless_knowledge_differs_from_tree(self, sys2):
        f = to_positive_form(parse_formula("K a . EX p"))
        assert sys2.q0 not in eval_state_naive(sys2, f)
        t = bounded_unfold(sys2, 3)
        assert eval_tree(t, f).root_holds
        assert check(sys2, f).holds  # the full pipeline agrees with the tree

    def test_agrees_on_plain_formulas(self, sys2):
        for text in ["p", "EX p", "AX ~p", "mu Z . p | EX Z"]:
            f = parse_formula(text)
            naive = sys2.q0 in eval_state_naive(sys2, f)
            assert naive == check(sys2, f).holds


class TestNodeProjection:
    def test_projection_matches_oracle(self, sys2):
        f = to_positive_form(parse_formula("K a . p"))
        _, chain, S = check_with_sets(sys2, f)
        depth = 4
        got, all_runs = node_set_on_prefix(chain, S, depth)
        t = bounded_unfold(sys2, depth)
        assert all_runs == set(t.nodes)
        ns = eval_tree(t, f, require_root=False)
        want = {x for x in ns.nodes}
        got_valid = {x for x in got if len(x) - 1 <= ns.valid_depth}
        assert got_valid == want
