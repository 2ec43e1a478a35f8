import hashlib
import random

import pytest

from epmu import checker
from epmu import formula as fm
from epmu.checker import (
    ax_f,
    check,
    check_with_sets,
    eval_state_naive,
    ex_f,
    kleene,
    node_set_on_prefix,
)
from epmu.distinction import distinction
from epmu.errors import (
    EpmuError,
    FormulaTooDeep,
    FragmentRejected,
    MonotonicityViolated,
    depth_guarded,
)
from epmu.formula import parse_formula, to_positive_form
from epmu.oracle import eval_tree
from epmu.gen import random_system
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


def _kernel_systems():
    """Seeded random systems, one and two subset constructions over them,
    and a system with a deadlocked state."""
    rng = random.Random(7)
    out = []
    for _ in range(30):
        m = random_system(rng, max_states=7, chain_obs=True)
        d = distinction(m, "b")
        out += [m, d, distinction(d, "a")]
    out.append(MultiAgentSystem([1, 2, 3], 1, [(1, 2), (1, 3), (3, 3)], ["p"], {}, {"a": []}))
    return out


class TestModalKernels:
    """ax_f/ex_f against their definitions over successors(q)."""

    @staticmethod
    def subsets(m, rng):
        yield frozenset()
        yield frozenset(m.states)
        for _ in range(8):
            yield frozenset(q for q in m.states if rng.random() < 0.5)

    def test_succ_sets_match_successors(self):
        for m in _kernel_systems():
            assert [q for q, _ in m.succ_sets] == list(m.states)
            for q, rs in m.succ_sets:
                assert rs == frozenset(m.successors(q))
            assert m.succ_sets is m.succ_sets  # cached

    def test_against_definition(self):
        rng = random.Random(11)
        systems = _kernel_systems()
        # a deadlocked state is vacuously in AX S and never in EX S
        assert any(m.deadlocks() for m in systems)
        for m in systems:
            for S in self.subsets(m, rng):
                want_ax = {q for q in m.states if all(r in S for r in m.successors(q))}
                want_ex = {q for q in m.states if any(r in S for r in m.successors(q))}
                for arg in (S, set(S), sorted(S)):
                    assert ax_f(m, arg) == want_ax
                    assert ex_f(m, arg) == want_ex
                    assert type(ax_f(m, arg)) is frozenset
                    assert type(ex_f(m, arg)) is frozenset


class TestRegionMemo:
    """A region returns a node's stored set while its free variables keep
    their values, and never stores a binder or a node above one."""

    def test_outer_only_subterm_evaluated_once_per_outer_step(self, sys1, monkeypatch):
        calls = []

        def counting_ax_f(m, S):
            calls.append(S)
            return ax_f(m, S)

        monkeypatch.setattr(checker, "ax_f", counting_ax_f)
        v = check(sys1, parse_formula("nu X . mu Y . (q & AX X) | EX Y"))
        assert v.holds and v.iteration_counts == [3, 3, 2]
        inner, outer = v.iteration_counts[:-1], v.iteration_counts[-1]
        # AX X mentions only X: one call per outer step, not per inner one
        assert len(calls) == outer < sum(inner)

    # (formula, random_system seed, holds, refinement_sizes, iteration_counts),
    # computed before regions had a memo.  The innermost binder never
    # mentions Y, so a memoised binder, or a memoised node above it, would
    # skip inner loops and shorten the counts.
    THREE_BINDERS = [
        (
            "nu X . mu Y . (mu Z . (p & X) | EX Z) | (q & EX Y)",
            40, True, [8], [5, 5, 2, 5, 5, 2, 2],
        ),
        (
            "nu X . mu Y . (q & AX (mu Z . (p & X) | EX Z)) | EX Y",
            40, True, [8], [5, 5, 5, 3, 5, 5, 5, 3, 2],
        ),
        (
            "nu X . mu Y . (q & P a . (mu Z . (r & X) | EX Z)) | EX Y",
            45, True, [5, 5], [3, 3, 3, 3, 4, 4, 4, 3, 2],
        ),
    ]

    @pytest.mark.parametrize("text,seed,holds,sizes,iters", THREE_BINDERS)
    def test_every_kleene_loop_runs(self, text, seed, holds, sizes, iters):
        m = random_system(random.Random(seed), max_states=8, chain_obs=True)
        v = check(m, parse_formula(text))
        assert (v.holds, v.refinement_sizes, v.iteration_counts) == (holds, sizes, iters)


class TestChainDigest:
    """The results of the knowledge_chain formula shapes on 300 seeded
    systems, pinned by one sha256 computed while Γ was still held as pairs:
    holding it as blocks, and copying a construction for an agent the
    system is already distinguished for, must change none of them."""

    DIGEST = "521edb147c1c55027e0403dd31a239c075edbcf8387c97b9a61424a318c286df"

    def test_digest(self):
        from test_golden import CHAIN_FORMULAS

        h = hashlib.sha256()
        for seed in range(300):
            m = random_system(random.Random(seed), max_states=8, chain_obs=True)
            for text in CHAIN_FORMULAS:
                v, _, S = check_with_sets(m, parse_formula(text))
                shape = (v.holds, v.refinement_sizes, v.iteration_counts, v.initial_state, sorted(S))
                h.update(repr(shape).encode())
        assert h.hexdigest() == self.DIGEST
