"""Randomized invariants, driven by hypothesis-sampled seeds feeding the
reproducible instance generators."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from epmu import formula as fm
from epmu.checker import check, know_blocks, kleene, poss_blocks
from epmu.distinction import (
    compute_gamma,
    distinction,
    insplitting,
    is_distinguished,
    know_op,
    poss_op,
    refine_for_agents,
)
from epmu.errors import FragmentRejected
from epmu.formula import to_positive_form
from epmu.gen import (
    random_epistemic_ff_formula,
    random_plain_formula,
    random_system,
)
from epmu.oracle import eval_tree, gamma_by_runs
from epmu.syntree import build_syntree, check_non_mixing
from epmu.system import bounded_unfold

seeds = st.integers(min_value=0, max_value=10**6)

MODEST = settings(max_examples=40, deadline=None)


@MODEST
@given(seeds)
def test_positive_form_idempotent(seed):
    rng = random.Random(seed)
    f = random_plain_formula(rng, 8, ("p", "q"))
    pf = to_positive_form(f)
    assert to_positive_form(pf) == pf


@MODEST
@given(seeds)
def test_positive_form_preserves_tree_semantics(seed):
    rng = random.Random(seed)
    f = random_epistemic_ff_formula(rng, 2, ("p", "q"), ("a",))
    m = random_system(rng, agents=("a",))
    t = bounded_unfold(m, fm.modal_depth(f) + 1)
    assert eval_tree(t, f).root_holds == eval_tree(t, to_positive_form(f)).root_holds


@MODEST
@given(seeds)
def test_agncl_contained_in_parent(seed):
    rng = random.Random(seed)
    f = to_positive_form(random_epistemic_ff_formula(rng, 2, ("p", "q"), ("a", "b")))
    tree = build_syntree(f)
    for node in tree:
        for child in node.children:
            if not child.closed:
                assert child.agncl <= node.agncl


@MODEST
@given(seeds)
def test_fragment_gate_order_insensitive(seed):
    rng = random.Random(seed)
    f = to_positive_form(random_epistemic_ff_formula(rng, 1, ("p", "q"), ("a", "b")))
    tree = build_syntree(f)
    obs1 = {"a": {p for p in ("p", "q") if rng.random() < 0.5},
            "b": {p for p in ("p", "q") if rng.random() < 0.5}}
    obs2 = {"b": obs1["b"], "a": obs1["a"]}
    assert bool(check_non_mixing(tree, obs1)) == bool(check_non_mixing(tree, obs2))


@MODEST
@given(seeds)
def test_pullback_is_boolean_homomorphism(seed):
    rng = random.Random(seed)
    m = random_system(rng)
    d = distinction(m, "a")
    comp = insplitting(refine_for_agents(m, {"a"}), m)
    full = frozenset(m.states)
    A = frozenset(q for q in m.states if rng.random() < 0.5)
    B = frozenset(q for q in m.states if rng.random() < 0.5)
    pb = comp.pullback
    assert pb(A | B) == pb(A) | pb(B)
    assert pb(A & B) == pb(A) & pb(B)
    assert pb(full - A) == frozenset(comp.source.states) - pb(A)
    assert pb(full) == frozenset(comp.source.states)
    assert pb(frozenset()) == frozenset()
    assert len(d) == len(comp.source)


@MODEST
@given(seeds)
def test_know_poss_monotone_and_dual(seed):
    rng = random.Random(seed)
    m = random_system(rng)
    g = compute_gamma(m, "a")
    full = frozenset(m.states)
    A = frozenset(q for q in m.states if rng.random() < 0.5)
    B = A | frozenset(q for q in m.states if rng.random() < 0.3)
    assert know_op(g, A) <= know_op(g, B)
    assert poss_op(g, A) <= poss_op(g, B)
    assert know_op(g, A) == full - poss_op(g, full - A)


@MODEST
@given(seeds)
def test_partitions_are_gamma(seed):
    """Along a chain of four constructions, every agent a system carries
    blocks for is one it is distinguished for, and the blocks are exactly
    its Γ; K and P over the blocks are the pairs-based operators."""
    rng = random.Random(seed)
    d = random_system(rng, max_states=5, chain_obs=True)
    for _ in range(4):
        agent = rng.choice("ab")
        d = distinction(d, agent)
        assert agent in d.partitions
        for b, blocks in d.partitions.items():
            assert sum(map(len, blocks)) == len(d)
            g = compute_gamma(d, b)
            assert {(i, j) for block in blocks for i in block for j in block} == g.pairs
            assert is_distinguished(d, b)
            S = frozenset(q for q in d.states if rng.random() < 0.5)
            assert know_blocks(blocks, S) == know_op(g, S)
            assert poss_blocks(blocks, S) == poss_op(g, S)


@MODEST
@given(seeds)
def test_check_duality(seed):
    rng = random.Random(seed)
    m = random_system(rng, agents=("a",))
    f = random_plain_formula(rng, 6, ("p", "q"))
    try:
        lhs = check(m, f).holds
        rhs = check(m, fm.Not(f)).holds
    except FragmentRejected:  # pragma: no cover - plain formulas never reject
        pytest.fail("plain formula rejected by the fragment gate")
    assert lhs != rhs


@MODEST
@given(seeds)
def test_gamma_by_runs_antitone(seed):
    rng = random.Random(seed)
    m = random_system(rng, max_states=4)
    prev = None
    for depth in range(4):
        cur = gamma_by_runs(m, "a", depth).pairs
        if prev is not None:
            assert cur <= prev
        prev = cur
    assert compute_gamma(m, "a").pairs <= prev


@MODEST
@given(seeds)
def test_kleene_iteration_bound(seed):
    rng = random.Random(seed)
    m = random_system(rng)
    target = frozenset(q for q in m.states if rng.random() < 0.4)

    from epmu.checker import ex_f

    op = lambda S: target | ex_f(m, S)
    _, iters = kleene(op, frozenset(), len(m))
    assert iters <= len(m) + 1

    op2 = lambda S: target & frozenset(m.states)
    _, iters2 = kleene(op2, frozenset(m.states), len(m))
    assert iters2 <= len(m) + 1


@MODEST
@given(seeds)
def test_verdict_statistics_monotone(seed):
    rng = random.Random(seed)
    m = random_system(rng, agents=("a",))
    f = random_epistemic_ff_formula(rng, 1, ("p", "q"), ("a",))
    v = check(m, to_positive_form(f))
    sizes = v.refinement_sizes
    assert sizes[0] == len(m)
    assert all(x <= y for x, y in zip(sizes, sizes[1:]))
