"""The decision procedure for the non-mixing fragment.

One evaluator, ``evaluate``, gives the state set of a syntactic-tree node
against one of two knowledge backends:

- ``RefinementChain`` evaluates closed nodes.  Each closed K/P extends the
  chain by a subset construction for its agent, and earlier sets are pulled
  back along it, so one chain is threaded left-to-right through the tree.  A
  binder gets a region: its nearest closed descendants are evaluated on the
  chain, which is then refined once for all agents whose epistemic operators
  are non-closed in the body, and their Γ is computed there.
- ``Region`` is a fixed system: pullback is the identity, K/P read its Γs,
  closed nodes read precomputed sets, and nested binders iterate in place.

``eval_state_naive`` runs the evaluator on a region over the input system
with memoryless Γs and no precomputed sets.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import formula as fm
from .distinction import (
    GammaRelation,
    closed_form_gamma,
    compute_gamma,
    distinction,
    know_op,
    poss_op,
    refine_for_agents,
)
from .errors import EpmuError, FragmentRejected, MonotonicityViolated, depth_guarded
from .syntree import build_syntree, check_non_mixing, frontier_nodes
from .system import DEFAULT_CAP, compose_insplitting, identity_insplitting


class RefinementChain:
    """Systems connected by in-splitting steps; systems[0] is the input,
    the last entry is the current finest system.  As a knowledge backend it
    evaluates closed nodes and extends itself at K/P and at binders."""

    fsets = None  # closed nodes are evaluated here, never looked up

    def __init__(self, base, cap=DEFAULT_CAP):
        self.systems = [base]
        self.steps = []  # steps[i]: systems[i+1] -> systems[i]
        self.cap = cap
        self.iteration_counts = []

    @property
    def final(self):
        return self.systems[-1]

    def mark(self):
        """Position token for pull_forward."""
        return len(self.systems)

    def extend(self, insplit):
        if insplit.target is not self.final:
            raise EpmuError("refinement step does not attach to the chain")
        self.steps.append(insplit)
        self.systems.append(insplit.source)

    def pull_forward(self, S, mark):
        """Transport a set over systems[mark-1] to the final system."""
        for i in range(mark - 1, len(self.systems) - 1):
            S = self.steps[i].pullback(S)
        return frozenset(S)

    def composite(self):
        """The in-splitting final -> base."""
        comp = identity_insplitting(self.systems[0])
        for step in self.steps:
            comp = compose_insplitting(comp, step)
        return comp

    def knowledge(self, f, S):
        """A closed K/P: one subset construction for its agent, over which Γ
        has a closed form."""
        d = distinction(self.final, f.agent, cap=self.cap)
        self.extend(d.insplit)
        S = d.insplit.pullback(S)
        gamma = closed_form_gamma(d)
        op = know_op if isinstance(f, fm.Know) else poss_op
        return op(gamma, S)

    def region(self, node):
        """The region of a binder whose body has free variables: evaluate the
        nearest closed descendants, refine once for all non-closed agents of
        the body, and compute their Γ on the refined system."""
        marked = []
        for fn in frontier_nodes(node):
            S = evaluate(fn, self, {})
            marked.append((fn.path, S, self.mark()))
        agents = node.children[0].agncl
        if agents:
            _, comp = refine_for_agents(self.final, agents, cap=self.cap)
            self.extend(comp)
        fsets = {path: self.pull_forward(S, mark) for path, S, mark in marked}
        gammas = {a: compute_gamma(self.final, a, cap=self.cap) for a in agents}
        return Region(self.final, gammas, fsets, self.iteration_counts)


class Region:
    """A fixed system with one Γ per agent.  With fsets (frontier node path
    -> set) closed nodes read their precomputed sets; without, they are
    evaluated in place."""

    def __init__(self, system, gammas, fsets=None, iteration_counts=None):
        self.final = system
        self.gammas = gammas
        self.fsets = fsets
        self.iteration_counts = [] if iteration_counts is None else iteration_counts

    def mark(self):
        return None

    def pull_forward(self, S, mark):
        return S

    def knowledge(self, f, S):
        op = know_op if isinstance(f, fm.Know) else poss_op
        return op(self.gammas[f.agent], S)

    def region(self, node):
        return self


@dataclass
class Verdict:
    holds: bool
    initial_state: object
    refinement_sizes: list
    iteration_counts: list
    wall_time: float


# ---------------------------------------------------------------------------
# State-set operators


def ax_f(m, S):
    S = set(S)
    return frozenset(q for q in m.states if all(r in S for r in m.successors(q)))


def ex_f(m, S):
    S = set(S)
    return frozenset(q for q in m.states if any(r in S for r in m.successors(q)))


def atom_set(m, name):
    return frozenset(q for q in m.states if name in m.label(q))


def kleene(op, seed, bound, mode="lfp"):
    """Iterate a monotone set operator to its least (from the empty set) or
    greatest (from the full set) fixpoint; returns (fixpoint, iterations).

    A monotone operator stabilizes within bound steps; running longer means
    the operand was not monotone, which is an implementation bug.
    """
    cur = frozenset(seed)
    for i in range(bound + 1):
        nxt = frozenset(op(cur))
        if mode == "lfp" and not cur <= nxt:
            raise MonotonicityViolated(f"lfp iterate shrank at step {i}")
        if mode == "gfp" and not nxt <= cur:
            raise MonotonicityViolated(f"gfp iterate grew at step {i}")
        if nxt == cur:
            return cur, i + 1
        cur = nxt
    raise MonotonicityViolated(f"no fixpoint within {bound + 1} iterations")


# ---------------------------------------------------------------------------
# The evaluator


def evaluate(node, kb, env):
    """State set of a syntactic-tree node over kb.final, where kb is a
    RefinementChain or a Region and env maps bound variables to sets."""
    f = node.form
    if node.closed and kb.fsets is not None:
        return kb.fsets[node.path]
    # The branches a Kleene loop visits come before the leaves: on parity
    # games they run millions of times.
    if isinstance(f, fm.Var):
        return env[f.name]
    if isinstance(f, (fm.And, fm.Or)):
        left, right = node.children
        S1 = evaluate(left, kb, env)
        mark = kb.mark()
        S2 = evaluate(right, kb, env)
        S1 = kb.pull_forward(S1, mark)
        return S1 & S2 if isinstance(f, fm.And) else S1 | S2
    if isinstance(f, (fm.AX, fm.EX)):
        S = evaluate(node.children[0], kb, env)
        return ax_f(kb.final, S) if isinstance(f, fm.AX) else ex_f(kb.final, S)
    if isinstance(f, fm.EPISTEMIC):
        return kb.knowledge(f, evaluate(node.children[0], kb, env))
    if isinstance(f, fm.BINDERS):
        region = kb.region(node)
        body = node.children[0]
        seed = frozenset() if isinstance(f, fm.Mu) else frozenset(region.final.states)
        mode = "lfp" if isinstance(f, fm.Mu) else "gfp"

        def op(S):
            return evaluate(body, region, {**env, f.var: S})

        result, iters = kleene(op, seed, len(region.final), mode)
        region.iteration_counts.append(iters)
        return result
    m = kb.final
    if isinstance(f, fm.TrueF):
        return frozenset(m.states)
    if isinstance(f, fm.FalseF):
        return frozenset()
    if isinstance(f, fm.Atom):
        return atom_set(m, f.name)
    if isinstance(f, fm.NegAtom):
        return frozenset(m.states) - atom_set(m, f.name)
    if isinstance(f, (fm.DiamondAct, fm.BoxAct)):
        raise EpmuError("action modalities must be compiled away before checking")
    raise TypeError(f"unexpected node {f!r}")


# ---------------------------------------------------------------------------
# Entry points


def check_with_sets(m, f, cap=DEFAULT_CAP):
    """Full pipeline returning (verdict, chain, final state set)."""
    t0 = time.perf_counter()
    pf = fm.to_positive_form(f)
    tree = build_syntree(pf)
    if not tree.closed:
        raise EpmuError(f"free fixpoint variables: {', '.join(sorted(fm.free_vars(pf)))}")
    gate = check_non_mixing(tree, m.obs)
    if not gate:
        raise FragmentRejected(gate.witness)
    chain = RefinementChain(m, cap)
    S = depth_guarded("evaluation", evaluate, tree, chain, {})
    verdict = Verdict(
        holds=chain.final.q0 in S,
        # belief-set names nest once per subset construction
        initial_state=depth_guarded("evaluation", chain.final.state_name, chain.final.q0),
        refinement_sizes=[len(s) for s in chain.systems],
        iteration_counts=list(chain.iteration_counts),
        wall_time=time.perf_counter() - t0,
    )
    return verdict, chain, S


def check(m, f, cap=DEFAULT_CAP):
    """Decide whether the unfolding of m satisfies the closed formula f."""
    verdict, _, _ = check_with_sets(m, f, cap=cap)
    return verdict


def node_set_on_prefix(chain, S, depth):
    """Transport the final state set to tree nodes of the base system: the
    depth-bounded prefixes of the fine and base unfoldings are isomorphic, so
    each fine run projects to exactly one base run."""
    comp = chain.composite()
    fine = chain.final
    out = set()
    seen = set()
    level = [(fine.q0,)]
    for _ in range(depth + 1):
        next_level = []
        for run in level:
            base_run = tuple(comp.chi[q] for q in run)
            if base_run in seen:
                raise EpmuError("prefix projection is not injective")
            seen.add(base_run)
            if run[-1] in S:
                out.add(base_run)
            if len(run) <= depth:
                next_level.extend(run + (r,) for r in fine.successors(run[-1]))
        level = next_level
    return out, seen


def eval_state_naive(m, f, cap=DEFAULT_CAP):
    """Refinement-free state-based semantics: epistemic operators use the
    memoryless observational equivalence on states (same currently visible
    atoms), with no subset construction anywhere.  Forgets run history, hence
    unsound under perfect recall; tests use it as the negative witness for
    the commutation requirement."""
    tree = build_syntree(fm.to_positive_form(f))
    gammas = {}
    for a in {n.form.agent for n in tree if isinstance(n.form, fm.EPISTEMIC)}:
        pairs = frozenset(
            (q, r)
            for q in m.states
            for r in m.states
            if m.obs_label(q, a) == m.obs_label(r, a)
        )
        gammas[a] = GammaRelation(a, m, pairs)
    return depth_guarded("evaluation", evaluate, tree, Region(m, gammas), {})
