"""The decision procedure for the non-mixing fragment.

One evaluator, ``evaluate``, gives the state set of a syntactic-tree node
against one of two knowledge backends:

- ``RefinementChain`` evaluates closed nodes.  Each closed K/P extends the
  chain by a subset construction for its agent, and earlier sets are pulled
  back along it, so one chain is threaded left-to-right through the tree.  A
  binder gets a region: its nearest closed descendants are evaluated on the
  chain, which is then refined once for all agents whose epistemic operators
  are non-closed in the body, and their Γ is taken there.
- ``Region`` is a fixed system: pullback is the identity, K/P read its Γs,
  and nested binders iterate in place.  It carries a memo from each node to
  the values of the node's free variables and the set they gave.  Since the
  system and the Γs are fixed, a node whose variables have the same values
  has the same set, so the evaluator returns the stored one.  The frontier
  sets the chain hands over are entries with an empty key.  A node that is
  or holds a binder is never stored, so every Kleene loop still runs and
  the iteration counts do not depend on the memo.

``AX``/``EX`` read the per-system successor sets
(``MultiAgentSystem.succ_sets``, built once per system), so each Kleene step
compares frozensets in C instead of scanning successors in Python.

Γ is held as blocks: on every system the checker applies it to, Γ is an
equivalence, so ``K S`` is the union of the blocks inside S and ``P S`` the
union of the blocks meeting S.  Each subset construction carries the blocks
of the agents its system is distinguished for (``distinction``), and a
construction for an agent the system already carries is a copy; the chain
order of ``refine_for_agents`` gives a region the blocks of all its agents.

``eval_state_naive`` runs the evaluator on a region over the input system
with memoryless Γs (states grouped by what the agent sees) and an empty
memo.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import formula as fm
from .distinction import distinction, refine_for_agents
from .errors import EpmuError, FragmentRejected, MonotonicityViolated, depth_guarded
from .syntree import build_syntree, check_non_mixing, frontier_nodes
from .system import DEFAULT_CAP, compose_insplitting, identity_insplitting


class RefinementChain:
    """Systems connected by in-splitting steps; systems[0] is the input,
    the last entry is the current finest system.  As a knowledge backend it
    evaluates closed nodes and extends itself at K/P and at binders."""

    memo = None  # closed nodes are evaluated here, never looked up

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
        """A closed K/P: one subset construction for its agent, which
        carries the agent's Γ blocks."""
        d = distinction(self.final, f.agent, cap=self.cap)
        self.extend(d.insplit)
        return _KNOWLEDGE[type(f)](d.partitions[f.agent], d.insplit.pullback(S))

    def region(self, node):
        """The region of a binder whose body has free variables: evaluate the
        nearest closed descendants, refine once for all non-closed agents of
        the body, and take their Γ blocks from the refined system."""
        marked = []
        for fn in frontier_nodes(node):
            S = evaluate(fn, self, {})
            marked.append((fn, S, self.mark()))
        agents = node.children[0].agncl
        partitions = {}
        if agents:
            d, comp = refine_for_agents(self.final, agents, cap=self.cap)
            self.extend(comp)
            missing = sorted(agents - d.partitions.keys())
            if missing:
                raise EpmuError(f"refined region carries no Γ blocks for {', '.join(missing)}")
            partitions = d.partitions
        memo = {fn: ((), self.pull_forward(S, mark)) for fn, S, mark in marked}
        return Region(self.final, partitions, memo, self.iteration_counts)


class Region:
    """A fixed system with Γ blocks per agent and a memo: node -> (values of
    its free variables, set), one entry per node, the last one evaluated.
    RefinementChain.region seeds the memo with the frontier sets under the
    empty key; eval_state_naive starts it empty, so closed nodes are
    evaluated in place and then stored under the empty key."""

    def __init__(self, system, partitions, memo=None, iteration_counts=None):
        self.final = system
        self.partitions = partitions
        self.memo = {} if memo is None else memo
        self.iteration_counts = [] if iteration_counts is None else iteration_counts

    def knowledge(self, f, S):
        return _KNOWLEDGE[type(f)](self.partitions[f.agent], S)

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
    """States all of whose successors lie in S (a deadlock vacuously)."""
    S = frozenset(S)
    return frozenset([q for q, rs in m.succ_sets if rs <= S])


def ex_f(m, S):
    """States with a successor in S."""
    S = frozenset(S)
    return frozenset([q for q, rs in m.succ_sets if not rs.isdisjoint(S)])


def know_blocks(blocks, S):
    """K S: the union of the Γ blocks inside S."""
    return frozenset().union(*[b for b in blocks if b <= S])


def poss_blocks(blocks, S):
    """P S: the union of the Γ blocks meeting S."""
    return frozenset().union(*[b for b in blocks if not b.isdisjoint(S)])


_KNOWLEDGE = {fm.Know: know_blocks, fm.Poss: poss_blocks}


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
    # Dispatch on the exact class (no formula class has subclasses), with
    # the branches a Kleene loop visits first: on parity games they run
    # millions of times.  kb.final is read only after the children are
    # evaluated, since a closed K/P below extends the chain.
    t = type(f)
    if t is fm.Var:
        return env[f.name]
    memo = kb.memo
    if memo is not None:
        key = node.key(env)
        hit = memo.get(node)
        # the identity test first: unchanged variables keep their objects
        if hit is not None and (hit[0] is key or hit[0] == key):
            return hit[1]
    if t is fm.And or t is fm.Or:
        left, right = node.children
        S1 = evaluate(left, kb, env)
        if memo is None:  # on the chain a closed K/P on the right extends it
            mark = kb.mark()
            S2 = evaluate(right, kb, env)
            S1 = kb.pull_forward(S1, mark)
        else:
            S2 = evaluate(right, kb, env)
        S = S1 & S2 if t is fm.And else S1 | S2
    elif t is fm.AX:
        S = evaluate(node.children[0], kb, env)
        S = ax_f(kb.final, S)
    elif t is fm.EX:
        S = evaluate(node.children[0], kb, env)
        S = ex_f(kb.final, S)
    elif t is fm.Know or t is fm.Poss:
        S = kb.knowledge(f, evaluate(node.children[0], kb, env))
    elif t is fm.Mu or t is fm.Nu:
        region = kb.region(node)
        body = node.children[0]
        seed = frozenset() if t is fm.Mu else frozenset(region.final.states)
        mode = "lfp" if t is fm.Mu else "gfp"

        def op(S):
            return evaluate(body, region, {**env, f.var: S})

        result, iters = kleene(op, seed, len(region.final), mode)
        region.iteration_counts.append(iters)
        return result
    else:
        m = kb.final
        if t is fm.TrueF:
            S = frozenset(m.states)
        elif t is fm.FalseF:
            S = frozenset()
        elif t is fm.Atom:
            S = atom_set(m, f.name)
        elif t is fm.NegAtom:
            S = frozenset(m.states) - atom_set(m, f.name)
        elif t is fm.DiamondAct or t is fm.BoxAct:
            raise EpmuError("action modalities must be compiled away before checking")
        else:
            raise TypeError(f"unexpected node {f!r}")
    if memo is not None and not node.binds:
        memo[node] = (key, S)
    return S


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
    partitions = {}
    for a in {n.form.agent for n in tree if isinstance(n.form, fm.EPISTEMIC)}:
        groups = {}
        for q in m.states:
            groups.setdefault(m.obs_label(q, a), []).append(q)
        partitions[a] = tuple([frozenset(g) for g in groups.values()])
    return depth_guarded("evaluation", evaluate, tree, Region(m, partitions), {})
