"""The decision procedure for the non-mixing fragment.

Two evaluators share the work:

- ``evaluate`` walks the closed nodes along a ``RefinementChain``, on
  frozensets of states, so one chain is threaded left-to-right through
  the tree.  The chain keeps its systems and no maps: each closed K/P
  appends a subset construction for its agent, and a set evaluated on an
  earlier system crosses to the final one by ``RefinementChain.lift``,
  which reads the ``distinction.insplitting`` off the final system's chain
  of bases only then.  A closed binder gets a region: its nearest closed
  descendants that are not leaves (the frontier) are evaluated on the
  chain, which is then refined once for all agents whose epistemic
  operators are non-closed in the body, and their Γ is taken there.
- ``Region`` compiles the binder once, on that fixed system, into closures
  over int masks (bit i is the i-th state), and runs it: frontier sets and
  leaves, read on the region's own system (in-splittings keep labels), are
  constants, And/Or are ``&``/``|``, EX reads predecessor masks and P the
  Γ blocks, and AX/K are their duals; the region builds these tables
  itself, and no other module knows the masks.  A region above
  ``MASK_STATES`` states, where masks would cost memory and time quadratic
  in the states, runs the same closures on frozensets.  Nested binders
  iterate in place through ``kleene``.  A node that holds no binder and
  does not mention the innermost binder's variable keeps its last value
  while its free variables keep their values; binders and the nodes above
  them never do, so every Kleene loop runs and the iteration counts do not
  depend on it.
  An inner binder restarts from its seed at each step of an outer one and
  meets the same iterates again, so each EX/AX/P/K image goes through a
  table of its results by argument, made for the region and dropped with
  it: no image of an argument is computed twice in one region.

Γ is held as blocks: on every system the checker applies it to, Γ is an
equivalence, so ``K S`` is the union of the blocks inside S and ``P S`` the
union of the blocks meeting S.  When every block of an agent is a single
state, K and P are the identity, in a region and on the chain alike.  Each
subset construction carries the blocks of the agents its system is
distinguished for (``distinction``), and a construction for an agent the
system already carries is a copy; the chain order of ``refine_for_agents``
gives a region the blocks of all its agents.

A leaf over an atom the system does not declare raises ``UnknownAtom``;
under a binder it is read, and raises, once the region is refined.

``eval_state_naive`` compiles the whole formula into a region over the
input system with memoryless Γs (states grouped by what the agent sees).
"""

from __future__ import annotations

import time
from functools import cached_property, partial
from operator import itemgetter

from . import formula as fm
from .distinction import distinction, insplitting, refine_for_agents, short_name
from .errors import (
    EpmuError,
    FragmentRejected,
    MonotonicityViolated,
    UnknownAgent,
    UnknownAtom,
    depth_guarded,
)
from .syntree import build_syntree, check_non_mixing, frontier_nodes
from .system import DEFAULT_CAP


class RefinementChain:
    """The systems of one check: systems[0] is the input and each later one
    refines the one before it by subset constructions, so `final`, the
    last, reaches every earlier one through its chain of bases.  The chain
    keeps no maps: `lift` reads the in-splitting onto an earlier system
    when a set crosses to `final`.  It evaluates closed nodes and grows at
    K/P and at binders."""

    def __init__(self, base, cap=DEFAULT_CAP):
        self.systems = [base]
        self.cap = cap
        self.iteration_counts = []

    @property
    def final(self):
        return self.systems[-1]

    def lift(self, S, coarse):
        """A set over coarse, an earlier system of the chain, as the set
        over final that maps into it; S itself when coarse is final."""
        if coarse is self.final:
            return S
        return insplitting(self.final, coarse).pullback(S)

    def knowledge(self, f, S):
        """A closed K/P: one subset construction for its agent, which
        carries the agent's Γ blocks."""
        coarse = self.final
        d = distinction(coarse, f.agent, cap=self.cap)
        self.systems.append(d)
        S = self.lift(S, coarse)
        blocks = d.partitions[f.agent]
        # singleton blocks: K and P are the identity
        return S if len(blocks) == len(d) else _KNOWLEDGE[type(f)](blocks, S)

    def region(self, node):
        """The set of a closed binder: evaluate its nearest closed
        descendants, refine once for all non-closed agents of the body, and
        run the binder's kernel on the refined system with their Γ blocks."""
        evaluated = [(fn, evaluate(fn, self), self.final) for fn in frontier_nodes(node)]
        agents = node.children[0].agncl
        partitions = {}
        if agents:
            d = refine_for_agents(self.final, agents, cap=self.cap)
            self.systems.append(d)
            missing = sorted(agents - d.partitions.keys())
            if missing:
                raise EpmuError(f"refined region carries no Γ blocks for {', '.join(missing)}")
            partitions = {a: d.partitions[a] for a in agents}
        frontier = {fn: self.lift(S, m) for fn, S, m in evaluated}
        return Region(self.final, partitions, frontier, self.iteration_counts).run(node)


class Verdict(fm.Record):
    """The answer of `check` and the shape of its refinement chain.

    `initial_state`, the name of the final system's initial state, is built
    on first read and then cached: belief-set names nest once per subset
    construction and double in length with each, so past 1 024 characters
    (`distinction.NAME_LIMIT`) it reads as the summary "<N characters,
    sha256 tree digest D>" of `distinction.short_name`, which never builds
    the name.  For it a verdict holds `final`, the chain's last system,
    which reaches every system of the chain through `base`, with their
    cached tables, so a verdict keeps the chain's systems alive until it is
    dropped; no system refers back to a finer one, so reference counting
    then frees them.  Neither `final` nor `initial_state` is one of the
    `_fields`, so `==` and `repr` leave them out; a verdict keeps a
    `__dict__` for the cached name, and copy and pickle carry all of it.
    Verdicts are not hashable."""

    _fields = ("holds", "refinement_sizes", "iteration_counts", "wall_time")
    __reduce__ = object.__reduce__

    def __init__(self, holds, refinement_sizes, iteration_counts, wall_time, final):
        self.holds = holds
        self.refinement_sizes = refinement_sizes
        self.iteration_counts = iteration_counts
        self.wall_time = wall_time
        self.final = final  # the chain's final system

    @cached_property
    def initial_state(self):
        return depth_guarded("evaluation", short_name, self.final, self.final.q0)


# ---------------------------------------------------------------------------
# State-set operators


def ax_f(m, S):
    """States all of whose successors lie in S (a deadlock vacuously)."""
    S = frozenset(S)
    return frozenset([q for q, rs in m._succ.items() if S.issuperset(rs)])


def ex_f(m, S):
    """States with a successor in S."""
    S = frozenset(S)
    return frozenset([q for q, rs in m._succ.items() if not S.isdisjoint(rs)])


def know_blocks(blocks, S):
    """K S: the union of the Γ blocks inside S."""
    return frozenset().union(*[b for b in blocks if b <= S])


def poss_blocks(blocks, S):
    """P S: the union of the Γ blocks meeting S."""
    return frozenset().union(*[b for b in blocks if not b.isdisjoint(S)])


_KNOWLEDGE = {fm.Know: know_blocks, fm.Poss: poss_blocks}


def atom_set(m, name):
    """The states labelled with the atom; UnknownAtom if m does not declare
    it."""
    if name not in m.atoms:
        raise UnknownAtom(name)
    return frozenset([q for q, atoms in m.labels.items() if name in atoms])


def leaf_set(m, f):
    """The state set of a leaf: true, false, an atom or a negated atom."""
    t = type(f)
    if t is fm.TrueF:
        return frozenset(m.states)
    if t is fm.FalseF:
        return frozenset()
    if t is fm.Atom:
        return atom_set(m, f.name)
    if t is fm.NegAtom:
        return frozenset(m.states) - atom_set(m, f.name)
    if t is fm.DiamondAct or t is fm.BoxAct:
        raise EpmuError("action modalities must be compiled away before checking")
    raise TypeError(f"unexpected node {f!r}")


# State masks (see Region).


def to_mask(bit, S):
    """The mask of a set of states, by the bit table of their system."""
    return sum(map(bit.__getitem__, S))


def to_set(m, mask):
    """The set of m's states in a mask."""
    states = m.states
    return frozenset([states[i] for i in range(mask.bit_length()) if mask >> i & 1])


class MaskImage:
    """S -> the union of masks[i] over the bits i of the state mask S;
    `dual(S)` is the mask of the states j such that every i whose mask
    holds j lies in S.  With predecessor masks these are EX and AX.  A call
    costs one lookup per bit of S."""

    __slots__ = ("masks", "full")

    def __init__(self, masks):
        self.full = (1 << len(masks)) - 1
        self.masks = [0, *masks]  # indexed by the bit_length of a bit

    def __call__(self, S):
        masks = self.masks
        out = 0
        while S:
            low = S & -S
            out |= masks[low.bit_length()]
            S ^= low
        return out

    def dual(self, S):
        full = self.full
        return full ^ self(full ^ S)


class BlockImage:
    """S -> the union of the block masks of a partition that meet the state
    mask S; `dual(S)` is the union of the blocks inside S.  With Γ blocks
    these are P and K on masks."""

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        self.blocks = blocks

    def __call__(self, S):
        return sum([b for b in self.blocks if b & S])

    def dual(self, S):
        return sum([b for b in self.blocks if b & S == b])


def _subset(a, b):
    """a ⊆ b, for two frozensets or two masks; on frozensets without
    building a union."""
    return a <= b if type(a) is frozenset else a | b == b


def kleene(op, seed, bound):
    """Iterate a monotone operator on state sets (frozensets or masks) to
    its least fixpoint from an empty seed, or its greatest from any other
    (the full set); returns (fixpoint, iterations).

    A monotone operator stabilizes within bound steps; running longer means
    the operand was not monotone, which is an implementation bug.
    """
    cur, least = seed, not seed
    for i in range(bound + 1):
        nxt = op(cur)
        if nxt == cur:
            return cur, i + 1
        if least and not _subset(cur, nxt):
            raise MonotonicityViolated(f"lfp iterate shrank at step {i}")
        if not least and not _subset(nxt, cur):
            raise MonotonicityViolated(f"gfp iterate grew at step {i}")
        cur = nxt
    raise MonotonicityViolated(f"no fixpoint within {bound + 1} iterations")


# ---------------------------------------------------------------------------
# The evaluators


def evaluate(node, chain):
    """State set of a closed syntactic-tree node over chain.final.  A
    closed K/P below refines the chain, so chain.final is read only after
    the children are evaluated, and a left operand is lifted past the
    systems its right operand added."""
    f = node.form
    t = type(f)
    if t is fm.And or t is fm.Or:
        left, right = node.children
        S1 = evaluate(left, chain)
        m = chain.final
        S2 = evaluate(right, chain)
        S1 = chain.lift(S1, m)
        return S1 & S2 if t is fm.And else S1 | S2
    if t is fm.Mu or t is fm.Nu:
        return chain.region(node)
    if t is fm.AX or t is fm.EX:
        S = evaluate(node.children[0], chain)
        return (ax_f if t is fm.AX else ex_f)(chain.final, S)
    if t is fm.Know or t is fm.Poss:
        return chain.knowledge(f, evaluate(node.children[0], chain))
    return leaf_set(chain.final, f)


# The closures of Region.compile are made in these helpers: a closure made
# in compile itself would give every call of compile a cell per captured name.
# A node that folds to a constant is a mask or a frozenset, neither callable.


def _read(env, i):
    return lambda: env[i]


def _and_or(conj, a, b):
    """The closure of a & b (conj) or a | b, or their value when both are
    constants; a constant goes last, so a closure keeps its turn."""
    if not callable(a):
        a, b = b, a
    if not callable(a):
        return a & b if conj else a | b
    if not callable(b):
        return (lambda: a() & b) if conj else (lambda: a() | b)
    return (lambda: a() & b()) if conj else (lambda: a() | b())


def _apply(op, a):
    """The closure of op applied to a, or that value when a is a constant."""
    return (lambda: op(a())) if callable(a) else op(a)


def _memo(op):
    """op with a table of its results by argument."""
    table = {}

    def memo(S):
        out = table.get(S)
        if out is None:
            out = table[S] = op(S)
        return out

    return memo


MASK_STATES = 512  # the largest region the kernel runs on masks


class Region:
    """A fixed system with Γ blocks per agent, on which a binder is compiled
    once into closures and run.

    A region of up to MASK_STATES states works on int masks, from tables it
    builds for its system: bit i stands for the i-th state, EX is the
    union of the predecessor masks of the bits of a mask (`MaskImage`), P
    the union of the Γ block masks meeting it (`BlockImage`), and AX and K
    are their duals.  The masks behind these images take memory that grows
    with the square of the states, and so does the time of an EX, one
    lookup per state in its argument, so a larger region works on
    frozensets with `ex_f`, `ax_f`, `poss_blocks` and `know_blocks`, whose
    costs grow with the states and transitions.  `ops` maps EX and each
    agent to its (image, dual), each behind a table of its results by
    argument (`_memo`) that lives as long as the region, so a Kleene loop
    that meets an iterate again reads its image.  An agent whose Γ blocks
    are all singletons has no entry: K and P are then the identity, and a
    K/P node compiles to its child's value or closure.

    A node the chain evaluated (a frontier node), a leaf, read on the
    region's system, and a closed node without a binder compile to their
    value; every other node compiles to a closure of no arguments that
    reads the current values of the bound variables from `env`.  A binder
    runs `kleene` on its body and appends the iteration count.

    A closure of a node that is not a binder and holds none keeps the last
    value it returned and the values of its free variables then, and
    returns it again while they are unchanged.  Only the nodes where that
    can happen keep one: those that do not mention the innermost binder's
    variable (it changes on every iteration), and that have fewer free
    variables than the nearest keeping node above them below that binder
    (with the same ones, that node's value changes whenever theirs does).
    Binders and the nodes above them never keep one, so every Kleene loop
    runs and the iteration counts do not depend on it.
    """

    def __init__(self, system, partitions, frontier, iteration_counts):
        self.final = system
        n = len(system)
        # an agent with n blocks has singletons: K and P are the identity
        partitions = {a: blocks for a, blocks in partitions.items() if len(blocks) < n}
        if n <= MASK_STATES:
            bit = {q: 1 << i for i, q in enumerate(system.states)}
            pred = dict.fromkeys(system.states, 0)
            for q, rs in system._succ.items():
                for r in rs:
                    pred[r] |= bit[q]
            self.encode = partial(to_mask, bit)
            self.decode = partial(to_set, system)
            self.empty, self.full = 0, (1 << n) - 1
            image = MaskImage(list(pred.values()))
            ops = {fm.EX: (image.__call__, image.dual)}
            for a, blocks in partitions.items():
                image = BlockImage([to_mask(bit, b) for b in blocks])
                ops[a] = image.__call__, image.dual
        else:
            self.encode = self.decode = frozenset
            self.empty, self.full = frozenset(), frozenset(system.states)
            ops = {fm.EX: (partial(ex_f, system), partial(ax_f, system))}
            for a, blocks in partitions.items():
                ops[a] = partial(poss_blocks, blocks), partial(know_blocks, blocks)
        self.ops = {key: (_memo(image), _memo(dual)) for key, (image, dual) in ops.items()}
        self.frontier = {node: self.encode(S) for node, S in frontier.items()}
        self.iteration_counts = iteration_counts
        self.env = []
        # bound variable -> its index in env; the positive form gives every
        # binder a name of its own
        self.slot = {}

    def run(self, node):
        """The set of node, whose free variables are all bound inside it."""
        fn = self.compile(node, None, None)
        return self.decode(fn() if callable(fn) else fn)

    def compile(self, node, loop, above):
        """The value or closure of node.  loop is the variable of the
        innermost binder around node, above the free variables of the
        nearest keeping node between them (None if there is none)."""
        value = self.frontier.get(node)
        if value is not None:
            return value
        f = node.form
        t = type(f)
        if t is fm.Var:
            return _read(self.env, self.slot[f.name])
        if t is fm.Mu or t is fm.Nu:
            return self.binder(node)
        children = node.children
        if not children:
            return self.encode(leaf_set(self.final, f))
        keep = not node.binds and loop not in node.free and node.free != above
        if keep:
            above = node.free
        a = self.compile(children[0], loop, above)
        if t is fm.And or t is fm.Or:
            fn = _and_or(t is fm.And, a, self.compile(children[1], loop, above))
        elif t is fm.AX or t is fm.EX:
            fn = _apply(self.ops[fm.EX][t is fm.AX], a)
        elif t is fm.Know or t is fm.Poss:
            ops = self.ops.get(f.agent)
            fn = a if ops is None else _apply(ops[t is fm.Know], a)
        else:
            raise EpmuError("action modalities must be compiled away before checking")
        return self.kept(fn, node.free) if keep and callable(fn) else fn

    def binder(self, node):
        """The closure of a binder: Kleene iteration of its body, with the
        current iterate in the binder's own slot of env."""
        f = node.form
        env = self.env
        i = len(env)
        env.append(None)
        self.slot[f.var] = i
        body = self.compile(node.children[0], f.var, None)
        seed = self.empty if type(f) is fm.Mu else self.full
        bound = len(self.final)
        counts = self.iteration_counts

        def op(S):
            env[i] = S
            return body()

        def fn():
            S, iters = kleene(op, seed, bound)
            counts.append(iters)
            return S

        return fn

    def kept(self, fn, free):
        """fn, returning its last value while the variables in free keep
        their values."""
        env = self.env
        key_of = itemgetter(*[self.slot[v] for v in sorted(free)])
        last_key = last = None

        def kept():
            nonlocal last_key, last
            key = key_of(env)
            if key is not last_key and key != last_key:
                last = fn()
                last_key = key
            return last

        return kept


# ---------------------------------------------------------------------------
# Entry points


def _closed_tree(f):
    """The syntactic tree of f's positive form; EpmuError naming its free
    fixpoint variables if it has any."""
    tree = build_syntree(fm.to_positive_form(f))
    if not tree.closed:
        raise EpmuError(f"free fixpoint variables: {', '.join(sorted(tree.free))}")
    return tree


def check_with_sets(m, f, cap=DEFAULT_CAP):
    """Full pipeline returning (verdict, chain, final state set)."""
    t0 = time.perf_counter()
    tree = _closed_tree(f)
    gate = check_non_mixing(tree, m.obs)
    if not gate:
        raise FragmentRejected(gate.witness)
    chain = RefinementChain(m, cap)
    S = depth_guarded("evaluation", evaluate, tree, chain)
    verdict = Verdict(
        holds=chain.final.q0 in S,
        refinement_sizes=[len(s) for s in chain.systems],
        iteration_counts=list(chain.iteration_counts),
        wall_time=time.perf_counter() - t0,
        final=chain.final,
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
    chi = insplitting(chain.final, chain.systems[0]).chi
    fine = chain.final
    out = set()
    seen = set()
    level = [(fine.q0, (chi[fine.q0],))]  # (last fine state, base run)
    for _ in range(depth + 1):
        next_level = []
        for q, base_run in level:
            if base_run in seen:
                raise EpmuError("prefix projection is not injective")
            seen.add(base_run)
            if q in S:
                out.add(base_run)
            if len(base_run) <= depth:
                next_level.extend((r, base_run + (chi[r],)) for r in fine.successors(q))
        level = next_level
    return out, seen


def eval_state_naive(m, f):
    """Refinement-free state-based semantics: epistemic operators use the
    memoryless observational equivalence on states (same currently visible
    atoms), with no subset construction anywhere.  Forgets run history, hence
    unsound under perfect recall; tests use it as the negative witness for
    the commutation requirement.  Free fixpoint variables and undeclared
    atoms and agents raise as in `check`."""
    tree = _closed_tree(f)
    partitions = {}
    for a in {n.form.agent for n in tree if isinstance(n.form, fm.EPISTEMIC)}:
        if a not in m.obs:
            raise UnknownAgent(a)
        groups = {}
        for q in m.states:
            groups.setdefault(m.obs_label(q, a), []).append(q)
        partitions[a] = tuple([frozenset(g) for g in groups.values()])
    return depth_guarded("evaluation", Region(m, partitions, {}, []).run, tree)
