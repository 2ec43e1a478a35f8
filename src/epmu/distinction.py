"""The knowledge subset construction, the knowledge-transfer relation, and
the distinguishedness test.

Every system carries `partitions`: agent -> Γ blocks (a tuple of disjoint
frozensets of states covering them all), for the agents the system is known
to be distinguished for; Γ is an equivalence there, and its classes are the
groups of equal belief.  A MultiAgentSystem carries none.  `distinction`
fills them in as it builds: the agent's blocks, which its search keeps
one per belief, are those of every agent with the same observable set (Γ
depends only on what an agent sees), and they are split into the blocks
of every agent the input carries that sees more.  When the input already
carries the agent's blocks, the construction changes nothing but the
names, and it is an O(n) copy that carries all of them.

A construction stores its transitions once, as the successor lists its
search found, and names its states only when a name is read;
`insplitting` reads the maps (s, S) -> s off its `pair_of` and `base`.

The pairs-based `GammaRelation`, `compute_gamma`, `closed_form_gamma`,
`know_op`, `poss_op` and `is_distinguished` are the reference definitions
the tests hold the blocks to; `compute_gamma` always runs the search, so it
never reads carried blocks.  The checker reads only the blocks."""

from __future__ import annotations

from functools import cached_property

from .errors import CapacityExceeded, NonChainAgents, SystemFormatError, UnknownAgent
from .system import (
    DEFAULT_CAP,
    Finding,
    GammaRelation,
    InSplitting,
    MultiAgentSystem,
)


class DistinctionSystem(MultiAgentSystem):
    """A system whose states are (base state, belief set) pairs over the
    system it refines (`base`); `insplitting` builds the map back to it.

    Built straight from the breadth-first search of `distinction`, through
    `_derive`: state i is the i-th pair found and `succ[i]` lists the ids
    of its successors in increasing order.  The atoms and observable sets
    are the base's, shared with it.

    The name of state (s, S) is "(s,{...})" over the base's names, built on
    its first read (`state_name`) and kept: a check never prints them, and
    nested ones grow long.  `names` builds them all."""

    def __init__(self, base, agent, pair_of, labels, succ, partitions):
        self._derive(len(pair_of), succ, base.atoms, labels, base.obs)
        self.base = base
        self.agent = agent
        self.pair_of = pair_of  # id -> (s, frozenset S)
        self._names = {}
        self.partitions = partitions

    def state_name(self, i):
        name = self._names.get(i)
        if name is None:
            s, S = self.pair_of[i]
            name = self._names[i] = _belief_name(self.base, s, S)
        return name

    @cached_property
    def names(self):
        return {i: self.state_name(i) for i in self.states}


def insplitting(fine, coarse):
    """The in-splitting of `fine` onto `coarse`, a system on fine's chain of
    bases: (s, S) -> s at each `base` link down to coarse, so the identity
    when fine is coarse; SystemFormatError if coarse is not on the chain.
    No system keeps its map, which would refer back to the system."""
    chi, m = None, fine
    while m is not coarse:
        if not isinstance(m, DistinctionSystem):
            raise SystemFormatError(
                f"no in-splitting from {len(fine)} states onto {len(coarse)} states: "
                "the coarse system is not on the fine one's chain of bases"
            )
        down = {i: s for i, (s, _) in m.pair_of.items()}
        chi = down if chi is None else {q: down[i] for q, i in chi.items()}
        m = m.base
    return InSplitting(fine, coarse, {q: q for q in fine.states} if chi is None else chi)


def _belief_name(base, s, S):
    members = ",".join(base.state_name(q) for q in sorted(S))
    return f"({base.state_name(s)},{{{members}}})"


NAME_LIMIT = 1024  # the longest state name `short_name` spells out


def _digest(text):
    import hashlib  # only a long name is hashed, so a check loads no OpenSSL

    return hashlib.sha256(text.encode()).hexdigest()


def _name_fold(m, q, leaf, node):
    """m.state_name(q) folded bottom-up over the chain of bases without
    building it: leaf(name) at a base state, and node(v, vs) at a belief
    state (s, S), from the value v of s and the values vs of S's members in
    state order."""
    levels = [(m, {q})]
    while isinstance(levels[-1][0], DistinctionSystem):
        d, need = levels[-1]
        levels.append((d.base, {r for i in need for r in (d.pair_of[i][0], *d.pair_of[i][1])}))
    base, need = levels.pop()
    values = {i: leaf(base.state_name(i)) for i in need}
    for d, need in reversed(levels):
        below, values = values, {}
        for i in need:
            s, S = d.pair_of[i]
            values[i] = node(below[s], [below[r] for r in sorted(S)])
    return values[q]


def _name_length(m, q):
    """len(m.state_name(q)): "(s,{q1,...})" adds 4 characters and a comma
    per member to its parts."""
    return _name_fold(m, q, len, lambda n, ns: n + sum(ns) + len(ns) + 4)


def _name_size(m, q):
    """The length of m.state_name(q) and its tree digest: the sha256 of a
    base state's name, and for a belief state (s, S) the sha256 of
    "(H(s),{H(q1),...})" over its members in state order.  Both are found
    bottom-up over the chain of bases without building the name."""
    digest = _name_fold(m, q, _digest, lambda h, hs: _digest(f"({h},{{{','.join(hs)}}})"))
    return _name_length(m, q), digest


def short_name(m, q):
    """m.state_name(q) when it has at most NAME_LIMIT characters, else
    "<N characters, sha256 tree digest D>" (see `_name_size`), built
    without the name.  Only a long name is hashed: the length is found
    first, with no digest."""
    if _name_length(m, q) <= NAME_LIMIT:
        return m.state_name(q)
    return "<{} characters, sha256 tree digest {}>".format(*_name_size(m, q))


def distinction(m, agent, cap=DEFAULT_CAP):
    """Reachable part of the subset construction for one agent.

    Each state (s, S) pairs a base state with the set of base states that
    carry the same observation history; the initial state is (q0, {q0}).
    A successor of (s, S) is (r, R), where r is a successor of s and R the
    successors of S that look like r to the agent; r lies in R because s
    lies in S.  The successors of each belief set are computed once, grouped
    by observation, and shared by every pair with that set, so the cost is
    the size of the output plus the post-image of each distinct belief set,
    not a scan of all states per successor.

    States are numbered in breadth-first order; CapacityExceeded is raised
    as soon as a new state would take the count past cap.  The result's
    `partitions` hold the agent's blocks, the groups of equal belief, for
    the agent and every agent with the same observable set, and for every
    agent b of m.partitions that sees more, m's b-blocks pulled back and met
    with the belief groups: runs that look alike to b look alike to the
    agent, so lifting them ends at the same belief.

    When m.partitions already holds the agent, the belief of every state is
    its block and the construction is a copy of m; see `_copy`.  So after
    a construction for a, one for an agent that sees what a sees is a copy.
    """
    blocks = m.partitions.get(agent)
    if blocks is not None:
        return _copy(m, agent, blocks, cap)
    return _search(m, agent, cap)


def _search(m, agent, cap):
    """The breadth-first search of `distinction`, whatever blocks m carries:
    it walks `pairs` while appending to it, so state i is pairs[i].  The
    block of a belief R maps each r to the id of (r, R), so a successor is
    found by its state in its belief's block, and `blocks`, in the order of
    their first ids, are the agent's Γ blocks."""
    if agent not in m.obs:
        raise UnknownAgent(agent)
    obs, labels, succ_of = m.obs[agent], m.labels, m._succ
    view = {q: labels[q] & obs for q in m.states}
    start = frozenset([m.q0])
    pairs = [(m.q0, start)]
    blocks = [{m.q0: 0}]
    block_of = {start: blocks[0]}  # belief R -> {r: id of (r, R)}
    post = {}  # belief S -> {view: (R, block of R)}, its successors by view
    succ = {}
    for i, (s, S) in enumerate(pairs):
        by_view = post.get(S)
        if by_view is None:
            groups = {}
            for q in S:
                for r in succ_of[q]:
                    groups.setdefault(view[r], set()).add(r)
            by_view = post[S] = {}
            for o, rs in groups.items():
                R = frozenset(rs)
                by_view[o] = R, block_of.setdefault(R, {})
        targets = []
        for r in succ_of[s]:
            R, block = by_view[view[r]]
            tid = block.get(r)
            if tid is None:
                tid = len(pairs)
                if tid >= cap:
                    raise CapacityExceeded(tid + 1, cap, _context(agent))
                if not block:
                    blocks.append(block)
                block[r] = tid
                pairs.append((r, R))
            targets.append(tid)
        succ[i] = tuple(sorted(targets))
    own = tuple([frozenset(block.values()) for block in blocks])
    partitions = {}
    for b, seen in m.obs.items():
        if seen == obs:
            partitions[b] = own
        elif obs <= seen and b in m.partitions:
            partitions[b] = _split(blocks, m.partitions[b])
    return DistinctionSystem(
        m,
        agent,
        dict(enumerate(pairs)),
        {i: labels[s] for i, (s, _) in enumerate(pairs)},
        succ,
        partitions,
    )


def _split(blocks, coarse):
    """The blocks of a carried agent b: each of the agent's `blocks` split
    by b's block in `coarse` of its base states, in first-id order."""
    block_of = {q: k for k, block in enumerate(coarse) for q in block}
    parts = []
    for block in blocks:
        groups = {}
        for r, i in block.items():
            groups.setdefault(block_of[r], []).append(i)
        parts.extend(groups.values())
    parts.sort()  # disjoint, so by first id
    return tuple([frozenset(ids) for ids in parts])


def _context(agent):
    return f"subset construction for agent {agent}"


def _copy(m, agent, blocks, cap):
    """The subset construction over m for an agent m is distinguished for.

    m is then a DistinctionSystem: its ids are in breadth-first order and
    its successor lists sorted, so the search would number the pairs as m
    numbers its states, and the belief of state i is its block, since Γ is
    the equivalence of equal belief and is closed under matching
    transitions.  So state i becomes (i, block of i), its `insplitting`
    onto m is the identity, and states, successors, labels and any cached
    transition set are m's, and so are all of m's blocks: the copy has m's
    runs; the blocks may come from a construction for an agent that sees
    the same atoms.  The capacity check fires at the count the search
    would reach: it never checks the initial state."""
    n = len(m.states)
    if n > max(cap, 1):
        raise CapacityExceeded(max(cap, 1) + 1, cap, _context(agent))
    block_of = {q: block for block in blocks for q in block}
    d = DistinctionSystem(
        m,
        agent,
        {q: (q, block_of[q]) for q in m.states},
        m.labels,
        m._succ,
        m.partitions,
    )
    if "delta" in vars(m):
        d.delta = m.delta
    return d


# ---------------------------------------------------------------------------
# The knowledge-transfer relation


def compute_gamma(m, agent, cap=DEFAULT_CAP):
    """Finite computation of the relation via the subset construction: the
    runs to q partition into observation classes, one reachable belief state
    each, and (q, r) holds iff r lies in every such belief set.  It always
    runs the search, so it never reads the blocks m carries."""
    d = _search(m, agent, cap)
    beliefs = {}
    for i in d.states:
        s, S = d.pair_of[i]
        beliefs.setdefault(s, []).append(S)
    pairs = set()
    for q, sets in beliefs.items():
        common = frozenset.intersection(*sets)
        for r in common:
            pairs.add((q, r))
    return GammaRelation(agent, m, frozenset(pairs))


def closed_form_gamma(d):
    """Gamma of the agent of a DistinctionSystem over that very system:
    ((s,S),(r,S)) for reachable pairs with r in S."""
    by_belief = {}
    for i in d.states:
        s, S = d.pair_of[i]
        by_belief.setdefault(S, []).append((i, s))
    pairs = set()
    for S, members in by_belief.items():
        for i, s in members:
            for j, r in members:
                if r in S:
                    pairs.add((i, j))
    return GammaRelation(d.agent, d, frozenset(pairs))


def know_op(gamma, S):
    """{q | every Gamma-source of q lies in S}; dual of poss_op."""
    S = set(S)
    out = set(gamma.system.states)
    for s, q in gamma.pairs:
        if s not in S:
            out.discard(q)
    return frozenset(out)


def poss_op(gamma, S):
    """{q | some Gamma-source of q lies in S}."""
    S = set(S)
    return frozenset(q for s, q in gamma.pairs if s in S)


# ---------------------------------------------------------------------------
# Distinguishedness


def is_distinguished(m, agent, cap=DEFAULT_CAP):
    """A Finding: ok iff Gamma is an equivalence relation closed under
    matching transitions (same observation on both successors); else the
    condition that fails (symmetry, transitivity or congruence) and the
    states that show it."""
    rel = compute_gamma(m, agent, cap=cap).pairs
    for q, r in rel:
        if (r, q) not in rel:
            return Finding(False, "symmetry", (q, r))
    targets = {}
    for q, r in rel:
        targets.setdefault(q, set()).add(r)
    for q, r in rel:
        for r2 in targets.get(r, ()):
            if (q, r2) not in rel:
                return Finding(False, "transitivity", (q, r, r2))
    for q, r in rel:
        for q2 in m.successors(q):
            for r2 in m.successors(r):
                if m.obs_label(q2, agent) == m.obs_label(r2, agent) and (q2, r2) not in rel:
                    return Finding(False, "congruence", (q, r, q2, r2))
    return Finding(True)


# ---------------------------------------------------------------------------
# Ordered multi-agent refinement


def chain_order(obs, agents):
    """Agents sorted by decreasing observable set; raises UnknownAgent for
    the first undeclared agent in sorted order, and NonChainAgents if two
    sets are incomparable."""
    agents = sorted(agents)
    for a in agents:
        if a not in obs:
            raise UnknownAgent(a)
    for i, a in enumerate(agents):
        for b in agents[i + 1 :]:
            pa, pb = set(obs[a]), set(obs[b])
            if not (pa <= pb or pb <= pa):
                raise NonChainAgents(a, b)
    return sorted(agents, key=lambda a: (-len(obs[a]), a))


def refine_for_agents(m, agents, cap=DEFAULT_CAP):
    """Apply the subset construction once per agent, largest observable set
    first, so the refined system it returns is distinguished for every
    agent in the set; `insplitting(refined, m)` maps it back to m."""
    for a in chain_order(m.obs, agents):
        m = distinction(m, a, cap=cap)
    return m
