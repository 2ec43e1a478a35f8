"""The knowledge subset construction, the knowledge-transfer relation, and
the distinguishedness test.

Every system carries `partitions`: agent -> Γ blocks (a tuple of disjoint
frozensets of states covering them all), for the agents the system is known
to be distinguished for; Γ is an equivalence there, and its classes are the
groups of equal belief.  A MultiAgentSystem carries none.  `distinction`
fills them in as it builds: its own agent's blocks, and the blocks of every
agent the input carries whose observable set contains the agent's.  When the
input already carries the agent's blocks, the construction changes nothing
but the names, and it is an O(n) copy that carries all of them.

A construction stores its transitions once, as the successor lists its
search found, and names its states only when a name is read;
`insplitting` reads the maps (s, S) -> s off its `pair_of` and `base`.

The pairs-based `GammaRelation`, `compute_gamma`, `closed_form_gamma`,
`know_op`, `poss_op` and `is_distinguished` are the reference definitions
the tests hold the blocks to; `compute_gamma` always runs the search, so it
never reads carried blocks.  The checker reads only the blocks."""

from __future__ import annotations

import hashlib
from collections import deque
from functools import cached_property

from .errors import CapacityExceeded, NonChainAgents, SystemFormatError, UnknownAgent
from .system import (
    DEFAULT_CAP,
    Finding,
    GammaRelation,
    InSplitting,
    MultiAgentSystem,
    _check_shape,
)


class DistinctionSystem(MultiAgentSystem):
    """A system whose states are (base state, belief set) pairs over the
    system it refines (`base`); `insplitting` builds the map back to it.

    Built straight from the breadth-first search of `distinction`: state i
    is the i-th pair found and `succ[i]` lists the ids of its successors in
    increasing order, so the states are 0..n-1, all reachable from 0, and
    the sorting and reachability pass of MultiAgentSystem is not needed.
    The shape check still runs, on the rows of `succ`.  The atoms, agents
    and observable sets are the base's, shared with it.

    The name of state (s, S) is "(s,{...})" over the base's names, built on
    its first read (`state_name`) and kept: a check never prints them, and
    nested ones grow long.  `names` builds them all."""

    def __init__(self, base, agent, pair_of, labels, succ, partitions):
        _check_shape(set(range(len(pair_of))), 0, succ, base.atoms, labels, base.obs)
        self.base = base
        self.agent = agent
        self.pair_of = pair_of  # id -> (s, frozenset S)
        self.dropped_states = ()
        self.states = tuple(range(len(pair_of)))
        self.q0 = 0
        self.atoms = base.atoms
        self.labels = labels
        self.agents = base.agents
        self.obs = base.obs
        self._succ = succ
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
    return hashlib.sha256(text.encode()).hexdigest()


def _name_size(m, q):
    """The length of m.state_name(q) and its tree digest: the sha256 of a
    base state's name, and for a belief state (s, S) the sha256 of
    "(H(s),{H(q1),...})" over its members in state order.  Both are found
    bottom-up over the chain of bases without building the name."""
    levels = [(m, {q})]
    while isinstance(levels[-1][0], DistinctionSystem):
        d, need = levels[-1]
        levels.append((d.base, {r for i in need for r in (d.pair_of[i][0], *d.pair_of[i][1])}))
    base, need = levels.pop()
    sizes = {i: (len(base.state_name(i)), _digest(base.state_name(i))) for i in need}
    for d, need in reversed(levels):
        below, sizes = sizes, {}
        for i in need:
            s, S = d.pair_of[i]
            parts = [below[r] for r in (s, *sorted(S))]
            text = "({},{{{}}})".format(parts[0][1], ",".join([h for _, h in parts[1:]]))
            sizes[i] = sum([n for n, _ in parts]) + len(S) + 4, _digest(text)
    return sizes[q]


def short_name(m, q):
    """m.state_name(q) when it has at most NAME_LIMIT characters, else
    "<N characters, sha256 tree digest D>" (see `_name_size`), built
    without the name."""
    length, digest = _name_size(m, q)
    if length <= NAME_LIMIT:
        return m.state_name(q)
    return f"<{length} characters, sha256 tree digest {digest}>"


def _post_by_view(m, S, view):
    """The successors of the states in S, grouped by what the agent sees."""
    groups = {}
    for s in S:
        for r in m.successors(s):
            groups.setdefault(view[r], set()).add(r)
    return {o: frozenset(rs) for o, rs in groups.items()}


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
    `partitions` hold the agent's blocks, the groups of equal belief, and
    for every agent b of m.partitions that sees at least what the agent
    sees, m's b-blocks pulled back and met with the belief groups: runs
    that look alike to b look alike to the agent, so lifting them ends at
    the same belief.

    When m.partitions already holds the agent, the belief of every state is
    its block and the construction is a copy of m; see `_copy`.
    """
    blocks = m.partitions.get(agent)
    if blocks is not None:
        return _copy(m, agent, blocks, cap)
    return _search(m, agent, cap)


def _search(m, agent, cap):
    """The breadth-first search of `distinction`, whatever blocks m carries."""
    if agent not in m.obs:
        raise UnknownAgent(agent)
    view = {q: m.obs_label(q, agent) for q in m.states}
    start = (m.q0, frozenset([m.q0]))
    id_of = {start: 0}
    pairs = [start]
    groups = {start[1]: [0]}  # belief set -> ids of the states with it
    out = []  # out[i]: successor ids of state i, in the order of m's successors
    post = {}  # belief set -> its successors grouped by observation
    queue = deque([start])
    while queue:
        s, S = queue.popleft()
        by_view = post.get(S)
        if by_view is None:
            by_view = post[S] = _post_by_view(m, S, view)
        targets = []
        for r in m.successors(s):
            R = by_view[view[r]]
            tgt = (r, R)
            tid = id_of.get(tgt)
            if tid is None:
                if len(pairs) + 1 > cap:
                    raise CapacityExceeded(len(pairs) + 1, cap, _context(agent))
                tid = id_of[tgt] = len(pairs)
                pairs.append(tgt)
                queue.append(tgt)
                ids = groups.get(R)
                if ids is None:
                    groups[R] = [tid]
                else:
                    ids.append(tid)
            targets.append(tid)
        out.append(targets)
    partitions = {agent: tuple([frozenset(ids) for ids in groups.values()])}
    for b, b_blocks in m.partitions.items():
        if m.obs[agent] <= m.obs[b]:
            partitions[b] = _pull_back(b_blocks, pairs)
    return DistinctionSystem(
        m,
        agent,
        dict(enumerate(pairs)),
        {i: m.labels[s] for i, (s, _) in enumerate(pairs)},
        {i: tuple(sorted(targets)) for i, targets in enumerate(out)},
        partitions,
    )


def _pull_back(blocks, pairs):
    """The blocks of the pairs (s, S) that are equal in S and whose s share
    one of the given blocks of base states."""
    block_of = {q: k for k, block in enumerate(blocks) for q in block}
    groups = {}
    for i, (s, S) in enumerate(pairs):
        groups.setdefault((block_of[s], S), []).append(i)
    return tuple([frozenset(ids) for ids in groups.values()])


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
    runs.  The capacity check fires at the count the search would reach:
    it never checks the initial state."""
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


def is_distinguished(m, agent, cap=DEFAULT_CAP, gamma=None):
    """A Finding: ok iff Gamma is an equivalence relation closed under
    matching transitions (same observation on both successors); else the
    condition that fails (symmetry, transitivity or congruence) and the
    states that show it."""
    if gamma is None:
        gamma = compute_gamma(m, agent, cap=cap)
    rel = gamma.pairs
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
    """Agents sorted by decreasing observable set; raises NonChainAgents if
    two sets are incomparable."""
    agents = sorted(agents)
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
