"""Brute-force reference semantics, kept independent of the checker: exact
bounded-tree evaluation of fixpoint-free formulas, run-level computation of
the knowledge-transfer relation, and small-game strategy/parity oracles."""

from __future__ import annotations

import itertools

from . import formula as fm
from .errors import CapacityExceeded, DepthInsufficient, EpmuError, UnknownAtom
from .formula import FrozenRecord, _set
from .system import DEFAULT_CAP, GammaRelation, TreePrefix


class NodeSet(FrozenRecord):
    """Nodes of a prefix satisfying a formula, exact up to valid_depth."""

    __slots__ = _fields = ("prefix", "nodes", "valid_depth", "root_holds")

    def __init__(self, prefix, nodes, valid_depth, root_holds):
        _set(self, "prefix", prefix)  # a TreePrefix
        _set(self, "nodes", nodes)
        _set(self, "valid_depth", valid_depth)
        _set(self, "root_holds", root_holds)


def eval_tree(prefix, f, require_root=True):
    """Exact tree semantics of a fixpoint-free closed formula on the bounded
    unfolding.  Membership is reliable only for nodes whose depth leaves room
    for the formula's modal nesting; the returned set is restricted to those.
    An atom or agent the system does not declare raises UnknownAtom or
    UnknownAgent, as in the checker.
    """
    if not fm.is_fixpoint_free(f):
        raise EpmuError("the tree oracle only handles fixpoint-free formulas")
    if fm.free_vars(f):
        raise EpmuError("the tree oracle needs a closed formula")
    depth_needed = fm.modal_depth(f)
    valid = prefix.depth - depth_needed
    if require_root and valid < 0:
        raise DepthInsufficient(depth_needed, prefix.depth)

    all_nodes = frozenset(prefix.nodes)

    def parents(S):
        return frozenset([x[:-1] for x in S if len(x) > 1])

    def ev(g):
        if isinstance(g, fm.TrueF):
            return all_nodes
        if isinstance(g, fm.FalseF):
            return frozenset()
        if isinstance(g, fm.Atom):
            if g.name not in prefix.system.atoms:
                raise UnknownAtom(g.name)
            labels = prefix.system.labels
            return frozenset(x for x in prefix.nodes if g.name in labels[x[-1]])
        if isinstance(g, fm.NegAtom):
            return all_nodes - ev(fm.Atom(g.name))
        if isinstance(g, fm.Not):
            return all_nodes - ev(g.child)
        if isinstance(g, fm.And):
            return ev(g.left) & ev(g.right)
        if isinstance(g, fm.Or):
            return ev(g.left) | ev(g.right)
        # on a tree, x has a child in S iff x is the parent of a node of S
        if isinstance(g, fm.AX):
            return all_nodes - parents(all_nodes - ev(g.child))
        if isinstance(g, fm.EX):
            return parents(ev(g.child))
        if isinstance(g, (fm.Know, fm.Poss)):
            S = ev(g.child)
            out = set()
            for d in range(prefix.depth + 1):
                for cls in prefix.sim_classes(g.agent, d).values():
                    if S.issuperset(cls) if isinstance(g, fm.Know) else not S.isdisjoint(cls):
                        out.update(cls)
            return frozenset(out)
        if isinstance(g, (fm.DiamondAct, fm.BoxAct)):
            raise EpmuError("action modalities must be compiled away before checking")
        raise TypeError(f"unexpected node {g!r}")

    result = ev(f)
    root = (prefix.system.q0,)
    trimmed = frozenset(x for x in result if prefix.node_depth(x) <= valid)
    return NodeSet(prefix, trimmed, valid, root in result)


def gamma_by_runs(m, agent, depth, cap=DEFAULT_CAP):
    """Run-level approximation of the knowledge-transfer relation: (q, r)
    survives iff every run of length <= depth to q has an equally long,
    identically observed run to r.  Antitone in depth; exact once depth covers
    the reachable belief states.  UnknownAgent if m does not declare the
    agent."""
    prefix = TreePrefix(m, depth, cap=cap)
    pairs = {(q, r) for q in m.states for r in m.states}
    for d in range(depth + 1):
        for _, cls in prefix.sim_classes(agent, d).items():
            ends = {run[-1] for run in cls}
            for q in ends:
                for r in m.states:
                    if r not in ends:
                        pairs.discard((q, r))
    return GammaRelation(agent, m, frozenset(pairs))


# ---------------------------------------------------------------------------
# Strategy oracle for until objectives in imperfect-information games


def _belief_graph(g, a0):
    """All beliefs reachable from {q0} under own actions + observations, in
    breadth-first order."""
    beliefs = [frozenset([g.q0])]
    seen = set(beliefs)
    moves = {}  # (belief, alpha) -> {obs -> successor belief}
    for B in beliefs:
        for alpha in g.alphabets[a0]:
            byobs = {}
            for q in B:
                for acts, r in g.outgoing(q):
                    if dict(acts)[a0] != alpha:
                        continue
                    obs = g.label(r) & g.obs[a0]
                    byobs.setdefault(obs, set()).add(r)
            moves[(B, alpha)] = {o: frozenset(s) for o, s in byobs.items()}
            for nb in moves[(B, alpha)].values():
                if nb not in seen:
                    seen.add(nb)
                    beliefs.append(nb)
    return beliefs, moves


def reachability_strategy_oracle(g, a0, p1, p2):
    """Exhaustively search belief-positional strategies for one achieving
    "p1 until p2" on every compatible run within the horizon, the size of
    the (state, belief) product.  Sound and complete at this scale:
    reachability on the belief construction admits belief-positional
    winning strategies, and a losing play longer than the horizon can be
    pumped inside the product."""
    beliefs, moves = _belief_graph(g, a0)
    if len(beliefs) > 14:
        raise CapacityExceeded(len(beliefs), 14, "strategy enumeration")
    horizon = len(beliefs) * len(g.states)
    blist = sorted(beliefs, key=sorted)

    def wins(sigma):
        memo = {}

        def go(q, B, steps):
            if p2 in g.label(q):
                return True
            if p1 not in g.label(q):
                return False
            if steps == 0:
                return False
            key = (q, B, steps)
            if key in memo:
                return memo[key]
            alpha = sigma[B]
            succs = [
                (acts, r) for acts, r in g.outgoing(q) if dict(acts)[a0] == alpha
            ]
            # an action with no transition from q is not a move: a loss
            ok = bool(succs)
            for _, r in succs:
                obs = g.label(r) & g.obs[a0]
                nb = moves[(B, alpha)][obs]
                if not go(r, nb, steps - 1):
                    ok = False
                    break
            memo[key] = ok
            return ok

        return go(g.q0, frozenset([g.q0]), horizon)

    for combo in itertools.product(g.alphabets[a0], repeat=len(blist)):
        if wins(dict(zip(blist, combo))):
            return True
    return False


# ---------------------------------------------------------------------------
# Parity oracle (perfect information)


def _attractor(nodes, edges, owner, target, player):
    """Standard attractor of `target` for `player` in a turn-based graph."""
    attr = set(target)
    preds = {v: set() for v in nodes}
    for u, vs in edges.items():
        for v in vs:
            preds[v].add(u)
    frontier = set(target)
    while frontier:
        new = set()
        for v in frontier:
            for u in preds[v]:
                if u in attr:
                    continue
                if owner[u] == player:
                    new.add(u)
                elif all(w in attr for w in edges[u]):
                    new.add(u)
        attr |= new
        frontier = new
    return attr


def _zielonka(nodes, edges, owner, priority):
    """Winning regions (even player, odd player) for max-parity objectives."""
    if not nodes:
        return set(), set()
    p = max(priority[v] for v in nodes)
    player = p % 2  # 0 = even player
    target = {v for v in nodes if priority[v] == p}
    A = _attractor(nodes, edges, owner, target, player)
    rest = nodes - A
    sub_edges = {v: [w for w in edges[v] if w in rest] for v in rest}
    w0, w1 = _zielonka(rest, sub_edges, owner, priority)
    opp_region = w1 if player == 0 else w0
    if not opp_region:
        return (nodes, set()) if player == 0 else (set(), nodes)
    B = _attractor(nodes, edges, owner, opp_region, 1 - player)
    rest2 = nodes - B
    sub_edges2 = {v: [w for w in edges[v] if w in rest2] for v in rest2}
    r0, r1 = _zielonka(rest2, sub_edges2, owner, priority)
    return (r0, r1 | B) if player == 0 else (r0 | B, r1)


def parity_oracle(game, player_index=0):
    """Winning region of player 0 or 1 (`ParityGame.player`) in a
    perfect-information concurrent parity game, via the turn-based
    expansion: the player picks an action, then the opponent picks a reply
    and resolves nondeterminism."""
    me = game.player(player_index)
    nodes = set()
    edges = {}
    owner = {}
    priority = {}
    for q in game.states:
        nodes.add(("s", q))
        owner[("s", q)] = 0
        priority[("s", q)] = game.priority[q]
        edges[("s", q)] = []
        for alpha in game.alphabets[me]:
            mid = ("m", q, alpha)
            succs = []
            for acts, r in game.outgoing(q):
                if dict(acts)[me] == alpha:
                    succs.append(("s", r))
            if not succs:
                continue  # the player cannot choose a move with no outcome
            nodes.add(mid)
            owner[mid] = 1
            priority[mid] = game.priority[q]
            edges[mid] = succs
            edges[("s", q)].append(mid)
    # a state with no playable action is losing for the player: give the
    # opponent a self-loop of odd priority
    sink = ("sink",)
    for q in game.states:
        if not edges[("s", q)]:
            if sink not in nodes:
                nodes.add(sink)
                owner[sink] = 1
                priority[sink] = 1
                edges[sink] = [sink]
            edges[("s", q)].append(sink)
    w_even, _ = _zielonka(nodes, edges, owner, priority)
    return frozenset(q for q in game.states if ("s", q) in w_even)
