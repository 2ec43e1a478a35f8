"""Annotated syntactic trees and the non-mixing fragment gate.

Each node records its subformula, its free variables and closedness, and the
set of agents whose epistemic operators are reachable from it along entirely
non-closed paths.  A node labeled with a variable is a leaf.
"""

from __future__ import annotations

from . import formula as fm
from .distinction import chain_order
from .errors import NonChainAgents, UnknownAgent, depth_guarded
from .formula import FrozenRecord, Record, _set


class SynNode(Record):
    """A node of the tree; `form` is its subformula, and `binds` says that
    a fixpoint binder is this node or below it.  Nodes hash and compare by
    identity, and `_build` fills in `free` and `agncl` after construction."""

    __slots__ = _fields = ("path", "form", "closed", "agncl", "children", "free", "binds")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, path, form, closed, agncl=frozenset(), children=None,
                 free=frozenset(), binds=False):
        self.path = path
        self.form = form
        self.closed = closed
        self.agncl = agncl
        self.children = [] if children is None else children
        self.free = free
        self.binds = binds

    def __iter__(self):
        """Pre-order, left to right; iterative, so deep trees are fine."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


def build_syntree(f):
    """Build the annotated tree for a positive-form formula."""
    return depth_guarded("syntax tree", _build, f, ())[0]


def _build(f, path):
    """The node of f and the free variables of f, found bottom-up."""
    if isinstance(f, fm.Not) or not isinstance(f, fm.Formula):
        raise TypeError(f"cannot build a syntactic tree over {f!r}")
    binds = False
    free = {f.name} if isinstance(f, fm.Var) else set()
    children = []
    for i, c in enumerate(f.children(), start=1):
        child, child_free = _build(c, path + (i,))
        children.append(child)
        free |= child_free
        binds = binds or child.binds
    if isinstance(f, fm.BINDERS):
        free.discard(f.var)
        binds = True
    node = SynNode(path, f, closed=not free, children=children, binds=binds)
    if free:
        node.free = frozenset(free)
        # AgNCl: agents of epistemic operators reachable through non-closed
        # nodes; a closed child's set is empty
        agents = {f.agent} if isinstance(f, fm.EPISTEMIC) else set()
        node.agncl = frozenset(agents.union(*[c.agncl for c in children]))
    return node, free


def frontier_nodes(node):
    """Nearest closed descendants of a non-closed node, left to right."""
    out = []
    stack = list(reversed(node.children))
    while stack:
        n = stack.pop()
        if n.closed:
            out.append(n)
        else:
            stack.extend(reversed(n.children))
    return out


class FragmentWitness(FrozenRecord):
    __slots__ = _fields = ("node_path", "agent_a", "agent_b")

    def __init__(self, node_path, agent_a, agent_b):
        _set(self, "node_path", node_path)
        _set(self, "agent_a", agent_a)
        _set(self, "agent_b", agent_b)


class FragmentVerdict(FrozenRecord):
    __slots__ = _fields = ("accepted", "witness")

    def __init__(self, accepted, witness=None):
        _set(self, "accepted", accepted)
        _set(self, "witness", witness)  # a FragmentWitness when rejected

    def __bool__(self):
        return self.accepted


def check_non_mixing(tree, obs):
    """Accept iff at every node the observable sets of the AgNCl agents form
    a chain under inclusion (`chain_order`).  obs maps agent name -> set of
    atoms.

    Only the tops of the non-closed parts are read: the root, and the body
    of each closed binder, as `RefinementChain.region` does.  AgNCl is empty
    at a closed node, a non-closed node's set holds those of its non-closed
    children, and a closed node with a non-closed child binds its variable.
    So every node's set lies in its top's, which comes earlier in pre-order,
    and a subset of a chain is a chain: the verdict, the first witness and
    the `UnknownAgent` are those of a walk over every node."""
    for node in _part_tops(tree):
        for a in sorted(node.agncl):
            if a not in obs:
                raise UnknownAgent(a)
        if len(node.agncl) > 1:
            try:
                chain_order(obs, node.agncl)
            except NonChainAgents as e:
                return FragmentVerdict(False, FragmentWitness(node.path, e.agent_a, e.agent_b))
    return FragmentVerdict(True)


def _part_tops(tree):
    """The root and each closed binder's body, in pre-order (binders lie under `binds`)."""
    yield tree
    stack = [tree]
    while stack:
        node = stack.pop()
        if node.closed and isinstance(node.form, fm.BINDERS):
            yield node.children[0]
        stack.extend(reversed([c for c in node.children if c.binds]))
