"""Annotated syntactic trees and the non-mixing fragment gate.

Each node records its subformula, its free variables and closedness, and the
set of agents whose epistemic operators are reachable from it along entirely
non-closed paths.  A node labeled with a variable is a leaf.
"""

from __future__ import annotations

from . import formula as fm
from .distinction import chain_order
from .errors import NonChainAgents, UnknownAgent
from .formula import FrozenRecord, Record, _set


class SynNode(Record):
    """A node of the tree; `form` is its subformula, `path` the child
    indices (1 or 2) from the root down to it, and `binds` says that a
    fixpoint binder is this node or below it.  Nodes hash and compare by
    identity; `build_syntree` makes them without `__init__` and sets every
    field itself.

    `path` is stored as `_link`: None for the empty path, else the pair
    (`_link` of the path less its last index, that index).  A child's pair
    extends its parent's, so a tree holds one pair per node, not one tuple
    of its depth; the tuple is built on read."""

    __slots__ = ("_link", "form", "closed", "agncl", "children", "free", "binds")
    _fields = ("path", "form", "closed", "agncl", "children", "free", "binds")
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

    @property
    def path(self):
        ks, link = [], self._link
        while link is not None:
            link, k = link
            ks.append(k)
        return tuple(reversed(ks))

    @path.setter
    def path(self, path):
        link = None
        for k in path:
            link = link, k
        self._link = link

    def __iter__(self):
        """Pre-order, left to right; iterative, so deep trees are fine."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


# The shape of each node class, for build_syntree; `Not` has none.
_LEAF, _VAR, _ONE, _EPISTEMIC, _BINDER, _TWO = range(6)
_SHAPE = {
    **dict.fromkeys(fm.LEAVES, _LEAF),
    fm.Var: _VAR,
    **dict.fromkeys((fm.AX, fm.EX, fm.DiamondAct, fm.BoxAct), _ONE),
    **dict.fromkeys(fm.EPISTEMIC, _EPISTEMIC),
    **dict.fromkeys(fm.BINDERS, _BINDER),
    **dict.fromkeys((fm.And, fm.Or), _TWO),
}


def build_syntree(f):
    """Build the annotated tree for a positive-form formula, in one
    post-order pass over an explicit stack, so any depth is fine: a node is
    made when the pass reaches it and annotated from its (at most two)
    children when they are done.  TypeError for `Not` or a non-formula.

    A node's free variables are its children's, plus a variable leaf's own
    and less a binder's; its AgNCl (agents of epistemic operators reachable
    through non-closed nodes) is its children's, plus an epistemic
    operator's own agent, and empty where it is closed."""
    new, empty = SynNode.__new__, frozenset()
    top = []
    stack = [(f, None, top)]
    pop, push = stack.pop, stack.append
    while stack:
        f, link, out = pop()
        if out is None:  # f is a node whose children are done, link its shape
            node, shape = f, link
            if shape == _TWO:
                left, right = node.children
                free = left.free | right.free
                node.binds = left.binds or right.binds
                agncl = left.agncl | right.agncl
            else:
                (child,) = node.children
                free, node.binds, agncl = child.free, child.binds, child.agncl
                if shape == _BINDER:
                    free = free - {node.form.var}
                    node.binds = True
                elif shape == _EPISTEMIC:
                    agncl = agncl | {node.form.agent}
            node.free, node.closed = free, not free
            node.agncl = agncl if free else empty
            continue
        shape = _SHAPE.get(type(f))
        if shape is None:
            raise TypeError(f"cannot build a syntactic tree over {f!r}")
        node = new(SynNode)
        node._link, node.form, node.children = link, f, []
        out.append(node)
        if shape > _VAR:
            push((node, shape, None))
            if shape == _TWO:
                push((f.right, (link, 2), node.children))
                push((f.left, (link, 1), node.children))
            else:
                push((f.body if shape == _BINDER else f.child, (link, 1), node.children))
            continue
        node.free = frozenset((f.name,)) if shape == _VAR else empty
        node.closed, node.agncl, node.binds = shape == _LEAF, empty, False
    return top[0]


def frontier_nodes(node):
    """Nearest closed descendants of a non-closed node that have children,
    left to right: a closed leaf is read where it is used."""
    out = []
    stack = list(reversed(node.children))
    while stack:
        n = stack.pop()
        if not n.closed:
            stack.extend(reversed(n.children))
        elif n.children:
            out.append(n)
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
