"""Annotated syntactic trees and the non-mixing fragment gate.

`build_syntree` is the one maker of `SynNode`s.  Each node holds its
subformula, its children, its free variables and closedness, its AgNCl (the
agents whose epistemic operators are reachable from it along entirely
non-closed paths) and whether a binder lies at or below it.  A node labeled
with a variable is a leaf.
"""

from __future__ import annotations

from . import formula as fm
from .distinction import chain_order
from .errors import NonChainAgents
from .formula import FrozenRecord, _set


class SynNode:
    """A node of the tree: `form` is its subformula, `children` its child
    nodes (at most two, left to right), `free` its free variables and
    `closed` whether there are none, `agncl` its AgNCl, and `binds` whether
    a fixpoint binder is this node or below it.  Only `build_syntree` makes
    nodes, and it sets every field; nodes compare and hash by identity."""

    __slots__ = ("form", "closed", "agncl", "children", "free", "binds")

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
    stack = [(f, top, None)]
    pop, push = stack.pop, stack.append
    while stack:
        f, out, shape = pop()
        if shape is not None:  # f is a node whose children are done
            node = f
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
        node.form, node.children = f, []
        out.append(node)
        if shape > _VAR:
            push((node, None, shape))
            if shape == _TWO:
                push((f.right, node.children, None))
                push((f.left, node.children, None))
            else:
                push((f.body if shape == _BINDER else f.child, node.children, None))
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
    for top in _part_tops(tree):
        if top.agncl:
            try:
                chain_order(obs, top.agncl)
            except NonChainAgents as e:
                return FragmentVerdict(False, FragmentWitness(_path_to(tree, top), e.agent_a, e.agent_b))
    return FragmentVerdict(True)


def _path_to(tree, top):
    """The child indices (1 or 2) from the root down to a part top, found
    by one walk through the nodes that bind."""
    stack = [(tree, ())]
    while stack[-1][0] is not top:
        node, path = stack.pop()
        if node.binds:
            stack.extend([(c, path + (k,)) for k, c in enumerate(node.children, 1)])
    return stack[-1][1]


def _part_tops(tree):
    """The root and each closed binder's body, in pre-order (binders lie under `binds`)."""
    yield tree
    stack = [tree]
    while stack:
        node = stack.pop()
        if node.closed and isinstance(node.form, fm.BINDERS):
            yield node.children[0]
        stack.extend(reversed([c for c in node.children if c.binds]))
