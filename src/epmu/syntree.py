"""Annotated syntactic trees and the non-mixing fragment gate.

Each node records its subformula, closedness, and the set of agents whose
epistemic operators are reachable from it along entirely non-closed paths.
A node labeled with a variable gets an extra child labeled with top, so every
variable node has a closed subformula below it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import formula as fm
from .errors import UnknownAgent, depth_guarded


@dataclass
class SynNode:
    path: tuple
    label: str
    form: object  # Formula; None for the top child under a variable
    closed: bool
    agncl: frozenset = frozenset()
    is_top: bool = False
    children: list = field(default_factory=list)

    def __iter__(self):
        """Pre-order, left to right; iterative, so deep trees are fine."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


def _label(f):
    if isinstance(f, fm.Atom):
        return f.name
    if isinstance(f, fm.NegAtom):
        return f"~{f.name}"
    if isinstance(f, fm.Var):
        return f.name
    if isinstance(f, fm.TrueF):
        return "true"
    if isinstance(f, fm.FalseF):
        return "false"
    if isinstance(f, fm.And):
        return "&"
    if isinstance(f, fm.Or):
        return "|"
    if isinstance(f, fm.AX):
        return "AX"
    if isinstance(f, fm.EX):
        return "EX"
    if isinstance(f, fm.Know):
        return f"K {f.agent}"
    if isinstance(f, fm.Poss):
        return f"P {f.agent}"
    if isinstance(f, fm.Mu):
        return f"mu {f.var}"
    if isinstance(f, fm.Nu):
        return f"nu {f.var}"
    if isinstance(f, fm.DiamondAct):
        return "<" + ",".join(f"{a}={x}" for a, x in f.acts) + ">"
    if isinstance(f, fm.BoxAct):
        return "[" + ",".join(f"{a}={x}" for a, x in f.acts) + "]"
    raise TypeError(f"cannot build a syntactic tree over {f!r}")


def build_syntree(f):
    """Build the annotated tree for a positive-form formula."""
    return depth_guarded("syntax tree", _build, f, ())[0]


def _build(f, path):
    """The node of f and the free variables of f, found bottom-up."""
    label = _label(f)
    if isinstance(f, fm.Var):
        top = SynNode(path + (1,), "true", fm.TRUE, closed=True, is_top=True)
        free = {f.name}
        children = [top]
    else:
        free = set()
        children = []
        for i, c in enumerate(f.children(), start=1):
            child, child_free = _build(c, path + (i,))
            children.append(child)
            free |= child_free
        if isinstance(f, fm.BINDERS):
            free.discard(f.var)
    node = SynNode(path, label, f, closed=not free, children=children)
    # AgNCl: agents of epistemic operators reachable through non-closed nodes
    if not node.closed:
        acc = set()
        if isinstance(f, fm.EPISTEMIC):
            acc.add(f.agent)
        for child in node.children:
            if not child.closed:
                acc |= child.agncl
        node.agncl = frozenset(acc)
    return node, free


def frontier_nodes(node):
    """Nearest closed descendants of a non-closed node, left to right,
    excluding the artificial top children under variables."""
    out = []

    def walk(n):
        for c in n.children:
            if c.closed:
                if not c.is_top:
                    out.append(c)
            else:
                walk(c)

    walk(node)
    return out


@dataclass(frozen=True)
class FragmentWitness:
    node_path: tuple
    agent_a: str
    agent_b: str


@dataclass(frozen=True)
class FragmentVerdict:
    accepted: bool
    witness: FragmentWitness | None = None

    def __bool__(self):
        return self.accepted


def check_non_mixing(tree, obs):
    """Accept iff at every node the observable sets of the AgNCl agents form
    a chain under inclusion.  obs maps agent name -> set of atoms."""
    for node in tree:
        agents = sorted(node.agncl)
        for a in agents:
            if a not in obs:
                raise UnknownAgent(a)
        for i, a in enumerate(agents):
            for b in agents[i + 1 :]:
                pa, pb = set(obs[a]), set(obs[b])
                if not (pa <= pb or pb <= pa):
                    return FragmentVerdict(False, FragmentWitness(node.path, a, b))
    return FragmentVerdict(True)
