"""Epistemic mu-calculus formulas: AST, concrete syntax, normalization.

The AST covers the positive-form grammar (negation only on atoms) plus a
``Not`` node used transiently by the parser; ``to_positive_form`` removes it.
Modal operators ``DiamondAct``/``BoxAct`` belong to the action-labeled variant
of the calculus and are compiled away by :mod:`epmu.translate`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import FormulaSyntaxError, NonMonotoneVariable, UnknownAgent, depth_guarded


class Formula:
    """Base class; all nodes are immutable and hashable."""

    def children(self):
        return ()

    def __and__(self, other):
        return And(self, other)

    def __or__(self, other):
        return Or(self, other)

    def __invert__(self):
        return Not(self)

    def __str__(self):
        return pretty(self)


@dataclass(frozen=True)
class TrueF(Formula):
    pass


@dataclass(frozen=True)
class FalseF(Formula):
    pass


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class NegAtom(Formula):
    name: str


@dataclass(frozen=True)
class Var(Formula):
    name: str


@dataclass(frozen=True)
class Not(Formula):
    child: Formula

    def children(self):
        return (self.child,)


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula

    def children(self):
        return (self.left, self.right)


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula

    def children(self):
        return (self.left, self.right)


@dataclass(frozen=True)
class AX(Formula):
    child: Formula

    def children(self):
        return (self.child,)


@dataclass(frozen=True)
class EX(Formula):
    child: Formula

    def children(self):
        return (self.child,)


@dataclass(frozen=True)
class Know(Formula):
    agent: str
    child: Formula

    def children(self):
        return (self.child,)


@dataclass(frozen=True)
class Poss(Formula):
    agent: str
    child: Formula

    def children(self):
        return (self.child,)


@dataclass(frozen=True)
class Mu(Formula):
    var: str
    body: Formula

    def children(self):
        return (self.body,)


@dataclass(frozen=True)
class Nu(Formula):
    var: str
    body: Formula

    def children(self):
        return (self.body,)


@dataclass(frozen=True)
class DiamondAct(Formula):
    """Exists an action-tuple successor; acts is a sorted (agent, action) tuple."""

    acts: tuple
    child: Formula

    def children(self):
        return (self.child,)


@dataclass(frozen=True)
class BoxAct(Formula):
    acts: tuple
    child: Formula

    def children(self):
        return (self.child,)


TRUE = TrueF()
FALSE = FalseF()

BINDERS = (Mu, Nu)
EPISTEMIC = (Know, Poss)


def free_vars(f):
    """Set of fixpoint variables occurring free in f."""
    if isinstance(f, Var):
        return {f.name}
    if isinstance(f, BINDERS):
        return free_vars(f.body) - {f.var}
    out = set()
    for c in f.children():
        out |= free_vars(c)
    return out


def is_closed(f):
    return not free_vars(f)


def atoms_of(f):
    if isinstance(f, (Atom, NegAtom)):
        return {f.name}
    out = set()
    for c in f.children():
        out |= atoms_of(c)
    return out


def agents_of(f):
    out = set()
    if isinstance(f, EPISTEMIC):
        out.add(f.agent)
    if isinstance(f, (DiamondAct, BoxAct)):
        out |= {a for a, _ in f.acts}
    for c in f.children():
        out |= agents_of(c)
    return out


def modal_depth(f):
    """Maximum nesting of AX/EX/<..>/[..] operators."""
    if isinstance(f, (AX, EX, DiamondAct, BoxAct)):
        return 1 + modal_depth(f.child)
    if not f.children():
        return 0
    return max(modal_depth(c) for c in f.children())


def is_fixpoint_free(f):
    if isinstance(f, BINDERS):
        return False
    return all(is_fixpoint_free(c) for c in f.children())


def _rebuild(f, new_children):
    if isinstance(f, (And, Or)):
        return type(f)(new_children[0], new_children[1])
    if isinstance(f, (AX, EX, Not)):
        return type(f)(new_children[0])
    if isinstance(f, EPISTEMIC):
        return type(f)(f.agent, new_children[0])
    if isinstance(f, BINDERS):
        return type(f)(f.var, new_children[0])
    if isinstance(f, (DiamondAct, BoxAct)):
        return type(f)(f.acts, new_children[0])
    return f


def subst(f, var, repl):
    """Substitute repl for free occurrences of var.

    Safe without capture checks once bound variables are pairwise distinct
    (to_positive_form guarantees this).
    """
    if isinstance(f, Var):
        return repl if f.name == var else f
    if isinstance(f, BINDERS) and f.var == var:
        return f
    kids = f.children()
    if not kids:
        return f
    return _rebuild(f, [subst(c, var, repl) for c in kids])


# ---------------------------------------------------------------------------
# Positive form


def to_positive_form(f):
    """Push negations to atoms, rename bound variables apart, drop vacuous
    binders.  Raises NonMonotoneVariable for odd-polarity bound occurrences."""
    g = depth_guarded("positive form", _push, f, False, frozenset())
    return depth_guarded("positive form", _rename_apart, g)


# The operator each connective becomes under negation.
_DUAL = {
    And: Or, Or: And, AX: EX, EX: AX, Know: Poss, Poss: Know,
    DiamondAct: BoxAct, BoxAct: DiamondAct, Mu: Nu, Nu: Mu,
}


def _push(f, neg, flipped):
    if isinstance(f, TrueF):
        return FALSE if neg else TRUE
    if isinstance(f, FalseF):
        return TRUE if neg else FALSE
    if isinstance(f, Atom):
        return NegAtom(f.name) if neg else f
    if isinstance(f, NegAtom):
        return Atom(f.name) if neg else f
    if isinstance(f, Var):
        if neg != (f.name in flipped):
            raise NonMonotoneVariable(f.name)
        return f
    if isinstance(f, Not):
        return _push(f.child, not neg, flipped)
    op = _DUAL.get(type(f)) if neg else type(f)
    if isinstance(f, (And, Or)):
        return op(_push(f.left, neg, flipped), _push(f.right, neg, flipped))
    if isinstance(f, (AX, EX)):
        return op(_push(f.child, neg, flipped))
    if isinstance(f, EPISTEMIC):
        return op(f.agent, _push(f.child, neg, flipped))
    if isinstance(f, (DiamondAct, BoxAct)):
        return op(f.acts, _push(f.child, neg, flipped))
    if isinstance(f, BINDERS):
        # ~mu Z.phi == nu Z.~phi[Z/~Z]
        flips = (flipped ^ {f.var}) if neg else (flipped - {f.var})
        body = _push(f.body, neg, frozenset(flips))
        if f.var not in free_vars(body):
            return body
        return op(f.var, body)
    raise TypeError(f"unexpected node {f!r}")


def _rename_apart(f):
    used = set()

    def walk(g, env):
        if isinstance(g, Var):
            return Var(env.get(g.name, g.name))
        if isinstance(g, BINDERS):
            name = g.var
            if name in used:
                i = 1
                while f"{name}{i}" in used:
                    i += 1
                name = f"{name}{i}"
            used.add(name)
            body = walk(g.body, {**env, g.var: name})
            return type(g)(name, body)
        kids = g.children()
        if not kids:
            return g
        return _rebuild(g, [walk(c, env) for c in kids])

    return walk(f, {})


def unfold_fixpoint(f, k):
    """Replace every binder by k syntactic iterations from its seed
    (False for mu, True for nu); the result is fixpoint-free."""
    if isinstance(f, BINDERS):
        body = unfold_fixpoint(f.body, k)
        acc = FALSE if isinstance(f, Mu) else TRUE
        for _ in range(k):
            acc = subst(body, f.var, acc)
        return acc
    kids = f.children()
    if not kids:
        return f
    return _rebuild(f, [unfold_fixpoint(c, k) for c in kids])


def dual(f):
    """Negation dual in positive form: dual(f) == positive form of ~f."""
    return to_positive_form(Not(f))


# ---------------------------------------------------------------------------
# Concrete syntax

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<arrow>->)
  | (?P<sym>[~&|().,<>\[\]{}=])
  | (?P<word>[A-Za-z][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)

_KEYWORDS = {"true", "false", "mu", "nu", "AX", "EX", "K", "P", "E", "C"}


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        chunk = m.group(0)
        if m.lastgroup == "word":
            if chunk in _KEYWORDS:
                tokens.append(_Token(chunk, chunk, line, col))
            elif chunk[0].isupper():
                tokens.append(_Token("VAR", chunk, line, col))
            else:
                tokens.append(_Token("ident", chunk, line, col))
        elif m.lastgroup != "ws":
            tokens.append(_Token(chunk, chunk, line, col))
        nl = chunk.count("\n")
        if nl:
            line += nl
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text, agents=None):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.agents = agents
        self._fresh = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect(self, kind):
        t = self.next()
        if t.kind != kind:
            raise FormulaSyntaxError(
                f"expected {kind!r}, got {t.text!r}", t.line, t.col
            )
        return t

    def error(self, msg):
        t = self.peek()
        raise FormulaSyntaxError(f"{msg}, got {t.text or 'end of input'!r}", t.line, t.col)

    def agent(self):
        t = self.expect("ident")
        if self.agents is not None and t.text not in self.agents:
            raise UnknownAgent(t.text)
        return t.text

    def fresh_var(self, avoid):
        while True:
            self._fresh += 1
            name = f"CK{self._fresh}"
            if name not in avoid:
                return name

    def formula(self):
        return self.implies()

    def implies(self):
        left = self.disj()
        if self.peek().kind == "->":
            self.next()
            right = self.implies()
            return Or(Not(left), right)
        return left

    def disj(self):
        f = self.conj()
        while self.peek().kind == "|":
            self.next()
            f = Or(f, self.conj())
        return f

    def conj(self):
        f = self.unary()
        while self.peek().kind == "&":
            self.next()
            f = And(f, self.unary())
        return f

    def unary(self):
        t = self.peek()
        if t.kind == "~":
            self.next()
            return Not(self.unary())
        if t.kind == "AX":
            self.next()
            return AX(self.unary())
        if t.kind == "EX":
            self.next()
            return EX(self.unary())
        if t.kind in ("K", "P"):
            self.next()
            a = self.agent()
            self.expect(".")
            child = self.unary()
            return Know(a, child) if t.kind == "K" else Poss(a, child)
        if t.kind == "E":
            self.next()
            self.expect("{")
            names = [self.agent()]
            while self.peek().kind == ",":
                self.next()
                names.append(self.agent())
            self.expect("}")
            child = self.unary()
            f = Know(names[-1], child)
            for a in reversed(names[:-1]):
                f = And(Know(a, child), f)
            return f
        if t.kind == "C":
            self.next()
            self.expect("{")
            a = self.agent()
            self.expect(",")
            b = self.agent()
            self.expect("}")
            child = self.unary()
            z = self.fresh_var(free_vars(child))
            return Nu(z, And(child, And(Know(a, Var(z)), Know(b, Var(z)))))
        if t.kind == "<":
            self.next()
            acts = self.act_tuple(">")
            return DiamondAct(acts, self.unary())
        if t.kind == "[":
            self.next()
            acts = self.act_tuple("]")
            return BoxAct(acts, self.unary())
        return self.primary()

    def act_tuple(self, close):
        pairs = []
        while True:
            a = self.agent()
            self.expect("=")
            act = self.expect("ident").text
            pairs.append((a, act))
            t = self.next()
            if t.kind == close:
                break
            if t.kind != ",":
                raise FormulaSyntaxError(
                    f"expected ',' or {close!r} in action tuple, got {t.text!r}",
                    t.line,
                    t.col,
                )
        return tuple(sorted(pairs))

    def primary(self):
        t = self.peek()
        if t.kind == "true":
            self.next()
            return TRUE
        if t.kind == "false":
            self.next()
            return FALSE
        if t.kind == "ident":
            self.next()
            return Atom(t.text)
        if t.kind == "VAR":
            self.next()
            return Var(t.text)
        if t.kind == "(":
            self.next()
            f = self.formula()
            self.expect(")")
            return f
        if t.kind in ("mu", "nu"):
            self.next()
            var = self.expect("VAR").text
            self.expect(".")
            body = self.formula()
            return Mu(var, body) if t.kind == "mu" else Nu(var, body)
        self.error("expected a formula")


def parse_formula(text, agents=None):
    """Parse concrete syntax into an AST; derived operators (->, E, C) are
    expanded here.  If an agent roster is given, unknown agents are rejected."""
    p = _Parser(text, agents)
    f = depth_guarded("parse", p.formula)
    t = p.peek()
    if t.kind != "eof":
        raise FormulaSyntaxError(f"trailing input {t.text!r}", t.line, t.col)
    return f


# ---------------------------------------------------------------------------
# Printing


def _acts_str(acts):
    return ",".join(f"{a}={act}" for a, act in acts)


def pretty(f):
    """Render in the concrete syntax; parse_formula(pretty(f)) == f for ASTs
    free of expanded sugar."""
    if isinstance(f, TrueF):
        return "true"
    if isinstance(f, FalseF):
        return "false"
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, NegAtom):
        return f"~{f.name}"
    if isinstance(f, Var):
        return f.name
    if isinstance(f, Not):
        return f"~{_paren(f.child)}"
    if isinstance(f, And):
        return f"{_paren(f.left)} & {_paren(f.right)}"
    if isinstance(f, Or):
        return f"{_paren(f.left)} | {_paren(f.right)}"
    if isinstance(f, AX):
        return f"AX {_paren(f.child)}"
    if isinstance(f, EX):
        return f"EX {_paren(f.child)}"
    if isinstance(f, Know):
        return f"K {f.agent} . {_paren(f.child)}"
    if isinstance(f, Poss):
        return f"P {f.agent} . {_paren(f.child)}"
    if isinstance(f, Mu):
        return f"mu {f.var} . {pretty(f.body)}"
    if isinstance(f, Nu):
        return f"nu {f.var} . {pretty(f.body)}"
    if isinstance(f, DiamondAct):
        return f"<{_acts_str(f.acts)}> {_paren(f.child)}"
    if isinstance(f, BoxAct):
        return f"[{_acts_str(f.acts)}] {_paren(f.child)}"
    raise TypeError(f"unexpected node {f!r}")


def _paren(f):
    if f.children() and not isinstance(f, (Not, NegAtom)):
        return f"({pretty(f)})"
    return pretty(f)
