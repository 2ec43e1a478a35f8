"""Epistemic mu-calculus formulas: AST, concrete syntax, normalization.

The AST covers the positive-form grammar (negation only on atoms) plus a
``Not`` node used transiently by the parser; ``to_positive_form`` removes it.
Modal operators ``DiamondAct``/``BoxAct`` belong to the action-labeled variant
of the calculus and are compiled away by :mod:`epmu.translate`.

The nodes are records, and so are the small results of the other modules:
a record class names its fields, in order, in `_fields` (and in its
`__slots__`) and sets them in an explicit `__init__`.  `Record` gives it,
from those fields alone, `==` within one class, a repr `Name(field=value,
...)`, and copy and pickle by calling the class with the field values.
`FrozenRecord` adds `hash` over the field tuple and refuses to assign or
delete an attribute; its `__init__` writes through `_set`.
"""

from __future__ import annotations

import re

from .errors import (
    FormulaSyntaxError,
    NonMonotoneVariable,
    UnknownAgent,
    UnknownAtom,
    depth_guarded,
)

_set = object.__setattr__


class Record:
    """A mutable record: compared by its fields, so not hashable."""

    __slots__ = ()
    _fields = ()

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()


class FrozenRecord(Record):
    """An immutable record, hashed as the tuple of its fields."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Formula(FrozenRecord):
    """Base class of the nodes.  A node is a frozen record: nodes of one
    class with equal fields are equal and hash alike, and the repr names the
    fields, as in `And(left=Atom(name='p'), right=Var(name='Z'))`.  The
    nodes of one shape share a private base that holds their fields and
    their `__init__`."""

    __slots__ = ()

    def children(self):
        return ()

    def __str__(self):
        return pretty(self)


class _Named(Formula):
    __slots__ = _fields = ("name",)

    def __init__(self, name):
        _set(self, "name", name)


class _Unary(Formula):
    __slots__ = _fields = ("child",)

    def __init__(self, child):
        _set(self, "child", child)

    def children(self):
        return (self.child,)


class _Binary(Formula):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left, right):
        _set(self, "left", left)
        _set(self, "right", right)

    def children(self):
        return (self.left, self.right)


class _Epistemic(Formula):
    __slots__ = _fields = ("agent", "child")

    def __init__(self, agent, child):
        _set(self, "agent", agent)
        _set(self, "child", child)

    def children(self):
        return (self.child,)


class _Binder(Formula):
    __slots__ = _fields = ("var", "body")

    def __init__(self, var, body):
        _set(self, "var", var)
        _set(self, "body", body)

    def children(self):
        return (self.body,)


class _Action(Formula):
    """acts is a sorted tuple of (agent, action) pairs."""

    __slots__ = _fields = ("acts", "child")

    def __init__(self, acts, child):
        _set(self, "acts", acts)
        _set(self, "child", child)

    def children(self):
        return (self.child,)


class TrueF(Formula):
    __slots__ = ()


class FalseF(Formula):
    __slots__ = ()


class Atom(_Named):
    __slots__ = ()


class NegAtom(_Named):
    __slots__ = ()


class Var(_Named):
    __slots__ = ()


class Not(_Unary):
    __slots__ = ()


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class AX(_Unary):
    __slots__ = ()


class EX(_Unary):
    __slots__ = ()


class Know(_Epistemic):
    __slots__ = ()


class Poss(_Epistemic):
    __slots__ = ()


class Mu(_Binder):
    __slots__ = ()


class Nu(_Binder):
    __slots__ = ()


class DiamondAct(_Action):
    """Exists an action-tuple successor."""

    __slots__ = ()


class BoxAct(_Action):
    """Every action-tuple successor."""

    __slots__ = ()


TRUE = TrueF()
FALSE = FalseF()

BINDERS = (Mu, Nu)
EPISTEMIC = (Know, Poss)
LEAVES = frozenset([TrueF, FalseF, Atom, NegAtom, Var])  # the classes without children


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
    kept = []
    g, free = depth_guarded("positive form", _push, f, False, frozenset(), kept)
    if len(set(kept)) == len(kept):  # renaming would return an equal tree
        return g
    return depth_guarded("positive form", _rename_apart, g, free)


# The operator each connective becomes under negation.
_DUAL = {
    And: Or, Or: And, AX: EX, EX: AX, Know: Poss, Poss: Know,
    DiamondAct: BoxAct, BoxAct: DiamondAct, Mu: Nu, Nu: Mu,
}

_NO_VARS = frozenset()


def _push(f, neg, flipped, kept):
    """The positive form of f (of ~f when neg) and its free variables, found
    bottom-up so that a binder need not walk its body again; the name of
    each binder kept is appended to kept."""
    t = type(f)
    if t is Atom:
        return (NegAtom(f.name) if neg else f), _NO_VARS
    if t is NegAtom:
        return (Atom(f.name) if neg else f), _NO_VARS
    if t is TrueF:
        return (FALSE if neg else TRUE), _NO_VARS
    if t is FalseF:
        return (TRUE if neg else FALSE), _NO_VARS
    if t is Var:
        if neg != (f.name in flipped):
            raise NonMonotoneVariable(f.name)
        return f, frozenset([f.name])
    if t is Not:
        return _push(f.child, not neg, flipped, kept)
    op = _DUAL.get(t) if neg else t
    if t is And or t is Or:
        left, left_free = _push(f.left, neg, flipped, kept)
        right, right_free = _push(f.right, neg, flipped, kept)
        return op(left, right), left_free | right_free
    if t is Mu or t is Nu:
        # ~mu Z.phi == nu Z.~phi[Z/~Z]
        flips = (flipped ^ {f.var}) if neg else (flipped - {f.var})
        body, free = _push(f.body, neg, frozenset(flips), kept)
        if f.var not in free:
            return body, free
        kept.append(f.var)
        return op(f.var, body), free - {f.var}
    if t is AX or t is EX:
        child, free = _push(f.child, neg, flipped, kept)
        return op(child), free
    if t is Know or t is Poss:
        child, free = _push(f.child, neg, flipped, kept)
        return op(f.agent, child), free
    if t is DiamondAct or t is BoxAct:
        child, free = _push(f.child, neg, flipped, kept)
        return op(f.acts, child), free
    raise TypeError(f"unexpected node {f!r}")


def _rename_apart(f, free):
    """Give each binder a name no other binder has: a repeated name gets the
    first of name1, name2, … that is neither taken by a binder nor one of
    the free variables of f, so no free occurrence is captured."""
    used = set()

    def walk(g, env):
        if isinstance(g, Var):
            return Var(env.get(g.name, g.name))
        if isinstance(g, BINDERS):
            name = g.var
            if name in used:
                i = 1
                while f"{name}{i}" in used or f"{name}{i}" in free:
                    i += 1
                name = f"{name}{i}"
            used.add(name)
            body = walk(g.body, {**env, g.var: name})
            return type(g)(name, body)
        kids = g.children()
        if not kids:
            return g
        # a loop, not a comprehension: one stack frame per level
        new = []
        for c in kids:
            new.append(walk(c, env))
        return _rebuild(g, new)

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


# ---------------------------------------------------------------------------
# Concrete syntax

# One match per token, after the whitespace before it; group i holds a token
# of kind _KINDS[i], where a "key" token is its own kind and "bad" is any
# character no other group takes.  After the greedy \s* either a character
# (which "." takes) or the end of the text follows, so the last alternative,
# an empty match at the end, is the only one that can be left to match:
# a failing alternation would backtrack into \s* and make a run of trailing
# whitespace quadratic.
_TOKEN_RE = re.compile(
    r"""
    \s*
    (?:
      (->|[~&|().,<>\[\]{}=]|(?:true|false|mu|nu|AX|EX|K|P|E|C)(?![A-Za-z0-9_]))
    | ([A-Z][A-Za-z0-9_]*)
    | ([a-z][A-Za-z0-9_]*)
    | (.)
    | $
    )
    """,
    re.VERBOSE,
)
_KINDS = (None, "key", "VAR", "ident", "bad")

# Binary connectives: precedence (higher binds tighter) and constructor;
# "->" groups to the right, the others to the left.
_BINARY = {"->": (1, None), "|": (2, Or), "&": (3, And)}


def _syntax_error(text, offset, message):
    """FormulaSyntaxError at the line and column of text[offset]."""
    line = text.count("\n", 0, offset) + 1
    return FormulaSyntaxError(message, line, offset - text.rfind("\n", 0, offset))


def _tokenize(text):
    """(kind, text, offset) tuples, ending with an "eof" token."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        i = m.lastindex
        if i is None:  # the end of the text
            continue
        chunk = m.group(i)
        if i == 4:
            raise _syntax_error(text, m.start(i), f"unexpected character {chunk!r}")
        tokens.append((chunk if i == 1 else _KINDS[i], chunk, m.start(i)))
    tokens.append(("eof", "", len(text)))
    return tokens


def is_name(text):
    """Whether text reads as one atom, agent or action name, not as a
    keyword or a fixpoint variable."""
    m = _TOKEN_RE.fullmatch(text)
    return m is not None and m.lastindex == 3 and m.start(3) == 0


class _Parser:
    def __init__(self, text, agents=None, atoms=None):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.agents = agents
        self.atoms = atoms
        self._fresh = 0
        self._vars = None  # every variable name in the text, on first need

    def peek(self):
        return self.tokens[self.pos][0]

    def next(self):
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def error(self, t, message):
        return _syntax_error(self.text, t[2], message)

    def expect(self, kind):
        t = self.next()
        if t[0] != kind:
            raise self.error(t, f"expected {kind!r}, got {t[1]!r}")
        return t[1]

    def agent(self):
        a = self.expect("ident")
        if self.agents is not None and a not in self.agents:
            raise UnknownAgent(a)
        return a

    def fresh_var(self):
        """The next CK<n> that no variable in the text is named, so it
        captures nothing free in the operand; the names are collected once
        per parse, not by walking each operand."""
        if self._vars is None:
            self._vars = {text for kind, text, _ in self.tokens if kind == "VAR"}
        while True:
            self._fresh += 1
            name = f"CK{self._fresh}"
            if name not in self._vars:
                return name

    def formula(self, prec=1):
        """Operands joined by binary connectives that bind at least as
        tightly as prec (precedence climbing)."""
        f = self.unary()
        while self.peek() in _BINARY:
            op_prec, op = _BINARY[self.peek()]
            if op_prec < prec:
                break
            self.pos += 1
            if op is None:  # f -> g == ~f | g
                f = Or(Not(f), self.formula(op_prec))
            else:
                f = op(f, self.formula(op_prec + 1))
        return f

    def unary(self):
        """A prefix operator and its operand, or an atom, a variable, a
        parenthesised formula or a binder (whose body extends maximally)."""
        t = self.next()
        kind = t[0]
        if kind == "~":
            return Not(self.unary())
        if kind == "AX":
            return AX(self.unary())
        if kind == "EX":
            return EX(self.unary())
        if kind in ("K", "P"):
            a = self.agent()
            self.expect(".")
            child = self.unary()
            return Know(a, child) if kind == "K" else Poss(a, child)
        if kind == "E":
            self.expect("{")
            names = [self.agent()]
            while self.peek() == ",":
                self.pos += 1
                names.append(self.agent())
            self.expect("}")
            child = self.unary()
            f = Know(names[-1], child)
            for a in reversed(names[:-1]):
                f = And(Know(a, child), f)
            return f
        if kind == "C":
            self.expect("{")
            a = self.agent()
            self.expect(",")
            b = self.agent()
            self.expect("}")
            child = self.unary()
            z = self.fresh_var()
            return Nu(z, And(child, And(Know(a, Var(z)), Know(b, Var(z)))))
        if kind == "<":
            acts = self.act_tuple(">")
            return DiamondAct(acts, self.unary())
        if kind == "[":
            acts = self.act_tuple("]")
            return BoxAct(acts, self.unary())
        if kind == "true":
            return TRUE
        if kind == "false":
            return FALSE
        if kind == "ident":
            if self.atoms is not None and t[1] not in self.atoms:
                raise UnknownAtom(t[1])
            return Atom(t[1])
        if kind == "VAR":
            return Var(t[1])
        if kind == "(":
            f = self.formula()
            self.expect(")")
            return f
        if kind in ("mu", "nu"):
            var = self.expect("VAR")
            self.expect(".")
            body = self.formula()
            return Mu(var, body) if kind == "mu" else Nu(var, body)
        raise self.error(t, f"expected a formula, got {t[1] or 'end of input'!r}")

    def act_tuple(self, close):
        pairs = []
        while True:
            a = self.agent()
            self.expect("=")
            pairs.append((a, self.expect("ident")))
            t = self.next()
            if t[0] == close:
                break
            if t[0] != ",":
                raise self.error(
                    t, f"expected ',' or {close!r} in action tuple, got {t[1]!r}"
                )
        return tuple(sorted(pairs))


def parse_formula(text, agents=None, atoms=None):
    """Parse concrete syntax into an AST; derived operators (->, E, C) are
    expanded here.  If an agent or atom roster is given, an agent or atom
    outside it raises UnknownAgent or UnknownAtom."""
    p = _Parser(text, agents, atoms)
    f = depth_guarded("parse", p.formula)
    t = p.next()
    if t[0] != "eof":
        raise p.error(t, f"trailing input {t[1]!r}")
    return f


# ---------------------------------------------------------------------------
# Printing


def _acts_str(acts):
    return ",".join(f"{a}={act}" for a, act in acts)


def pretty(f):
    """Render in the concrete syntax; parse_formula(pretty(f)) == f for ASTs
    free of expanded sugar."""
    t = type(f)
    if t is Atom or t is Var:
        return f.name
    if t is And:
        return f"{_paren(f.left)} & {_paren(f.right)}"
    if t is Or:
        return f"{_paren(f.left)} | {_paren(f.right)}"
    if t is NegAtom:
        return f"~{f.name}"
    if t is EX:
        return f"EX {_paren(f.child)}"
    if t is AX:
        return f"AX {_paren(f.child)}"
    if t is Know:
        return f"K {f.agent} . {_paren(f.child)}"
    if t is Poss:
        return f"P {f.agent} . {_paren(f.child)}"
    if t is Mu:
        return f"mu {f.var} . {pretty(f.body)}"
    if t is Nu:
        return f"nu {f.var} . {pretty(f.body)}"
    if t is TrueF:
        return "true"
    if t is FalseF:
        return "false"
    if t is Not:
        return f"~{_paren(f.child)}"
    if t is DiamondAct:
        return f"<{_acts_str(f.acts)}> {_paren(f.child)}"
    if t is BoxAct:
        return f"[{_acts_str(f.acts)}] {_paren(f.child)}"
    raise TypeError(f"unexpected node {f!r}")


def _paren(f):
    """pretty(f), in parentheses unless f is a leaf or a negation."""
    t = type(f)
    if t in LEAVES or t is Not:
        return pretty(f)
    return f"({pretty(f)})"
