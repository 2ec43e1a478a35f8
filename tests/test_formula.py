import gc
import hashlib
import random
import re
import time
import tracemalloc

import pytest

from epmu import formula as fm
from epmu.distinction import chain_order
from epmu.errors import (
    FormulaSyntaxError,
    FormulaTooDeep,
    NonChainAgents,
    NonMonotoneVariable,
    UnknownAgent,
)
from epmu.gen import random_plain_formula, random_single_binder_formula
from epmu.formula import (
    AX,
    EX,
    And,
    Atom,
    FALSE,
    Know,
    Mu,
    NegAtom,
    Not,
    Nu,
    Or,
    Poss,
    TRUE,
    Var,
    parse_formula,
    pretty,
    to_positive_form,
    unfold_fixpoint,
)
from epmu.syntree import build_syntree, check_non_mixing, frontier_nodes


class TestParse:
    def test_mu_disjunction(self):
        assert parse_formula("mu Z . p | EX Z") == Mu("Z", Or(Atom("p"), EX(Var("Z"))))

    def test_binder_scope_is_maximal(self):
        assert parse_formula("mu Z . p & EX Z") == Mu("Z", And(Atom("p"), EX(Var("Z"))))

    def test_common_knowledge_expansion(self):
        f = parse_formula("C{a,b} p")
        assert isinstance(f, Nu)
        z = f.var
        assert f.body == And(Atom("p"), And(Know("a", Var(z)), Know("b", Var(z))))

    def test_everybody_knows_expansion(self):
        f = parse_formula("E{a,b} p")
        assert f == And(Know("a", Atom("p")), Know("b", Atom("p")))

    def test_implication(self):
        assert parse_formula("p -> q") == Or(Not(Atom("p")), Atom("q"))

    def test_precedence(self):
        # ~ binds tighter than &, & tighter than |
        f = parse_formula("~p & q | r")
        assert f == Or(And(Not(Atom("p")), Atom("q")), Atom("r"))

    def test_modalities_bind_tighter_than_binders(self):
        f = parse_formula("mu Z . AX Z | p")
        assert f == Mu("Z", Or(AX(Var("Z")), Atom("p")))

    def test_epistemic_parse(self):
        assert parse_formula("K a . p") == Know("a", Atom("p"))
        assert parse_formula("P a . EX q") == Poss("a", EX(Atom("q")))

    def test_action_modalities(self):
        f = parse_formula("<a=x,b=u> p")
        assert f == fm.DiamondAct((("a", "x"), ("b", "u")), Atom("p"))
        f = parse_formula("[b=u,a=x] p")
        assert f.acts == (("a", "x"), ("b", "u"))  # sorted canonical order

    def test_trailing_dot_is_error(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("mu Z .")

    def test_trailing_garbage(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("p q")

    def test_error_position(self):
        with pytest.raises(FormulaSyntaxError) as e:
            parse_formula("p & ?")
        assert e.value.line == 1

    def test_unknown_agent_with_roster(self):
        from epmu.errors import UnknownAgent

        with pytest.raises(UnknownAgent):
            parse_formula("K c . p", agents=("a", "b"))

    def test_pretty_round_trip(self):
        for text in [
            "mu Z . p | EX Z",
            "K a . (p & EX q)",
            "nu Z . p & AX (P a . Z)",
            "<a=x,b=u> (p | q)",
            "~p & (q | true)",
        ]:
            f = parse_formula(text)
            assert parse_formula(pretty(f)) == f

    @pytest.mark.parametrize(
        "text,name",
        [("p", True), ("a_1", True), ("trueish", True), ("go-left", False), ("x y", False),
         ("E", False), ("Z", False), ("true", False), (" p", False), ("p ", False), ("", False)],
    )
    def test_is_name(self, text, name):
        # the tokenizer reads text as one identifier, not a keyword or a variable
        assert fm.is_name(text) is name

    def test_pretty_rejects_unknown_nodes(self):
        with pytest.raises(TypeError, match="unexpected node"):
            pretty(And(Atom("p"), "q"))
        with pytest.raises(TypeError, match="unexpected node"):
            pretty(object())

    def test_implication_groups_right_and_binds_loosest(self):
        p, q, r = Atom("p"), Atom("q"), Atom("r")
        assert parse_formula("p -> q -> r") == Or(Not(p), Or(Not(q), r))
        assert parse_formula("p | q -> r") == Or(Not(Or(p, q)), r)
        assert parse_formula("p -> q | r") == Or(Not(p), Or(q, r))

    def test_deep_parentheses_and_binders(self):
        assert parse_formula("(" * 200 + "p" + ")" * 200) == Atom("p")
        f = parse_formula("mu Z . " * 200 + "Z")
        for _ in range(200):
            assert isinstance(f, Mu)
            f = f.body
        assert f == Var("Z")

    def test_deep_nesting_names_the_phase(self):
        with pytest.raises(FormulaTooDeep) as e:
            parse_formula("EX " * 1000 + "p")
        assert e.value.phase == "parse" and "parse" in str(e.value)


class TestPositiveForm:
    def test_dual_of_ax(self):
        assert to_positive_form(Not(AX(Not(Atom("p"))))) == EX(Atom("p"))

    def test_negated_mu(self):
        # ~mu Z.~(p & ~Z)  ==  nu Z.(p & Z)
        f = Not(Mu("Z", Not(And(Atom("p"), Not(Var("Z"))))))
        assert to_positive_form(f) == Nu("Z", And(Atom("p"), Var("Z")))

    def test_non_monotone_rejected(self):
        with pytest.raises(NonMonotoneVariable):
            to_positive_form(Mu("Z", Not(Var("Z"))))

    def test_idempotent(self):
        f = parse_formula("~(mu Z . p | EX Z) & ~K a . ~q")
        once = to_positive_form(f)
        assert to_positive_form(once) == once

    def test_epistemic_duals(self):
        assert to_positive_form(Not(Know("a", Atom("p")))) == Poss("a", NegAtom("p"))

    def test_bound_vars_renamed_apart(self):
        f = parse_formula("(mu Z . p | EX Z) & (mu Z . q | EX Z)")
        g = to_positive_form(f)
        binders = []

        def walk(h):
            if isinstance(h, fm.BINDERS):
                binders.append(h.var)
            for c in h.children():
                walk(c)

        walk(g)
        assert len(binders) == len(set(binders)) == 2

    def test_vacuous_binder_dropped(self):
        assert to_positive_form(Mu("Z", Atom("p"))) == Atom("p")
        # Z is bound by the inner binder only, so the outer one is vacuous
        f = parse_formula("mu Z . p & nu Z . q & AX Z")
        assert to_positive_form(f) == parse_formula("p & nu Z . q & AX Z")

    def test_renaming_does_not_capture_free_variables(self, sys1):
        from epmu import check
        from epmu.errors import EpmuError

        f = parse_formula("mu Z . (EX Z & mu Z . (EX Z | Z1))")
        g = to_positive_form(f)
        assert fm.free_vars(g) == {"Z1"}
        assert g == parse_formula("mu Z . (EX Z & mu Z2 . (EX Z2 | Z1))")
        with pytest.raises(EpmuError, match="free fixpoint variables: Z1"):
            check(sys1, f)

    def test_dual_involution(self):
        f = to_positive_form(parse_formula("mu Z . p | K a . EX Z"))
        assert to_positive_form(fm.Not(to_positive_form(fm.Not(f)))) == f


class TestUnfold:
    def test_mu_one_step(self):
        f = Mu("Z", Or(Atom("p"), EX(Var("Z"))))
        assert unfold_fixpoint(f, 1) == Or(Atom("p"), EX(FALSE))
        assert unfold_fixpoint(f, 0) == FALSE

    def test_bottom_stays_bottom(self):
        assert unfold_fixpoint(Mu("Z", Var("Z")), 3) == FALSE

    def test_nu_two_steps(self):
        f = Nu("Z", And(Atom("p"), AX(Var("Z"))))
        assert unfold_fixpoint(f, 2) == And(
            Atom("p"), AX(And(Atom("p"), AX(TRUE)))
        )

    def test_result_is_fixpoint_free(self):
        f = parse_formula("mu Z . p | EX (nu Y . q & AX Y) | EX Z")
        assert fm.is_fixpoint_free(unfold_fixpoint(to_positive_form(f), 3))


class TestSynTree:
    def test_negation_is_outside_the_grammar(self):
        with pytest.raises(TypeError):
            build_syntree(Not(Atom("p")))

    def test_agncl_of_fixpoint_body(self):
        f = to_positive_form(parse_formula("mu Z . p | K a . EX Z"))
        t = build_syntree(f)
        assert t.closed and t.agncl == frozenset()
        body = t.children[0]
        assert not body.closed and body.agncl == {"a"}

    def test_agncl_empty_when_all_closed(self):
        t = build_syntree(parse_formula("K a . p"))
        for node in t:
            assert node.agncl == frozenset()

    def test_agncl_monotone_up_nonclosed_paths(self):
        f = to_positive_form(
            parse_formula("mu Z . p | K a . EX (nu Y . q & K b . EX Y & EX Z)")
        )
        t = build_syntree(f)
        for node in t:
            for c in node.children:
                if not node.closed and not c.closed:
                    assert c.agncl <= node.agncl

    def test_closedness_matches_free_vars(self):
        rng = random.Random(31)
        forms = [random_plain_formula(rng, 14, ("p", "q")) for _ in range(150)]
        forms += [random_single_binder_formula(rng, ("p",), ("a", "b")) for _ in range(50)]
        forms += [Mu("Z", Nu("Y", Or(Var("Z"), And(Var("Y"), Mu("X", EX(Var("X")))))))]
        binders = 0
        for f in forms:
            for node in build_syntree(f):
                assert node.closed == (not fm.free_vars(node.form)), node.path
                binders += isinstance(node.form, fm.BINDERS)
        assert binders > 100

    def test_frontier_nodes(self):
        # a closed leaf is no frontier node: the region reads it itself
        t = build_syntree(to_positive_form(parse_formula("mu Z . p | EX Z")))
        assert frontier_nodes(t) == []
        t = build_syntree(to_positive_form(parse_formula("mu Z . ~q | EX Z | (p & EX q)")))
        assert [n.form for n in frontier_nodes(t)] == [parse_formula("p & EX q")]


def _reference_tree(f, path=()):
    """The syntax tree of f by plain recursion over the definitions, as
    nested tuples (path, form, closed, free, binds, agncl, children)."""
    kids = [_reference_tree(c, path + (i,)) for i, c in enumerate(f.children(), start=1)]
    free = set().union(*[k[3] for k in kids])
    if isinstance(f, Var):
        free.add(f.name)
    if isinstance(f, fm.BINDERS):
        free.discard(f.var)
    agncl = set()
    if free:
        agncl = agncl.union(*[k[5] for k in kids])
        if isinstance(f, fm.EPISTEMIC):
            agncl.add(f.agent)
    binds = isinstance(f, fm.BINDERS) or any(k[4] for k in kids)
    return (path, f, not free, frozenset(free), binds, frozenset(agncl), kids)


def _as_tuples(node):
    """A built tree in the shape of _reference_tree, checking field types."""
    assert type(node.closed) is bool and type(node.binds) is bool and type(node.children) is list
    assert type(node.free) is frozenset and type(node.agncl) is frozenset
    kids = [_as_tuples(c) for c in node.children]
    return (node.path, node.form, node.closed, node.free, node.binds, node.agncl, kids)


class TestSynTreeBuild:
    """build_syntree is one pass over an explicit stack; every field of
    every node is what the recursive definition gives."""

    def test_front_end_corpus(self):
        built = 0
        for text in _front_end_corpus(11, 4000):
            try:
                f = to_positive_form(parse_formula(text))
            except (FormulaSyntaxError, NonMonotoneVariable):
                continue
            t = build_syntree(f)
            assert _as_tuples(t) == _reference_tree(f), text
            built += 1
        assert built > 2000

    def test_random_binders_and_knowledge(self):
        kinds = set()
        for text in _gate_corpus(23, 3000):
            f = to_positive_form(parse_formula(text))
            t = build_syntree(f)
            assert _as_tuples(t) == _reference_tree(f), text
            kinds |= {type(n.form) for n in t if not n.closed}
        assert {Mu, Nu, Know, Poss, And, Or, AX, EX, Var} <= kinds

    @pytest.mark.parametrize("shape", ["EX", "left-and", "mu"])
    def test_deep_chains(self, shape):
        # deeper than the recursive builder could go; a binder chain over Z0:
        # the innermost binds it, the others are vacuous
        f = Var("Z0") if shape == "mu" else Atom("p")
        for i in range(1500):
            f = {"EX": EX, "left-and": lambda g: And(g, Atom("q")), "mu": lambda g: Mu(f"Z{i}", g)}[shape](f)
        t = build_syntree(f)
        assert t.closed and t.binds == (shape == "mu")
        count = depth = 0
        for n in t:
            count += 1
            depth = max(depth, len(n.path))
            assert n.closed == (n.form != Var("Z0"))
            assert n.binds == (shape == "mu" and n.form != Var("Z0"))
        assert (count, depth) == ({"left-and": 3001}.get(shape, 1501), 1500)

    def test_memory_is_linear_in_depth(self):
        """A tree keeps no path tuple per node: doubling the depth of an EX
        chain less than triples the peak memory of building its tree.  A
        full collection first empties the free lists, so every object the
        build makes is counted."""

        def peak(depth):
            f = Atom("p")
            for _ in range(depth):
                f = EX(f)
            gc.collect()
            tracemalloc.start()
            try:
                t = build_syntree(f)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                assert len(next(iter(reversed(list(t)))).path) == depth

        assert peak(4000) < 3 * peak(2000)

    def test_negation_inside_is_outside_the_grammar(self):
        with pytest.raises(TypeError):
            build_syntree(And(Atom("p"), EX(Not(Atom("q")))))
        with pytest.raises(TypeError):
            build_syntree(Or(Atom("p"), "q"))


class TestNonMixing:
    def test_common_knowledge_incomparable_rejected(self):
        f = to_positive_form(parse_formula("nu Z . p & K a . Z & K b . Z"))
        t = build_syntree(f)
        verdict = check_non_mixing(t, {"a": {"p1"}, "b": {"q1"}})
        assert not verdict
        assert {verdict.witness.agent_a, verdict.witness.agent_b} == {"a", "b"}

    def test_nested_binders_chain_accepted(self):
        f = to_positive_form(
            parse_formula("mu Z1 . p | K a . EX Z1 & (nu Z2 . q & K b . EX Z2)")
        )
        t = build_syntree(f)
        assert check_non_mixing(t, {"a": {"p"}, "b": {"p", "q"}})

    def test_closed_epistemic_always_accepted(self):
        f = parse_formula("K a . p & K b . q")
        t = build_syntree(f)
        assert check_non_mixing(t, {"a": {"p"}, "b": {"q"}})

    def test_order_insensitive(self):
        obs = {"a": {"p"}, "b": {"q"}}
        f1 = to_positive_form(parse_formula("nu Z . (K a . Z) & (K b . Z)"))
        f2 = to_positive_form(parse_formula("nu Z . (K b . Z) & (K a . Z)"))
        v1 = check_non_mixing(build_syntree(f1), obs)
        v2 = check_non_mixing(build_syntree(f2), obs)
        assert v1.accepted == v2.accepted is False

    def test_unknown_agent(self):
        from epmu.errors import UnknownAgent

        f = to_positive_form(parse_formula("nu Z . p & K c . Z"))
        with pytest.raises(UnknownAgent):
            check_non_mixing(build_syntree(f), {"a": {"p"}})


def _ck_free_corpus(seed, count):
    """Seeded formula texts with nested C{a,b}, binders, free variables and
    negation, none naming a CK variable."""
    rng = random.Random(seed)

    def go(depth, bound):
        if depth == 0 or rng.random() < 0.15:
            return rng.choice(["p", "q", "true", "W"] + sorted(bound))
        kind = rng.choice(["C", "C", "C", "E", "K", "P", "AX", "EX", "~", "&", "|", "->", "mu", "nu"])
        if kind in ("&", "|", "->"):
            return f"({go(depth - 1, bound)}) {kind} ({go(depth - 1, bound)})"
        if kind in ("mu", "nu"):
            v = rng.choice("XYZ")
            return f"{kind} {v} . ({go(depth - 1, bound | {v})})"
        prefix = {"C": "C{a,b}", "E": "E{a,b}", "K": "K a .", "P": "P b ."}.get(kind, kind)
        return f"{prefix} ({go(depth - 1, bound)})"

    return [go(rng.randint(1, 7), frozenset()) for _ in range(count)]


class TestCommonKnowledgeNames:
    """C{a,b} binds a fresh CK<n>: numbered in parse order, never a name
    that is free in its operand, chosen without walking the operand."""

    def test_numbered_inside_out(self):
        f = parse_formula("C{a,b} C{a,b} p")
        assert f.var == "CK2" and f.body.left.var == "CK1"

    def test_avoids_free_operand_variables(self):
        f = parse_formula("C{a,b} (CK1 | p)")
        assert f.var != "CK1" and fm.free_vars(f) == {"CK1"}
        g = parse_formula("C{a,b} C{a,b} (CK1 | CK2 | CK3)")
        assert fm.free_vars(g) == {"CK1", "CK2", "CK3"}
        assert {g.var, g.body.left.var}.isdisjoint({"CK1", "CK2", "CK3"})

    def test_nesting_walks_no_operand(self, monkeypatch):
        def walk(f):
            raise AssertionError("an operand was walked")

        monkeypatch.setattr(fm, "free_vars", walk)
        f = parse_formula("C{a,b} " * 300 + "p")
        assert f.var == "CK300"

    def test_positive_forms_unchanged(self):
        # digest of the positive forms (or the error class) of the corpus,
        # computed when each C{a,b} still walked its operand
        out = []
        for text in _ck_free_corpus(5, 400):
            assert "CK" not in text
            try:
                out.append(pretty(to_positive_form(parse_formula(text))))
            except NonMonotoneVariable as e:
                out.append(type(e).__name__)
        digest = hashlib.sha256("\n".join(out).encode()).hexdigest()
        assert digest == "5499de4bb30eebc760eadc88aa9b4e4a64ca8d4d834513affe64e735a780dfed"


def _front_end_corpus(seed, count):
    """Seeded formula texts over the whole concrete syntax, with random
    spacing, line breaks and redundant parentheses, and about a third of
    them broken: a stray character, a missing '.', an unclosed '(' or '<',
    trailing input or a cut.  The only free variable is W, a name that
    renaming a repeated binder never produces."""
    rng = random.Random(seed)

    def sp():
        return rng.choice([" ", " ", " ", "", "  ", "\n", "\t", " \n "])

    def go(depth, bound):
        if depth == 0 or rng.random() < 0.2:
            text = rng.choice(["p", "q", "r1", "true", "false", "W"] + sorted(bound) * 3)
        else:
            kind = rng.choice(
                ["&", "&", "|", "|", "->", "->", "~", "AX", "EX", "K", "P", "E", "C",
                 "<>", "[]", "mu", "nu"]
            )
            if kind in ("&", "|", "->"):
                text = f"{go(depth - 1, bound)}{sp()}{kind}{sp()}{go(depth - 1, bound)}"
            elif kind in ("mu", "nu"):
                v = rng.choice("XYZ")
                text = f"{kind} {v}{sp()}.{sp()}{go(depth - 1, bound | {v})}"
            else:
                prefix = {
                    "~": "~", "AX": "AX ", "EX": "EX ", "K": "K a .", "P": "P b .",
                    "E": rng.choice(["E{a,b}", "E{ b , a }", "E{a}"]), "C": "C{a,b}",
                    "<>": rng.choice(["<a=x,b=u>", "<b=u , a=y>", "<a=x>"]),
                    "[]": rng.choice(["[a=x,b=u]", "[b=v]"]),
                }[kind]
                text = f"{prefix}{sp()}{go(depth - 1, bound)}"
        for _ in range(rng.choice([0, 0, 0, 1, 1, 2])):
            text = f"({sp()}{text}{sp()})"
        return text

    def insert(text, at, s):
        return text[:at] + s + text[at:]

    def mutate(text):
        kind = rng.choice(["stray", "dot", "paren", "angle", "trailing", "cut"])
        spots = {"dot": ".", "paren": ")", "angle": ">"}
        if kind in spots and spots[kind] in text:
            at = rng.choice([i for i, c in enumerate(text) if c == spots[kind]])
            return text[:at] + text[at + 1 :]
        if kind == "stray":
            return insert(text, rng.randrange(len(text) + 1), rng.choice("?#$!@%^*+-0"))
        if kind == "trailing":
            return text + rng.choice([" p", " )", "\nq r", " ->", " ."])
        return text[: rng.randrange(len(text))]

    texts = []
    for _ in range(count):
        text = go(rng.randint(1, 6), frozenset())
        if rng.random() < 0.35:
            text = mutate(text)
        texts.append(text)
    return texts


class TestFrontEndCorpus:
    def test_parse_and_positive_form_unchanged(self):
        # one digest over each text's parse and positive form, or its error
        # (class, message, line, column), computed before the tokenizer and
        # the parser were rewritten
        out = []
        for text in _front_end_corpus(11, 4000):
            try:
                f = parse_formula(text)
                out.append(f"{f!r}\t{pretty(to_positive_form(f))}")
            except (FormulaSyntaxError, NonMonotoneVariable) as e:
                where = (getattr(e, "line", None), getattr(e, "column", None))
                out.append(f"{type(e).__name__}\t{e}\t{where[0]}\t{where[1]}")
        digest = hashlib.sha256("\n".join(out).encode()).hexdigest()
        assert digest == "5ad059e62a09b67f3a79a59fd630508396e00616c2f5e414108df83d2b2115be"


def _reference_gate(tree, obs):
    """The gate read at every node of the tree, in pre-order: the verdict
    as (accepted, witness), or ("unknown", agent)."""
    for node in tree:
        for a in sorted(node.agncl):
            if a not in obs:
                return "unknown", a
        if len(node.agncl) > 1:
            try:
                chain_order(obs, node.agncl)
            except NonChainAgents as e:
                return False, (node.path, e.agent_a, e.agent_b)
    return True, None


def _gate_outcome(tree, obs):
    try:
        v = check_non_mixing(tree, obs)
    except UnknownAgent as e:
        return "unknown", e.agent
    w = v.witness
    return v.accepted, None if w is None else (w.node_path, w.agent_a, w.agent_b)


def _gate_corpus(seed, count):
    """Seeded monotone formula texts over agents a, b and c, with free
    variables, nested binders, C{x,y} and E{x,y}."""
    rng = random.Random(seed)

    def go(depth, bound):
        if depth == 0 or rng.random() < 0.15:
            return rng.choice(["p", "~q", "r", "true", "W", "V"] + sorted(bound) * 2)
        kind = rng.choice(["&", "|", "K", "P", "AX", "EX", "C", "E", "mu", "nu", "mu", "nu"])
        if kind in ("&", "|"):
            return f"({go(depth - 1, bound)}) {kind} ({go(depth - 1, bound)})"
        if kind in ("mu", "nu"):
            v = rng.choice("XYZ")
            return f"{kind} {v} . ({go(depth - 1, bound | {v})})"
        if kind in ("C", "E"):
            x, y = rng.sample("abc", 2)
            return f"{kind}{{{x},{y}}} ({go(depth - 1, bound)})"
        if kind in ("K", "P"):
            return f"{kind} {rng.choice('aabbc')} . ({go(depth - 1, bound)})"
        return f"{kind} ({go(depth - 1, bound)})"

    return [go(rng.randint(1, 7), frozenset()) for _ in range(count)]


# a chain, an incomparable pair, an unknown agent c, and equal sets
_GATE_OBS = [
    {"a": {"p"}, "b": {"p", "q"}, "c": {"p", "q", "r"}},
    {"a": {"p"}, "b": {"q"}, "c": {"p", "q"}},
    {"a": {"p", "q"}, "b": {"q"}},
    {"a": set(), "b": {"p"}, "c": {"q"}},
    {"a": {"p"}, "b": {"p"}},
]


class TestGateReadsPartTops:
    def test_agrees_with_the_per_node_gate(self):
        trees = [build_syntree(to_positive_form(parse_formula(t))) for t in _gate_corpus(14, 5000)]
        outcomes = {"unknown": 0, False: 0, True: 0}
        open_roots = nested = 0
        for tree in trees:
            open_roots += not tree.closed
            nested += any(
                c.closed and isinstance(c.form, fm.BINDERS)
                for n in tree if not n.closed for c in n.children
            )
            for obs in _GATE_OBS:
                want = _reference_gate(tree, obs)
                assert _gate_outcome(tree, obs) == want, (pretty(tree.form), obs)
                outcomes[want[0]] += 1
        assert min(outcomes.values()) > 1000, outcomes
        assert open_roots > 1000 and nested > 200, (open_roots, nested)

    def test_frontier_nodes_left_to_right(self):
        def reference(node):
            out = []
            for c in node.children:
                if not c.closed:
                    out.extend(reference(c))
                elif c.children:
                    out.append(c)
            return out

        checked = 0
        for text in _gate_corpus(15, 500):
            for node in build_syntree(to_positive_form(parse_formula(text))):
                if not node.closed:
                    assert frontier_nodes(node) == reference(node)
                    checked += 1
        assert checked > 1000


def _renamed_unconditionally(f):
    g, free = fm._push(f, False, frozenset(), [])
    return fm._rename_apart(g, free)


class TestRenamingSkipped:
    def test_same_positive_forms_as_renaming_always(self):
        texts = _front_end_corpus(11, 4000) + _ck_free_corpus(5, 400)
        compared = 0
        for text in texts:
            try:
                f = parse_formula(text)
                want = _renamed_unconditionally(f)
            except (FormulaSyntaxError, NonMonotoneVariable):
                continue
            assert to_positive_form(f) == want, text
            compared += 1
        assert compared > 2500

    def test_repeated_binder_is_renamed(self, monkeypatch):
        # distinct names, a free variable named like a binder, and a vacuous
        # repeat that the positive form drops need no renaming
        texts = ["mu Z . (EX Z & nu Y . (EX Y | Z1))", "Z & mu Z . EX Z", "mu Z . p & mu Z . EX Z"]
        wants = [_renamed_unconditionally(parse_formula(text)) for text in texts]
        calls = []
        rename = fm._rename_apart
        monkeypatch.setattr(fm, "_rename_apart", lambda g, free: calls.append(g) or rename(g, free))
        for text, want in zip(texts, wants):
            assert to_positive_form(parse_formula(text)) == want
        assert calls == []
        g = to_positive_form(parse_formula("mu Z . (EX Z & mu Z . (EX Z | Z1))"))
        assert g == parse_formula("mu Z . (EX Z & mu Z2 . (EX Z2 | Z1))")
        assert fm.free_vars(g) == {"Z1"} and len(calls) == 1


# The tokenizer as it was before it took each token in one match, kept as
# the reference the one-match tokenizer is held to.
_REFERENCE_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<key>->|[~&|().,<>\[\]{}=]|(?:true|false|mu|nu|AX|EX|K|P|E|C)(?![A-Za-z0-9_]))
  | (?P<VAR>[A-Z][A-Za-z0-9_]*)
  | (?P<ident>[a-z][A-Za-z0-9_]*)
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


def _reference_tokenize(text):
    tokens = []
    for m in _REFERENCE_TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        chunk = m.group()
        if kind == "bad":
            raise fm._syntax_error(text, m.start(), f"unexpected character {chunk!r}")
        tokens.append((chunk if kind == "key" else kind, chunk, m.start()))
    tokens.append(("eof", "", len(text)))
    return tokens


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except FormulaSyntaxError as e:
        return type(e).__name__, str(e), e.line, e.column


_WHITESPACE = [" ", "  ", "\n", "\t", "\r\n", "\x0b", "\x0c", "\x1c", "\x85", " ", "\xa0", " \n "]


def _spaced(rng, text):
    """text with runs of whitespace, line breaks among them, before it,
    after it, or both."""
    def run():
        return "".join(rng.choice(_WHITESPACE) for _ in range(rng.randint(1, 6)))

    where = rng.choice(["after", "after", "before", "both", "none"])
    if where in ("before", "both"):
        text = run() + text
    if where in ("after", "both"):
        text = text + run()
    return text


class TestTokenizer:
    """The one-match tokenizer gives the tokens (kind, text, offset) of the
    reference, or the same error at the same line and column."""

    def test_same_tokens_on_the_translator_corpus(self):
        from test_translate import translator_corpus

        from epmu.translate import compile_modal

        texts = set()
        for g, _, phi in translator_corpus():
            texts.add(pretty(phi))
            if g is not None:
                texts.add(pretty(compile_modal(g).compile_formula(phi)))
        assert len(texts) >= 40  # the corpus repeats its formula shapes
        for text in sorted(texts):
            assert fm._tokenize(text) == _reference_tokenize(text)

    def test_same_tokens_or_errors_on_fuzzed_texts(self):
        rng = random.Random(20)
        texts = _front_end_corpus(19, 3000)
        texts += ["", " ", "\n", "p\n", "\n\n p \n", "p ?", "? ", "p\t\x0b\x0c", "@\n", "p   q"]
        errors = 0
        for text in texts:
            text = _spaced(rng, text)
            want = _tokens_or_error(_reference_tokenize, text)
            assert _tokens_or_error(fm._tokenize, text) == want, repr(text)
            errors += isinstance(want[0], str)
        assert errors > 100

    def test_trailing_whitespace_is_linear(self):
        text = "p" + " " * 50_000
        start = time.perf_counter()
        tokens = fm._tokenize(text)
        assert time.perf_counter() - start < 1.0
        assert tokens == [("ident", "p", 0), ("eof", "", len(text))]
