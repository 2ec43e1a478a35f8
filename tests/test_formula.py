import random

import pytest

from epmu import formula as fm
from epmu.errors import FormulaSyntaxError, FormulaTooDeep, NonMonotoneVariable
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
    dual,
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

    def test_dual_involution(self):
        f = to_positive_form(parse_formula("mu Z . p | K a . EX Z"))
        assert dual(dual(f)) == f


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
    def test_var_gets_top_child(self):
        t = build_syntree(Var("Z"))
        assert t.label == "Z"
        assert len(t.children) == 1
        assert t.children[0].is_top and t.children[0].closed

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
                assert node.closed == fm.is_closed(node.form), node.path
                binders += isinstance(node.form, fm.BINDERS)
        assert binders > 100

    def test_frontier_nodes(self):
        f = to_positive_form(parse_formula("mu Z . p | EX Z"))
        t = build_syntree(f)
        fr = frontier_nodes(t)
        assert [n.form for n in fr] == [Atom("p")]


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
