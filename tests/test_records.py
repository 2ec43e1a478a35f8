"""Value semantics of the formula nodes and the result records: the text
their repr prints, class-sensitive equality, hashing, frozen fields,
keyword construction, copy and pickle.  Also checks that importing the
package and its command line loads none of the heavy stdlib modules that
a class-building decorator would pull in, and neither the oracles nor the
translators; and that a check loads no hashlib (OpenSSL) unless it writes
a report."""

import copy
import hashlib
import json
import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from epmu import formula as fm
from epmu.checker import Verdict
from epmu.distinction import compute_gamma, insplitting, is_distinguished
from epmu.formula import parse_formula, to_positive_form
from epmu.oracle import NodeSet
from epmu.syntree import FragmentVerdict, FragmentWitness, build_syntree, check_non_mixing
from epmu.system import (
    Finding,
    InSplitting,
    MultiAgentSystem,
    system_to_json,
    verify_in_splitting,
)

ROOT = Path(__file__).resolve().parents[1]

# Between them these two formulas hold a node of every class.
POSITIVE = "mu X . (~p & P a . X) | nu Y . (q | [a=x] <b=y> AX EX K b . Y) & false"
POSITIVE_REPR = (
    "Mu(var='X', body=Or(left=And(left=NegAtom(name='p'), right=Poss(agent='a', "
    "child=Var(name='X'))), right=Nu(var='Y', body=And(left=Or(left=Atom(name='q'), "
    "right=BoxAct(acts=(('a', 'x'),), child=DiamondAct(acts=(('b', 'y'),), "
    "child=AX(child=EX(child=Know(agent='b', child=Var(name='Y'))))))), right=FalseF()))))"
)
RAW = "~(p -> true)"
RAW_REPR = "Not(child=Or(left=Not(child=Atom(name='p')), right=TrueF()))"

NODE_CLASSES = [
    fm.TrueF, fm.FalseF, fm.Atom, fm.NegAtom, fm.Var, fm.Not, fm.And, fm.Or, fm.AX,
    fm.EX, fm.Know, fm.Poss, fm.Mu, fm.Nu, fm.DiamondAct, fm.BoxAct,
]


def _nodes(f):
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        stack.extend(g.children())


def _one_state():
    return MultiAgentSystem([0], 0, [(0, 0)], ["p"], {0: {"p"}}, {"a": ["p"], "b": []})


def _records():
    """One instance of each result record, as the library builds it, and
    the repr it prints."""
    m = _one_state()
    dead = MultiAgentSystem([0, 1], 0, [(0, 1)], ["p"], {}, {"a": []})
    # state 4 is reached through the observable 2 and the unobservable 3
    mixed = MultiAgentSystem(
        [1, 2, 3, 4, 5], 1, [(1, 2), (1, 3), (2, 4), (3, 4), (3, 5), (4, 4), (5, 5)],
        ["p"], {2: {"p"}}, {"a": {"p"}},
    )
    tree = build_syntree(parse_formula("mu Z . K a . Z & K b . Z"))
    return [
        (
            Verdict(holds=True, refinement_sizes=[1, 2], iteration_counts=[3], wall_time=0.5, final=m),
            "Verdict(holds=True, refinement_sizes=[1, 2], iteration_counts=[3], wall_time=0.5)",
        ),
        (
            check_non_mixing(tree, {"a": {"p"}, "b": {"q"}}),
            "FragmentVerdict(accepted=False, witness=FragmentWitness(node_path=(1,), "
            "agent_a='a', agent_b='b'))",
        ),
        (check_non_mixing(tree, {"a": {"p"}, "b": {"p"}}), "FragmentVerdict(accepted=True, witness=None)"),
        (is_distinguished(m, "a"), "Finding(ok=True, condition='', witness=None)"),
        (Finding(False, "symmetry", (1, 2)), "Finding(ok=False, condition='symmetry', witness=(1, 2))"),
        (is_distinguished(mixed, "a"), "Finding(ok=False, condition='symmetry', witness=(5, 4))"),
        (
            verify_in_splitting(InSplitting(dead, dead, {0: 1, 1: 0})),
            "Finding(ok=False, condition='transitions-forward', witness=(0, 1))",
        ),
        (verify_in_splitting(insplitting(m, m)), "Finding(ok=True, condition='', witness=None)"),
        (
            NodeSet(None, frozenset({(0,)}), 1, True),
            "NodeSet(prefix=None, nodes=frozenset({(0,)}), valid_depth=1, root_holds=True)",
        ),
        (
            compute_gamma(m, "a"),
            "GammaRelation(agent='a', system=MultiAgentSystem(1 states, q0=0), "
            "pairs=frozenset({(0, 0)}))",
        ),
    ]


class TestRepr:
    def test_formulas(self):
        positive = to_positive_form(parse_formula(POSITIVE))
        raw = parse_formula(RAW)
        assert repr(positive) == POSITIVE_REPR
        assert repr(raw) == RAW_REPR
        seen = {type(g) for f in (positive, raw) for g in _nodes(f)}
        assert seen == set(NODE_CLASSES)

    @pytest.mark.parametrize("i", range(len(_records())))
    def test_records(self, i):
        record, text = _records()[i]
        assert repr(record) == text

    def test_verdict_leaves_out_final(self):
        a, _ = _records()[0]
        b = Verdict(holds=True, refinement_sizes=[1, 2], iteration_counts=[3], wall_time=0.5, final=None)
        assert a == b and a.final is not b.final


class TestEquality:
    def test_class_sensitive(self):
        p, q = fm.Atom("p"), fm.Atom("q")
        assert fm.Atom("p") != fm.Var("p")
        assert fm.Atom("p") != fm.NegAtom("p")
        assert fm.And(p, q) != fm.Or(p, q)
        assert fm.Know("a", p) != fm.Poss("a", p)
        assert fm.And(p, q) != (p, q)
        assert Finding(True) != FragmentVerdict(True)

    def test_equal_nodes_hash_equal(self):
        f = to_positive_form(parse_formula(POSITIVE))
        g = to_positive_form(parse_formula(POSITIVE))
        assert f is not g and f == g and hash(f) == hash(g)
        assert fm.TrueF() == fm.TRUE and hash(fm.TrueF()) == hash(fm.TRUE)
        assert len({f, g, fm.Atom("p"), fm.Atom("p")}) == 2

    def test_hash_is_the_hash_of_the_fields(self):
        p, q = fm.Atom("p"), fm.Atom("q")
        assert hash(fm.And(p, q)) == hash((p, q))
        assert hash(p) == hash(("p",))
        assert hash(fm.TRUE) == hash(())
        assert hash(Finding(True)) == hash((True, "", None))

    def test_verdict_unhashable(self):
        with pytest.raises(TypeError):
            hash(_records()[0][0])

    def test_syntax_nodes_compare_by_identity(self):
        f = fm.Atom("p")
        a, b = build_syntree(f), build_syntree(f)
        assert a != b and a == a and len({a, b}) == 2


class TestFrozen:
    @pytest.mark.parametrize("i", range(len(_records())))
    def test_records(self, i):
        record, _ = _records()[i]
        if isinstance(record, Verdict):
            record.holds = False  # a verdict is not frozen
            assert not record.holds
            return
        name = repr(record).split("(", 1)[1].split("=", 1)[0]  # the first field
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)

    def test_witness(self):
        w = FragmentWitness((1,), "a", "b")
        with pytest.raises(AttributeError):
            w.agent_a = "c"

    def test_every_formula_class(self):
        positive = to_positive_form(parse_formula(POSITIVE))
        raw = parse_formula(RAW)
        for g in [*_nodes(positive), *_nodes(raw)]:
            with pytest.raises(AttributeError):
                g.name = "x"
            with pytest.raises(AttributeError):
                g.child = fm.TRUE


class TestConstruction:
    def test_syntax_node_keywords(self):
        # build_syntree is the one maker of syntax nodes and sets every field
        f = fm.Mu("Z", fm.And(fm.Atom("p"), fm.Var("Z")))
        node = build_syntree(f)
        (body,) = node.children
        left, right = body.children
        assert (node.form, node.closed, node.binds, node.free, node.agncl) == (f, True, True, frozenset(), frozenset())
        assert (body.closed, body.binds, body.free) == (False, False, frozenset({"Z"}))
        assert (left.form, left.closed, left.children, right.children) == (fm.Atom("p"), True, [], [])
        assert left.children is not right.children
        node.free = frozenset({"Z"})  # a syntax node is a plain mutable object
        assert node.free == {"Z"}

    def test_verdict_keywords(self):
        v = Verdict(holds=False, refinement_sizes=[4], iteration_counts=[], wall_time=0.0, final=None)
        assert (v.holds, v.refinement_sizes, v.iteration_counts, v.wall_time) == (False, [4], [], 0.0)
        assert v.final is None

    def test_defaults(self):
        assert Finding(False) == Finding(ok=False, condition="", witness=None)
        assert bool(Finding(True)) is True and bool(Finding(False, "labels", 0)) is False
        assert FragmentVerdict(True) == FragmentVerdict(accepted=True, witness=None)
        assert bool(FragmentVerdict(False)) is False

    def test_formula_keywords(self):
        p = fm.Atom(name="p")
        assert fm.And(left=p, right=p) == fm.And(p, p)
        assert fm.Know(agent="a", child=p) == fm.Know("a", p)
        assert fm.Mu(var="Z", body=p).var == "Z"
        assert fm.DiamondAct(acts=(("a", "x"),), child=p).acts == (("a", "x"),)
        with pytest.raises(TypeError):
            fm.And(p)


class TestCopyAndPickle:
    def _values(self):
        values = [to_positive_form(parse_formula(POSITIVE)), parse_formula(RAW)]
        values += [cls() for cls in (fm.TrueF, fm.FalseF)]
        values += [record for record, _ in _records() if not hasattr(record, "system")]
        return values

    def test_copy(self):
        for v in self._values() + [_records()[-1][0]]:
            c = copy.copy(v)
            assert type(c) is type(v) and c == v and repr(c) == repr(v)
            assert getattr(c, "final", None) is getattr(v, "final", None)  # a verdict's system

    def test_pickle(self):
        for v in self._values():
            c = pickle.loads(pickle.dumps(v))
            assert type(c) is type(v) and c == v and repr(c) == repr(v)

    def test_syntax_tree(self):
        # a node compares by identity, so compare every field of every node
        # in pre-order; the child counts give the shape
        def fields(tree):
            return [(n.form, n.closed, n.agncl, n.free, n.binds, len(n.children)) for n in tree]

        tree = build_syntree(to_positive_form(parse_formula(
            "mu Z . p | K a . EX (nu Y . q & K b . EX Y & EX Z) | C{a,b} (r & EX Z)"
        )))
        shallow = copy.copy(tree)
        assert shallow is not tree and shallow.children is tree.children
        assert fields(shallow) == fields(tree)
        copies = [copy.deepcopy(tree)]
        copies += [pickle.loads(pickle.dumps(tree, p)) for p in range(2, pickle.HIGHEST_PROTOCOL + 1)]
        for c in copies:
            assert fields(c) == fields(tree)
            assert not {id(n) for n in c} & {id(n) for n in tree}


def _src_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def test_import_loads_no_class_building_modules():
    """`import epmu` and `epmu.cli` leave out dataclasses and what it pulls
    in, and the oracle and translator modules, which a check never calls."""
    env = _src_env()
    code = (
        "import epmu, epmu.cli, sys; "
        "print(sorted(m for m in ('dataclasses', 'inspect', 'ast', 'dis', 'epmu.oracle', "
        "'epmu.translate') if m in sys.modules))"
    )
    r = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


# in a fresh interpreter: a library check, then each command that reads a
# formula, first without a report; prints the modules loaded, then writes a
# report
FOOTPRINT = textwrap.dedent(
    """
    import contextlib, io, sys
    import epmu, epmu.cli, epmu.translate
    from epmu import check, parse_formula, parse_system

    system, report = sys.argv[1:]
    name = check(parse_system(open(system).read()), parse_formula("K a . EX p")).initial_state
    args = ["--system", system, "--formula", "K a . EX p"]
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [epmu.cli.main([*cmd, *args]) for cmd in (["check"], ["analyze"], ["oracle", "--depth", "3"])]
    print(name, codes, sorted(m for m in ("hashlib", "_hashlib") if m in sys.modules))
    with contextlib.redirect_stdout(io.StringIO()):
        print(epmu.cli.main(["check", *args, "--report", report]), file=sys.__stdout__)
    """
)


def test_a_check_without_a_report_loads_no_hashlib(tmp_path):
    """hashlib brings in OpenSSL, 3.5 MB of resident memory: only a report's
    input digests and the summary of a name past 1 024 characters load it."""
    m = MultiAgentSystem([1, 2, 3], 1, [(1, 2), (2, 3), (3, 1)], ["p"], {1: {"p"}, 2: set(), 3: {"p"}},
                         {"a": {"p"}})
    system, report = tmp_path / "three.mas", tmp_path / "r.json"
    system.write_text(system_to_json(m))
    r = subprocess.run(
        [sys.executable, "-S", "-c", FOOTPRINT, str(system), str(report)],
        capture_output=True, text=True, env=_src_env(), timeout=60,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines() == ["(1,{1}) [1, 0, 1] []", "1"]
    inputs = json.loads(report.read_text())["inputs"]
    texts = {"system": system.read_text(), "formula": "K a . EX p"}
    assert {k: v["sha256"] for k, v in inputs.items()} == {
        k: hashlib.sha256(text.encode()).hexdigest() for k, text in texts.items()
    }
