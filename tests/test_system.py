import ast
import json
import random
import re
from functools import partial
from pathlib import Path

import pytest

from epmu.checker import check
from epmu.errors import SystemFormatError, UnknownAtom
from epmu.formula import parse_formula
import epmu.system
from epmu.system import (
    InSplitting,
    MultiAgentSystem,
    _check_shape,
    bounded_unfold,
    parse_system,
    system_from_dict,
    system_to_dict,
    system_to_json,
    to_dot,
    verify_in_splitting,
)
from epmu.distinction import distinction, insplitting, refine_for_agents
from epmu.gen import random_system, small_game_family
from epmu.translate import (
    atl_until_instance,
    compile_modal,
    labeled_system_from_dict,
    parity_encoding,
    parse_parity_game,
)

SYS1_JSON = json.dumps(
    {
        "states": [
            {"id": 1},
            {"id": 2, "atoms": ["q"]},
            {"id": 3},
        ],
        "initial": 1,
        "transitions": [[1, 2], [1, 3], [2, 2], [3, 3]],
        "atoms": ["p", "q"],
        "agents": {"a": {"obs": ["p"]}},
    }
)


class TestParse:
    def test_sys1_source(self):
        m = parse_system(SYS1_JSON)
        assert len(m) == 3 and m.q0 == 1
        assert m.label(2) == {"q"}
        assert m.obs["a"] == {"p"}

    @pytest.mark.parametrize("text", ["[1]", "5", '"m"', "null"])
    def test_top_level_not_an_object(self, text):
        with pytest.raises(SystemFormatError, match="^top-level value must be an object$"):
            parse_system(text)

    def test_unreachable_state_dropped(self):
        data = json.loads(SYS1_JSON)
        data["states"].append({"id": 9})
        m = parse_system(json.dumps(data))
        assert 9 not in m.states
        assert m.dropped_states == (9,)

    def test_unknown_obs_atom(self):
        data = json.loads(SYS1_JSON)
        data["agents"]["a"]["obs"] = ["p1"]
        with pytest.raises(UnknownAtom):
            parse_system(json.dumps(data))

    def test_unknown_label_atom(self):
        data = json.loads(SYS1_JSON)
        data["states"][0]["atoms"] = ["zz"]
        with pytest.raises(UnknownAtom):
            parse_system(json.dumps(data))

    def test_missing_initial(self):
        data = json.loads(SYS1_JSON)
        del data["initial"]
        with pytest.raises(SystemFormatError):
            parse_system(json.dumps(data))

    def test_not_json(self):
        with pytest.raises(SystemFormatError):
            parse_system("not json at all")

    def test_round_trip(self, sys2):
        again = parse_system(system_to_json(sys2))
        assert again.states == sys2.states
        assert again.delta == sys2.delta
        assert again.labels == sys2.labels
        assert again.obs == sys2.obs

    def test_dot_export(self, sys1):
        dot = to_dot(sys1)
        assert dot.startswith("digraph")
        assert "n1 -> n2" in dot

    def test_dot_quotes_string_ids(self):
        """An id that is no natural number is a quoted DOT ID, with
        backslashes and quotes escaped, on every node and edge line."""
        m = MultiAgentSystem(
            ["x y", 'z"', "w\\"], "x y", [("x y", 'z"'), ('z"', 'z"'), ('z"', "w\\"), ("w\\", "x y")],
            [], {}, {"a": set()},
        )
        dot_id = r'"((?:[^"\\]|\\.)*)"'
        nodes, edges = [], []
        for line in to_dot(m).splitlines()[1:-1]:
            node = re.fullmatch(rf"  {dot_id} \[label={dot_id}(?: shape=\"doublecircle\")?\];", line)
            edge = re.fullmatch(rf"  {dot_id} -> {dot_id};", line)
            assert node or edge, line
            if node:
                nodes.append(node[1])
            else:
                edges.append(edge.group(1, 2))
        unescape = partial(re.sub, r"\\(.)", r"\1")
        assert sorted(map(unescape, nodes)) == sorted(m.states)
        assert {(unescape(q), unescape(r)) for q, r in edges} == m.delta
        negative = MultiAgentSystem([-1], -1, [(-1, -1)], [], {}, {"a": set()})
        assert to_dot(negative).splitlines()[2] == '  "-1" -> "-1";'


def _loader_system(n=5):
    """A valid system file: states 1..n on a ring, named, with three agents."""
    return {
        "states": [
            {"id": q, "atoms": ["p"] if q % 2 else ["q"], "name": f"s{q}"} for q in range(1, n + 1)
        ],
        "initial": 1,
        "transitions": [[q, q % n + 1] for q in range(1, n + 1)],
        "atoms": ["p", "q"],
        "agents": {"a": {"obs": ["p"]}, "b": {"obs": ["p", "q"]}, "c": {"obs": []}},
    }


def _loader_game(n=5):
    """A valid parity game file: states 1..n on a ring, one action each."""
    return {
        "states": [{"id": q, "atoms": [], "priority": q % 3 + 1} for q in range(1, n + 1)],
        "initial": 1,
        "atoms": [],
        "agents": {"e": {"obs": []}, "o": {"obs": []}},
        "actions": {
            "alphabets": {"e": ["x"], "o": ["u"]},
            "labels": [[q, {"e": "x", "o": "u"}, q % n + 1] for q in range(1, n + 1)],
        },
        "players": ["e", "o"],
    }


def _raised(load, data):
    try:
        load(data)
    except (SystemFormatError, UnknownAtom) as e:
        return type(e), str(e)
    return None


# the bad item goes first, in the middle or last of a list of five
PLACES = {"first": 0, "middle": 3, "last": 5}

# an entry inserted into the states, and the error it raises wherever it is;
# the first entry sets the id kind, and the later of two equal ids is named
BAD_STATES = {
    "not-an-object": (5, "state 5 has no 'id'"),
    "list": ([1], "state [1] has no 'id'"),
    "no-id": ({"atoms": []}, "state {'atoms': []} has no 'id'"),
    "boolean-id": ({"id": True}, "state {'id': True}: its id is a boolean"),
    "float-id": ({"id": 7.0}, "state {'id': 7.0}: its id is a float"),
    "null-id": ({"id": None}, "state {'id': None}: its id is null"),
    "list-id": ({"id": [7]}, "state {'id': [7]}: its id is a list or an object"),
    "object-id": ({"id": {"q": 7}}, "state {'id': {'q': 7}}: its id is a list or an object"),
    "list-id-named": ({"id": [7], "name": "s"}, "state {'id': [7], 'name': 's'}: its id is a list or an object"),
    "object-id-named": (
        {"id": {"q": 7}, "name": "s"},
        "state {'id': {'q': 7}, 'name': 's'}: its id is a list or an object",
    ),
    "repeated-id": (
        {"id": 3, "atoms": []},
        "state {'id': 3, 'atoms': []}: an earlier state has its id",
        "state {'id': 3, 'atoms': ['p'], 'name': 's3'}: an earlier state has its id",
    ),
    "mixed-kinds": (
        {"id": "7"},
        "state {'id': '7'}: its id does not sort with 1",
        "state {'id': 1, 'atoms': ['p'], 'name': 's1'}: its id does not sort with '7'",
    ),
    "atoms-string": ({"id": 7, "atoms": "p"}, "state 7: 'atoms' is not a list of strings: 'p'"),
    "atoms-int": ({"id": 7, "atoms": ["p", 1]}, "state 7: 'atoms' is not a list of strings: ['p', 1]"),
    "atoms-object": ({"id": 7, "atoms": {"p": 1}}, "state 7: 'atoms' is not a list of strings: {'p': 1}"),
    "name-int": ({"id": 7, "name": 5}, "state 7: 'name' is not a string: 5"),
    "name-list": ({"id": 7, "name": ["s"]}, "state 7: 'name' is not a string: ['s']"),
    "name-null": ({"id": 7, "atoms": [], "name": None}, "state 7: 'name' is not a string: None"),
}

BAD_TRANSITIONS = {
    "not-a-list": (5, "transition 5 is not a pair [from, to]"),
    "string": ("12", "transition '12' is not a pair [from, to]"),
    "one-end": ([1], "transition [1] is not a pair [from, to]"),
    "three-ends": ([1, 2, 3], "transition [1, 2, 3] is not a pair [from, to]"),
    "boolean-end": ([1, True], "transition [1, True] uses a boolean as a state"),
    "null-end": ([None, 1], "transition [None, 1] uses null as a state"),
    "float-end": ([1, 2.0], "transition [1, 2.0] uses a float as a state"),
    "list-end": ([1, [2]], "transition [1, [2]] uses a list or an object as a state"),
    "unknown-to": ([1, 9], "transition (1,9) uses unknown state"),
    "unknown-from": ([9, 1], "transition (9,1) uses unknown state"),
    "string-end": ([1, "2"], "transition (1,2) uses unknown state"),
}

BAD_LABELS = {
    "not-a-list": (5, "label 5 is not a triple [from, actions, to]"),
    "pair": ([1, 1], "label [1, 1] is not a triple [from, actions, to]"),
    "actions-string": ([1, "xu", 2], "label [1, 'xu', 2]: its actions are not an object"),
    "actions-list": ([1, ["x", "u"], 2], "label [1, ['x', 'u'], 2]: its actions are not an object"),
    "boolean-end": (
        [1, {"e": "x", "o": "u"}, False],
        "label [1, {'e': 'x', 'o': 'u'}, False] uses a boolean as a state",
    ),
    "float-end": ([2.0, {"e": "x", "o": "u"}, 1], "label [2.0, {'e': 'x', 'o': 'u'}, 1] uses a float as a state"),
    "list-end": ([[2], {"e": "x", "o": "u"}, 1], "label [[2], {'e': 'x', 'o': 'u'}, 1] uses a list or an object as a state"),
    "unknown-to": ([1, {"e": "x", "o": "u"}, 9], "transition (1,9) uses unknown state"),
    "unknown-from": ([9, {"e": "x", "o": "u"}, 1], "transition (9,1) uses unknown state"),
}

BAD_GAME_STATES = {
    "no-priority": ({"id": 7, "atoms": []}, "state {'id': 7, 'atoms': []} has no 'priority'"),
    "no-id": ({"priority": 1}, "state {'priority': 1} has no 'id'"),
    "name-int": ({"id": 7, "priority": 1, "name": 3}, "state 7: 'name' is not a string: 3"),
}


def _expected(case, place):
    """The error message of a bad item at a place: the last message of a
    case whose first item another entry names."""
    return case[2] if place == "first" and len(case) > 2 else case[1]


class TestBulkChecks:
    """Each list is walked item by item, so the first bad item is named
    wherever it is in the list."""

    @pytest.mark.parametrize("place", sorted(PLACES))
    @pytest.mark.parametrize("case", sorted(BAD_STATES))
    def test_state_entries(self, case, place):
        d = _loader_system()
        d["states"].insert(PLACES[place], BAD_STATES[case][0])
        want = (SystemFormatError, _expected(BAD_STATES[case], place))
        assert _raised(parse_system, json.dumps(d)) == want

    @pytest.mark.parametrize("place", sorted(PLACES))
    @pytest.mark.parametrize("case", sorted(BAD_TRANSITIONS))
    def test_transitions(self, case, place):
        d = _loader_system()
        d["transitions"].insert(PLACES[place], BAD_TRANSITIONS[case][0])
        assert _raised(parse_system, json.dumps(d)) == (SystemFormatError, BAD_TRANSITIONS[case][1])

    @pytest.mark.parametrize("place", sorted(PLACES))
    def test_atom_lists(self, place):
        at = min(PLACES[place], 4)
        for bad in (3, None, ["p"]):
            five = ["p", "q", "p", "q", "p"]
            five.insert(PLACES[place], bad)
            for where, field in (
                (lambda d: d, "'atoms'"),
                (lambda d: d["states"][at], f"state {at + 1}: 'atoms'"),
                (lambda d: d["agents"]["b"], "agent 'b': 'obs'"),
            ):
                d = _loader_system()
                where(d)["obs" if "obs" in field else "atoms"] = five
                want = f"{field} is not a list of strings: {five!r}"
                assert _raised(parse_system, json.dumps(d)) == (SystemFormatError, want)

    def test_string_id_is_named_by_its_repr(self):
        d = {"states": [{"id": "x", "atoms": 5}], "initial": "x", "transitions": [["x", "x"]],
             "atoms": [], "agents": {}}
        want = "state 'x': 'atoms' is not a list of strings: 5"
        assert _raised(parse_system, json.dumps(d)) == (SystemFormatError, want)

    @pytest.mark.parametrize("place", sorted(PLACES))
    def test_label_and_obs_atoms(self, place):
        at = min(PLACES[place], 4)
        d = _loader_system()
        d["states"][at]["atoms"].append("zz")
        assert _raised(parse_system, json.dumps(d)) == (UnknownAtom, "unknown atom: zz")
        d = _loader_system()
        agent = "abc"[min(PLACES[place], 2)]
        d["agents"][agent]["obs"].append("yy")
        assert _raised(parse_system, json.dumps(d)) == (UnknownAtom, "unknown atom: yy")
        # labels are read before observable sets
        d["states"][at]["atoms"].append("zz")
        assert _raised(parse_system, json.dumps(d)) == (UnknownAtom, "unknown atom: zz")

    @pytest.mark.parametrize("place", sorted(PLACES))
    @pytest.mark.parametrize("case", sorted(BAD_LABELS))
    def test_game_labels(self, case, place):
        d = _loader_game()
        d["actions"]["labels"].insert(PLACES[place], BAD_LABELS[case][0])
        assert _raised(parse_parity_game, json.dumps(d)) == (SystemFormatError, BAD_LABELS[case][1])

    @pytest.mark.parametrize("place", sorted(PLACES))
    @pytest.mark.parametrize("case", sorted(BAD_GAME_STATES))
    def test_game_states(self, case, place):
        d = _loader_game()
        d["states"].insert(PLACES[place], BAD_GAME_STATES[case][0])
        assert _raised(parse_parity_game, json.dumps(d)) == (SystemFormatError, BAD_GAME_STATES[case][1])

    def test_valid_files_load(self):
        m = parse_system(json.dumps(_loader_system()))
        assert m.states == (1, 2, 3, 4, 5) and m.names[5] == "s5" and m.successors(5) == (1,)
        g = parse_parity_game(json.dumps(_loader_game()))
        assert g.priority == {q: q % 3 + 1 for q in range(1, 6)} and g.successors(5) == (1,)

    def test_library_callers_pass_subclasses_and_tuples(self):
        class Entry(dict):
            pass

        class Atoms(list):
            pass

        want = system_from_dict(_loader_system())
        d = _loader_system()
        d["states"] = [Entry(e, atoms=Atoms(e["atoms"])) for e in d["states"]]
        d["transitions"] = [tuple(t) for t in d["transitions"]]
        got = system_from_dict(d)
        for name in ("states", "q0", "_succ", "atoms", "labels", "obs", "names"):
            assert getattr(got, name) == getattr(want, name), name
        d["transitions"] = tuple(d["transitions"])
        d["states"][2]["name"] = 3
        assert _raised(system_from_dict, d) == (SystemFormatError, "state 3: 'name' is not a string: 3")

        want = labeled_system_from_dict(_loader_game())
        d = _loader_game()
        d["states"] = [Entry(e) for e in d["states"]]
        d["actions"]["labels"] = [(q, Entry(acts), r) for q, acts, r in d["actions"]["labels"]]
        got = labeled_system_from_dict(d)
        assert (got.states, got._succ, got._out) == (want.states, want._succ, want._out)


class TestSerial:
    def test_sys1_ok(self, sys1):
        assert sys1.deadlocks() == ()

    def test_deadlock_detected(self):
        m = MultiAgentSystem([1], 1, [], ["p"], {}, {"a": set()})
        assert m.deadlocks() == (1,)

    def test_allow_deadlock(self):
        # what --allow-deadlock accepts: AX holds vacuously at a deadlock
        m = MultiAgentSystem([1], 1, [], ["p"], {}, {"a": set()})
        assert check(m, parse_formula("AX false")).holds
        assert not check(m, parse_formula("EX true")).holds


class TestInSplitting:
    def test_identity_ok(self, sys1):
        assert verify_in_splitting(insplitting(sys1, sys1))

    def test_distinction_map_ok(self, sys1):
        assert verify_in_splitting(insplitting(distinction(sys1, "a"), sys1))

    def test_label_violation_witnessed(self, sys1):
        # collapse everything onto state 1 of a single-state coarse system
        coarse = MultiAgentSystem(
            [1], 1, [(1, 1)], ["p", "q"], {}, {"a": {"p"}}
        )
        s = InSplitting(sys1, coarse, {q: 1 for q in sys1.states})
        v = verify_in_splitting(s)
        assert not v.ok and v.condition == "labels" and v.witness == 2

    def test_outdegree_violation(self):
        fine = MultiAgentSystem([1, 2], 1, [(1, 2), (2, 2)], ["p"], {}, {"a": set()})
        coarse = MultiAgentSystem(
            [1, 2], 1, [(1, 2), (2, 2), (2, 1)], ["p"], {}, {"a": set()}
        )
        s = InSplitting(fine, coarse, {1: 1, 2: 2})
        v = verify_in_splitting(s)
        assert not v.ok and v.condition in ("outdegree", "transitions-preimage")

    @staticmethod
    def plain(states, q0, delta):
        return MultiAgentSystem(states, q0, delta, ["p"], {}, {"a": set()})

    def test_map_violation(self):
        m = self.plain([0, 1], 0, [(0, 1), (1, 1)])
        v = verify_in_splitting(InSplitting(m, m, {0: 0}))  # 1 is not mapped
        assert (v.ok, v.condition, v.witness) == (False, "map", 1)
        v = verify_in_splitting(InSplitting(m, m, {0: 0, 1: 7}))  # 7 is no state
        assert (v.ok, v.condition, v.witness) == (False, "map", 1)

    def test_surjectivity_violation(self):
        fine = self.plain([0], 0, [(0, 0)])
        coarse = self.plain([0, 1, 2], 0, [(0, 0), (0, 1), (0, 2), (1, 1), (2, 2)])
        v = verify_in_splitting(InSplitting(fine, coarse, {0: 0}))
        assert (v.ok, v.condition, v.witness) == (False, "surjectivity", 1)

    def test_outdegree_violation_alone(self):
        # 0 has two successors that both map onto the one successor of 0
        fine = self.plain([0, 1, 2], 0, [(0, 1), (0, 2), (1, 1), (2, 2)])
        coarse = self.plain([0, 1], 0, [(0, 1), (1, 1)])
        v = verify_in_splitting(InSplitting(fine, coarse, {0: 0, 1: 1, 2: 1}))
        assert (v.ok, v.condition, v.witness) == (False, "outdegree", 0)

    def test_initial_violation(self):
        # swapping the two states of a 2-cycle keeps all but the initial state
        m = self.plain([0, 1], 0, [(0, 1), (1, 0)])
        v = verify_in_splitting(InSplitting(m, m, {0: 1, 1: 0}))
        assert (v.ok, v.condition, v.witness) == (False, "initial", 0)

    def test_two_refinements_onto_the_base(self, sys1_ab):
        da = distinction(sys1_ab, "a")
        db = distinction(da, "b")
        comp = insplitting(db, sys1_ab)
        assert comp.source is db and comp.target is sys1_ab
        assert verify_in_splitting(comp)

    def test_coarse_off_the_chain_rejected(self, sys1, sys2):
        with pytest.raises(SystemFormatError, match="from 3 states onto 5 states"):
            insplitting(sys1, sys2)

    def test_pullback_identity(self, sys1):
        i = insplitting(sys1, sys1)
        assert i.pullback({2, 3}) == {2, 3}
        assert i.pullback(set()) == frozenset()

    def test_pullback_distinction_sys2(self, sys2):
        d = distinction(sys2, "a")
        fine = insplitting(d, sys2).pullback({4})
        pairs = {d.pair_of[i] for i in fine}
        assert pairs == {
            (4, frozenset({4})),
            (4, frozenset({4, 5})),
        }

    def test_pullback_is_boolean_homomorphism(self, sys2):
        d = distinction(sys2, "a")
        pb = insplitting(d, sys2).pullback
        A, B = {1, 4}, {4, 5}
        assert pb(A | B) == pb(A) | pb(B)
        assert pb(A & B) == pb(A) & pb(B)
        full = frozenset(d.states)
        assert pb(set(sys2.states) - A) == full - pb(A)


class TestTreePrefix:
    def test_depth_zero(self, sys1):
        t = bounded_unfold(sys1, 0)
        assert t.nodes == [(1,)]

    def test_sys1_depth_two(self, sys1):
        t = bounded_unfold(sys1, 2)
        assert set(t.nodes) == {(1,), (1, 2), (1, 3), (1, 2, 2), (1, 3, 3)}
        assert len(t.nodes) == 5

    def test_sys2_sim_classes(self, sys2):
        t = bounded_unfold(sys2, 2)
        assert t.signature((1, 2, 4), "a") != t.signature((1, 3, 4), "a")
        assert t.signature((1, 3, 4), "a") == t.signature((1, 3, 5), "a")
        assert t.signature((1, 2, 4), "a") == (frozenset(), frozenset({"p"}), frozenset())

    def test_children_outdeg(self, sys2):
        t = bounded_unfold(sys2, 3)
        for d in range(3):
            below = t.by_depth[d + 1]
            for run in t.by_depth[d]:
                kids = [x for x in below if x[:-1] == run]
                assert len(kids) == sys2.outdeg(run[-1])

    def test_capacity(self, sys2):
        from epmu.errors import CapacityExceeded

        with pytest.raises(CapacityExceeded):
            bounded_unfold(sys2, 6, cap=10)


def _string_ids(m):
    """m with state q renamed "q<q>", so that ids sort as strings: "q10"
    before "q2"."""
    rename = {q: f"q{q}" for q in m.states}
    return MultiAgentSystem(
        [rename[q] for q in m.states], rename[m.q0],
        [(rename[q], rename[r]) for q, r in m.delta],
        m.atoms, {rename[q]: m.labels[q] for q in m.states}, m.obs,
        {rename[q]: name for q, name in m.names.items()},
    )


class TestWriter:
    """system_to_dict writes the transitions row by row from the successor
    lists, which is sorted(delta) on every kind of system."""

    @staticmethod
    def systems():
        rng = random.Random(2024)
        for _ in range(60):
            m = random_system(rng, max_states=12, chain_obs=True)
            yield m
            yield _string_ids(m)
            yield distinction(m, "a")
            yield refine_for_agents(m, ("a", "b"))
        for g in small_game_family(40, rng, max_states=4):
            yield compile_modal(g).system

    def test_transitions_are_the_sorted_pairs(self):
        kinds = set()
        for m in self.systems():
            assert system_to_dict(m)["transitions"] == sorted([q, r] for q, r in m.delta)
            kinds.add((type(m).__name__, type(m.q0).__name__))
        assert kinds == {
            ("MultiAgentSystem", "int"), ("MultiAgentSystem", "str"), ("DistinctionSystem", "int"),
        }

    def test_string_ids_sort_as_strings(self):
        m = _string_ids(MultiAgentSystem(range(1, 12), 1, [(q, q % 11 + 1) for q in range(1, 12)], [], {}, {}))
        rows = system_to_dict(m)["transitions"]
        assert rows[:3] == [["q1", "q2"], ["q10", "q11"], ["q11", "q1"]]


class TestDerivedSystems:
    """A system the program derives (subset constructions, searched and
    copied, relabeled games and compiled action systems) skips the sorting
    and reachability pass of the constructor, so each one must equal, field
    by field and in the types of its fields, the system the constructor
    builds from its states, rows, labels, observable sets and names."""

    FIELDS = ("states", "q0", "_succ", "atoms", "labels", "obs", "agents", "names", "dropped_states")

    @staticmethod
    def rebuilt(m):
        delta = [(q, r) for q in m.states for r in m._succ[q]]
        return MultiAgentSystem(m.states, m.q0, delta, m.atoms, m.labels, m.obs, m.names)

    def assert_as_rebuilt(self, m):
        want = self.rebuilt(m)
        for name in self.FIELDS:
            assert getattr(m, name) == getattr(want, name), name
        assert m.delta == want.delta
        assert type(m.states) is tuple and type(m.agents) is tuple
        assert type(m.atoms) is frozenset and m.dropped_states == ()
        assert list(m._succ) == list(m.states) and list(m.labels) == list(m.states)
        assert all(type(row) is tuple for row in m._succ.values())
        assert all(type(lab) is frozenset for lab in m.labels.values())
        assert all(type(pa) is frozenset for pa in m.obs.values())

    def test_subset_constructions(self):
        copies = 0
        for seed in range(150):
            m = random_system(random.Random(seed), max_states=6, chain_obs=True)
            for agent in ("a", "b", "a", "b"):
                copies += agent in m.partitions
                m = distinction(m, agent)
                self.assert_as_rebuilt(m)
        assert copies > 100

    def test_compiled_and_relabeled_games(self):
        import test_checker

        rng = random.Random(31)
        derived = []
        for i in range(100):
            ext, _ = parity_encoding(test_checker.TestParityDigest.game(rng, i), i % 2)
            derived += [ext, compile_modal(ext).system]
        for g in small_game_family(60, rng, max_states=4):
            until = atl_until_instance(g, "a0", "p1", "p2")[0]
            derived += [compile_modal(g).system, compile_modal(until).system]
        for m in derived:
            self.assert_as_rebuilt(m)

    def test_derive_raises_what_the_shape_check_raises(self):
        def outcome(check, *args):
            try:
                check(*args)
            except (SystemFormatError, UnknownAtom) as e:
                return type(e), str(e)

        rng = random.Random(29)
        atoms = frozenset("pq")
        raised = 0
        for _ in range(400):
            n = rng.randint(0, 4)
            succ = {
                q: tuple(sorted(rng.sample(range(6), rng.randint(0, 3))))
                for q in rng.sample(range(6), rng.randint(0, 5))
            }
            labels = {q: frozenset(rng.sample("pqrs", rng.randint(0, 2))) for q in range(n)}
            obs = {"a": frozenset(rng.sample("pqrs", rng.randint(0, 2)))}
            want = outcome(_check_shape, set(range(n)), 0, succ, atoms, labels, obs)
            m = MultiAgentSystem.__new__(MultiAgentSystem)
            assert outcome(m._derive, n, succ, atoms, labels, obs) == want
            raised += want is not None
        assert 100 < raised < 400


SYSTEM_FIELDS = {"states", "q0", "_succ", "atoms", "labels", "obs", "agents"}


def _assigned_attributes(node):
    """The attribute targets an assignment node writes, tuples unpacked."""
    if isinstance(node, ast.Assign):
        stack = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        stack = [node.target]
    else:
        return
    while stack:
        t = stack.pop()
        if isinstance(t, (ast.Tuple, ast.List)):
            stack.extend(t.elts)
        elif isinstance(t, ast.Starred):
            stack.append(t.value)
        elif isinstance(t, ast.Attribute):
            yield t


def test_only_the_system_module_fills_system_fields():
    """No module of the package but system.py assigns a field every system
    has on an object.  `self.<field>` in a class that is no system (a
    parser's `atoms`, an error's `agents`) is another field of that name."""
    trees = {
        path.name: ast.parse(path.read_text())
        for path in sorted(Path(epmu.system.__file__).parent.glob("*.py"))
    }
    classes = [c for tree in trees.values() for c in ast.walk(tree) if isinstance(c, ast.ClassDef)]
    systems, grew = {"MultiAgentSystem"}, True
    while grew:
        more = {
            c.name for c in classes
            if any(getattr(b, "id", getattr(b, "attr", None)) in systems for b in c.bases)
        }
        grew, systems = not more <= systems, systems | more
    found = []
    for name, tree in trees.items():
        if name == "system.py":
            continue
        other = {
            id(a)
            for c in ast.walk(tree) if isinstance(c, ast.ClassDef) and c.name not in systems
            for a in ast.walk(c)
            if isinstance(a, ast.Attribute) and isinstance(a.value, ast.Name) and a.value.id == "self"
        }
        for node in ast.walk(tree):
            for t in _assigned_attributes(node):
                if t.attr in SYSTEM_FIELDS and id(t) not in other:
                    found.append(f"{name}:{t.lineno} {ast.unparse(t)}")
    assert found == []
