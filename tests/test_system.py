import json

import pytest

from epmu.checker import check
from epmu.errors import SystemFormatError, UnknownAtom
from epmu.formula import parse_formula
from epmu.system import (
    InSplitting,
    MultiAgentSystem,
    bounded_unfold,
    parse_system,
    system_to_json,
    to_dot,
    verify_in_splitting,
)
from epmu.distinction import distinction, insplitting

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
        assert len(t) == 5

    def test_sys2_sim_classes(self, sys2):
        t = bounded_unfold(sys2, 2)
        assert t.signature((1, 2, 4), "a") != t.signature((1, 3, 4), "a")
        assert t.signature((1, 3, 4), "a") == t.signature((1, 3, 5), "a")
        assert t.signature((1, 2, 4), "a") == (frozenset(), frozenset({"p"}), frozenset())

    def test_children_outdeg(self, sys2):
        t = bounded_unfold(sys2, 3)
        for run in t.by_depth[1]:
            assert len(t.children(run)) == sys2.outdeg(run[-1])
        for run in t.by_depth[3]:
            assert t.children(run) == []

    def test_capacity(self, sys2):
        from epmu.errors import CapacityExceeded

        with pytest.raises(CapacityExceeded):
            bounded_unfold(sys2, 6, cap=10)
