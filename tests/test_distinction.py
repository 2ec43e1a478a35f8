import hashlib
import random

import pytest

from epmu.distinction import (
    DistinctionSystem,
    chain_order,
    closed_form_gamma,
    compute_gamma,
    distinction,
    insplitting,
    is_distinguished,
    know_op,
    poss_op,
    refine_for_agents,
)
from epmu.errors import CapacityExceeded, NonChainAgents, SystemFormatError, UnknownAtom
from epmu.gen import random_system
from epmu.system import (
    GammaRelation,
    InSplitting,
    MultiAgentSystem,
    _check_shape,
    system_to_dict,
    to_dot,
    verify_in_splitting,
)


class TestDistinction:
    def test_single_selfloop_state(self):
        m = MultiAgentSystem([1], 1, [(1, 1)], ["p"], {}, {"a": {"p"}})
        d = distinction(m, "a")
        assert len(d) == 1
        assert d.pair_of[d.q0] == (1, frozenset({1}))

    def test_sys1_states(self, sys1):
        d = distinction(sys1, "a")
        assert set(d.pair_of.values()) == {
            (1, frozenset({1})),
            (2, frozenset({2, 3})),
            (3, frozenset({2, 3})),
        }

    def test_sys2_states(self, sys2):
        d = distinction(sys2, "a")
        assert len(d) == 6
        pairs = set(d.pair_of.values())
        assert (4, frozenset({4})) in pairs
        assert (4, frozenset({4, 5})) in pairs

    def test_initial_state(self, sys2):
        d = distinction(sys2, "a")
        assert d.pair_of[d.q0] == (sys2.q0, frozenset({sys2.q0}))

    def test_labels_preserved(self, sys2):
        d = distinction(sys2, "a")
        for i in d.states:
            s, _ = d.pair_of[i]
            assert d.label(i) == sys2.label(s)

    def test_capacity(self, sys2):
        from epmu.errors import CapacityExceeded

        with pytest.raises(CapacityExceeded):
            distinction(sys2, "a", cap=3)


def _scan_distinction(m, agent, cap):
    """Reference subset construction: each successor belief is found by
    scanning every base state.  Returns the system and its (s, S) pairs."""
    start = (m.q0, frozenset([m.q0]))
    id_of = {start: 0}
    pair_list = [start]
    queue = [start]
    delta = []
    while queue:
        s, S = queue.pop(0)
        for r in m.successors(s):
            obs_r = m.obs_label(r, agent)
            R = frozenset(
                r2
                for r2 in m.states
                if m.obs_label(r2, agent) == obs_r
                and any((s2, r2) in m.delta for s2 in S)
            )
            if (r, R) not in id_of:
                if len(pair_list) + 1 > cap:
                    raise CapacityExceeded(
                        len(pair_list) + 1, cap, f"subset construction for agent {agent}"
                    )
                id_of[(r, R)] = len(pair_list)
                pair_list.append((r, R))
                queue.append((r, R))
            delta.append((id_of[(s, S)], id_of[(r, R)]))
    pairs = dict(enumerate(pair_list))

    def name(s, S):
        members = ",".join(m.state_name(q) for q in sorted(S))
        return f"({m.state_name(s)},{{{members}}})"

    ref = MultiAgentSystem(
        list(pairs), 0, delta, m.atoms, {i: m.label(s) for i, (s, _) in pairs.items()},
        m.obs, {i: name(s, S) for i, (s, S) in pairs.items()},
    )
    return ref, pairs


class TestDistinctionAgainstScan:
    """distinction() builds the same system as the plain scan, state ids and
    names included, up to three refinements deep; a refinement for an agent
    the system is already distinguished for is a copy."""

    def assert_same(self, d, ref, pairs):
        assert d.pair_of == pairs
        assert d.states == ref.states and d.q0 == ref.q0
        assert d.delta == ref.delta
        assert d._succ == ref._succ
        assert insplitting(d, d.base).chi == {i: s for i, (s, _) in pairs.items()}
        assert [d.state_name(i) for i in d.states] == [ref.state_name(i) for i in ref.states]
        assert system_to_dict(d) == system_to_dict(ref)

    def test_random_chains(self):
        rng = random.Random(7)
        copies = 0
        for _ in range(40):
            m = random_system(rng, max_states=6, chain_obs=True)
            for chain in (("a", "b", "a"), ("b", "a", "b"), ("a", "a")):
                d, ref = m, m
                for agent in chain:
                    copies += agent in d.partitions
                    d = distinction(d, agent)
                    ref, pairs = _scan_distinction(ref, agent, cap=10**6)
                    self.assert_same(d, ref, pairs)
        assert copies >= 80  # every ("a", "a") and ("b", "a", "b") chain

    def test_copy_step_is_the_identity_on_the_system(self):
        m = random_system(random.Random(3), max_states=6, chain_obs=True)
        d = distinction(m, "a")
        d.delta  # cached on d, handed on by the copy
        e = distinction(d, "a")
        assert insplitting(e, d).chi == {i: i for i in d.states}
        assert e._succ is d._succ and e.delta is d.delta and e.labels is d.labels
        assert e.partitions["a"] == d.partitions["a"]

    def test_transitions_are_stored_once(self):
        """A construction keeps only its successor lists: the pairs are built
        from them on first read, and the observable sets are the base's."""
        m = random_system(random.Random(5), max_states=6, chain_obs=True)
        for d in (distinction(m, "a"), distinction(distinction(m, "a"), "a")):
            assert "delta" not in vars(d)
            assert d.delta == {(i, j) for i in d.states for j in d.successors(i)}
            assert vars(d)["delta"] is d.delta
            assert d.obs is d.base.obs

    def test_capacity_fires_at_the_same_count(self):
        def outcome(build, m, cap):
            try:
                return len(build(m, "a", cap=cap))
            except CapacityExceeded as e:
                return str(e)

        def scan(m, agent, cap):
            return _scan_distinction(m, agent, cap)[0]

        rng = random.Random(11)
        raised = copies_raised = 0
        for _ in range(15):
            m = random_system(rng, max_states=5, chain_obs=True)
            for cap in range(len(scan(m, "a", 10**6)) + 1):
                want = outcome(scan, m, cap)
                assert outcome(distinction, m, cap) == want
                raised += isinstance(want, str)
            d = distinction(m, "a")  # the next step for "a" is a copy
            for cap in range(len(d) + 1):
                want = outcome(scan, d, cap)
                assert outcome(distinction, d, cap) == want
                copies_raised += isinstance(want, str)
        assert raised > 15 and copies_raised > 15
        with pytest.raises(CapacityExceeded, match="during subset construction for agent a$"):
            distinction(d, "a", cap=1)


def _one_level(d):
    """The in-splitting (s, S) -> s of one construction onto its base."""
    return InSplitting(d, d.base, {i: s for i, (s, _) in d.pair_of.items()})


class TestInsplitting:
    """`insplitting` maps the end of a chain of 2-4 constructions onto every
    system of the chain as the one-level maps do in turn; agents alternate,
    so some steps are copies."""

    def test_random_chains(self):
        rng = random.Random(17)
        copies = 0
        for _ in range(40):
            m = random_system(rng, max_states=5, chain_obs=True)
            agents = rng.choice([("a", "b"), ("b", "a")])
            systems = [m]
            for k in range(rng.randint(2, 4)):
                copies += agents[k % 2] in systems[-1].partitions
                systems.append(distinction(systems[-1], agents[k % 2]))
            final = systems[-1]
            for j, s in enumerate(systems):
                comp = insplitting(final, s)
                assert comp.source is final and comp.target is s
                assert verify_in_splitting(comp)
                A = frozenset(q for q in s.states if rng.random() < 0.5)
                stepwise = A
                for d in systems[j + 1 :]:
                    stepwise = _one_level(d).pullback(stepwise)
                assert comp.pullback(A) == stepwise
                assert insplitting(s, s).chi == {q: q for q in s.states}
                if s is not final:
                    off = f"^no in-splitting from {len(s)} states onto {len(final)} states"
                    with pytest.raises(SystemFormatError, match=off):
                        insplitting(s, final)
        assert copies >= 20


class TestShapeChecks:
    """A DistinctionSystem built by hand is checked as any system is: the
    first transition, in row order, with an end outside the states, and an
    atom outside `atoms` in a label or an observable set, are rejected."""

    def build(self, succ=None, labels=None, n=2):
        m = MultiAgentSystem([0, 1], 0, [(0, 1), (1, 0)], ["p"], {1: {"p"}}, {"a": {"p"}})
        pair_of = {i: (i % 2, frozenset({i % 2})) for i in range(n)}
        succ = {0: (1,), 1: (0,)} if succ is None else succ
        labels = dict(m.labels) if labels is None else labels
        return DistinctionSystem(m, "a", pair_of, labels, succ, {})

    def test_well_formed(self):
        assert self.build().successors(0) == (1,)
        assert self.build(succ={0: (1,), 1: (0,), 7: ()}).successors(1) == (0,)

    def test_successor_outside_states(self):
        with pytest.raises(SystemFormatError, match=r"^transition \(0,5\) uses unknown state$"):
            self.build(succ={0: (1, 5, 7), 1: (0, 9)})
        with pytest.raises(SystemFormatError, match=r"^transition \(1,2\) uses unknown state$"):
            self.build(succ={0: (1,), 1: (2,)})

    def test_row_of_a_non_state(self):
        with pytest.raises(SystemFormatError, match=r"^transition \(4,0\) uses unknown state$"):
            self.build(succ={0: (1,), 1: (0,), 4: (0,)})

    def test_label_atom_outside_atoms(self):
        with pytest.raises(UnknownAtom, match="^unknown atom: q$"):
            self.build(labels={0: frozenset(), 1: frozenset({"q"})})

    def test_no_states(self):
        with pytest.raises(SystemFormatError, match="^initial state 0 is not a state$"):
            self.build(succ={}, labels={}, n=0)

    def test_same_errors_as_the_pair_check(self):
        """The shape check raises what a check of one edge at a time
        raises, on seeded rows and labels with stray ids and atoms: the
        rows' edges in order by default, or the edges it is given."""

        def outcome(check, *args):
            try:
                check(*args)
            except (SystemFormatError, UnknownAtom) as e:
                return type(e), str(e)

        def per_edge(states, q0, edges, atoms, labels, obs):
            if q0 not in states:
                raise SystemFormatError(f"initial state {q0} is not a state")
            for lab in (*labels.values(), *obs.values()):
                for p in lab:
                    if p not in atoms:
                        raise UnknownAtom(p)
            for q, r in edges:
                if q not in states or r not in states:
                    raise SystemFormatError(f"transition ({q},{r}) uses unknown state")

        rng = random.Random(13)
        atoms = frozenset("pq")
        raised = 0
        for _ in range(400):
            n = rng.randint(0, 4)
            succ = {
                q: tuple(sorted(rng.sample(range(6), rng.randint(0, 3))))
                for q in rng.sample(range(6), rng.randint(0, 5))
            }
            lab = [frozenset(rng.sample("pqrs", rng.randint(0, 2))) for _ in range(4)]
            labels = {q: rng.choice(lab) for q in range(n)}
            obs = {"a": rng.choice(lab)}
            states = set(range(n))
            edges = [(q, r) for q, rs in succ.items() for r in rs]
            want = outcome(per_edge, states, 0, edges, atoms, labels, obs)
            assert outcome(_check_shape, states, 0, succ, atoms, labels, obs) == want
            rng.shuffle(edges)
            want = outcome(per_edge, states, 0, edges, atoms, labels, obs)
            assert outcome(_check_shape, states, 0, succ, atoms, labels, obs, edges) == want
            raised += want is not None
        assert 100 < raised < 400


class TestSystemDigest:
    """Everything a system shows of itself, on 200 seeded systems with
    nested observation and their chains a -> b -> a, some of whose steps are
    copies, and on the same systems with named states and unreachable ones
    added.  One sha256 over `system_to_dict`, `to_dot`, the sorted
    transitions and every state name, computed before `delta` was derived
    from the successor lists and belief names from a per-system cache."""

    DIGEST = "dcd3dbe404d7cd950fabdc0f169c3f860b1b6087aa1904fa0e8efb39c34cbe13"

    @staticmethod
    def with_unreachable(m):
        """m with two named states that nothing reaches, one of them with
        an edge into m; the construction drops both."""
        top = max(m.states)
        extra = [top + 1, top + 2]
        delta = [*m.delta, (top + 1, m.q0), (top + 2, top + 1), (top + 2, top + 2)]
        labels = {**m.labels, top + 1: {"p"}}
        names = {q: f"s{q}" for q in (*m.states, *extra) if q % 2}
        return MultiAgentSystem(
            [*m.states, *extra], m.q0, delta, m.atoms, labels, m.obs, names
        )

    def test_digest(self):
        h = hashlib.sha256()
        copies = dropped = 0
        for seed in range(200):
            m = random_system(random.Random(seed), max_states=6, chain_obs=True)
            for d in (m, self.with_unreachable(m)):
                dropped += len(d.dropped_states)
                for agent in (None, "a", "b", "a"):
                    if agent is not None:
                        copies += agent in d.partitions
                        d = distinction(d, agent)
                    shape = (
                        system_to_dict(d),
                        to_dot(d),
                        sorted(d.delta),
                        [d.state_name(q) for q in d.states],
                    )
                    h.update(repr(shape).encode())
        assert copies > 100 and dropped == 400
        assert h.hexdigest() == self.DIGEST


class TestGamma:
    def test_sys1_golden(self, sys1):
        g = compute_gamma(sys1, "a")
        assert g.pairs == {(1, 1), (2, 2), (2, 3), (3, 2), (3, 3)}

    def test_sys2_asymmetry(self, sys2):
        g = compute_gamma(sys2, "a")
        assert (5, 4) in g and (4, 5) not in g

    def test_reflexive_on_random_systems(self):
        rng = random.Random(0)
        for _ in range(20):
            m = random_system(rng)
            g = compute_gamma(m, "a")
            for q in m.states:
                assert (q, q) in g

    def test_closed_form_on_distinction(self, sys2):
        d = distinction(sys2, "a")
        cf = closed_form_gamma(d)
        assert cf.pairs == compute_gamma(d, "a").pairs

    def test_oracle_ignores_carried_blocks(self):
        """compute_gamma and is_distinguished search the system itself: wrong
        blocks on it change nothing, and a plain system with the same states
        and transitions gets the same relation."""
        rng = random.Random(11)
        for _ in range(20):
            m = random_system(rng, max_states=6, chain_obs=True)
            d = distinction(distinction(m, "b"), "a")
            plain = MultiAgentSystem(
                list(d.states), d.q0, d.delta, d.atoms,
                {i: d.label(i) for i in d.states}, d.obs,
            )
            expected = {b: compute_gamma(plain, b).pairs for b in d.partitions}
            assert all(is_distinguished(plain, b) for b in d.partitions)
            d.partitions = {b: (frozenset(d.states),) for b in d.partitions}
            for b in d.partitions:
                assert compute_gamma(d, b).pairs == expected[b]
                assert is_distinguished(d, b)

    def test_sources_targets(self, sys2):
        g = compute_gamma(sys2, "a")
        assert {s for s, r in g.pairs if r == 4} == {4, 5}
        assert {r for s, r in g.pairs if s == 5} == {4, 5}


class TestKnowPoss:
    def test_vacuous(self, sys1):
        g = compute_gamma(sys1, "a")
        full = frozenset(sys1.states)
        assert know_op(g, full) == full
        assert poss_op(g, frozenset()) == frozenset()

    def test_sys1_goldens(self, sys1):
        g = compute_gamma(sys1, "a")
        assert know_op(g, {2}) == frozenset()
        assert poss_op(g, {2}) == {2, 3}

    def test_duality(self, sys1):
        g = compute_gamma(sys1, "a")
        full = frozenset(sys1.states)
        for S in [{1}, {2}, {2, 3}, {1, 3}]:
            assert know_op(g, S) == full - poss_op(g, full - frozenset(S))

    def test_example5_set_level_discrepancy(self, sys2):
        """The state operator with the perfect-recall relation disagrees with
        the tree semantics on the NON-definable set {4}: no run-node satisfies
        the state-set image, yet the tree knowledge of the corresponding node
        set is non-empty at the node reached through the observed branch."""
        from epmu.system import bounded_unfold

        g = compute_gamma(sys2, "a")
        assert know_op(g, {4}) == frozenset()  # state level: empty
        t = bounded_unfold(sys2, 2)
        target_nodes = {x for x in t.nodes if x[-1] == 4}
        # tree level: the class of 1.2.4 is {1.2.4}, entirely inside the set
        know_nodes = set()
        for d in range(3):
            for cls in t.sim_classes("a", d).values():
                if all(y in target_nodes for y in cls):
                    know_nodes.update(cls)
        assert (1, 2, 4) in know_nodes


class TestDistinguished:
    def test_refined_sys2_is_distinguished(self, sys2):
        assert is_distinguished(distinction(sys2, "a"), "a")

    def test_sys2_not_distinguished(self, sys2):
        v = is_distinguished(sys2, "a")
        assert not v.ok
        assert v.condition == "symmetry" and v.witness == (5, 4)

    def test_sys1_distinguished(self, sys1):
        assert is_distinguished(sys1, "a")

    def test_transitivity_violation(self, sys1):
        # symmetric, and (1, 2), (2, 1) hold while (1, 1) does not: the
        # only triple that breaks transitivity is (1, 2, 1)
        gamma = GammaRelation("a", sys1, frozenset({(1, 2), (2, 1), (2, 2)}))
        v = is_distinguished(sys1, "a", gamma=gamma)
        assert (v.ok, v.condition, v.witness) == (False, "transitivity", (1, 2, 1))


class TestRefineForAgents:
    def test_singleton_equals_distinction(self, sys2):
        refined = refine_for_agents(sys2, {"a"})
        d = distinction(sys2, "a")
        assert len(refined) == len(d)
        assert verify_in_splitting(insplitting(refined, sys2))

    def test_two_agent_chain(self, sys1_ab):
        refined = refine_for_agents(sys1_ab, {"a", "b"})
        assert is_distinguished(refined, "a")
        assert is_distinguished(refined, "b")
        assert verify_in_splitting(insplitting(refined, sys1_ab))

    def test_order_largest_first(self):
        obs = {"a": {"p"}, "b": {"p", "q"}, "c": set()}
        assert chain_order(obs, {"a", "b", "c"}) == ["b", "a", "c"]

    def test_incomparable_rejected(self):
        with pytest.raises(NonChainAgents):
            chain_order({"a": {"p"}, "b": {"q"}}, {"a", "b"})
