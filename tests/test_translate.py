import functools
import hashlib
import itertools
import json
import random
import re

import pytest

from epmu import formula as fm
from epmu.checker import check, check_with_sets
from epmu.errors import (
    CapacityExceeded,
    EpmuError,
    SystemFormatError,
    UnknownAgent,
    UnknownAtom,
    UnsupportedCoalition,
)
from epmu.formula import (
    Atom,
    BoxAct,
    DiamondAct,
    Know,
    Poss,
    parse_formula,
    to_positive_form,
)
from epmu.gen import exhaustive_tiny_games, small_game_family
from epmu.oracle import eval_tree, parity_oracle, reachability_strategy_oracle
from epmu.syntree import build_syntree, check_non_mixing
from epmu.system import MultiAgentSystem, bounded_unfold, system_to_dict
from epmu.translate import (
    LabeledSystem,
    ParityGame,
    _relabeled,
    atl_until_instance,
    coalition_next,
    compile_modal,
    compile_modal_formula,
    labeled_system_from_dict,
    labeled_system_to_dict,
    parity_encoding,
    parse_parity_game,
)


def tiny_labeled():
    return LabeledSystem(
        [1, 2], 1,
        [
            (1, {"a": "x", "b": "u"}, 2),
            (1, {"a": "y", "b": "u"}, 1),
            (2, {"a": "x", "b": "u"}, 2),
            (2, {"a": "y", "b": "u"}, 1),
        ],
        ["p"], {2: {"p"}},
        {"a": set(), "b": set()}, {"a": ["x", "y"], "b": ["u"]},
    )


class TestLabeledSystem:
    def test_partial_action_tuple_rejected(self):
        with pytest.raises(SystemFormatError):
            LabeledSystem(
                [1], 1, [(1, {"a": "x"}, 1)], ["p"], {},
                {"a": set(), "b": set()}, {"a": ["x"], "b": ["u"]},
            )

    def test_undeclared_action_rejected(self):
        with pytest.raises(SystemFormatError):
            LabeledSystem(
                [1], 1, [(1, {"a": "z"}, 1)], ["p"], {},
                {"a": set()}, {"a": ["x"]},
            )

    def test_alphabets_must_cover_exactly_the_agents(self):
        for alphabets in ({"a": ["x"]}, {"a": ["x"], "b": ["u"], "c": ["v"]}):
            with pytest.raises(SystemFormatError, match="action alphabets must cover exactly the agents"):
                LabeledSystem([1], 1, [], ["p"], {}, {"a": set(), "b": set()}, alphabets)

    def test_empty_alphabet_rejected(self):
        with pytest.raises(SystemFormatError, match="agent 'b' has an empty action alphabet"):
            LabeledSystem([1], 1, [], ["p"], {}, {"a": set(), "b": set()}, {"a": ["x"], "b": []})

    def test_is_a_plain_system_of_its_pairs(self):
        g = tiny_labeled()
        assert isinstance(g, MultiAgentSystem)
        assert g.delta == {(q, r) for q, _, r in g.trans}
        assert labeled_system_to_dict(g)["transitions"] == system_to_dict(g)["transitions"]

    def test_dict_round_trip(self):
        g = tiny_labeled()
        again = labeled_system_from_dict(labeled_system_to_dict(g))
        assert again.trans == g.trans
        assert again.alphabets == g.alphabets
        assert again.labels == g.labels

    def test_trans_is_the_sorted_reachable_triples(self):
        """`trans`, built from `_out`, is the former stored tuple: the
        reachable triples, action tuples canonical, in sorted order."""
        rng = random.Random(17)
        games = small_game_family(40, rng, max_states=4)
        games += [atl_until_instance(g, "a0", "p1", "p2")[0] for g in games]
        for g in games:
            extra = max(g.states) + 1  # unreachable, with edges into g
            first = {a: g.alphabets[a][0] for a in g.agents}
            trans = [(q, dict(acts), r) for q, acts, r in g.trans]
            trans += [(extra, first, g.q0), (extra, first, extra)]
            rng.shuffle(trans)
            states = [*g.states, extra]
            m = LabeledSystem(states, g.q0, trans, g.atoms, g.labels, g.obs, g.alphabets)
            keep = set(m.states)
            former = sorted(
                (q, tuple(sorted(acts.items())), r)
                for q, acts, r in trans
                if q in keep and r in keep
            )
            assert type(m.trans) is tuple and list(m.trans) == former
            assert m.dropped_states == (extra,)

    def test_outgoing_matches_scan(self):
        games = small_game_family(40, random.Random(13), max_states=4)
        games += [atl_until_instance(g, "a0", "p1", "p2")[0] for g in games]
        for g in games:
            for q in list(g.states) + ["absent"]:
                scan = [(acts, r) for q2, acts, r in g.trans if q2 == q]
                assert g.outgoing(q) == scan
            # each call returns a list of its own
            g.outgoing(g.q0).clear()
            assert g.outgoing(g.q0)


def _drop(path):
    """An edit of a labeled-system dict that deletes the key at path."""

    def edit(d):
        *head, last = path
        for key in head:
            d = d[key]
        del d[last]

    return edit


def _bad_label(d):
    d["actions"]["labels"][0] = d["actions"]["labels"][0][:2]


# (edit of a valid dict, text the error must contain)
MALFORMED_LABELED = {
    "no-id": (_drop(("states", 0, "id")), "'id'"),
    "no-actions": (_drop(("actions",)), "'actions'"),
    "no-labels": (_drop(("actions", "labels")), "'actions.labels'"),
    "no-alphabets": (_drop(("actions", "alphabets")), "'actions.alphabets'"),
    "no-initial": (_drop(("initial",)), "'initial'"),
    "label-not-triple": (_bad_label, "not a triple"),
}


MALFORMED_GAME = {
    **MALFORMED_LABELED,
    "no-priority": (_drop(("states", 0, "priority")), "'priority'"),
    "players-string": (lambda d: d.__setitem__("players", "eo"), "'players' is not a list of strings: 'eo'"),
    "players-int": (lambda d: d.__setitem__("players", 5), "'players' is not a list of strings: 5"),
}


def loop_parity_dict():
    d = labeled_system_to_dict(loop_parity(2))
    d["states"][0]["priority"] = 2
    d["players"] = ["e", "o"]
    return d


class TestMalformedFiles:
    """A wrong shape raises SystemFormatError naming the key, never a
    KeyError or a ValueError from unpacking."""

    @pytest.mark.parametrize("case", sorted(MALFORMED_LABELED))
    def test_labeled_system(self, case):
        edit, expected = MALFORMED_LABELED[case]
        d = labeled_system_to_dict(tiny_labeled())
        edit(d)
        with pytest.raises(SystemFormatError, match=expected):
            labeled_system_from_dict(d)

    @pytest.mark.parametrize("case", sorted(MALFORMED_GAME))
    def test_parity_game(self, case):
        edit, expected = MALFORMED_GAME[case]
        d = loop_parity_dict()
        edit(d)
        with pytest.raises(SystemFormatError, match=expected):
            parse_parity_game(json.dumps(d))

    @pytest.mark.parametrize(
        "edit,expected",
        [
            (lambda d: d["actions"]["labels"][0].__setitem__(1, "xu"), "label .*'xu'"),
            (lambda d: d["actions"]["labels"][0].__setitem__(1, [["e", "x"], ["o", "u"]]), r"label .*\['e', 'x'\]"),
            (lambda d: d["agents"].__setitem__("e", ["s1"]), "agent 'e'"),
            (lambda d: d.__setitem__("agents", ["e", "o"]), "'agents' is not an object"),
        ],
        ids=["actions-string", "actions-list", "agent-spec-list", "agents-list"],
    )
    def test_bad_actions_and_agents_named(self, edit, expected):
        for d, parse in (
            (labeled_system_to_dict(loop_parity(2)), lambda d: labeled_system_from_dict(d)),
            (loop_parity_dict(), lambda d: parse_parity_game(json.dumps(d))),
        ):
            edit(d)
            with pytest.raises(SystemFormatError, match=expected):
                parse(d)

    def test_valid_game_parses(self):
        g = parse_parity_game(json.dumps(loop_parity_dict()))
        assert g.priority == {1: 2}
        assert g.players == ("e", "o")


class TestCompileModal:
    def test_action_atom_skips_taken_names(self):
        g = LabeledSystem(
            [1], 1, [(1, {"a": "x"}, 1)], ["act_a_x", "act_a_xx"], {},
            {"a": set()}, {"a": ["x"]},
        )
        c = compile_modal(g)
        assert c.act_atom == {("a", "x"): "act_a_xxx"}
        assert c.system.labels[1] == {"act_a_xxx"}

    def test_selfloop_product(self):
        g = LabeledSystem(
            [1], 1, [(1, {"a": "x"}, 1)], ["p"], {}, {"a": set()}, {"a": ["x"]},
        )
        c = compile_modal(g)
        assert len(c.system) == 2  # (q0, start) and (q0, (x,))
        non_root = [i for i in c.system.states if i != c.system.q0]
        assert len(non_root) == 1
        (j,) = non_root
        assert c.system.successors(j) == (j,)

    def test_action_atoms_in_labels_and_obs(self):
        g = tiny_labeled()
        c = compile_modal(g)
        assert c.act_atom[("a", "x")] == "act_a_x"
        # agent a observes only its own action atoms
        assert "act_a_x" in c.system.obs["a"]
        assert "act_b_u" not in c.system.obs["a"]
        assert "act_b_u" in c.system.obs["b"]
        root = c.system.q0
        assert not any(p.startswith("act_") for p in c.system.label(root))

    def test_unknown_node_rejected(self):
        c = compile_modal(tiny_labeled())
        with pytest.raises(TypeError, match="unexpected node"):
            c.compile_formula(fm.And(Atom("p"), "q"))
        with pytest.raises(TypeError, match="unexpected node"):
            compile_modal_formula(object(), c.act_atom)

    def test_formula_compilation_shapes(self):
        g = tiny_labeled()
        c = compile_modal(g)
        f = c.compile_formula(DiamondAct((("a", "x"), ("b", "u")), Atom("p")))
        guard = fm.And(Atom("act_a_x"), Atom("act_b_u"))
        assert f == fm.EX(fm.And(guard, Atom("p")))
        f = c.compile_formula(BoxAct((("a", "x"), ("b", "u")), Atom("p")))
        assert isinstance(f, fm.AX)

    def test_diamond_verdict_matches_oracle(self):
        g = tiny_labeled()
        c = compile_modal(g)
        f = c.compile_formula(parse_formula("<a=x,b=u> p"))
        t = bounded_unfold(c.system, 2)
        assert eval_tree(t, to_positive_form(f)).root_holds
        f2 = c.compile_formula(parse_formula("<a=y,b=u> p"))
        assert not eval_tree(t, to_positive_form(f2)).root_holds

    def test_cap_is_the_number_of_compiled_states(self):
        # (1;i), (2;x,u) and (1;y,u): a cap of 3 holds them, a cap of 2
        # fails on the third, naming the phase
        g = tiny_labeled()
        assert len(compile_modal(g, cap=3).system) == 3
        with pytest.raises(CapacityExceeded, match="during modal compilation$") as e:
            compile_modal(g, cap=2)
        assert (e.value.count, e.value.cap) == (3, 2)

    def test_own_actions_are_distinguished(self):
        # agent a cannot see b's actions: nodes differing only in b's move
        # are indistinguishable for a
        g = LabeledSystem(
            [1], 1,
            [(1, {"a": "x", "b": "u"}, 1), (1, {"a": "x", "b": "v"}, 1)],
            ["p"], {}, {"a": set(), "b": set()},
            {"a": ["x"], "b": ["u", "v"]},
        )
        c = compile_modal(g)
        t = bounded_unfold(c.system, 1)
        level = t.by_depth[1]
        assert len(level) == 2
        assert t.signature(level[0], "a") == t.signature(level[1], "a")
        assert t.signature(level[0], "b") != t.signature(level[1], "b")


class TestAtlUntil:
    def test_unknown_agent_or_atom(self):
        g = tiny_labeled()
        with pytest.raises(UnknownAgent, match="unknown agent: z"):
            atl_until_instance(g, "z", "p", "p")
        with pytest.raises(UnknownAtom, match="unknown atom: q"):
            atl_until_instance(g, "a", "p", "q")

    def test_bookkeeping_atom_skips_a_taken_name(self):
        g = LabeledSystem(
            [1], 1, [(1, {"a": "x"}, 1)], ["p", "past_p"], {1: {"past_p"}},
            {"a": set()}, {"a": ["x"]},
        )
        mp, phi = atl_until_instance(g, "a", "p", "p")
        assert mp.atoms == {"p", "past_p", "past_px"}
        assert "past_px" in fm.pretty(phi)

    def test_structural_invariants(self):
        # game whose doubled system is fully reachable
        g = LabeledSystem(
            [1, 2], 1,
            [
                (1, {"a0": "x", "b": "u"}, 2),
                (2, {"a0": "x", "b": "u"}, 1),
            ],
            ["p1", "p2"], {1: {"p1", "p2"}, 2: {"p1"}},
            {"a0": set(), "b": set()}, {"a0": ["x"], "b": ["u"]},
        )
        mp, phi = atl_until_instance(g, "a0", "p1", "p2")
        assert len(mp.states) == 2 * len(g.states)
        past = [p for p in mp.atoms if p.startswith("past_")]
        assert past == ["past_p2"]
        bit1 = [q for q in mp.states if "past_p2" in mp.label(q)]
        bit0 = [q for q in mp.states if "past_p2" not in mp.label(q)]
        assert len(bit1) == len(bit0) == len(g.states)
        assert mp.obs["a0"] == g.obs["a0"]
        assert set(mp.alphabets["a0"]) == {"x_0", "x_1"}
        # each original transition yields four instances
        assert len(mp.trans) == 4 * len(g.trans)

    def test_p2_nowhere_fails(self):
        g = LabeledSystem(
            [1], 1, [(1, {"a0": "x", "b": "u"}, 1)],
            ["p1", "p2"], {1: {"p1"}},
            {"a0": set(), "b": set()}, {"a0": ["x"], "b": ["u"]},
        )
        mp, phi = atl_until_instance(g, "a0", "p1", "p2")
        c = compile_modal(mp)
        assert not check(c.system, c.compile_formula(phi)).holds

    def test_one_step_win_holds(self):
        g = LabeledSystem(
            [1, 2], 1,
            [(1, {"a0": "x", "b": "u"}, 2), (2, {"a0": "x", "b": "u"}, 2)],
            ["p1", "p2"], {1: {"p1"}, 2: {"p2"}},
            {"a0": set(), "b": set()}, {"a0": ["x"], "b": ["u"]},
        )
        mp, phi = atl_until_instance(g, "a0", "p1", "p2")
        c = compile_modal(mp)
        assert check(c.system, c.compile_formula(phi)).holds
        assert reachability_strategy_oracle(g, "a0", "p1", "p2")

    def test_formula_shape(self):
        g = tiny_labeled()
        mp, phi = atl_until_instance(g, "a", "p", "p")
        assert isinstance(phi, fm.Mu)
        assert fm.agents_of(phi) >= {"a"}
        mp, phi_dual = atl_until_instance(g, "a", "p", "p", dual=True)
        # dual swaps K for P at the top of each arm
        kinds = set()

        def walk(h):
            kinds.add(type(h))
            for c in h.children():
                walk(c)

        walk(phi_dual)
        assert Poss in kinds and Know not in kinds

    def test_random_batch_matches_oracle(self):
        rng = random.Random(12)
        for g in small_game_family(8, rng):
            mp, phi = atl_until_instance(g, "a0", "p1", "p2")
            c = compile_modal(mp)
            got = check(c.system, c.compile_formula(phi)).holds
            want = reachability_strategy_oracle(g, "a0", "p1", "p2")
            assert got == want

    def test_unplayable_action_rejected(self):
        g = unplayable_game()
        with pytest.raises(SystemFormatError, match=UNPLAYABLE):
            atl_until_instance(g, "e", "s", "s")
        atl_until_instance(g, "o", "s", "s")  # o plays u everywhere

    def test_unplayable_action_read_in_the_agents_slot(self):
        # m sits between a and z in a sorted action tuple
        g = LabeledSystem(
            [1, 2], 1,
            [(1, {"a": "x", "m": "x", "z": "y"}, 2), (1, {"a": "y", "m": "y", "z": "y"}, 2),
             (2, {"a": "y", "m": "x", "z": "x"}, 1)],
            ["p"], {}, {"a": set(), "m": set(), "z": set()},
            {"a": ["x", "y"], "m": ["x", "y"], "z": ["x", "y"]},
        )
        with pytest.raises(SystemFormatError, match="^state 2: no transition lets agent 'm' play 'y'$"):
            atl_until_instance(g, "m", "p", "p")


class TestCoalitionNext:
    ALPH = {"a": ("x",), "b": ("u", "v")}

    def test_existential_golden(self):
        f = coalition_next({"a"}, Atom("p"), True, self.ALPH)
        assert f == Know("a", BoxAct((("a", "x"),), Atom("p")))

    def test_universal_golden(self):
        f = coalition_next({"a"}, Atom("p"), False, self.ALPH)
        assert f == Poss("a", DiamondAct((("a", "x"),), Atom("p")))

    @pytest.mark.parametrize("empty", ["a", "b"])
    def test_empty_alphabet_rejected(self, empty):
        with pytest.raises(SystemFormatError, match=f"agent '{empty}'"):
            coalition_next({"a"}, Atom("p"), True, {**self.ALPH, empty: ()})

    def test_non_singleton_rejected(self):
        with pytest.raises(UnsupportedCoalition):
            coalition_next({"a", "b"}, Atom("p"), True, self.ALPH)

    def test_agent_without_alphabet_rejected(self):
        with pytest.raises(UnknownAgent, match="unknown agent: c$"):
            coalition_next({"c"}, Atom("p"), True, {"a": ("x",), "b": ("u",)})


def loop_parity(priority):
    return ParityGame(
        [1], 1, [(1, {"e": "x", "o": "u"}, 1)],
        ["s1"], {1: {"s1"}}, {"e": {"s1"}, "o": {"s1"}},
        {"e": ["x"], "o": ["u"]},
        priority={1: priority}, players=("e", "o"),
    )


def unplayable_game():
    """e cannot play y at state 1; o plays u everywhere."""
    return ParityGame(
        [1, 2], 1,
        [(1, {"e": "x", "o": "u"}, 2), (2, {"e": "x", "o": "u"}, 2), (2, {"e": "y", "o": "u"}, 2)],
        ["s"], {}, {"e": set(), "o": set()}, {"e": ["x", "y"], "o": ["u"]},
        priority={1: 2, 2: 1}, players=("e", "o"),
    )


UNPLAYABLE = "^state 1: no transition lets agent 'e' play 'y'$"


class TestPriorities:
    @staticmethod
    def two_state_game(priority):
        return ParityGame(
            [1, 2], 1, [(1, {"e": "x", "o": "u"}, 2), (2, {"e": "x", "o": "u"}, 1)],
            [], {}, {"e": set(), "o": set()}, {"e": ["x"], "o": ["u"]},
            priority=priority, players=("e", "o"),
        )

    @pytest.mark.parametrize(
        "priority,state",
        [({1: 1}, 2), ({2: 1}, 1), ({}, 1), (None, 1), ({1: 1, 3: 2}, 2)],
        ids=["second-missing", "first-missing", "empty", "none", "other-state"],
    )
    def test_missing_priority_names_the_first_state(self, priority, state):
        with pytest.raises(SystemFormatError, match=f"^no priority at state {state}$"):
            self.two_state_game(priority)

    def test_unreachable_state_needs_none(self):
        g = ParityGame(
            [1, 2], 1, [(1, {"e": "x", "o": "u"}, 1)],
            [], {}, {"e": set(), "o": set()}, {"e": ["x"], "o": ["u"]},
            priority={1: 2}, players=("e", "o"),
        )
        assert g.priority == {1: 2} and g.dropped_states == (2,)


class TestParityGameShape:
    def test_needs_exactly_two_agents(self):
        for obs in ({"e": set()}, {"e": set(), "o": set(), "z": set()}):
            alphabets = dict.fromkeys(obs, ["x"])
            with pytest.raises(SystemFormatError, match="a parity game needs exactly two agents"):
                ParityGame([1], 1, [], [], {}, obs, alphabets, priority={1: 2})

    def test_players_must_name_the_two_agents(self):
        for players in (("e", "z"), ("e", "e"), ("e",)):
            with pytest.raises(SystemFormatError, match="players must name the two agents"):
                ParityGame(
                    [1], 1, [], [], {}, {"e": set(), "o": set()}, {"e": ["x"], "o": ["u"]},
                    priority={1: 2}, players=players,
                )


class TestParityEncoding:
    def check_game(self, game, player=0):
        ext, phi = parity_encoding(game, player)
        c = compile_modal(ext)
        return check(c.system, c.compile_formula(phi)).holds

    def test_even_selfloop_holds(self):
        g = loop_parity(2)
        assert self.check_game(g) == (1 in parity_oracle(g)) is True

    def test_odd_selfloop_fails(self):
        g = loop_parity(1)
        assert self.check_game(g) == (1 in parity_oracle(g)) is False

    def test_three_state_game(self):
        g = ParityGame(
            [1, 2, 3], 1,
            [
                (1, {"e": "x", "o": "u"}, 2),
                (1, {"e": "y", "o": "u"}, 3),
                (2, {"e": "x", "o": "u"}, 2), (2, {"e": "y", "o": "u"}, 2),
                (3, {"e": "x", "o": "u"}, 3), (3, {"e": "y", "o": "u"}, 3),
            ],
            ["s1", "s2", "s3"], {1: {"s1"}, 2: {"s2"}, 3: {"s3"}},
            {"e": {"s1", "s2", "s3"}, "o": {"s1", "s2", "s3"}},
            {"e": ["x", "y"], "o": ["u"]},
            priority={1: 1, 2: 2, 3: 1}, players=("e", "o"),
        )
        assert self.check_game(g) == (1 in parity_oracle(g)) is True

    def test_formula_is_non_mixing(self):
        ext, phi = parity_encoding(loop_parity(2), 0)
        c = compile_modal(ext)
        plain = to_positive_form(c.compile_formula(phi))
        tree = build_syntree(plain)
        assert check_non_mixing(tree, c.system.obs)

    def test_odd_max_priority_padded(self):
        ext, phi = parity_encoding(loop_parity(3), 0)
        # priorities padded to 4 levels: outermost binder is a nu
        assert isinstance(phi, fm.Nu)

    def test_zero_priority_rejected(self):
        with pytest.raises(SystemFormatError):
            parity_encoding(loop_parity(0), 0)

    def test_unplayable_action_rejected(self):
        # [e=y] Z would hold vacuously at state 1, where e loses
        g = unplayable_game()
        assert 1 not in parity_oracle(g, 0)
        with pytest.raises(SystemFormatError, match=UNPLAYABLE):
            parity_encoding(g, 0)
        # o plays u everywhere, so o's encoding is defined and agrees
        assert self.check_game(g, 1) == (1 in parity_oracle(g, 1))

    @pytest.mark.parametrize("index", [-1, 2, True, False, 1.0, "0", None])
    def test_player_index_is_0_or_1(self, index):
        with pytest.raises(EpmuError, match=f"^player index {re.escape(repr(index))} is not 0 or 1$"):
            parity_encoding(loop_parity(2), index)


def three_agent_game(rng):
    """A random total game of the agents a, m and z with one or two actions
    each, so the acting agent m sits between the other two in a tuple."""
    n = rng.randint(1, 3)
    states = list(range(1, n + 1))
    alphabets = {b: ["x", "y"][: rng.randint(1, 2)] for b in ("a", "m", "z")}
    trans = [
        (q, {"a": x, "m": y, "z": w}, rng.choice(states))
        for q in states
        for x in alphabets["a"]
        for y in alphabets["m"]
        for w in alphabets["z"]
    ]
    labels = {q: {p for p in ("p1", "p2") if rng.random() < 0.45} for q in states}
    obs = {b: {p for p in ("p1", "p2") if rng.random() < 0.5} for b in ("a", "m", "z")}
    return LabeledSystem(states, 1, trans, ["p1", "p2"], labels, obs, alphabets)


@functools.cache
def translator_corpus():
    """Every translator on seeded instances, as (labeled system, alphabets,
    modal formula) triples: atl-until with both dual values on 300
    small_game_family games, the exhaustive tiny games and 60 three-agent
    games; coalition_next for every agent of several alphabets with both
    flags, with no system; parity_encoding for both players on 400 seeded
    games.  Built once per session: the corpus tests share it."""
    import test_checker

    rng = random.Random(1528)
    corpus = []

    def add(g, phi):
        corpus.append((g, g.alphabets, phi))

    games = small_game_family(300, rng, max_states=4)
    games += exhaustive_tiny_games()
    for g in games:
        for dual in (False, True):
            add(*atl_until_instance(g, "a0", "p1", "p2", dual=dual))
    for _ in range(60):
        g = three_agent_game(rng)
        for dual in (False, True):
            add(*atl_until_instance(g, "m", "p1", "p2", dual=dual))
    for alphabets in (
        {"a": ("x",)},
        {"a": ("x", "y"), "b": ("u",)},
        {"a": ("x",), "b": ("u", "v")},
        {"a": ("x", "y"), "b": ("u", "v"), "c": ("s", "t", "w")},
    ):
        for a in alphabets:
            for existential in (False, True):
                f = coalition_next({a}, fm.Atom("p"), existential, alphabets)
                corpus.append((None, alphabets, f))
    for i in range(400):
        game = test_checker.TestParityDigest.game(rng, i)
        for player in (0, 1):
            add(*parity_encoding(game, player))
    return corpus


def corpus_digest(corpus):
    """One sha256 over the corpus: for each instance the labeled system as a
    dict (key order included), the compiled plain system, and the modal and
    compiled formulas as text; for a coalition_next formula its text."""
    h = hashlib.sha256()
    for g, _, phi in corpus:
        if g is None:
            h.update(fm.pretty(phi).encode())
            continue
        c = compile_modal(g)
        for part in (
            labeled_system_to_dict(g),
            system_to_dict(c.system),
            fm.pretty(phi),
            fm.pretty(c.compile_formula(phi)),
        ):
            h.update(json.dumps(part).encode())
    return h.hexdigest()


def full_tuples(f, alphabets):
    """f with each one-pair action modality [a=alpha] g (<a=alpha> g)
    replaced by the &-join of [acts] g (the |-join of <acts> g) over the
    joint actions acts in which agent a plays alpha, grouped to the left,
    the other agents' actions in the order of itertools.product over the
    sorted agents: the form the encoders wrote before they said "agent a
    plays alpha" with one modality."""
    kids = [full_tuples(c, alphabets) for c in f.children()]
    if not isinstance(f, (BoxAct, DiamondAct)):
        return fm._rebuild(f, kids) if kids else f
    ((a, alpha),) = f.acts
    others = [b for b in sorted(alphabets) if b != a]
    join = fm.And if isinstance(f, BoxAct) else fm.Or
    steps = [
        type(f)(tuple(sorted(((a, alpha), *zip(others, combo)))), kids[0])
        for combo in itertools.product(*(alphabets[b] for b in others))
    ]
    return functools.reduce(join, steps)


class TestTranslatorDigest:
    """The translator corpus pinned by one sha256 (see corpus_digest).
    Re-pinned when the encoders began to say "agent a plays alpha" with one
    modality; TestOneActionModality holds them to the form pinned before."""

    DIGEST = "58d5f63022522b78a33508d323139e1999019516a1b2d619a4e55faf0e5cb19a"

    def test_digest(self):
        assert corpus_digest(translator_corpus()) == self.DIGEST


def coalition_instances():
    """coalition_next over p1 and over p1 & EX p2 for every agent of 150
    small games, both flags, each with the compiled game it is checked
    on."""
    rng = random.Random(1313)
    for g in small_game_family(150, rng, max_states=4):
        c = compile_modal(g)
        for a in g.agents:
            for existential in (False, True):
                for f in (Atom("p1"), fm.And(Atom("p1"), fm.EX(Atom("p2")))):
                    yield c, g.alphabets, coalition_next({a}, f, existential, g.alphabets)


class TestOneActionModality:
    """The encoders write "agent a plays alpha" as one modality, [a=alpha]
    or <a=alpha>; full_tuples gives the join over joint actions they wrote
    before, and the two decide the same on every compiled system.
    FORMER_DIGEST is the corpus digest pinned before the change, so
    full_tuples rebuilds the former encoders' output exactly."""

    FORMER_DIGEST = "3d74b69c1328480ec75ede84b0f77acd8166c884183a8b3e9ff59c2747a96260"

    def test_full_tuples_is_the_former_encoding(self):
        former = [(g, alph, full_tuples(phi, alph)) for g, alph, phi in translator_corpus()]
        assert corpus_digest(former) == self.FORMER_DIGEST

    @staticmethod
    def results(c, alphabets, phi):
        for f in (phi, full_tuples(phi, alphabets)):
            v, _, S = check_with_sets(c.system, c.compile_formula(f))
            yield v.holds, v.refinement_sizes, v.iteration_counts, S

    def test_same_sets_on_the_corpus(self):
        for g, alphabets, phi in translator_corpus():
            if g is not None:
                new, old = self.results(compile_modal(g), alphabets, phi)
                assert new == old

    def test_same_sets_for_coalition_next(self):
        for c, alphabets, phi in coalition_instances():
            new, old = self.results(c, alphabets, phi)
            assert new == old

    def test_one_pair_per_action_tuple(self):
        phis = [phi for _, _, phi in translator_corpus()]
        phis += [phi for _, _, phi in coalition_instances()]
        for phi in phis:
            stack = [phi]
            while stack:
                f = stack.pop()
                if isinstance(f, (BoxAct, DiamondAct)):
                    assert len(f.acts) == 1, fm.pretty(f)
                stack.extend(f.children())


def parity_games_of(rng, count):
    """Parity games over small_game_family games with random priorities
    (1-5) and players in either order.  Each keeps the states the family
    game dropped, now without transitions, so those are unreachable again;
    about half name their states."""
    for g in small_game_family(count, rng, max_states=5):
        states = list(g.states) + list(g.dropped_states)
        named = rng.random() < 0.5
        yield ParityGame(
            states, g.q0, g.trans, g.atoms, g.labels, g.obs, g.alphabets,
            names={q: f"n{q}" for q in states} if named else None,
            priority={q: rng.randint(1, 5) for q in states},
            players=rng.choice([("a0", "opp"), ("opp", "a0")]),
        )


class TestParityRelabel:
    """parity_encoding relabels the checked game instead of building its
    system again; the result equals, field by field and as a file, the
    LabeledSystem built from the game's states, transitions and new labels."""

    FIELDS = (
        "states", "q0", "atoms", "labels", "agents", "obs", "names",
        "_succ", "trans", "_out", "alphabets", "dropped_states",
    )

    @staticmethod
    def rebuilt(game):
        n = max(game.priority.values())
        n += n % 2
        return LabeledSystem(
            states=game.states,
            q0=game.q0,
            trans=game.trans,
            atoms=game.atoms | {f"prio{k}" for k in range(1, n + 1)},
            labels={q: game.label(q) | {f"prio{game.priority[q]}"} for q in game.states},
            obs=game.obs,
            alphabets=game.alphabets,
            names=game.names,
        )

    def games(self):
        import test_checker

        rng = random.Random(4711)
        games = list(parity_games_of(rng, 150))
        games += [test_checker.TestParityDigest.game(rng, i) for i in range(60)]
        return games

    def test_same_system_as_rebuilt(self):
        dropped = 0
        for game in self.games():
            want = self.rebuilt(game)
            dropped += bool(game.dropped_states)
            for player in (0, 1):
                got = parity_encoding(game, player)[0]
                assert type(got) is LabeledSystem
                for name in self.FIELDS:
                    assert getattr(got, name) == getattr(want, name), name
                assert json.dumps(labeled_system_to_dict(got)) == json.dumps(labeled_system_to_dict(want))
                assert got.delta == want.delta
        assert dropped > 20

    def test_new_atoms_and_labels_are_checked(self):
        g = loop_parity(2)  # atom s1, at state 1 and seen by both agents
        with pytest.raises(UnknownAtom, match="unknown atom: zz$"):
            _relabeled(g, g.atoms, {1: frozenset({"s1", "zz"})})
        with pytest.raises(UnknownAtom, match="unknown atom: s1$"):
            _relabeled(g, {"p"}, {1: frozenset({"p"})})
