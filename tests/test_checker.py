import gc
import hashlib
import importlib
import random
import weakref

import pytest

from epmu import checker
from epmu import formula as fm
from epmu.checker import (
    BlockImage,
    MaskImage,
    ax_f,
    check,
    check_with_sets,
    eval_state_naive,
    ex_f,
    kleene,
    know_blocks,
    node_set_on_prefix,
    poss_blocks,
)
from epmu.distinction import distinction
from epmu.errors import (
    EpmuError,
    FormulaTooDeep,
    FragmentRejected,
    MonotonicityViolated,
    UnknownAgent,
    UnknownAtom,
    depth_guarded,
)
from epmu.formula import parse_formula, to_positive_form
from epmu.oracle import eval_tree
from epmu.gen import random_system
from epmu.system import InSplitting, MultiAgentSystem, bounded_unfold
from epmu.translate import ParityGame, compile_modal, parity_encoding


class TestCheck:
    def test_ex_knowledge(self, sys2):
        assert check(sys2, parse_formula("EX K a . p")).holds

    def test_ax_knowledge(self, sys2):
        assert not check(sys2, parse_formula("AX K a . p")).holds

    def test_eventually_knowledge(self, sys2):
        assert check(sys2, parse_formula("mu Z . (K a . p) | EX Z")).holds

    def test_fragment_rejection(self, sys1):
        m = MultiAgentSystem(
            list(sys1.states), sys1.q0, list(sys1.delta), list(sys1.atoms),
            dict(sys1.labels), {"a": {"p"}, "b": {"q"}},
        )
        with pytest.raises(FragmentRejected) as e:
            check(m, parse_formula("nu Z . p & K a . Z & K b . Z"))
        w = e.value.witness
        assert {w.agent_a, w.agent_b} == {"a", "b"}

    def test_atom_set(self, sys1):
        _, chain, S = check_with_sets(sys1, parse_formula("q"))
        assert S == {2} and len(chain.systems) == 1

    def test_knowledge_closed_set(self, sys2):
        _, chain, S = check_with_sets(sys2, parse_formula("K a . p"))
        d = chain.final
        assert {d.pair_of[i] for i in S} == {(2, frozenset({2}))}

    def test_least_fixpoint_region(self, sys1):
        # reach a q-state
        verdict, chain, S = check_with_sets(sys1, parse_formula("mu Z . q | EX Z"))
        assert verdict.holds and S == {1, 2}

    def test_greatest_fixpoint_with_poss(self, sys2):
        f = parse_formula("nu Z . p | AX (P a . Z)")
        verdict, chain, _ = check_with_sets(sys2, f)
        # validated independently against the oracle in acceptance tests;
        # here just pin the verdict and the refinement shape
        assert len(chain.final) == 6  # evaluated in the a-refined system
        uf = fm.unfold_fixpoint(to_positive_form(f), 6)
        t = bounded_unfold(sys2, fm.modal_depth(uf))
        assert verdict.holds == eval_tree(t, uf).root_holds

    def test_mu_z_z_empty(self, sys1):
        assert not check(sys1, fm.Mu("Z", fm.Var("Z"))).holds

    def test_duality(self, sys2):
        for text in ["EX K a . p", "mu Z . (K a . p) | EX Z", "nu Z . ~p & AX Z"]:
            f = parse_formula(text)
            assert check(sys2, f).holds != check(sys2, fm.dual(f)).holds

    def test_statistics(self, sys2):
        v = check(sys2, parse_formula("mu Z . (K a . p) | EX Z"))
        assert v.refinement_sizes[0] == 5
        assert all(x <= y for x, y in zip(v.refinement_sizes, v.refinement_sizes[1:]))
        assert v.iteration_counts and all(
            c <= max(v.refinement_sizes) + 1 for c in v.iteration_counts
        )
        assert v.wall_time >= 0

    def test_conjunction_threads_chain(self, sys2):
        # left conjunct refines; right conjunct must see the extended chain
        f = parse_formula("(K a . p | ~p) & EX K a . p")
        assert check(sys2, f).holds


class TestDeepFormulas:
    def test_long_conjunction_names_the_phase(self, sys1):
        f = parse_formula(" & ".join(["p"] * 2000))
        with pytest.raises(FormulaTooDeep) as e:
            check(sys1, f)
        assert e.value.phase in ("positive form", "syntax tree", "evaluation")

    @pytest.mark.parametrize(
        "text", ["EX " * 700 + "p", " & ".join(["p"] * 700)], ids=["nested-EX", "wide-and"]
    )
    def test_700_levels_get_a_verdict(self, sys1, text):
        # the positive form's renaming walk takes one stack frame per level
        assert check(sys1, parse_formula(text)).holds is False

    def test_depth_guard_names_the_phase(self):
        def dive(n):
            return dive(n + 1)

        with pytest.raises(FormulaTooDeep, match="evaluation phase"):
            depth_guarded("evaluation", dive, 0)

    def test_free_variable_rejected(self, sys1):
        with pytest.raises(EpmuError, match="free fixpoint variables: Z"):
            check(sys1, fm.Or(fm.Atom("p"), fm.Var("Z")))


class TestLazyInitialState:
    def test_nested_knowledge_does_not_build_the_name(self, monkeypatch):
        # the name doubles in length with each K, so 40 of them would not
        # fit in memory: building it at all fails the test instead
        def no_names(base, s, S):
            raise AssertionError("initial_state was built")

        monkeypatch.setattr(importlib.import_module("epmu.distinction"), "_belief_name", no_names)
        m = MultiAgentSystem([1], 1, [(1, 1)], ["p"], {1: {"p"}}, {"a": {"p"}})
        v = check(m, parse_formula("K a . " * 40 + "p"))
        assert v.holds and v.refinement_sizes == [1] * 41
        assert "initial_state" not in vars(v)
        # read, it is the summary of a name of 6 * 2**40 - 5 characters
        assert v.initial_state.startswith(f"<{6 * 2 ** 40 - 5} characters, sha256 tree digest ")

    def test_name_is_built_once_on_first_read(self, sys2):
        v = check(sys2, parse_formula("EX K a . p"))
        assert v.initial_state == "(1,{1})"
        assert vars(v)["initial_state"] is v.initial_state


class TestChainFreed:
    """No refined system refers back to a finer one, so once the verdict
    and the chain are dropped reference counting frees every system the
    chain built, with the cyclic garbage collector off."""

    @pytest.mark.parametrize(
        "text",
        ["K a . K b . p", "nu Z . (K a . (p & Z) & K b . (p & Z))", "C{a,b} p"],
        ids=["nested-K", "nu", "common-knowledge"],
    )
    def test_systems_die_with_the_chain(self, text):
        m = random_system(random.Random(3), max_states=6, chain_obs=True)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            v, chain, S = check_with_sets(m, parse_formula(text))
            refs = [weakref.ref(s) for s in chain.systems[1:]]
            assert refs
            del v, chain, S
            assert [r() for r in refs] == [None] * len(refs)
        finally:
            if was_enabled:
                gc.enable()


class TestKleene:
    def test_identity(self):
        result, n = kleene(lambda S: S, frozenset(), 5)
        assert result == frozenset() and n == 1

    def test_constant(self):
        C = frozenset({1, 2})
        result, n = kleene(lambda S: C, frozenset(), 5)
        assert result == C and n == 2

    def test_reachability(self, sys1):
        op = lambda S: frozenset({2}) | ex_f(sys1, S)
        result, _ = kleene(op, frozenset(), len(sys1))
        assert result == {1, 2}

    def test_non_monotone_caught(self):
        flip = lambda S: frozenset() if S else frozenset({1})
        with pytest.raises(MonotonicityViolated):
            kleene(flip, frozenset(), 3)


class TestNaive:
    def test_memoryless_knowledge_differs_from_tree(self, sys2):
        f = to_positive_form(parse_formula("K a . EX p"))
        assert sys2.q0 not in eval_state_naive(sys2, f)
        t = bounded_unfold(sys2, 3)
        assert eval_tree(t, f).root_holds
        assert check(sys2, f).holds  # the full pipeline agrees with the tree

    def test_agrees_on_plain_formulas(self, sys2):
        for text in ["p", "EX p", "AX ~p", "mu Z . p | EX Z"]:
            f = parse_formula(text)
            naive = sys2.q0 in eval_state_naive(sys2, f)
            assert naive == check(sys2, f).holds


class TestNodeProjection:
    def test_projection_matches_oracle(self, sys2):
        f = to_positive_form(parse_formula("K a . p"))
        _, chain, S = check_with_sets(sys2, f)
        depth = 4
        got, all_runs = node_set_on_prefix(chain, S, depth)
        t = bounded_unfold(sys2, depth)
        assert all_runs == set(t.nodes)
        ns = eval_tree(t, f, require_root=False)
        want = {x for x in ns.nodes}
        got_valid = {x for x in got if len(x) - 1 <= ns.valid_depth}
        assert got_valid == want


def _kernel_systems():
    """Seeded random systems, one and two subset constructions over them,
    and a system with a deadlocked state."""
    rng = random.Random(7)
    out = []
    for _ in range(30):
        m = random_system(rng, max_states=7, chain_obs=True)
        d = distinction(m, "b")
        out += [m, d, distinction(d, "a")]
    out.append(MultiAgentSystem([1, 2, 3], 1, [(1, 2), (1, 3), (3, 3)], ["p"], {}, {"a": []}))
    return out


class TestModalKernels:
    """ax_f/ex_f against their definitions over successors(q)."""

    @staticmethod
    def subsets(m, rng):
        yield frozenset()
        yield frozenset(m.states)
        for _ in range(8):
            yield frozenset(q for q in m.states if rng.random() < 0.5)

    def test_against_definition(self):
        rng = random.Random(11)
        systems = _kernel_systems()
        # a deadlocked state is vacuously in AX S and never in EX S
        assert any(m.deadlocks() for m in systems)
        for m in systems:
            for S in self.subsets(m, rng):
                want_ax = {q for q in m.states if all(r in S for r in m.successors(q))}
                want_ex = {q for q in m.states if any(r in S for r in m.successors(q))}
                for arg in (S, set(S), sorted(S)):
                    assert ax_f(m, arg) == want_ax
                    assert ex_f(m, arg) == want_ex
                    assert type(ax_f(m, arg)) is frozenset
                    assert type(ex_f(m, arg)) is frozenset


def _sparse_system(rng, n):
    """n states with scattered ids, some of them deadlocked, so that the
    bit of a state is its position and not its id."""
    ids = sorted(rng.sample(range(1000), n))
    delta = [(ids[0], q) for q in ids[1:]]
    delta += [(q, r) for q in ids for r in ids if rng.random() < 2 / n and q % 3]
    labels = {q: {"p"} for q in ids if rng.random() < 0.5}
    return MultiAgentSystem(ids, ids[0], delta, ["p"], labels, {"a": ["p"]})


class TestMaskKernels:
    """The region kernel's operators on masks against ax_f, ex_f,
    know_blocks and poss_blocks on frozensets."""

    @staticmethod
    def systems():
        rng = random.Random(5)
        out = _kernel_systems()
        out += [_sparse_system(rng, n) for n in (2, 7, 13, 40, 70)]
        return out

    @staticmethod
    def blocks(m):
        """The system's Γ blocks, or memoryless ones as eval_state_naive
        takes them."""
        if "a" in m.partitions:
            return m.partitions["a"]
        groups = {}
        for q in m.states:
            groups.setdefault(m.obs_label(q, "a"), set()).add(q)
        return [frozenset(g) for g in groups.values()]

    def test_against_set_operators(self):
        rng = random.Random(13)
        systems = self.systems()
        assert any(m.deadlocks() for m in systems)
        assert any(m.states != tuple(range(len(m))) for m in systems)
        assert max(len(m) for m in systems) > 64
        for m in systems:
            # the region's own tables: its EX image and dual, and its bits
            region = checker.Region(m, {}, {}, [])
            ex, ax = region.ops[fm.EX]
            blocks = self.blocks(m)
            image = BlockImage([region.encode(b) for b in blocks])
            for S in TestModalKernels.subsets(m, rng):
                mask = region.encode(S)
                assert region.decode(mask) == S
                assert region.encode(ax_f(m, S)) == ax(mask)
                assert region.encode(ex_f(m, S)) == ex(mask)
                assert region.encode(know_blocks(blocks, S)) == image.dual(mask)
                assert region.encode(poss_blocks(blocks, S)) == image(mask)

    def test_round_trip_from_masks(self):
        rng = random.Random(17)
        for m in self.systems():
            region = checker.Region(m, {}, {}, [])
            assert [region.encode({q}) for q in m.states] == [1 << i for i in range(len(m))]
            for _ in range(10):
                mask = rng.getrandbits(len(m))
                assert region.encode(region.decode(mask)) == mask

    def test_naive_kernel_agrees_with_chain_on_scattered_ids(self):
        # without K/P there is no refinement, so both give sets of m's states
        rng = random.Random(19)
        texts = ["EX p", "AX ~p", "mu Z . p | EX Z", "nu Z . ~p & AX Z", "EX AX p | AX EX p"]
        for m in [_sparse_system(rng, n) for n in (2, 5, 9, 70)]:
            for text in texts:
                f = parse_formula(text)
                assert eval_state_naive(m, f) == check_with_sets(m, f)[2]

    @pytest.mark.parametrize("mode", ["lfp", "gfp"])
    def test_kleene_catches_non_monotone_on_both_types(self, mode):
        for empty, full in ((0, 0b11), (frozenset(), frozenset({1, 2}))):
            seed = empty if mode == "lfp" else full
            flip = lambda S: full if S == empty else empty  # noqa: E731
            with pytest.raises(MonotonicityViolated):
                kleene(flip, seed, 3, mode)


    @pytest.mark.parametrize("mode", ["lfp", "gfp"])
    def test_kleene_catches_a_step_the_wrong_way_on_both_types(self, mode):
        # the operator settles within the bound, so only the subset test
        # of the step before can catch it
        for empty, one, full in ((0, 0b01, 0b11), (frozenset(), frozenset({1}), frozenset({1, 2}))):
            seed, first = (empty, full) if mode == "lfp" else (full, empty)
            op = lambda S: first if S == seed else one  # noqa: E731
            with pytest.raises(MonotonicityViolated, match="shrank" if mode == "lfp" else "grew"):
                kleene(op, seed, 5, mode)


class TestRegionMemo:
    """A region's kernel returns a node's last mask while its free variables
    keep their values, and never keeps one for a binder or a node above one."""

    def test_outer_only_subterm_evaluated_once_per_outer_step(self, sys1, monkeypatch):
        calls = []

        dual = MaskImage.dual

        def counting_dual(image, S):  # AX, as the formula has no K
            calls.append(S)
            return dual(image, S)

        monkeypatch.setattr(MaskImage, "dual", counting_dual)
        v = check(sys1, parse_formula("nu X . mu Y . (q & AX X) | EX Y"))
        assert v.holds and v.iteration_counts == [3, 3, 2]
        inner, outer = v.iteration_counts[:-1], v.iteration_counts[-1]
        # AX X mentions only X: one call per outer step, not per inner one
        assert len(calls) == outer < sum(inner)

    def test_one_cache_per_run_of_equal_free_variables(self, sys1, monkeypatch):
        # q & AX (p & EX X), AX (p & EX X), p & EX X and EX X all have the
        # free variables {X}: the topmost one's value changes whenever
        # theirs does, so only it keeps one
        kept = []
        wrap = checker.Region.kept

        def counting_kept(region, fn, free):
            kept.append(sorted(free))
            return wrap(region, fn, free)

        monkeypatch.setattr(checker.Region, "kept", counting_kept)
        check(sys1, parse_formula("nu X . mu Y . (q & AX (p & EX X)) | EX Y"))
        assert kept == [["X"]]

    # (formula, random_system seed, holds, refinement_sizes, iteration_counts),
    # computed before regions had a memo.  The innermost binder never
    # mentions Y, so a memoised binder, or a memoised node above it, would
    # skip inner loops and shorten the counts.
    THREE_BINDERS = [
        (
            "nu X . mu Y . (mu Z . (p & X) | EX Z) | (q & EX Y)",
            40, True, [8], [5, 5, 2, 5, 5, 2, 2],
        ),
        (
            "nu X . mu Y . (q & AX (mu Z . (p & X) | EX Z)) | EX Y",
            40, True, [8], [5, 5, 5, 3, 5, 5, 5, 3, 2],
        ),
        (
            "nu X . mu Y . (q & P a . (mu Z . (r & X) | EX Z)) | EX Y",
            45, True, [5, 5], [3, 3, 3, 3, 4, 4, 4, 3, 2],
        ),
    ]

    @pytest.mark.parametrize("text,seed,holds,sizes,iters", THREE_BINDERS)
    def test_every_kleene_loop_runs(self, text, seed, holds, sizes, iters):
        m = random_system(random.Random(seed), max_states=8, chain_obs=True)
        v = check(m, parse_formula(text))
        assert (v.holds, v.refinement_sizes, v.iteration_counts) == (holds, sizes, iters)


class TestSetRegions:
    """A region above MASK_STATES runs the same closures on frozensets.
    With the limit at 0 every region does, and no pinned result moves."""

    @pytest.fixture
    def no_masks(self, monkeypatch):
        monkeypatch.setattr(checker, "MASK_STATES", 0)

    def test_parity_digest(self, no_masks):
        TestParityDigest().test_digest()

    def test_chain_digest(self, no_masks):
        TestChainDigest().test_digest()

    @pytest.mark.parametrize("text,seed,holds,sizes,iters", TestRegionMemo.THREE_BINDERS)
    def test_every_kleene_loop_runs(self, no_masks, text, seed, holds, sizes, iters):
        TestRegionMemo().test_every_kleene_loop_runs(text, seed, holds, sizes, iters)

    def test_naive_kernel_on_scattered_ids(self, no_masks):
        TestMaskKernels().test_naive_kernel_agrees_with_chain_on_scattered_ids()

    def test_naive_knowledge_on_frozensets(self, sys2, monkeypatch):
        f = parse_formula("AX K a . p | nu Z . P a . (~p & EX Z)")  # sys2 declares only p
        want = eval_state_naive(sys2, f)
        monkeypatch.setattr(checker, "MASK_STATES", 0)
        assert eval_state_naive(sys2, f) == want

    def test_both_sides_of_the_limit(self, monkeypatch):
        # a ring with chords, one state past the limit, and a region refined
        # for an agent that sees every state apart
        n = checker.MASK_STATES + 1
        rng = random.Random(23)
        atoms = [f"b{j}" for j in range(n.bit_length())]
        delta = [(i, (i + 1) % n) for i in range(n)] + [(i, rng.randrange(n)) for i in range(n)]
        labels = {i: {b for j, b in enumerate(atoms) if i >> j & 1} for i in range(n)}
        m = MultiAgentSystem(range(n), 0, delta, atoms, labels, {"a": atoms})
        f = parse_formula("nu X . mu Y . (b0 & b1 & b2 & K a . EX X) | (b3 & AX Y) | (b4 & P a . EX Y)")
        made = []
        init = checker.Region.__init__

        def spy(region, *args):
            init(region, *args)
            made.append(region.encode)

        monkeypatch.setattr(checker.Region, "__init__", spy)
        v, _, S = check_with_sets(m, f)
        assert v.refinement_sizes == [n, n] and made == [frozenset]
        assert max(v.iteration_counts) > 2 and 0 < len(S) < n
        monkeypatch.setattr(checker, "MASK_STATES", n)
        w, _, T = check_with_sets(m, f)
        assert made[-1] is not frozenset  # the encoder of masks
        assert (w.holds, w.iteration_counts, T) == (v.holds, v.iteration_counts, S)


class TestChainDigest:
    """The results of the knowledge_chain formula shapes on 300 seeded
    systems, pinned by one sha256 computed while Γ was still held as pairs:
    holding it as blocks, and copying a construction for an agent the
    system is already distinguished for, must change none of them."""

    DIGEST = "521edb147c1c55027e0403dd31a239c075edbcf8387c97b9a61424a318c286df"

    def test_digest(self):
        from test_golden import CHAIN_FORMULAS

        h = hashlib.sha256()
        for seed in range(300):
            m = random_system(random.Random(seed), max_states=8, chain_obs=True)
            for text in CHAIN_FORMULAS:
                v, _, S = check_with_sets(m, parse_formula(text))
                shape = (v.holds, v.refinement_sizes, v.iteration_counts, v.initial_state, sorted(S))
                h.update(repr(shape).encode())
        assert h.hexdigest() == self.DIGEST


class TestParityDigest:
    """parity_encoding on 200 seeded games of 1-6 states and priorities up
    to 6, in three action shapes; in every fourth game e sees only some of
    the state atoms, so it cannot tell the opponent's move from where the
    play went.  One sha256 over holds, refinement sizes, iteration counts
    and the final set, computed before regions were compiled to bitmasks."""

    DIGEST = "55fd0f688e9e4e0976281b72e74494d7b2e63d0af91a0a8926fef641f14760fc"

    SHAPES = (
        {"e": ["x", "y"], "o": ["u"]},
        {"e": ["x"], "o": ["u", "v"]},
        {"e": ["x", "y"], "o": ["u", "v"]},
    )

    @classmethod
    def game(cls, rng, i):
        n = rng.randint(1, 6)
        states = list(range(1, n + 1))
        alphabets = cls.SHAPES[i % 3]
        trans = [
            (q, {"e": x, "o": u}, rng.choice(states))
            for q in states
            for x in alphabets["e"]
            for u in alphabets["o"]
        ]
        atoms = [f"s{q}" for q in states]
        labels = {q: {f"s{q}"} for q in states}
        seen = set(atoms) if i % 4 else {a for a in atoms if rng.random() < 0.5}
        top = rng.randint(1, 6)
        priority = {q: rng.randint(1, top) for q in states}
        return ParityGame(states, 1, trans, atoms, labels, {"e": seen, "o": set(atoms)},
                          alphabets, priority=priority, players=("e", "o"))

    def test_digest(self):
        rng = random.Random(2718)
        h = hashlib.sha256()
        for i in range(200):
            ext, phi = parity_encoding(self.game(rng, i), 0)
            c = compile_modal(ext)
            v, _, S = check_with_sets(c.system, c.compile_formula(phi))
            h.update(repr((v.holds, v.refinement_sizes, v.iteration_counts, sorted(S))).encode())
        assert h.hexdigest() == self.DIGEST

    def test_nothing_is_pulled_back(self, monkeypatch):
        # every closed node under a binder of these encodings is a leaf,
        # which the region reads on its own system
        calls = []
        pullback = InSplitting.pullback
        monkeypatch.setattr(InSplitting, "pullback", lambda s, S: calls.append(S) or pullback(s, S))
        rng = random.Random(2718)
        for i in range(200):
            ext, phi = parity_encoding(self.game(rng, i), 0)
            c = compile_modal(ext)
            check(c.system, c.compile_formula(phi))
        assert calls == []


def _hidden_game(rng, n, top):
    """A game of n states and priorities up to top in which e sees one
    state bit h and neither the priorities nor o's move: its region is
    refined past the game's size by e's subset construction."""
    states = list(range(1, n + 1))
    trans = [(q, {"e": x, "o": u}, rng.choice(states)) for q in states for x in "xy" for u in "uv"]
    atoms = [f"s{q}" for q in states] + ["h"]
    labels = {q: {f"s{q}"} | ({"h"} if rng.random() < 0.5 else set()) for q in states}
    priority = {q: rng.randint(1, top) for q in states}
    return ParityGame(states, 1, trans, atoms, labels, {"e": {"h"}, "o": set(atoms)},
                      {"e": ["x", "y"], "o": ["u", "v"]}, priority=priority, players=("e", "o"))


def _hidden_check(n, seed):
    ext, phi = parity_encoding(_hidden_game(random.Random(seed), n, 4), 0)
    c = compile_modal(ext)
    return check(c.system, c.compile_formula(phi))


def _ring():
    """MASK_STATES + 1 states on a ring with chords, every state labelled
    with its own bits, all of which agent a sees."""
    n = 513
    rng = random.Random(23)
    atoms = [f"b{j}" for j in range(n.bit_length())]
    delta = [(i, (i + 1) % n) for i in range(n)] + [(i, rng.randrange(n)) for i in range(n)]
    labels = {i: {b for j, b in enumerate(atoms) if i >> j & 1} for i in range(n)}
    return MultiAgentSystem(range(n), 0, delta, atoms, labels, {"a": atoms})


@pytest.fixture(params=[512, 0], ids=["masks", "sets"])
def mask_states(request, monkeypatch):
    monkeypatch.setattr(checker, "MASK_STATES", request.param)


class TestImageTables:
    """A region computes each modal image of each argument once, under both
    kernels, and K and P of an agent whose Γ blocks are singletons are the
    identity; the pinned results do not move."""

    @staticmethod
    def spy_images(monkeypatch):
        """A list that gets, per run of a region, the list of the images it
        computes, each as (operator, its table, argument)."""
        regions = []
        running = []
        inside = []  # MaskImage.dual calls the image itself
        run = checker.Region.run

        def spy_run(region, node):
            regions.append([])
            running.append(regions[-1])
            try:
                return run(region, node)
            finally:
                running.pop()

        def record(name, fn):
            def spy(owner, S):
                if not running or inside:
                    return fn(owner, S)
                running[-1].append((name, id(owner), S))
                inside.append(name)
                try:
                    return fn(owner, S)
                finally:
                    inside.pop()

            return spy

        monkeypatch.setattr(checker.Region, "run", spy_run)
        for cls in (MaskImage, BlockImage):
            for name in ("__call__", "dual"):
                spy = record(f"{cls.__name__}.{name}", getattr(cls, name))
                monkeypatch.setattr(cls, name, spy)
        for name in ("ax_f", "ex_f", "know_blocks", "poss_blocks"):
            monkeypatch.setattr(checker, name, record(name, getattr(checker, name)))
        return regions

    @staticmethod
    def assert_each_image_once(regions):
        assert regions and all(regions)
        for computed in regions:
            assert len(set(computed)) == len(computed)

    @pytest.mark.parametrize("text,seed,holds,sizes,iters", TestRegionMemo.THREE_BINDERS)
    def test_three_binders(self, monkeypatch, mask_states, text, seed, holds, sizes, iters):
        regions = self.spy_images(monkeypatch)
        TestRegionMemo().test_every_kleene_loop_runs(text, seed, holds, sizes, iters)
        self.assert_each_image_once(regions)

    def test_parity_encoding(self, monkeypatch, mask_states):
        regions = self.spy_images(monkeypatch)
        v = _hidden_check(12, 0)
        assert (v.holds, v.refinement_sizes) == (False, [35, 348])
        assert v.iteration_counts == [3, 3, 2, 3, 3, 2, 3, 3, 2, 3, 2, 1, 1, 3, 1, 2, 1, 1, 3, 1,
                                      3]
        self.assert_each_image_once(regions)
        names = {name for computed in regions for name, _, _ in computed}
        assert {"BlockImage.dual", "know_blocks"} & names  # K of e, not the identity

    # holds, iteration_counts and the sha256 of the sorted final set of
    # TestSetRegions' ring formula, computed before singleton blocks were
    # taken as the identity
    RING = (
        False, [12, 12, 12, 12, 4],
        "34db1cad20de1658d982797e1fdf83af92ed74a13d2915bbaccf4ab227a204c0",
    )

    @pytest.mark.parametrize("limit", [0, 513], ids=["sets", "masks"])
    def test_identity_on_singleton_blocks(self, monkeypatch, limit):
        m = _ring()
        f = parse_formula(
            "nu X . mu Y . (b0 & b1 & b2 & K a . EX X) | (b3 & AX Y) | (b4 & P a . EX Y)"
        )
        calls = []
        init = BlockImage.__init__

        def spy_init(image, *args):
            calls.append(args)
            init(image, *args)

        monkeypatch.setattr(BlockImage, "__init__", spy_init)
        for name in ("know_blocks", "poss_blocks"):
            fn = getattr(checker, name)
            monkeypatch.setattr(checker, name, lambda *a, fn=fn: calls.append(a) or fn(*a))
        monkeypatch.setattr(checker, "MASK_STATES", limit)
        v, _, S = check_with_sets(m, f)
        assert v.refinement_sizes == [513, 513] and len(v.final.partitions["a"]) == 513
        assert calls == []
        digest = hashlib.sha256(repr(sorted(S)).encode()).hexdigest()
        assert (v.holds, v.iteration_counts, digest) == self.RING

    def test_closed_knowledge_on_singleton_blocks(self, monkeypatch):
        m = _ring()
        calls = []
        for t, fn in list(checker._KNOWLEDGE.items()):
            monkeypatch.setitem(checker._KNOWLEDGE, t, lambda *a, fn=fn: calls.append(a) or fn(*a))
        _, chain, S = check_with_sets(m, parse_formula("K a . EX b0 | P a . AX b1"))
        assert [len(s) for s in chain.systems] == [513, 513, 513] and calls == []
        chi = checker.insplitting(chain.final, chain.systems[0]).chi
        want = ex_f(m, checker.atom_set(m, "b0")) | ax_f(m, checker.atom_set(m, "b1"))
        assert len(S) == len(want) == len({chi[q] for q in S}) and {chi[q] for q in S} == want


class TestLargeRegions:
    """Games whose region, refined for a player who sees one state bit,
    runs above MASK_STATES, on the frozenset kernel.  (game size, seed of
    _hidden_game, holds, refinement_sizes, iteration_counts), computed
    before regions had image tables."""

    GAMES = [
        (12, 1, True, [34, 587], [3, 3, 3, 3, 3, 3, 6, 3, 3, 3, 3, 3, 3, 2, 3, 1, 3, 1, 5, 1]),
        (12, 4, False, [33, 529], [4, 4, 2, 2, 4, 4, 4, 2, 2, 4, 2, 3, 2, 2, 3, 3, 2, 2, 3, 2,
                                   3, 1, 1, 3, 1, 3, 1, 1, 3, 1, 4]),
        (12, 12, False, [31, 1192], [2, 2, 2, 3, 2, 2, 2, 3, 2, 2, 1, 1, 3, 1, 2, 1, 1, 3, 1, 3]),
        (13, 0, False, [34, 694], [3, 3, 3, 3, 3, 3, 3, 3, 2, 2, 1, 1, 3, 1, 2, 1, 1, 3, 1, 3]),
    ]

    @pytest.mark.parametrize("n,seed,holds,sizes,iters", GAMES)
    def test_pinned(self, n, seed, holds, sizes, iters):
        v = _hidden_check(n, seed)
        assert v.refinement_sizes[-1] > checker.MASK_STATES
        assert (v.holds, v.refinement_sizes, v.iteration_counts) == (holds, sizes, iters)


class TestUndeclaredAtoms:
    """An atom the system does not declare is an error, wherever it stands."""

    @pytest.mark.parametrize("text", [
        "EX typo", "AX ~typo", "K a . typo", "mu Z . typo | EX Z",
        "nu Z . p & AX (q | P a . ~typo)",
    ])
    def test_raises(self, sys1, text):
        f = parse_formula(text)
        for run in (check, check_with_sets, eval_state_naive):
            with pytest.raises(UnknownAtom, match="^unknown atom: typo$"):
                run(sys1, f)

    def test_declared_atom_on_no_state(self, sys1):
        # sys1 declares p and labels no state with it
        assert check_with_sets(sys1, parse_formula("EX p | AX ~p"))[2] == {1, 2, 3}
        assert eval_state_naive(sys1, parse_formula("mu Z . p | EX Z")) == frozenset()


class TestUndeclaredAgents:
    """An agent the system does not declare is an error, on a closed K/P and
    in a region alike."""

    @pytest.mark.parametrize("text", ["K z . p", "nu Z . p & K z . Z"])
    def test_raises(self, sys1, text):
        f = parse_formula(text)
        for run in (check, check_with_sets, eval_state_naive):
            with pytest.raises(UnknownAgent, match="^unknown agent: z$"):
                run(sys1, f)


class TestFreeVariables:
    """A formula with a free fixpoint variable is an error for every
    evaluator, with the same message."""

    @pytest.mark.parametrize("f", [fm.Var("Z"), parse_formula("p | EX Z"),
                                   parse_formula("mu Y . Y | K a . Z | X")])
    def test_raises(self, sys1, f):
        names = ", ".join(sorted(fm.free_vars(f)))
        for run in (check, check_with_sets, eval_state_naive):
            with pytest.raises(EpmuError, match=f"^free fixpoint variables: {names}$"):
                run(sys1, f)
