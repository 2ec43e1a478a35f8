"""`RefinementChain.lift`: a set crossing from an earlier system of the chain
to its final one, in one pullback along the in-splitting read off the final
system's chain of bases."""

import hashlib
import random
from collections import Counter

from epmu import formula as fm
from epmu.checker import RefinementChain, check_with_sets
from epmu.distinction import distinction, insplitting, refine_for_agents
from epmu.formula import parse_formula, to_positive_form
from epmu.gen import random_system
from epmu.oracle import eval_tree
from epmu.system import bounded_unfold


def _seeded_chain(seed):
    """A chain over a seeded chain_obs system, grown by three to five
    single-agent constructions and two-agent refinements."""
    rng = random.Random(seed)
    chain = RefinementChain(random_system(rng, max_states=6, chain_obs=True))
    for _ in range(rng.randint(3, 5)):
        if rng.random() < 0.3:
            chain.systems.append(refine_for_agents(chain.final, {"a", "b"}))
        else:
            chain.systems.append(distinction(chain.final, rng.choice("ab")))
    return chain, rng


class TestLiftOnChains:
    def test_lift_is_the_levelwise_pullback(self):
        crossed = 0
        for seed in range(40):
            chain, rng = _seeded_chain(seed)
            systems = chain.systems
            for i, coarse in enumerate(systems[:-1]):
                S = frozenset(q for q in coarse.states if rng.random() < 0.5)
                want = S
                for fine, below in zip(systems[i + 1:], systems[i:]):
                    want = insplitting(fine, below).pullback(want)
                assert chain.lift(S, coarse) == want
                crossed += len(systems) - 1 - i
        assert crossed >= 40 * 6

    def test_lift_from_final_is_the_set_itself(self):
        for seed in range(40):
            chain, rng = _seeded_chain(seed)
            S = frozenset(q for q in chain.final.states if rng.random() < 0.5)
            assert chain.lift(S, chain.final) is S


class TestFrontierAcrossEntries:
    """Binders whose frontier sets cross more than one chain entry: in the
    first formula `EX p` is evaluated on the input, `K a . q` then adds a
    construction for a, and the region refines for b, so the set of `EX p`
    is lifted across two entries.  One sha256 over holds, refinement sizes,
    iteration counts and the final set on 40 seeded systems, computed while
    the chain still stored one in-splitting per entry and pulled a set
    forward one entry at a time."""

    FORMULAS = (
        "nu Z . EX p & (K a . q | K b . Z)",
        "mu Z . AX q | (P a . p & P b . EX Z)",
        "nu Z . (EX p | K a . AX q) & K b . Z",
        "mu Z . (EX r & K b . P a . q) | EX K a . Z",
        "nu Z . AX (P a . r | EX p) & (K b . p | P a . Z)",
    )
    DIGEST = "8a88837552b3a03d91a626786549e1bbb376885d63993e1b906e40173d0b337b"

    def test_digest_and_unfolding(self, monkeypatch):
        crossings = Counter()
        lift = RefinementChain.lift

        def spy(chain, S, coarse):
            crossings[len(chain.systems) - 1 - chain.systems.index(coarse)] += 1
            return lift(chain, S, coarse)

        monkeypatch.setattr(RefinementChain, "lift", spy)
        h = hashlib.sha256()
        unfolded = 0
        for seed in range(40):
            m = random_system(random.Random(seed), max_states=4, chain_obs=True)
            for text in self.FORMULAS:
                f = to_positive_form(parse_formula(text))
                v, chain, S = check_with_sets(m, f)
                h.update(repr((v.holds, v.refinement_sizes, v.iteration_counts, sorted(S))).encode())
                uf = fm.unfold_fixpoint(f, len(chain.final))
                if fm.modal_depth(uf) > 8:
                    continue
                unfolded += 1
                t = bounded_unfold(m, fm.modal_depth(uf))
                assert v.holds == eval_tree(t, uf).root_holds
        assert h.hexdigest() == self.DIGEST
        assert crossings[2] >= 40 and unfolded >= 190
