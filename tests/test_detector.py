import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from forbidposet import (
    ColoredPoset,
    ConfigSet,
    Family,
    build_named,
    complement_family,
    count_embeddings,
    find_embedding,
    is_avoiding,
    kt_construction,
    verify_embedding,
    violates_on_add,
)
from forbidposet.lattice import powerset_family

from conftest import (
    brute_avoiding,
    brute_count_embeddings,
    brute_embedding_exists,
    combo_satisfies,
    named_roster,
    random_family,
)

KT = build_named("kt_pair")
KT_UP = KT.configs[0]
J = build_named("j_config")
D4 = build_named("diamond", 4)


def two_middle_levels_of_4() -> Family:
    return Family(4, [m for m in range(16) if m.bit_count() in (2, 3)])


class TestFindEmbedding:
    def test_kt_up_in_small_family(self):
        fam = Family.from_sets(2, [[], [1], [2]])
        emb = find_embedding(fam, KT_UP)
        assert emb is not None
        masks = emb.masks(fam)
        assert masks[0] == 0 and {masks[1], masks[2]} == {0b01, 0b10}
        assert verify_embedding(fam, KT_UP, "standard", emb.assignment)

    def test_two_middle_levels_have_no_j(self):
        fam = two_middle_levels_of_4()
        assert find_embedding(fam, J.configs[0]) is None
        assert not brute_embedding_exists(fam, J.configs[0])

    def test_antichain_has_no_induced_chain(self):
        fam = Family.from_sets(2, [[1], [2]])
        (chain2,) = build_named("chain", 2).configs
        assert find_embedding(fam, chain2, mode="induced") is None

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            find_embedding(Family(2, []), KT_UP, mode="weird")

    def test_pins_respected(self):
        fam = Family.from_sets(3, [[], [1], [2], [3]])
        emb = find_embedding(fam, KT_UP, pinned={1: 2})
        assert emb is not None and emb.assignment[1] == 2

    def test_inconsistent_pins_raise(self):
        fam = Family.from_sets(3, [[], [1], [1, 2]])
        with pytest.raises(ValueError):
            find_embedding(fam, KT_UP, pinned={1: 0, 2: 0})  # not injective
        with pytest.raises(ValueError):
            find_embedding(fam, KT_UP, pinned={1: 1, 2: 2})  # same color, sizes 1 and 2
        with pytest.raises(ValueError):
            find_embedding(fam, KT_UP, pinned={5: 0})  # element outside the poset

    def test_unsatisfiable_pins_return_none(self):
        fam = Family.from_sets(3, [[], [1], [2], [3]])
        # pin the bottom of the fork onto a maximal member: no superset exists
        assert find_embedding(fam, KT_UP, pinned={0: 1}) is None


class TestIsAvoiding:
    def test_kt_construction_avoids_kt(self):
        for n in range(2, 15):
            assert is_avoiding(kt_construction(n), KT), n

    def test_powerset3_avoids_diamond4(self):
        assert is_avoiding(powerset_family(3), D4)

    def test_powerset2_contains_j(self):
        assert not is_avoiding(powerset_family(2), J)

    def test_empty_family_avoids_everything(self):
        empty = Family(3, [])
        for label, cfg in named_roster():
            assert is_avoiding(empty, cfg), label


class TestViolatesOnAdd:
    def test_completing_the_fork(self):
        fam = Family.from_sets(2, [[], [1]])
        assert violates_on_add(fam, 0b10, KT)

    def test_single_element_pattern_hits_any_add(self):
        cfg = build_named("chain", 1)
        fam = Family(3, [])
        assert violates_on_add(fam, 0b001, cfg)

    def test_restoring_the_construction_stays_avoiding(self):
        fam = two_middle_levels_of_4()
        missing = fam.members[0]
        reduced = Family(4, [m for m in fam.members if m != missing])
        assert not violates_on_add(reduced, missing, J)

    def test_preconditions_enforced(self):
        fam = Family.from_sets(2, [[], [1]])
        with pytest.raises(ValueError):
            violates_on_add(fam, 0b01, KT)  # already a member
        with pytest.raises(ValueError):
            violates_on_add(fam, 0b100, KT)  # outside the 2-element ground set
        not_avoiding = Family(3, [m for m in range(8)])  # full powerset embeds J
        with pytest.raises(ValueError):
            violates_on_add(Family(3, not_avoiding.members[:-1]), 0b111, J)

    def test_equivalent_to_full_recheck_randomized(self):
        rng = random.Random(2024)
        cases = 0
        roster = named_roster()
        while cases < 500:
            n = rng.randint(2, 5)
            fam = random_family(rng, n, max_size=10)
            label, cfg = roster[rng.randrange(len(roster))]
            if not is_avoiding(fam, cfg):
                continue
            outside = [m for m in range(1 << n) if m not in fam.member_set]
            if not outside:
                continue
            new = rng.choice(outside)
            extended = Family(n, fam.members + (new,))
            assert violates_on_add(fam, new, cfg) == (not is_avoiding(extended, cfg)), (
                label,
                fam.sets(),
                new,
            )
            cases += 1


class TestCountEmbeddings:
    def test_swap_gives_two(self):
        fam = Family.from_sets(2, [[], [1], [2]])
        assert count_embeddings(fam, KT_UP) == 2

    def test_empty_family(self):
        assert count_embeddings(Family(3, []), KT_UP) == 0

    def test_single_chain_unique(self):
        for r in range(1, 5):
            fam = Family(4, [(1 << i) - 1 for i in range(1, r + 1)])
            (chain,) = build_named("chain", r).configs
            assert count_embeddings(fam, chain) == 1

    def test_guards(self):
        big = powerset_family(13)
        with pytest.raises(ValueError):
            count_embeddings(big, KT_UP)

    def test_matches_brute_force_randomized(self):
        rng = random.Random(99)
        roster = [item for item in named_roster() if item[1].max_elements() <= 4]
        for _ in range(60):
            fam = random_family(rng, 3, max_size=6)
            label, cfg = roster[rng.randrange(len(roster))]
            for poset in cfg:
                for mode in ("standard", "induced"):
                    assert count_embeddings(fam, poset, mode) == brute_count_embeddings(
                        fam, poset, mode
                    ), (label, mode, fam.sets())


class TestSoundnessAndMonotonicity:
    def test_witnesses_verify(self):
        rng = random.Random(5)
        roster = named_roster()
        for _ in range(200):
            fam = random_family(rng, rng.randint(2, 5), max_size=12)
            label, cfg = roster[rng.randrange(len(roster))]
            for poset in cfg:
                for mode in ("standard", "induced"):
                    emb = find_embedding(fam, poset, mode)
                    if emb is not None:
                        assert verify_embedding(fam, poset, mode, emb.assignment), label

    def test_monotone_in_standard_mode(self):
        rng = random.Random(6)
        roster = named_roster()
        for _ in range(150):
            n = rng.randint(2, 5)
            fam = random_family(rng, n, max_size=10)
            label, cfg = roster[rng.randrange(len(roster))]
            extra = random_family(rng, n, max_size=6)
            superfam = Family(n, fam.members + extra.members)
            for poset in cfg:
                if find_embedding(fam, poset) is not None:
                    assert find_embedding(superfam, poset) is not None, label


class TestComplementDuality:
    def test_randomized(self):
        rng = random.Random(7)
        roster = named_roster()
        for _ in range(150):
            n = rng.randint(2, 5)
            fam = random_family(rng, n, max_size=12)
            comp = Family(n, [fam.ground.full_mask ^ m for m in fam.members])
            label, cfg = roster[rng.randrange(len(roster))]
            assert is_avoiding(fam, cfg) == is_avoiding(comp, cfg.dual()), label


class TestOracleEquivalenceSmall:
    def test_all_families_over_2(self):
        roster = named_roster()
        for bits in range(1 << 4):
            fam = Family(2, [m for m in range(4) if bits >> m & 1])
            for label, cfg in roster:
                for mode in ("standard", "induced"):
                    for poset in cfg:
                        assert (find_embedding(fam, poset, mode) is not None) == (
                            brute_embedding_exists(fam, poset, mode)
                        ), (label, mode, fam.sets())

    def test_sampled_families_over_3(self):
        # the full 256-family scan in both modes is acceptance criterion 7;
        # keep a fast sampled version in the unit suite
        rng = random.Random(11)
        roster = named_roster()
        for _ in range(40):
            fam = random_family(rng, 3)
            for label, cfg in roster:
                assert is_avoiding(fam, cfg) == brute_avoiding(fam, cfg), (label, fam.sets())


@st.composite
def colored_posets(draw, max_p=4):
    """A valid colored poset: colors a nondecreasing cover of 1..k, relations
    drawn among pairs of strictly increasing color and closed transitively."""
    p = draw(st.integers(1, max_p))
    k = draw(st.integers(1, p))
    cuts = draw(st.permutations(range(1, p)))[: k - 1]
    colors = [1 + sum(e >= c for c in cuts) for e in range(p)]
    pairs = [(a, b) for a in range(p) for b in range(p) if colors[a] < colors[b]]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return ColoredPoset.build(p, chosen, colors)


@st.composite
def small_families(draw, max_n=3):
    n = draw(st.integers(1, max_n))
    return Family(n, draw(st.lists(st.integers(0, (1 << n) - 1), unique=True)))


ORACLE = settings(derandomize=True, max_examples=300, deadline=None, database=None)
MODES = ("standard", "induced")


class TestRandomPosetOracle:
    """The detector against brute force on random posets, not only the
    named roster."""

    @ORACLE
    @given(small_families(), colored_posets())
    def test_count_matches_brute_force(self, fam, poset):
        ConfigSet((poset,))  # the generator only builds valid posets
        for mode in MODES:
            assert count_embeddings(fam, poset, mode) == brute_count_embeddings(fam, poset, mode)

    @ORACLE
    @given(small_families(), colored_posets(), st.data())
    def test_pinned_find_matches_brute_force(self, fam, poset, data):
        assume(fam.members)
        e = data.draw(st.integers(0, poset.p - 1))
        idx = data.draw(st.integers(0, len(fam) - 1))
        for mode in MODES:
            expected = any(
                combo[e] == idx and combo_satisfies(fam.members, poset, mode, combo)
                for combo in itertools.permutations(range(len(fam)), poset.p)
            )
            emb = find_embedding(fam, poset, mode, pinned={e: idx})
            assert (emb is not None) == expected
            assert emb is None or emb.assignment[e] == idx

    @ORACLE
    @given(small_families(), st.lists(colored_posets(), min_size=1, max_size=2))
    def test_complement_duality(self, fam, posets):
        cfg = ConfigSet(tuple(posets))
        for mode in MODES:
            assert is_avoiding(fam, cfg, mode) == is_avoiding(
                complement_family(fam), cfg.dual(), mode
            )
