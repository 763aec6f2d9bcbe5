import random

import pytest
from hypothesis import given, settings, strategies as st

from forbidposet import (
    ConfigSet,
    Family,
    build_named,
    complement_family,
    count_embeddings,
    find_embedding,
    is_avoiding,
    kt_construction,
    verify_embedding,
)
from forbidposet.lattice import powerset_family

from conftest import (
    brute_avoiding,
    brute_count_embeddings,
    brute_embedding_exists,
    colored_posets,
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
        masks = [fam.members[i] for i in emb]
        assert masks[0] == 0 and {masks[1], masks[2]} == {0b01, 0b10}
        assert verify_embedding(fam, KT_UP, "standard", emb)

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

    def test_poset_larger_than_family_builds_no_plan(self, monkeypatch):
        def no_plan(poset):
            raise AssertionError("no plan is needed when the poset cannot fit")

        monkeypatch.setattr("forbidposet.detector._plan", no_plan)
        fam = Family(4, [0b0001, 0b0011, 0b0111])
        assert is_avoiding(fam, D4)
        assert is_avoiding(fam, D4, mode="induced")


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
                        assert verify_embedding(fam, poset, mode, emb), label

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
            comp = Family(n, [fam.full_mask ^ m for m in fam.members])
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
    @given(small_families(), st.lists(colored_posets(), min_size=1, max_size=2))
    def test_complement_duality(self, fam, posets):
        cfg = ConfigSet(tuple(posets))
        for mode in MODES:
            assert is_avoiding(fam, cfg, mode) == is_avoiding(
                complement_family(fam), cfg.dual(), mode
            )
