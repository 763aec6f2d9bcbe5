import random

import pytest

from forbidposet import (
    Family,
    binomial,
    build_named,
    complement_family,
    diamond_levels,
    is_avoiding,
    kt_construction,
    middle_levels,
    sigma,
)
from forbidposet.constructions import diamond_r_for

from conftest import random_family


class TestMiddleLevels:
    def test_4_2_is_sizes_1_and_2(self):
        fam = middle_levels(4, 2)
        assert sorted(fam.by_size) == [1, 2]
        assert len(fam) == 10

    def test_full_powerset(self):
        for n in (2, 4, 5):
            assert len(middle_levels(n, n + 1)) == 2 ** n

    def test_3_1_is_the_singletons(self):
        fam = middle_levels(3, 1)
        assert fam.sets() == [(1,), (2,), (3,)]

    def test_sizes_match_sigma(self):
        for n in range(1, 13):
            for r in range(1, n + 2):
                assert len(middle_levels(n, r)) == sigma(n, r), (n, r)

    def test_range_error(self):
        with pytest.raises(ValueError):
            middle_levels(4, 0)
        with pytest.raises(ValueError):
            middle_levels(4, 6)


class TestKtConstruction:
    def test_n3_explicit(self):
        fam = kt_construction(3)
        assert set(fam.sets()) == {(2,), (3,), (1, 2), (1, 3)}

    def test_size_formula(self):
        for n in range(2, 15):
            assert len(kt_construction(n)) == 2 * binomial(n - 1, (n - 1) // 2), n

    def test_avoids_kt_pair(self):
        kt = build_named("kt_pair")
        for n in range(2, 15):
            assert is_avoiding(kt_construction(n), kt), n

    def test_range_error(self):
        with pytest.raises(ValueError):
            kt_construction(1)


class TestDiamondLevels:
    def test_r_values(self):
        assert diamond_r_for(4) == 3  # C(3,1)=3 < 4 <= C(4,2)=6
        assert diamond_r_for(2) == 1
        assert diamond_r_for(7) == 4
        assert diamond_r_for(10) == 4  # C(4,2)=6 < 10 <= C(5,2)=10

    def test_band_is_r_middle_levels(self):
        fam = diamond_levels(8, 4)
        assert fam == middle_levels(8, 3)

    def test_avoids_diamond(self):
        for n in range(1, 9):
            for m in (2, 3, 4, 5, 7, 10):
                fam = diamond_levels(n, m)
                assert is_avoiding(fam, build_named("diamond", m)), (n, m)

    def test_clamps_to_powerset_for_huge_m(self):
        fam = diamond_levels(2, 100)
        assert len(fam) == 4

    def test_huge_m_stops_the_walk_at_the_powerset(self):
        # the walk for r stops at n + 1; walked to its end, an m past
        # C(10^4, 5000) reaches binomial's guard on an n nobody passed
        m = 10**3100
        assert diamond_levels(3, m) == Family(3, range(8))
        assert diamond_r_for(m, 4) == 4

    def test_range_errors(self):
        with pytest.raises(ValueError):
            diamond_levels(4, 1)
        with pytest.raises(ValueError):
            diamond_levels(0, 4)


class TestComplementFamily:
    def test_empty_set_maps_to_full(self):
        fam = Family.from_sets(3, [[]])
        assert complement_family(fam).sets() == [(1, 2, 3)]

    def test_middle_levels_shift(self):
        comp = complement_family(middle_levels(4, 2))
        assert sorted(comp.by_size) == [2, 3]

    def test_involutive_on_random_families(self):
        rng = random.Random(31)
        for _ in range(40):
            fam = random_family(rng, rng.randint(1, 10), max_size=50)
            assert complement_family(complement_family(fam)) == fam


class TestButterflyAndJWitnesses:
    def test_two_middle_levels_avoid_butterfly_and_j(self):
        butterfly = build_named("butterfly_pair")
        j = build_named("j_config")
        for n in range(1, 9):
            fam = middle_levels(n, 2)
            assert is_avoiding(fam, butterfly), n
            assert is_avoiding(fam, j), n
