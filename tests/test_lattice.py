import math
import random
from fractions import Fraction

import pytest

from forbidposet import (
    Family,
    GroundSet,
    binomial,
    chains_through,
    lub_bound,
    lubell,
    q_value,
    sigma,
    tail_ratio,
)
from forbidposet.lattice import (
    elems_of,
    mask_of,
    powerset_family,
    q_value_direct,
    q_values_upto,
    tail_k,
)

from conftest import random_family


class TestBinomial:
    def test_identity_case(self):
        assert binomial(4, 0) == 1

    def test_against_pascal_recurrence(self):
        # independent oracle: build the triangle by the addition rule
        row = [1]
        for n in range(1, 21):
            row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
            for k, want in enumerate(row):
                assert binomial(n, k) == want
        assert binomial(5, 2) == 10

    def test_out_of_range_returns_zero(self):
        assert binomial(4, 5) == 0
        assert binomial(4, -1) == 0

    def test_n_range_validated(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)
        with pytest.raises(ValueError):
            binomial(10 ** 4 + 1, 2)


class TestSigma:
    def test_examples(self):
        assert sigma(4, 2) == 10  # C(4,1) + C(4,2)
        assert sigma(3, 4) == 8  # whole row of n=3

    def test_full_row_is_power_of_two(self):
        for n in range(1, 16):
            assert sigma(n, n + 1) == 2 ** n

    def test_matches_sorted_row_oracle(self):
        for n in range(1, 31):
            row = sorted((math.comb(n, i) for i in range(n + 1)), reverse=True)
            for k in range(1, n + 2):
                assert sigma(n, k) == sum(row[:k]), (n, k)

    def test_strictly_increasing_in_k(self):
        for n in range(1, 21):
            values = [sigma(n, k) for k in range(1, n + 2)]
            assert all(a < b for a, b in zip(values, values[1:]))
            assert values[-1] == 2 ** n

    def test_range_errors(self):
        with pytest.raises(ValueError):
            sigma(4, 0)
        with pytest.raises(ValueError):
            sigma(4, 6)


class TestQValue:
    def test_known_values(self):
        assert q_value(2) == Fraction(1, 2)
        assert q_value(3) == Fraction(2, 3)
        assert q_value(4) == Fraction(2, 3)

    def test_range_error(self):
        with pytest.raises(ValueError):
            q_value(1)

    def test_recurrence_matches_definitional_sum(self):
        # q_value runs on the row-sum recurrence; the definition is the oracle
        for k in range(2, 120):
            assert q_value(k) == q_value_direct(k), k

    def test_batch_matches_single(self):
        batch = q_values_upto(60)
        assert set(batch) == set(range(2, 61))
        for k, v in batch.items():
            assert v == q_value_direct(k), k

    def test_lemma_inequalities_small_range(self):
        for k in range(2, 201):
            q = q_value(k)
            assert q < Fraction(4, k)
            assert q <= Fraction(2, 3)
            assert (q == Fraction(2, 3)) == (k in (3, 4))


class TestLubell:
    def test_full_powerset(self):
        for n in (1, 3, 5):
            assert lubell(powerset_family(n)) == n + 1

    def test_single_middle_set(self):
        fam = Family.from_sets(4, [[1, 2]])
        assert lubell(fam) == Fraction(1, 6)

    def test_two_sets_example(self):
        fam = Family.from_sets(3, [[1], [1, 2]])
        assert lubell(fam) == Fraction(2, 3)

    def test_empty_family(self):
        assert lubell(Family(3, [])) == 0

    def test_additive_over_disjoint_families(self):
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randint(2, 10)
            masks = rng.sample(range(1 << n), rng.randint(2, min(40, 1 << n)))
            cut = rng.randint(1, len(masks) - 1)
            f1, f2 = Family(n, masks[:cut]), Family(n, masks[cut:])
            assert lubell(Family(n, masks)) == lubell(f1) + lubell(f2)


class TestLubBound:
    def test_examples(self):
        assert lub_bound(4, 1, Fraction(1, 2)) == 8
        assert lub_bound(6, 2, 0) == 35

    def test_x_zero_reduces_to_first_lemma(self):
        for n in range(1, 12):
            lam = Fraction(7, 5)
            assert lub_bound(n, 0, lam) == lam * binomial(n, n // 2)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            lub_bound(4, -1, 0)
        with pytest.raises(ValueError):
            lub_bound(4, 0, -1)
        with pytest.raises(ValueError):
            lub_bound(4, 6, 0)

    def test_first_lemma_on_random_families(self):
        rng = random.Random(23)
        for _ in range(60):
            fam = random_family(rng, rng.randint(1, 12), max_size=80)
            assert len(fam) <= lub_bound(fam.n, 0, lubell(fam))


class TestChainsThrough:
    def test_examples(self):
        assert chains_through([2], 4) == 4  # 2! * 2!
        assert chains_through([1, 3], 4) == 2
        for n in range(1, 8):
            assert chains_through([0], n) == math.factorial(n)
        assert chains_through([], 4) == 24

    def test_total_chain_count_identity(self):
        for n in range(0, 16):
            for k in range(0, n + 1):
                assert chains_through([k], n) * binomial(n, k) == math.factorial(n)

    def test_non_monotone_rejected(self):
        with pytest.raises(ValueError):
            chains_through([3, 3], 5)
        with pytest.raises(ValueError):
            chains_through([2, 1], 5)
        with pytest.raises(ValueError):
            chains_through([6], 5)


class TestTailRatio:
    def test_small_n_empty_sum(self):
        assert tail_ratio(4) == 0

    def test_n100_bound(self):
        # 100^(3/2) = 1000 exactly, so the comparison stays rational
        assert tail_ratio(100) * 1000 < 1

    def test_boundedness_witness_100_vs_200(self):
        r100, r200 = tail_ratio(100), tail_ratio(200)
        # squared form avoids irrational n^(3/2) factors
        assert r200 ** 2 * 200 ** 3 <= r100 ** 2 * 100 ** 3 * 100

    def test_requires_n_at_least_4(self):
        with pytest.raises(ValueError):
            tail_ratio(3)

    def test_k_convention(self):
        assert tail_k(100) == math.ceil(2 * math.sqrt(100 * math.log(100)))


class TestFamily:
    def test_ground_set_bounds(self):
        with pytest.raises(ValueError):
            GroundSet(0)
        with pytest.raises(ValueError):
            GroundSet(65)

    def test_dedup_keeps_first_occurrence(self):
        fam = Family(3, [0b011, 0b001, 0b011])
        assert fam.members == (0b011, 0b001)

    def test_mask_bits_validated(self):
        with pytest.raises(ValueError):
            Family(2, [0b100])

    def test_size_index_consistent(self):
        fam = Family.from_sets(4, [[1], [2], [1, 2], [1, 2, 3]])
        assert fam.by_size[1] == (0b0001, 0b0010)
        assert fam.by_size[2] == (0b0011,)
        assert set(fam.by_size) == {1, 2, 3}

    def test_mask_helpers_roundtrip(self):
        assert elems_of(mask_of([2, 4], 5)) == (2, 4)
        with pytest.raises(ValueError):
            mask_of([0], 3)

    def test_text_roundtrip(self):
        fam = Family.from_sets(4, [[], [1, 3], [2], [1, 2, 4]])
        text = fam.to_text()
        assert text.splitlines()[0] == "n=4"
        assert "-" in text.splitlines()
        assert Family.from_text(text) == fam

    def test_json_roundtrip(self):
        fam = Family.from_sets(5, [[1, 5], [], [2, 3, 4]])
        assert Family.from_json_obj(fam.to_json_obj()) == fam
        assert Family.loads('{"n": 2, "sets": [[1], [1, 2]]}') == Family.from_sets(
            2, [[1], [1, 2]]
        )

    def test_text_format_strictness(self):
        with pytest.raises(ValueError):
            Family.from_text("3\n1,2\n")
        with pytest.raises(ValueError):
            Family.from_text("n=3\n2,1\n")
        with pytest.raises(ValueError):
            Family.from_text("n=3\n1,1\n")
        with pytest.raises(ValueError):
            Family.from_text("n=3\n1,x\n")
