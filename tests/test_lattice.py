import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from forbidposet import (
    Family,
    binomial,
    chains_through,
    lub_bound,
    lubell,
    middle_levels,
    q_value,
    sigma,
    tail_ratio,
)
from forbidposet.lattice import (
    elems_of,
    ground_mask,
    mask_of,
    q_values_upto,
    set_text,
    tail_k,
    transpose,
)

from conftest import powerset_family, q_value_direct, random_family


def bitwise_transpose(rows, width: int) -> list[int]:
    return [sum((row >> i & 1) << j for j, row in enumerate(rows)) for i in range(width)]


class TestTranspose:
    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(st.integers(0, 70).flatmap(
        lambda width: st.tuples(
            st.just(width), st.lists(st.integers(0, (1 << width) - 1), max_size=40)
        )
    ))
    @example((0, [0, 0]))  # no columns
    @example((3, []))  # no rows: every column is empty
    def test_matches_a_bitwise_transpose(self, case):
        width, rows = case
        assert transpose(rows, width) == bitwise_transpose(rows, width)


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
            ground_mask(0)
        with pytest.raises(ValueError):
            ground_mask(65)

    def test_dedup_keeps_first_occurrence(self):
        fam = Family(3, [0b011, 0b001, 0b011])
        assert fam.members == (0b011, 0b001)

    def test_mask_bits_validated(self):
        with pytest.raises(ValueError):
            Family(2, [0b100])

    @pytest.mark.parametrize("masks, bad", [([1, 16, 2, -1, 3], 16), ([1, -1, 16, -1], -1)])
    def test_first_out_of_range_mask_is_named(self, masks, bad):
        # a generator is read once; the message names the first bad mask in
        # input order, not the extreme one the range test trips on
        with pytest.raises(ValueError, match=rf"^mask {bad} has bits outside the 3-element"):
            Family(3, (m for m in masks))

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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("n=3\n\n\n2,1\n", "line 4: elements must be strictly ascending"),
            ("n=3\n1\n\n1,4\n", "line 4: element 4 outside [1, 3]"),
            ("\nn=3\n  \n1\n1,x\n", "line 5: bad subset '1,x'"),
            ("\n\nn=x\n", "line 3: bad ground-set line 'n=x'"),
            ("n=3\n0,1\n", "line 2: element 0 outside [1, 3]"),
            ("n=64\n1,65\n", "line 2: element 65 outside [1, 64]"),
            ("n=3\n1,2,\n", "line 2: bad subset '1,2,'"),
            ("n=3\n1,1\n", "line 2: elements must be strictly ascending"),
        ],
        ids=[
            "unsorted", "out_of_range", "bad_subset", "bad_ground_set",
            "element_zero", "element_n_plus_1_at_64", "trailing_comma", "duplicate",
        ],
    )
    def test_text_errors_name_the_line_blank_lines_counted(self, text, message):
        with pytest.raises(ValueError) as info:
            Family.from_text(text)
        assert str(info.value) == message

    def test_text_accepts_every_int_spelling(self):
        # the table only knows canonical elements; other spellings reach int()
        spelled = Family.from_text("n=4\n01\n 2 , 3\n+3\n1,+4\n")
        assert spelled.members == Family.from_text("n=4\n1\n2,3\n3\n1,4\n").members
        assert spelled.members == (0b0001, 0b0110, 0b0100, 0b1001)

    def test_canonical_text_never_calls_mask_of(self, monkeypatch):
        # a canonical file is read by table lookup alone; any other spelling
        # must still reach mask_of, which proves the counter sees the calls
        from forbidposet import lattice

        calls = []

        def counting_mask_of(elems, n):
            calls.append(elems)
            return mask_of(elems, n)

        monkeypatch.setattr(lattice, "mask_of", counting_mask_of)
        fam = Family(64, [0, ground_mask(64), 1 << 63, 0b1011 << 30] + list(range(1, 300)))
        assert Family.from_text(fam.to_text()) == fam
        assert calls == []
        Family.from_text("n=3\n1, 2\n")
        assert calls == [[1, 2]]


class TestFamilyMemory:
    def test_load_holds_the_members_once(self):
        # middle(16, 4), 43,758 sets: the load peaked at 10.8 MB and held
        # 4.2 MB while a dedupe dict and a resident frozenset sat beside the
        # tuple, and the lines stayed alive while the Family was built
        text = middle_levels(16, 4).to_text()
        tracemalloc.start()
        try:
            fam = Family.from_text(text)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(fam) == 43758
        assert peak < 7 * 2**20, peak
        assert held < 3 * 2**20, held


def old_to_text(family):
    """The writer before the byte tables: one set_text(elems_of(m)) per
    member; oracle for Family.to_text."""
    lines = [f"n={family.n}", *(set_text(elems_of(m)) for m in family.members)]
    return "\n".join(lines) + "\n"


@st.composite
def ground_families(draw):
    n = draw(st.integers(1, 64))
    full = ground_mask(n)
    masks = st.one_of(st.just(0), st.just(full), st.integers(0, full))
    return Family(n, draw(st.lists(masks, max_size=20)))


class TestTextRoundTrip:
    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(ground_families())
    @example(Family(64, [0, ground_mask(64), 1 << 63, 1, 0xFF00]))
    @example(Family(13, [ground_mask(13), 0, 1 << 12, 0b1010101]))
    @example(Family(1, [0, 1]))
    def test_round_trip_matches_old_writer(self, family):
        text = family.to_text()
        assert text == old_to_text(family)
        assert Family.from_text(text).members == family.members
