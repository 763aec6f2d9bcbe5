import itertools
import random
from fractions import Fraction

import pytest

from forbidposet import (
    BOUND_IDS,
    ColoredPoset,
    build_named,
    constant_for_colored_poset,
    constant_for_poset_any_coloring,
    evaluate_bound,
    general_constant,
    kt_construction,
    middle_levels,
    sigma,
)
from forbidposet.bounds import EXACT, MAIN_TERM_ONLY, bound_params, cprime

from conftest import order_preserving_colorings

IN_RANGE = {"n": 14, "m": 4, "s": 3, "t": 2, "h": 3}
OUT_OF_RANGE = {"n": 4, "m": 1, "s": 1, "t": 1, "h": 3}
_SIGMA2_N14 = ("6435", EXACT, "ok")
_SIGMA2_N4 = ("10", EXACT, "ok")

# (value, exactness, validity, source) of every bound id at IN_RANGE and
# OUT_OF_RANGE, recorded from the per-bound evaluators this table replaced.
GOLDEN = {
    "baton_main": (
        ("7722", MAIN_TERM_ONLY, "ok"),
        ("10", MAIN_TERM_ONLY, "ok"),
        "size-restricted baton bound, main term",
    ),
    "butterfly": (
        _SIGMA2_N14,
        ("10", EXACT, "outside stated range: requires n >= 13"),
        "size-restricted butterfly bound",
    ),
    "dbk_fork_main": (
        ("30888/7", MAIN_TERM_ONLY, "ok"),
        ("6", MAIN_TERM_ONLY, "outside stated range: requires s >= 2"),
        "De Bonis-Katona fork bound, main term",
    ),
    "diamond_m4": (
        ("11440", EXACT, "ok"),
        ("15", EXACT, "ok"),
        "size-restricted diamond bound, four equal-size middles (sharp)",
    ),
    "diamond_restricted": (
        ("20592", EXACT, "ok"),
        ("18", EXACT, "outside stated range: requires m >= 2"),
        "size-restricted diamond bound",
    ),
    "dks_butterfly": (_SIGMA2_N14, _SIGMA2_N4, "De Bonis-Katona-Swanepoel butterfly bound"),
    "fork_explicit": (
        ("7437", EXACT, "ok"),
        ("7", EXACT, "outside stated range: requires s >= 2"),
        "size-restricted fork bound, explicit form",
    ),
    "fork_main": (
        ("30888/7", MAIN_TERM_ONLY, "ok"),
        ("6", MAIN_TERM_ONLY, "outside stated range: requires s >= 2"),
        "size-restricted fork bound, main term",
    ),
    "glu_baton_main": (
        ("10296", MAIN_TERM_ONLY, "ok"),
        ("10", MAIN_TERM_ONLY, "ok"),
        "Griggs-Lu baton bound, main term",
    ),
    "glu_diamond": (
        ("9438", EXACT, "ok"),
        ("10", EXACT, "outside stated range: requires n, m >= 2"),
        "Griggs-Li-Lu diamond bound",
    ),
    "j": (_SIGMA2_N14, _SIGMA2_N4, "size-restricted J bound"),
    "kt": (("3432", EXACT, "ok"), ("6", EXACT, "ok"), "size-restricted Katona-Tarjan bound"),
    "li_j": (_SIGMA2_N14, _SIGMA2_N4, "Li J bound"),
}


def test_golden_covers_every_bound_id():
    assert set(BOUND_IDS) == set(GOLDEN)


@pytest.mark.parametrize("bound_id", sorted(GOLDEN))
def test_bound_table_golden(bound_id):
    *points, source = GOLDEN[bound_id]
    for point, (value, exactness, validity) in zip((IN_RANGE, OUT_OF_RANGE), points):
        res = evaluate_bound(bound_id, **{k: point[k] for k in bound_params(bound_id)})
        assert (res.value, res.exactness, res.validity, res.source) == (
            Fraction(value), exactness, validity, source
        )


# each id's stated requirement, written out apart from the bound table
STATED = {
    "baton_main": lambda n, h, s, t: h >= 3 and s >= 1 and t >= 1,
    "butterfly": lambda n: n >= 13,
    "dbk_fork_main": lambda n, s: s >= 2,
    "diamond_m4": lambda n: n >= 3,
    "diamond_restricted": lambda n, m: m >= 2,
    "dks_butterfly": lambda n: True,
    "fork_explicit": lambda n, s: s >= 2,
    "fork_main": lambda n, s: s >= 2,
    "glu_baton_main": lambda n, h, s, t: h >= 3 and s >= 1 and t >= 1,
    "glu_diamond": lambda n, m: n >= 2 and m >= 2,
    "j": lambda n: True,
    "kt": lambda n: n >= 3,
    "li_j": lambda n: True,
}


def test_stated_covers_every_bound_id():
    assert set(BOUND_IDS) == set(STATED)


@pytest.mark.parametrize("bound_id", sorted(STATED))
def test_out_of_range_parameters_evaluate(bound_id):
    # the module docstring's promise: every parameter out of its stated
    # range still evaluates, and validity names the range
    names = bound_params(bound_id)
    for n in range(1, 9):
        for rest in itertools.product(range(-2, 7), repeat=len(names) - 1):
            args = (n, *rest)
            res = evaluate_bound(bound_id, **dict(zip(names, args)))
            assert (res.validity == "ok") == STATED[bound_id](*args), (args, res.validity)
            if res.validity != "ok":
                assert res.validity.startswith("outside stated range: requires "), args


class TestEvaluateBound:
    def test_kt(self):
        res = evaluate_bound("kt", n=9)
        assert res.value == 140 and res.exactness == EXACT and res.validity == "ok"

    def test_fork_explicit(self):
        res = evaluate_bound("fork_explicit", n=6, s=3)
        assert res.value == 41 and res.exactness == EXACT

    def test_diamond_restricted(self):
        res = evaluate_bound("diamond_restricted", n=10, m=10)
        assert res.value == 2268

    def test_butterfly(self):
        res = evaluate_bound("butterfly", n=13)
        assert res.value == 3432 and res.validity == "ok"
        out = evaluate_bound("butterfly", n=12)
        assert out.value == sigma(12, 2)
        assert out.validity.startswith("outside stated range")

    def test_j_matches_butterfly_closed_form(self):
        for n in range(1, 21):
            j = evaluate_bound("j", n=n).value
            assert j == evaluate_bound("dks_butterfly", n=n).value == sigma(n, 2)
            assert j == evaluate_bound("li_j", n=n).value

    def test_diamond_m4_matches_middle_band(self):
        for n in range(3, 11):
            res = evaluate_bound("diamond_m4", n=n)
            assert res.value == sigma(n, 4) == len(middle_levels(n, 4))

    def test_kt_sharp_against_construction(self):
        for n in range(3, 15):
            assert evaluate_bound("kt", n=n).value == len(kt_construction(n)), n

    def test_fork_main_terms(self):
        expect = Fraction(1764, 5)  # (1 + 4/10) * C(10,5)
        for bound_id in ("fork_main", "dbk_fork_main"):
            res = evaluate_bound(bound_id, n=10, s=3)
            assert res.value == expect
            assert res.exactness == MAIN_TERM_ONLY

    def test_baton_main_terms(self):
        assert evaluate_bound("baton_main", n=8, h=3, s=2, t=2).value == 154
        assert evaluate_bound("glu_baton_main", n=8, h=3, s=2, t=2).value == 210

    def test_glu_diamond_cases(self):
        # m=2 lands in the fractional case: (3 - 1/2) * C(10,5)
        assert evaluate_bound("glu_diamond", n=10, m=2).value == 630
        # m=4 gives the clean middle-band case
        assert evaluate_bound("glu_diamond", n=10, m=4).value == sigma(10, 3) == 672

    def test_unknown_id_and_bad_params(self):
        with pytest.raises(ValueError):
            evaluate_bound("nope", n=4)
        with pytest.raises(ValueError):
            evaluate_bound("kt", n=4, m=2)
        with pytest.raises(ValueError):
            evaluate_bound("fork_main", n=4)
        with pytest.raises(ValueError):
            evaluate_bound("kt", n=0)

    def test_out_of_range_still_evaluates(self):
        res = evaluate_bound("fork_explicit", n=6, s=1)
        assert res.validity.startswith("outside stated range")
        assert res.value == 21  # C(6,3) + 0 + 1

    def test_every_id_reports_source(self):
        for bound_id in BOUND_IDS:
            params = {"n": 8, "m": 3, "s": 2, "t": 2, "h": 3}
            res = evaluate_bound(bound_id, **{k: params[k] for k in bound_params(bound_id)})
            assert res.source and res.exactness in (EXACT, MAIN_TERM_ONLY)


class TestGeneralConstant:
    def test_single_color_values(self):
        assert cprime(1) == 2
        assert cprime(2) == 3
        assert cprime(4) == 6
        assert general_constant([4]) == 6
        assert general_constant([2]) == 3
        assert general_constant([2, 2]) == 6

    def test_additive_over_concatenation(self):
        assert general_constant([1, 2, 4]) == general_constant([1]) + general_constant([2, 4])
        assert general_constant([3, 3, 3]) == 3 * general_constant([3])

    def test_errors(self):
        with pytest.raises(ValueError):
            general_constant([])
        with pytest.raises(ValueError):
            general_constant([0])

    def test_colored_poset_constants(self):
        (d4,) = build_named("diamond", 4).configs
        assert constant_for_colored_poset(d4) == 10  # 2 + 6 + 2
        (single,) = build_named("chain", 1).configs
        assert constant_for_colored_poset(single) == 2
        (two_chain,) = build_named("chain", 2).configs
        assert constant_for_colored_poset(two_chain) == 4
        (j,) = build_named("j_config").configs
        assert constant_for_colored_poset(j) == 7  # 2 + 3 + 2

    def test_any_coloring_dominates_stored_coloring(self):
        for name, params in (("kt_pair", ()), ("j_config", ()), ("diamond", (3,))):
            for poset in build_named(name, *params):
                assert constant_for_poset_any_coloring(poset) >= constant_for_colored_poset(
                    poset
                )

    def test_any_coloring_rejects_invalid_poset(self):
        # a cycle has no order-preserving coloring, so a maximum over its
        # colorings would read 0
        cycle = ColoredPoset.build(2, [(0, 1), (1, 0)], [1, 2])
        with pytest.raises(ValueError, match=r"invalid colored poset \(acyclic\)"):
            constant_for_poset_any_coloring(cycle)

    def test_cprime_at_most_twice_the_class_size(self):
        # with cprime(1) = 2 this makes 2p the any-coloring maximum
        assert cprime(1) == 2
        assert all(cprime(m) <= 2 * m for m in range(1, 10_000))

    @pytest.mark.parametrize("name, param", [("diamond", 7), ("fork", 4095)])
    def test_any_coloring_is_twice_the_size_of_large_posets(self, name, param):
        # 9 and 4,096 elements, past any walk over colorings
        (poset,) = build_named(name, param).configs
        assert constant_for_poset_any_coloring(poset) == 2 * poset.p


def random_valid_poset(rng: random.Random, max_p: int = 6) -> ColoredPoset:
    """A random poset whose elements are labelled in random order, each
    colored by its position in a linear extension so that it is valid."""
    p = rng.randint(1, max_p)
    order = rng.sample(range(p), p)
    density = rng.random()
    pairs = [
        (order[i], order[j]) for i in range(p) for j in range(i + 1, p) if rng.random() < density
    ]
    colors = [0] * p
    for position, e in enumerate(order):
        colors[e] = position + 1
    return ColoredPoset.build(p, pairs, colors)


class TestColorClassSizes:
    def test_matches_reference_walk_on_random_posets(self):
        rng = random.Random(2017)
        for _ in range(300):
            poset = random_valid_poset(rng)
            expected = {
                tuple(coloring.count(c) for c in range(1, max(coloring) + 1))
                for coloring in order_preserving_colorings(poset.rows, poset.p)
            }
            assert constant_for_poset_any_coloring(poset) == max(map(general_constant, expected))

    def test_antichains_give_fubini_numbers(self):
        # colorings of p unrelated elements are the ordered set partitions,
        # so the reference walk must list each exactly once
        for p, fubini in zip(range(1, 7), (1, 3, 13, 75, 541, 4683)):
            assert len(order_preserving_colorings((0,) * p, p)) == fubini
