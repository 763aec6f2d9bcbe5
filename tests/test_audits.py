import math
import random
from fractions import Fraction

import pytest

from forbidposet import (
    Family,
    alpha_audit,
    audit_S_lemma,
    audit_fork_lambda,
    build_named,
    compute_S,
    compute_S_recursive,
    estimate_lubell,
    is_avoiding,
    kt_construction,
    lubell,
    middle_levels,
    weighted_chain_average,
)
from forbidposet.audits import (
    alpha_counts_by_enumeration,
    chains_avoiding_family,
    estimate_matches_exact,
    s_hypothesis_holds,
)
from forbidposet.lattice import powerset_family

from conftest import random_family


class TestEstimateLubell:
    def test_powerset_is_constant(self):
        report = estimate_lubell(powerset_family(3), trials=500, seed=1)
        assert report.mean == 4.0
        assert report.std_error == 0.0
        assert report.exact_target == 4

    def test_two_full_levels_are_constant(self):
        report = estimate_lubell(middle_levels(4, 2), trials=200, seed=3)
        assert report.mean == 2.0 and report.exact_target == 2

    def test_empty_family(self):
        report = estimate_lubell(Family(4, []), trials=50, seed=9)
        assert report.mean == 0.0 and report.exact_target == 0

    def test_deterministic_and_seed_sensitive(self):
        fam = random_family(random.Random(8), 8, max_size=40)
        a = estimate_lubell(fam, trials=2000, seed=12)
        b = estimate_lubell(fam, trials=2000, seed=12)
        c = estimate_lubell(fam, trials=2000, seed=13)
        assert a == b
        assert a.mean != c.mean or a.std_error != c.std_error

    def test_sample_stream_pinned(self):
        # kt_construction(6) meets every chain once, so its figures hold for
        # any stream; the random family's figures pin the stream itself, so a
        # replayed argv prints what it printed before
        report = estimate_lubell(kt_construction(6), trials=1000, seed=7)
        assert (report.mean, report.std_error) == (1.0, 0.0)
        fam = random_family(random.Random(21), 7, max_size=30)
        report = estimate_lubell(fam, trials=1000, seed=7)
        assert (report.mean, report.std_error) == (0.224, 0.014072029776191566)

    def test_statistical_agreement(self):
        rng = random.Random(77)
        for _ in range(10):
            fam = random_family(rng, 10, max_size=120)
            report = estimate_lubell(fam, trials=20000, seed=rng.randrange(10 ** 6))
            assert estimate_matches_exact(report), (fam.sets(), report)

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            estimate_lubell(Family(2, []), trials=0, seed=0)


class TestWeightedChainAverage:
    def test_equals_family_size(self):
        fam = random_family(random.Random(14), 9, max_size=10)
        assert weighted_chain_average(fam) == len(fam)

    def test_empty(self):
        assert weighted_chain_average(Family(5, [])) == 0

    def test_two_middle_levels_of_5(self):
        assert weighted_chain_average(middle_levels(5, 2)) == 20

    def test_500_random_families(self):
        rng = random.Random(1234)
        for _ in range(500):
            fam = random_family(rng, rng.randint(1, 20), max_size=60)
            assert weighted_chain_average(fam) == len(fam)


class TestForkLambdaAudit:
    def test_single_middle_set(self):
        fam = Family.from_sets(8, [[1, 2, 3, 4]])
        report = audit_fork_lambda(fam, s=2)
        assert report.passed
        assert report.lambda_band == Fraction(1, 70)
        assert report.smallest_c == 0

    def test_kt_construction(self):
        report = audit_fork_lambda(kt_construction(8), s=2)
        assert report.passed
        assert report.lambda_band == 1
        assert report.main_bound == Fraction(5, 4)

    def test_precondition_detects_forks(self):
        with pytest.raises(ValueError, match="fork"):
            audit_fork_lambda(middle_levels(8, 3), s=2)

    def test_hard_bound_value(self):
        report = audit_fork_lambda(Family.from_sets(6, [[1, 2, 3]]), s=3)
        assert report.hard_bound == 2 + Fraction(2, 2)

    def test_s_range(self):
        with pytest.raises(ValueError):
            audit_fork_lambda(Family(4, []), s=1)


class TestComputeS:
    def test_empty_r_family(self):
        assert compute_S(Family(4, []), 0b0011) == 0

    def test_no_room_above_near_top(self):
        fam = powerset_family(4)
        assert compute_S(fam, 0b0111) == 0  # |f| = n-1

    def test_single_middle_member(self):
        fam = Family.from_sets(4, [[1, 2]])
        assert compute_S(fam, 0) == 1  # C(4,2) / C(4,2)

    def test_triple_member_from_bottom(self):
        fam = Family.from_sets(4, [[1, 2, 3]])
        assert compute_S(fam, 0) == 1  # C(4,3) / C(4,3)

    def test_non_superset_members_ignored(self):
        fam = Family.from_sets(4, [[2, 3]])
        assert compute_S(fam, 0b0001) == 0

    def test_recursive_matches_direct_randomized(self):
        rng = random.Random(555)
        for _ in range(60):
            n = rng.randint(2, 7)
            fam = random_family(rng, n, max_size=25)
            f = rng.randrange((1 << n) - 1)
            assert compute_S(fam, f) == compute_S_recursive(fam, f), (n, fam.sets(), f)

    def test_recursion_guard(self):
        with pytest.raises(ValueError):
            compute_S_recursive(Family(13, []), 0)


class TestSLemmaAudit:
    def test_empty_r(self):
        report = audit_S_lemma(Family(4, []))
        assert report.passed and len(report.entries) == 15

    def test_single_triple(self):
        report = audit_S_lemma(Family.from_sets(4, [[1, 2, 3]]))
        assert report.passed
        by_mask = {e.mask: e for e in report.entries}
        assert by_mask[0].value == 1

    def test_hypothesis_rejection(self):
        # {1} below {1,2} with {2} sharing size 1
        bad = Family.from_sets(4, [[1], [2], [1, 2]])
        assert not s_hypothesis_holds(bad)
        with pytest.raises(ValueError, match="hypothesis"):
            audit_S_lemma(bad)

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError, match="even"):
            audit_S_lemma(Family(5, []))

    def test_random_hypothesis_satisfying_families_pass(self):
        rng = random.Random(99)
        passed = 0
        while passed < 40:
            fam = random_family(rng, 6, max_size=12)
            if not s_hypothesis_holds(fam):
                continue
            assert audit_S_lemma(fam).passed, fam.sets()
            passed += 1


class TestAlphaAudit:
    def test_single_middle_set(self):
        fam = Family.from_sets(4, [[1, 2]])
        report = alpha_audit(fam)
        assert report.threshold == 4
        assert report.counts[0b0011] == 4
        assert report.unassigned == math.factorial(4) - 4
        assert not report.exceptions and not report.unexpected_below

    def test_kt_construction_4(self):
        report = alpha_audit(kt_construction(4))
        assert all(count == 4 for count in report.counts.values())
        assert report.unassigned == 0
        assert not report.exceptions

    def test_kt_construction_even_n(self):
        for n in (2, 4, 6, 8):
            report = alpha_audit(kt_construction(n))
            assert all(c >= report.threshold for c in report.counts.values()), n
            assert report.assigned_total + report.unassigned == math.factorial(n), n

    def test_preconditions(self):
        with pytest.raises(ValueError, match="empty set"):
            alpha_audit(Family.from_sets(4, [[], [1, 2]]))
        with pytest.raises(ValueError, match="even"):
            alpha_audit(Family.from_sets(5, [[1, 2]]))
        with pytest.raises(ValueError, match="equal-size fork"):
            alpha_audit(Family.from_sets(4, [[1], [1, 2], [1, 3]]))

    def test_matches_enumeration_on_random_families(self):
        rng = random.Random(17)
        kt = build_named("kt_pair")
        checked = 0
        while checked < 25:
            n = rng.choice((2, 4, 6))
            fam = random_family(rng, n, max_size=10)
            full = fam.ground.full_mask
            if 0 in fam.member_set or full in fam.member_set or len(fam) == 0:
                continue
            if not is_avoiding(fam, kt):
                continue
            report = alpha_audit(fam)
            counts, unassigned = alpha_counts_by_enumeration(fam)
            assert counts == report.counts, fam.sets()
            assert unassigned == report.unassigned
            checked += 1

    def test_exception_listing(self):
        # {1} of size m-1 = 1 sits under the size-m and size-(m+1) members,
        # losing too many chains: it must be reported, not asserted away
        fam = Family.from_sets(4, [[1], [1, 2], [1, 2, 3]])
        report = alpha_audit(fam)
        assert 0b0001 in report.exceptions
        assert not report.unexpected_below

    def test_chain_avoidance_dp(self):
        fam = Family.from_sets(3, [[1]])
        # chains through {1} = 1!*2! = 2 of 6
        assert chains_avoiding_family(fam) == 4
