import itertools
import math
import random
from fractions import Fraction
from types import SimpleNamespace

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
from forbidposet import audits
from forbidposet.audits import (
    chains_avoiding_family,
    estimate_matches_exact,
    s_hypothesis_holds,
)
from conftest import alpha_counts_by_enumeration, powerset_family, random_family


def reference_estimate(family, trials, seed):
    """The sampler's per-trial loop as it was before full levels were
    counted up front and the first digits read from a table: every chain is
    decoded up to the largest member size below n.  Returns (trials, mean,
    std_error), which the sampler must reproduce exactly."""
    n = family.n
    members = family.member_set
    base = (0 in members) + (family.full_mask in members)
    top = max((s for s in family.by_size if s < n), default=0)
    radices = range(n, n - top, -1)  # one digit per prefix size 1..top
    n_fact = math.factorial(n)
    code_bits = n_fact.bit_length()
    getrandbits = random.Random(seed).getrandbits
    elements = [1 << i for i in range(n)]
    total = 0
    total_sq = 0
    for _ in range(trials):
        r = getrandbits(code_bits)
        while r >= n_fact:
            r = getrandbits(code_bits)
        left = elements[:]
        hits = base
        mask = 0
        for k in radices:
            r, d = divmod(r, k)
            mask |= left[d]
            left[d] = left[k - 1]
            if mask in members:
                hits += 1
        total += hits
        total_sq += hits * hits
    mean = total / trials
    if trials > 1:
        var = max(total_sq - trials * mean * mean, 0.0) / (trials - 1)
        std_error = math.sqrt(var / trials)
    else:
        std_error = 0.0
    return trials, mean, std_error


def code_split(n, top, trials):
    """(head, walked, end): how many of a code's top digits the sampler reads
    from its prefix table, walks, and reads from its slot table.  The head
    is the longest prefix of the radices n, n-1, ..., n-top+1 whose product
    is at most min(2^14, trials); the end is the longest suffix of the rest
    within the same budget."""
    budget = min(1 << 14, trials)
    radices = list(range(n, n - top, -1))
    head = 0
    while head < top and math.prod(radices[:head + 1]) <= budget:
        head += 1
    end = 0
    while head + end < top and math.prod(radices[top - end - 1:]) <= budget:
        end += 1
    return head, top - head - end, end


FULL_LEVEL_CAP = 5000  # no larger level is made full: keeps n = 16 and 64 families small


def level_mix_family(rng, n, states):
    """A family built level by level: each size s, in a state drawn from
    ``states``, gets no sets, all C(n, s) of them, or a random nonempty
    proper part of them."""
    masks = []
    for s in range(n + 1):
        size = math.comb(n, s)
        allowed = [
            state for state in states
            if not (state == "full" and size > FULL_LEVEL_CAP or state == "partial" and size == 1)
        ]
        state = rng.choice(allowed)
        if state == "full":
            masks += (sum(1 << e for e in c) for c in itertools.combinations(range(n), s))
        elif state == "partial":
            level = set()
            for _ in range(rng.randint(1, min(size - 1, 40))):
                level.add(sum(1 << e for e in rng.sample(range(n), s)))
            masks += sorted(level)
    return Family(n, masks)


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
        assert (report.mean, report.std_error) == (0.234, 0.014403175047587648)

    def test_every_code_decodes_to_its_own_chain(self, monkeypatch):
        # a generator whose codes at n=4 (5 bits) are each of 0..23 once,
        # with the rejected codes 24..31 mixed in, so 24 trials walk every
        # permutation exactly once through the sampler's own decode
        codes = [24, 0, 1, 25, 2, 3, 4, 26, 27, 5, 6, 7, 8, 28, 9, 10, 11, 12,
                 29, 13, 14, 15, 16, 30, 17, 18, 19, 31, 20, 21, 22, 23]
        assert sorted(codes) == list(range(32))

        class AllCodes:
            def __init__(self, seed):
                self.codes = iter(codes)

            def getrandbits(self, k):
                assert k == 5
                return next(self.codes)

        monkeypatch.setattr(audits, "random", SimpleNamespace(Random=AllCodes))
        full = (1 << 4) - 1
        families = [Family(4, [m]) for m in range(16)]
        families.append(Family(4, [0, full]))
        # members at or below level t: the walk stops after t digits
        families += [Family(4, [m for m in range(16) if m.bit_count() <= t]) for t in range(4)]
        families += [Family(4, [0b0011, 0b0100]), Family(4, [0b0001, 0b1110, 0b1000])]
        for fam in families:
            report = estimate_lubell(fam, trials=24, seed=0)
            assert report.mean == float(lubell(fam)), fam.sets()

    def test_one_element_ground_set(self):
        # n! = 1 takes a 1-bit code, so about half the draws are rejected
        for masks in ([], [0], [1], [0, 1]):
            fam = Family(1, masks)
            report = estimate_lubell(fam, trials=200, seed=5)
            assert (report.mean, report.std_error) == (float(len(masks)), 0.0)

    def test_sixty_four_element_ground_set(self):
        # {∅, [64]} and the singletons have no partial level, so no code is
        # drawn for them; {∅, {1}, {1,2}} draws 296-bit codes (64! has 296
        # bits) and decodes two digits of each
        full = (1 << 64) - 1
        report = estimate_lubell(Family(64, [0, full]), trials=200, seed=5)
        assert (report.mean, report.std_error) == (2.0, 0.0)
        singletons = Family(64, [1 << i for i in range(64)])
        report = estimate_lubell(singletons, trials=200, seed=5)
        assert (report.mean, report.std_error, report.exact_target) == (1.0, 0.0, 1)
        nested = Family.from_sets(64, [[], [1], [1, 2]])
        report = estimate_lubell(nested, trials=2000, seed=5)
        assert report.exact_target == lubell(nested) == 1 + Fraction(1, 64) + Fraction(1, 2016)
        assert report.std_error > 0 and estimate_matches_exact(report), report

    def test_statistical_agreement(self):
        rng = random.Random(77)
        for _ in range(10):
            fam = random_family(rng, 10, max_size=120)
            report = estimate_lubell(fam, trials=20000, seed=rng.randrange(10 ** 6))
            assert estimate_matches_exact(report), (fam.sets(), report)

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            estimate_lubell(Family(2, []), trials=0, seed=0)

    def test_no_partial_level_never_builds_the_member_set(self, monkeypatch):
        # ∅ is read from the size index, so a family of full levels, with
        # and without ∅, returns early without a set of its members
        def unread(family):
            raise AssertionError("member_set read")

        monkeypatch.setattr(Family, "member_set", property(unread))
        for fam in (middle_levels(16, 4), Family(6, [0, *middle_levels(6, 2)])):
            report = estimate_lubell(fam, trials=100, seed=1)
            assert report.mean == float(lubell(fam))

    def test_negative_seed_rejected(self):
        # checked before the early return of a family with no partial level
        for family in (Family(2, []), kt_construction(6)):
            with pytest.raises(ValueError, match="seed must be >= 0, got -5"):
                estimate_lubell(family, trials=10, seed=-5)

    def test_matches_reference_loop(self):
        # the full-level count and the two digit tables must leave every
        # figure of the per-trial reference unchanged, on families mixing
        # empty, full and partial levels in every order, and under every
        # split of a code into head, walked digits and slot-table end
        kinds = [("empty", "full", "partial"), ("empty", "full"), ("empty", "partial")]
        ns = [*range(1, 17), 64]
        trial_counts = [1, 2, 50, 3000]
        rng = random.Random(2012)
        cases = []
        for i in range(340):  # every (n, kind, trials) triple occurs
            n, states, trials = ns[i % 17], kinds[i % 3], trial_counts[i % 4]
            cases.append((level_mix_family(rng, n, states), trials, rng.randrange(1 << 31)))
        # the audit benchmark's family shape at a full 2^14 budget: four
        # head digits, one walked digit and five or six from the slot table
        for _ in range(2):
            cases.append((Family(12, rng.sample(range(1 << 12), 300)), 20000, rng.randrange(1 << 31)))
        seen = dict.fromkeys(
            ["no partial", "only partial", "full below", "full between", "full above",
             "empty in", "empty out", "full set in", "full set out",
             "no digit past the head", "slot table after the head", "walked between",
             "budget below 2^14", "budget 2^14", "296-bit codes"], 0)
        for fam, trials, seed in cases:
            n = fam.n
            report = estimate_lubell(fam, trials, seed)
            assert (report.trials, report.mean, report.std_error) == reference_estimate(
                fam, trials, seed
            ), (n, fam.sets(), trials, seed)
            assert report.exact_target == lubell(fam)
            partial = [s for s, ms in fam.by_size.items() if len(ms) < math.comb(n, s)]
            full = [s for s in fam.by_size if s not in partial]
            seen["no partial"] += not partial
            seen["only partial"] += bool(partial) and not full
            if partial:
                seen["full below"] += any(s < min(partial) for s in full)
                seen["full between"] += any(min(partial) < s < max(partial) for s in full)
                seen["full above"] += any(s > max(partial) for s in full)
                head, walked, end = code_split(n, max(partial), trials)
                seen["no digit past the head"] += head == max(partial)
                seen["slot table after the head"] += end > 0 and not walked
                seen["walked between"] += walked > 0
                seen["budget below 2^14" if trials < 1 << 14 else "budget 2^14"] += head > 0 < end
                seen["296-bit codes"] += n == 64
            seen["empty in" if 0 in fam else "empty out"] += 1
            seen["full set in" if fam.full_mask in fam else "full set out"] += 1
        assert all(seen.values()), seen

    def test_no_partial_level_draws_no_code(self, monkeypatch):
        # every chain meets these families equally often: base hits, no draw
        class NoDraws:
            def __init__(self, seed):
                pass

            def getrandbits(self, k):
                raise AssertionError("a code was drawn")

        monkeypatch.setattr(audits, "random", SimpleNamespace(Random=NoDraws))
        singletons = Family(64, [1 << i for i in range(64)])
        for fam, base in ((powerset_family(4), 5), (middle_levels(8, 3), 3), (singletons, 1)):
            report = estimate_lubell(fam, trials=1000, seed=0)
            assert (report.mean, report.std_error) == (float(base), 0.0)


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

    def test_recursion_shares_one_memo(self, monkeypatch):
        # one recursion per family evaluates each of the 247 sets of size
        # <= 6 once for all 255 F; a fresh memo per F made 7,739 calls
        calls = 0
        real = audits.binomial

        def counting(n, k):
            nonlocal calls
            calls += 1
            return real(n, k)

        monkeypatch.setattr(audits, "binomial", counting)
        assert audit_S_lemma(kt_construction(8)).passed
        assert calls == 2705

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
            full = fam.full_mask
            if 0 in fam.member_set or full in fam.member_set or len(fam) == 0:
                continue
            if not is_avoiding(fam, kt):
                continue
            report = alpha_audit(fam)
            counts, unassigned = alpha_counts_by_enumeration(fam)
            assert counts == report.counts, fam.sets()
            assert unassigned == report.unassigned
            checked += 1

    def test_matches_enumeration_at_n8_with_contested_chains(self):
        # members off the middle level that share chains with closer members,
        # so the counts depend on the ownership rule (kt(8) has no such pair)
        rng = random.Random(23)
        kt = build_named("kt_pair")
        checked = 0
        while checked < 4:
            fam = Family(8, rng.sample(range(1, 255), rng.randint(2, 30)))
            contested = any(
                f != g and f & g == f and f.bit_count() != 4
                for f in fam.members
                for g in fam.members
            )
            if not contested or not is_avoiding(fam, kt):
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

    def test_internal_checks_raise(self, monkeypatch):
        # explicit raises, so running under python -O keeps both checks
        fam = kt_construction(4)
        with monkeypatch.context() as m:
            m.setattr("forbidposet.audits._size_distance_key", lambda size, m_: 0)
            with pytest.raises(RuntimeError, match="tie-free"):
                alpha_audit(fam)
        monkeypatch.setattr("forbidposet.audits.chains_avoiding_family", lambda family: 1)
        with pytest.raises(RuntimeError, match="partition all n! chains"):
            alpha_audit(fam)

    def test_chain_avoidance_dp(self):
        fam = Family.from_sets(3, [[1]])
        # chains through {1} = 1!*2! = 2 of 6
        assert chains_avoiding_family(fam) == 4
