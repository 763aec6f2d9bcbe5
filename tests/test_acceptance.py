"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with -s or read captured output).

All equality tolerances are exact (big-int / rational arithmetic); the only
statistical tolerance is the 5-standard-error band in criterion 5, and the
seeds make that deterministic.
"""

import math
import random
from fractions import Fraction

from forbidposet import (
    Family,
    binomial,
    build_named,
    constant_for_colored_poset,
    estimate_lubell,
    evaluate_bound,
    exact_max_family,
    find_embedding,
    general_constant,
    is_avoiding,
    kt_construction,
    lub_bound,
    lubell,
    middle_levels,
    q_value,
    sigma,
    weighted_chain_average,
)
from forbidposet.audits import alpha_audit, audit_S_lemma, estimate_matches_exact, s_hypothesis_holds
from forbidposet.lattice import q_values_upto
from forbidposet.search import PROVEN_OPTIMAL, SearchProblem

from conftest import brute_embedding_exists, named_roster, random_family


def _report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS  ({detail})")


def test_criterion_1_exact_extremal_values():
    # Katona-Tarjan pair: proven-optimal at n=3,4; n=5 must reach 12
    for n, expect in ((3, 4), (4, 6)):
        res = exact_max_family(SearchProblem(n=n, configs=build_named("kt_pair")))
        assert res.status == PROVEN_OPTIMAL
        assert res.best_size == expect == 2 * binomial(n - 1, (n - 1) // 2)
    res5 = exact_max_family(
        SearchProblem(n=5, configs=build_named("kt_pair"), time_limit=540.0)
    )
    assert res5.best_size == 12
    assert res5.status == PROVEN_OPTIMAL

    for n, expect in ((2, 3), (3, 6), (4, 10)):
        res = exact_max_family(SearchProblem(n=n, configs=build_named("j_config")))
        assert res.status == PROVEN_OPTIMAL
        assert res.best_size == expect == sigma(n, 2)

    for n, expect in ((3, 8), (4, 15)):
        res = exact_max_family(SearchProblem(n=n, configs=build_named("diamond", 4)))
        assert res.status == PROVEN_OPTIMAL
        assert res.best_size == expect == sigma(n, 4)

    butterfly = build_named("butterfly_pair")
    for n in (3, 4):
        res = exact_max_family(SearchProblem(n=n, configs=butterfly))
        assert res.best_size >= sigma(n, 2)
        witness = middle_levels(n, 2)
        assert len(witness) == sigma(n, 2)
        assert is_avoiding(witness, butterfly)

    _report("1", f"kt 4/6/12, j 3/6/10, diamond4 8/15, butterfly >= sigma; n=5 {res5.status}")


def test_criterion_2_construction_bound_sharpness():
    kt = build_named("kt_pair")
    for n in range(3, 15):
        fam = kt_construction(n)
        assert len(fam) == evaluate_bound("kt", n=n).value, n
        assert is_avoiding(fam, kt), n
    d4 = build_named("diamond", 4)
    for n in range(3, 9):
        fam = middle_levels(n, 4)
        assert len(fam) == sigma(n, 4), n
        assert is_avoiding(fam, d4), n
    _report("2", "kt sharp+avoiding for n=3..14; 4 middle levels avoid diamond(4) for n=3..8")


def test_criterion_3_q_lemma_suite():
    qs = q_values_upto(10 ** 4)
    equality_at = []
    for k in range(2, 10 ** 4 + 1):
        q = qs[k]
        assert q < Fraction(4, k), k
        assert q <= Fraction(2, 3), k
        if q == Fraction(2, 3):
            equality_at.append(k)
    assert equality_at == [3, 4]

    for total in range(13, 301):
        for a in range(2, total - 1):
            b = total - a
            if b < 2:
                continue
            assert qs[a] + qs[b] <= 1, (a, b)

    witnesses = [
        (a, 12 - a) for a in range(2, 11) if 12 - a >= 2 and qs[a] + qs[12 - a] > 1
    ]
    assert witnesses, "the sum constant must be tight at a+b=12"
    _report("3", f"q(k) bounds to 10^4, pair bound to 300, tightness witnesses {witnesses[:3]}")


def _min_lubell_profile(n: int):
    """Greedy level filling: the masks of [n] sorted so every prefix has the
    minimum possible Lubell value for its length (oracle for lub_bound)."""
    costs = []
    for size in range(n + 1):
        costs.extend([Fraction(1, binomial(n, size))] * binomial(n, size))
    costs.sort()
    running = [Fraction(0)]
    for c in costs:
        running.append(running[-1] + c)
    return running  # running[M] = minimal lambda over families of size M


def test_criterion_4_lubell_machinery():
    rng = random.Random(20240807)
    for _ in range(200):
        fam = random_family(rng, rng.randint(1, 20), max_size=200)
        lam = lubell(fam)
        assert len(fam) <= lam * binomial(fam.n, fam.n // 2)

    for n in range(1, 11):
        min_lam = _min_lubell_profile(n)
        # soundness: every decomposition of the minimal lambda bounds the size
        for size in range(0, (1 << n) + 1):
            lam = min_lam[size]
            for x in range(0, min(int(lam), n + 1) + 1):
                assert size <= lub_bound(n, x, lam - x), (n, size, x)
        # sharpness: with the overflow level priced at 1/C, the bound is hit
        for x in range(0, n + 1):
            cap = binomial(n, (n + x + 1) // 2)
            base = sigma(n, x) if x >= 1 else 0
            for j in {0, 1, cap // 2, cap}:
                target = Fraction(x) + Fraction(j, cap)
                reachable = max(
                    size for size in range(0, (1 << n) + 1) if min_lam[size] <= target
                )
                assert reachable == base + j == lub_bound(n, x, Fraction(j, cap)), (n, x, j)

    for _ in range(500):
        fam = random_family(rng, rng.randint(1, 20), max_size=120)
        assert weighted_chain_average(fam) == len(fam)
    _report("4", "first lemma on 200 families, bound oracle n<=10 both directions, "
                 "weighted identity on 500 families")


def test_criterion_5_chain_statistics():
    rng = random.Random(5150)
    for i in range(50):
        fam = random_family(rng, 12, max_size=300)
        report = estimate_lubell(fam, trials=10 ** 5, seed=1000 + i)
        assert estimate_matches_exact(report), (i, report)

    for n in (2, 4, 6, 8):
        fam = kt_construction(n)
        report = alpha_audit(fam)
        assert all(c >= report.threshold for c in report.counts.values()), n
        assert not report.exceptions and not report.unexpected_below, n
        assert report.assigned_total + report.unassigned == math.factorial(n), n
    _report("5", "50x10^5 chain samples within 5 sigma at n=12; "
                 "alpha ownership >= (m!)^2 and partitions n! for even n<=8")


def _hypothesis_fast(members) -> bool:
    by_size: dict[int, int] = {}
    for m in members:
        s = m.bit_count()
        by_size[s] = by_size.get(s, 0) + 1
    for small in members:
        if by_size[small.bit_count()] < 2:
            continue
        for big in members:
            if big != small and (small & big) == small:
                return True
    return False


def test_criterion_6_s_lemma_audit():
    # exhaustive scan over [4]: every family of subsets of [4] that satisfies
    # the hypothesis must pass the audit (direct == recursive, both bounds)
    masks = list(range(16))
    scanned = 0
    for bits in range(1 << 16):
        members = [m for m in masks if bits >> m & 1]
        if _hypothesis_fast(members):
            continue
        fam = Family(4, members)
        assert s_hypothesis_holds(fam)
        report = audit_S_lemma(fam)
        assert report.passed, fam.sets()
        scanned += 1

    rng = random.Random(606)
    random_checked = 0
    while random_checked < 100:
        fam = random_family(rng, 6, max_size=14)
        if not s_hypothesis_holds(fam):
            continue
        assert audit_S_lemma(fam).passed, fam.sets()
        random_checked += 1
    _report("6", f"exhaustive [4] scan ({scanned} hypothesis-satisfying families) "
                 f"and 100 random families over [6]")


def test_criterion_7_detector_oracle_equivalence():
    roster = [(label, cfg) for label, cfg in named_roster() if max(c.p for c in cfg) <= 6]
    families = [
        Family(3, [m for m in range(8) if bits >> m & 1]) for bits in range(1 << 8)
    ]
    pairs_checked = 0
    for fam in families:
        for label, cfg in roster:
            for poset in cfg:
                for mode in ("standard", "induced"):
                    got = find_embedding(fam, poset, mode) is not None
                    want = brute_embedding_exists(fam, poset, mode)
                    assert got == want, (label, mode, fam.sets())
                    pairs_checked += 1
    _report("7", f"{pairs_checked} (family, poset, mode) pairs agree with brute force")


def test_criterion_8_general_theorem_consistency():
    assert general_constant([4]) == 6
    assert general_constant([2, 2]) == 6
    for label, cfg in named_roster():
        bound_const = min(constant_for_colored_poset(poset) for poset in cfg)
        for n in (2, 3, 4):
            res = exact_max_family(SearchProblem(n=n, configs=cfg))
            assert res.best_size <= bound_const * binomial(n, n // 2), (label, n)
    _report("8", "max family sizes within the recursive constants at n=2..4; "
                 "general_constant([4]) = general_constant([2,2]) = 6")
