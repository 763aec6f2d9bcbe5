"""Chain-based auditors for the counting machinery behind the bounds:
Monte-Carlo sampling of the Lubell identity, the exact weighted-chain
identity, the fork-band Lubell audit, the intermediate-weight-sum S(F)
recursion, and the closest-size chain-ownership audit.

All exact quantities are big-int/rational; floats appear only in the sampling
summaries.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .configs import ColoredPoset, ConfigSet, build_named
from .detector import is_avoiding
from .lattice import Family, Mask, binomial, chains_through, lubell, q_value, tail_k

ALPHA_GUARD = 8
ALPHA_ENUM_GUARD = 6
S_AUDIT_GUARD = 8
S_RECURSION_GUARD = 12

# Hypothesis pattern for the S(F) audit: a nested pair plus a third set
# sharing the bottom's size (B below D, C unrelated, |B| = |C|).
NESTED_PAIR_WITH_SIZE_TWIN = ConfigSet(
    (ColoredPoset.build(3, [(0, 2)], [1, 1, 2], "nested_pair_with_size_twin"),)
)


@dataclass(frozen=True)
class ChainSampleReport:
    trials: int
    mean: float
    exact_target: Fraction
    std_error: float


def estimate_lubell(family: Family, trials: int, seed: int) -> ChainSampleReport:
    """Mean of |chain ∩ family| over uniformly sampled maximal chains.

    Deterministic given the seed: one generator seeded with it shuffles one
    list of element bits in place per trial, the chain being its prefixes.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    n = family.n
    members = family.member_set
    base = (0 in members) + (family.ground.full_mask in members)
    shuffle = random.Random(seed).shuffle
    order = [1 << i for i in range(n)]
    total = 0
    total_sq = 0
    for _ in range(trials):
        shuffle(order)
        hits = base
        mask = 0
        for b in order[: n - 1]:
            mask |= b
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
    return ChainSampleReport(trials, mean, lubell(family), std_error)


def weighted_chain_average(family: Family) -> Fraction:
    """Average over all n! chains of the total weight C(n, |F|) of family
    members on the chain; by the chain-counting identity this equals |family|
    exactly, and the audit computes the chain-counting side honestly."""
    n = family.n
    nf = math.factorial(n)
    total = Fraction(0)
    for size, masks in family.by_size.items():
        per_set = Fraction(binomial(n, size) * math.factorial(size) * math.factorial(n - size), nf)
        total += len(masks) * per_set
    return total


@dataclass(frozen=True)
class ForkBandReport:
    s: int
    k: int
    band_size: int
    lambda_band: Fraction
    main_bound: Fraction
    smallest_c: Fraction
    hard_bound: Fraction
    passed: bool


def audit_fork_lambda(family: Family, s: int) -> ForkBandReport:
    """Exact Lubell function of the middle band of a fork-avoiding family.

    Reports the smallest c making lambda <= 1 + 2(s-1)/n + c*k/n^2 hold (the
    published form leaves that constant unspecified, so no pass/fail is tied
    to it) and hard-fails only when lambda exceeds 2 + (s-1)*q(2), the safe
    consequence of the exact per-chain average 1 + (s-1)*q(n-|A|).
    """
    if s < 2:
        raise ValueError(f"fork audit needs s >= 2, got {s}")
    if not is_avoiding(family, build_named("fork", s)):
        raise ValueError(f"precondition failed: family contains a size-restricted fork({s})")
    n = family.n
    k = tail_k(n)
    half = Fraction(n, 2)
    band = family.restrict_sizes(half - k, half + k)
    lam = lubell(band)
    main = 1 + Fraction(2 * (s - 1), n)
    if lam <= main or k == 0:
        smallest_c = Fraction(0)
    else:
        smallest_c = (lam - main) * n * n / k
    hard = 2 + (s - 1) * q_value(2)
    return ForkBandReport(s, k, len(band), lam, main, smallest_c, hard, lam <= hard)


# -- intermediate weight sums ------------------------------------------------


def compute_S(r_family: Family, f: Mask) -> Fraction:
    """Average over chains from f to [n] of the summed weights C(n, |X|) of
    members X of the family strictly between f and [n].  Direct form: each
    such X lies on a C(n-|f|, |X|-|f|)-th fraction of those chains."""
    n = r_family.n
    full = r_family.ground.full_mask
    fs = f.bit_count()
    total = Fraction(0)
    for x in r_family.members:
        if x != f and x != full and (f & x) == f:
            xs = x.bit_count()
            total += Fraction(binomial(n, xs), binomial(n - fs, xs - fs))
    return total


def compute_S_recursive(r_family: Family, f: Mask) -> Fraction:
    """Same quantity via the one-step recursion over the n-|f| covers of f:
    S(f) = N/(n-|f|) * C(n, |f|+1) + (1/(n-|f|)) * sum of S over the covers,
    N counting the covers that belong to the family.  Kept separate from the
    direct form so their exact agreement tests the bookkeeping."""
    n = r_family.n
    if n > S_RECURSION_GUARD:
        raise ValueError(f"recursive S evaluation is limited to n <= {S_RECURSION_GUARD}")
    full = r_family.ground.full_mask
    members = r_family.member_set
    memo: dict[Mask, Fraction] = {}

    def rec(mask: Mask) -> Fraction:
        size = mask.bit_count()
        if size >= n - 1:
            return Fraction(0)
        hit = memo.get(mask)
        if hit is not None:
            return hit
        free = full ^ mask
        n_in = 0
        child_sum = Fraction(0)
        while free:
            b = free & -free
            free ^= b
            child = mask | b
            if child in members:
                n_in += 1
            child_sum += rec(child)
        value = Fraction(n_in, n - size) * binomial(n, size + 1) + child_sum / (n - size)
        memo[mask] = value
        return value

    return rec(f)


@dataclass(frozen=True)
class SBoundEntry:
    mask: Mask
    value: Fraction
    bound: Fraction
    agree: bool
    ok: bool


@dataclass(frozen=True)
class SLemmaReport:
    n: int
    entries: tuple[SBoundEntry, ...]
    passed: bool


def s_hypothesis_holds(r_family: Family) -> bool:
    """No member below another member while a third member shares the
    bottom's size (checked through the 3-element colored pattern)."""
    return is_avoiding(r_family, NESTED_PAIR_WITH_SIZE_TWIN)


def audit_S_lemma(r_family: Family) -> SLemmaReport:
    """For every proper subset F of [n] (n even, n <= 8): the direct and
    recursive S evaluators must agree exactly, and S(F) must respect
    C(n, |F|+1) for |F| >= m-1 and the partial-harmonic bound for
    |F| <= m-1."""
    n = r_family.n
    if n % 2 != 0:
        raise ValueError(f"S audit requires even n, got {n}")
    if n > S_AUDIT_GUARD:
        raise ValueError(f"S audit is limited to n <= {S_AUDIT_GUARD}")
    if not s_hypothesis_holds(r_family):
        raise ValueError("hypothesis failed: nested pair with an equal-size third set present")
    m = n // 2
    full = r_family.ground.full_mask
    entries = []
    for f in range(full):
        direct = compute_S(r_family, f)
        agree = direct == compute_S_recursive(r_family, f)
        size = f.bit_count()
        bound_parts = []
        if size >= m - 1:
            bound_parts.append(Fraction(binomial(n, size + 1)))
        if size <= m - 1:
            tail = sum(
                (Fraction(binomial(n, i), n - i + 1) for i in range(size + 1, m)), Fraction(0)
            )
            bound_parts.append(binomial(n, m) + tail)
        bound = min(bound_parts)
        ok = agree and all(direct <= b for b in bound_parts)
        entries.append(SBoundEntry(f, direct, bound, agree, ok))
    return SLemmaReport(n, tuple(entries), all(e.ok for e in entries))


# -- closest-size chain ownership --------------------------------------------


@dataclass(frozen=True)
class AlphaReport:
    m: int
    threshold: int
    counts: dict[Mask, int]
    exceptions: tuple[Mask, ...]  # size m-1 members below the threshold
    unexpected_below: tuple[Mask, ...]  # any other member below it (none expected)
    unassigned: int

    @property
    def assigned_total(self) -> int:
        return sum(self.counts.values())


def _size_distance_key(size: int, m: int) -> int:
    """3*|size - (m + 1/3)|: integer, and injective over integer sizes, so the
    closest-size owner of a chain is always unique."""
    return abs(3 * (size - m) - 1)


def _interfering_sets(family: Family, f: Mask, m: int, n: int) -> list[Mask]:
    """Members whose size is strictly closer to m + 1/3 and which can share a
    chain with f (hence are comparable with f)."""
    s = f.bit_count()
    if s == m:
        return []
    if s > m:
        lo, hi = n - s + 1, s - 1
        return [g for g in family.members if (g & f) == g and g != f and lo <= g.bit_count() <= hi]
    lo, hi = s + 1, n - s
    return [g for g in family.members if (g & f) == f and g != f and lo <= g.bit_count() <= hi]


def _chains_through_avoiding(f: Mask, interfering: list[Mask], n: int) -> int:
    """Chains through f that miss every interfering set, by inclusion-
    exclusion over the nested towers inside the interfering collection."""
    items = sorted(interfering, key=lambda g: g.bit_count())
    total = 0
    for subset in range(1 << len(items)):
        tower = [items[i] for i in range(len(items)) if subset >> i & 1]
        nested = all(
            (tower[i] & tower[i + 1]) == tower[i] for i in range(len(tower) - 1)
        )
        if not nested:
            continue
        sizes = sorted(g.bit_count() for g in tower + [f])
        total += (-1) ** len(tower) * chains_through(sizes, n)
    return total


def chains_avoiding_family(family: Family) -> int:
    """Number of maximal chains containing no family member, by dynamic
    programming up the lattice (independent of the ownership counts)."""
    n = family.n
    if n > 20:
        raise ValueError("chain-avoidance DP is limited to n <= 20")
    full = family.ground.full_mask
    members = family.member_set
    ways = [0] * (full + 1)
    ways[0] = 0 if 0 in members else 1
    for mask in sorted(range(1, full + 1), key=lambda m: m.bit_count()):
        if mask in members:
            continue
        acc = 0
        rem = mask
        while rem:
            b = rem & -rem
            rem ^= b
            acc += ways[mask ^ b]
        ways[mask] = acc
    return ways[full]


def alpha_audit(family: Family) -> AlphaReport:
    """Assign every chain that meets the family to the member whose size is
    closest to m + 1/3 on it, and report each member's exact chain count
    against the threshold (m!)^2.

    Counts use tower inclusion-exclusion (chains-through arithmetic), not
    chain enumeration.  Members of size m-1 falling short are reported as
    exceptions; the repair that tops them up is out of scope here.
    """
    n = family.n
    if n % 2 != 0:
        raise ValueError(f"alpha audit requires even n, got {n}")
    if n > ALPHA_GUARD:
        raise ValueError(f"alpha audit is limited to n <= {ALPHA_GUARD}")
    if 0 in family.member_set or family.ground.full_mask in family.member_set:
        raise ValueError("precondition failed: empty set and full set must not be members")
    if not is_avoiding(family, build_named("kt_pair")):
        raise ValueError("precondition failed: family must avoid the equal-size fork pair")
    m = n // 2
    keys = [_size_distance_key(s, m) for s in range(n + 1)]
    assert len(set(keys)) == len(keys), "closest-size rule must be tie-free"
    threshold = math.factorial(m) ** 2
    counts: dict[Mask, int] = {}
    for f in family.members:
        counts[f] = _chains_through_avoiding(f, _interfering_sets(family, f, m, n), n)
    unassigned = chains_avoiding_family(family)
    assert sum(counts.values()) + unassigned == math.factorial(n), (
        "ownership counts and untouched chains must partition all n! chains"
    )
    exceptions = tuple(
        f for f in family.members if f.bit_count() == m - 1 and counts[f] < threshold
    )
    unexpected = tuple(
        f for f in family.members if f.bit_count() != m - 1 and counts[f] < threshold
    )
    return AlphaReport(m, threshold, counts, exceptions, unexpected, unassigned)


def alpha_counts_by_enumeration(family: Family) -> tuple[dict[Mask, int], int]:
    """Cross-check for alpha_audit: walk all n! chains, hand each one to its
    closest-size owner directly.  Returns (counts, unassigned)."""
    import itertools

    n = family.n
    if n > ALPHA_ENUM_GUARD:
        raise ValueError(f"enumeration cross-check is limited to n <= {ALPHA_ENUM_GUARD}")
    m = n // 2
    members = family.member_set
    counts = {f: 0 for f in family.members}
    unassigned = 0
    for perm in itertools.permutations(range(n)):
        best = None
        best_key = None
        mask = 0
        if 0 in members:
            best, best_key = 0, _size_distance_key(0, m)
        for e in perm:
            mask |= 1 << e
            if mask in members:
                key = _size_distance_key(mask.bit_count(), m)
                if best_key is None or key < best_key:
                    best, best_key = mask, key
        if best is None:
            unassigned += 1
        else:
            counts[best] += 1
    return counts, unassigned


def estimate_matches_exact(report: ChainSampleReport, sigmas: float = 5.0) -> bool:
    """Whether the sampled mean is within the given number of standard errors
    of the exact Lubell value (degenerate samples must match exactly)."""
    target = float(report.exact_target)
    if report.std_error == 0.0:
        return report.mean == target
    return abs(report.mean - target) <= sigmas * report.std_error
