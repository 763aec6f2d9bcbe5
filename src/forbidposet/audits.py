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
from .lattice import Family, Mask, binomial, lubell, q_value, tail_k

ALPHA_GUARD = 8
S_AUDIT_GUARD = 8
S_RECURSION_GUARD = 12
MATCH_SIGMAS = 5  # the CLI reports the match as within_5_sigma

# Hypothesis pattern for the S(F) audit: a nested pair plus a third set
# sharing the bottom's size (B below D, C unrelated, |B| = |C|).
NESTED_PAIR_WITH_SIZE_TWIN = ConfigSet(
    (ColoredPoset.build(3, [(0, 2)], [1, 1, 2], "nested_pair_with_size_twin"),)
)


@dataclass(frozen=True)
class ChainSampleReport:
    trials: int
    mean: float
    std_error: float
    exact_target: Fraction


def estimate_lubell(family: Family, trials: int, seed: int) -> ChainSampleReport:
    """Mean of |chain ∩ family| over uniformly sampled maximal chains.

    Deterministic given the seed.  Each trial takes one code r from a
    generator seeded with it: ``getrandbits(n!.bit_length())``, drawn again
    while r >= n!, so r is uniform in [0, n!).  Read in the factorial number
    system, r's digits r mod n, (r div n) mod (n-1), ... pick the chain's
    elements one at a time: digit d of radix k takes the d-th of the k
    elements left and moves the last one into its slot.  Each pick extends
    the current chain set by one element, which is tested for membership.

    A maximal chain meets every level once, so a full level (all C(n, s)
    sets of size s) adds one hit to every chain; only partial levels vary.
    The walk stops at the largest partial size, and ∅ and the full levels
    above it are counted once up front.  With no partial level every chain
    meets the family that many times and no code is drawn.

    Two tables, built once per call within the budget min(2^14, trials),
    replace most of the walk.  The head, the first j digits with j largest
    such that n(n-1)...(n-j+1) <= budget, is read as r mod that product from
    a table holding the hits, chain set and elements left after them.  The
    end, the longest run of the remaining radices whose product w2 is within
    the budget, is read as the quotient mod w2 from a table of slot
    patterns.  Which slots a run of digits picks under the swap-with-last
    rule depends only on the digits, never on what the slots hold, so entry
    q lists the slots that the digits of q pick, and ORing in the elements
    in those slots of the trial's own list, in order, is the walk itself.
    Only the digits between the two tables are walked.  None of these
    shortcuts changes the codes drawn or any figure reported.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if seed < 0:  # random.Random(-s) would replay the stream of s
        raise ValueError(f"seed must be >= 0, got {seed}")
    n = family.n
    top = max((s for s, masks in family.by_size.items() if len(masks) < binomial(n, s)), default=0)
    base = (0 in family.by_size) + sum(s > top for s in family.by_size)  # size 0 holds only ∅
    if not top:
        return ChainSampleReport(trials, float(base), 0.0, lubell(family))
    members = family.member_set
    radices = range(n, n - top, -1)  # one digit per prefix size 1..top
    budget = min(1 << 14, trials)
    j = 0
    width = 1
    while j < top and width * radices[j] <= budget:
        width *= radices[j]
        j += 1
    table = [(base, 0, [1 << i for i in range(n)])]
    for k in radices[:j]:
        grown = []
        for d in range(k):  # grown[i + d * len(table)]: entry i, then digit d
            for hits, mask, left in table:
                mask |= left[d]
                left = left[:]
                left[d] = left[k - 1]
                grown.append((hits + (mask in members), mask, left))
        table = grown
    tail = top
    w2 = 1
    while tail > j and w2 * radices[tail - 1] <= budget:
        tail -= 1
        w2 *= radices[tail]
    walked = [(k, k - 1) for k in radices[j:tail]]
    patterns = [b""]
    for k in reversed(radices[tail:]):  # patterns[d + k * i]: digit d, then entry i
        # after digit d, the slot d holds what slot k - 1 held
        moved = [bytes.maketrans(bytes([d]), bytes([k - 1])) for d in range(k)]
        patterns = [bytes([d]) + rest.translate(moved[d]) for rest in patterns for d in range(k)]
    n_fact = math.factorial(n)
    code_bits = n_fact.bit_length()
    getrandbits = random.Random(seed).getrandbits
    total = 0
    total_sq = 0
    for _ in range(trials):
        r = getrandbits(code_bits)
        while r >= n_fact:
            r = getrandbits(code_bits)
        hits, mask, left = table[r % width]
        r //= width
        if walked:
            left = left[:]
            for k, last in walked:
                d = r % k
                r //= k
                mask |= left[d]
                left[d] = left[last]
                if mask in members:
                    hits += 1
        for s in patterns[r % w2]:
            mask |= left[s]
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
    return ChainSampleReport(trials, mean, std_error, lubell(family))


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
    band = Family(n, (m for m in family.members if half - k <= m.bit_count() <= half + k))
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
    full = r_family.full_mask
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
    return _S_recursion(r_family)(f)


def _S_recursion(r_family: Family):
    """compute_S_recursive's evaluator for one family: f -> S(f), with one
    memo shared by every f it is asked for."""
    n = r_family.n
    if n > S_RECURSION_GUARD:
        raise ValueError(f"recursive S evaluation is limited to n <= {S_RECURSION_GUARD}")
    full = r_family.full_mask
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

    return rec


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
    full = r_family.full_mask
    recursive = _S_recursion(r_family)
    entries = []
    for f in range(full):
        direct = compute_S(r_family, f)
        agree = direct == recursive(f)
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


def _chains_missing(lo: Mask, hi: Mask, avoid) -> int:
    """Number of maximal chains of the interval [lo, hi] (lo a subset of hi)
    with no set in ``avoid``.  ``ways[x]`` counts those from lo up to lo | x:
    the sum over the sets one element below, each of which adds to lo a
    smaller number than x, so one pass over the x in increasing order fills
    the table."""
    free = hi ^ lo
    ways = [0] * (free + 1)
    x = 0
    while True:
        if lo | x not in avoid:
            acc = 0 if x else 1
            rem = x
            while rem:
                b = rem & -rem
                rem ^= b
                acc += ways[x ^ b]
            ways[x] = acc
        if x == free:
            return ways[free]
        x = (x - free) & free  # the next subset of free


def chains_avoiding_family(family: Family) -> int:
    """Number of maximal chains containing no family member, by dynamic
    programming up the lattice (independent of the ownership counts)."""
    if family.n > 20:
        raise ValueError("chain-avoidance DP is limited to n <= 20")
    return _chains_missing(0, family.full_mask, family.member_set)


def alpha_audit(family: Family) -> AlphaReport:
    """Assign every chain that meets the family to the member whose size is
    closest to m + 1/3 on it, and report each member's exact chain count
    against the threshold (m!)^2.

    A chain belongs to f exactly when it passes through f and through no
    member of a closer size, so f's count is the number of chains of [0, f]
    times that of [f, [n]] that miss the closer members, each by a subset
    DP, not by chain enumeration.  Members of size m-1 falling short are
    reported as exceptions; the repair that tops them up is out of scope
    here.
    """
    n = family.n
    if n % 2 != 0:
        raise ValueError(f"alpha audit requires even n, got {n}")
    if n > ALPHA_GUARD:
        raise ValueError(f"alpha audit is limited to n <= {ALPHA_GUARD}")
    if 0 in family.member_set or family.full_mask in family.member_set:
        raise ValueError("precondition failed: empty set and full set must not be members")
    if not is_avoiding(family, build_named("kt_pair")):
        raise ValueError("precondition failed: family must avoid the equal-size fork pair")
    m = n // 2
    keys = [_size_distance_key(s, m) for s in range(n + 1)]
    if len(set(keys)) != len(keys):
        raise RuntimeError("closest-size rule must be tie-free")
    threshold = math.factorial(m) ** 2
    counts: dict[Mask, int] = {}
    for f in family.members:
        closer = {g for g in family.members if keys[g.bit_count()] < keys[f.bit_count()]}
        counts[f] = _chains_missing(0, f, closer) * _chains_missing(f, family.full_mask, closer)
    unassigned = chains_avoiding_family(family)
    if sum(counts.values()) + unassigned != math.factorial(n):
        raise RuntimeError("ownership counts and untouched chains must partition all n! chains")
    exceptions = tuple(
        f for f in family.members if f.bit_count() == m - 1 and counts[f] < threshold
    )
    unexpected = tuple(
        f for f in family.members if f.bit_count() != m - 1 and counts[f] < threshold
    )
    return AlphaReport(m, threshold, counts, exceptions, unexpected, unassigned)


def estimate_matches_exact(report: ChainSampleReport) -> bool:
    """Whether the sampled mean is within MATCH_SIGMAS standard errors of the
    exact Lubell value (degenerate samples must match exactly)."""
    target = float(report.exact_target)
    if report.std_error == 0.0:
        return report.mean == target
    return abs(report.mean - target) <= MATCH_SIGMAS * report.std_error
