"""Extremal and lower-bound families: middle levels, the Katona-Tarjan
two-level family, and the middle-band family for size-restricted diamonds."""

from __future__ import annotations

from itertools import chain, combinations

from .lattice import Family, binomial, ground_mask

CONSTRUCTION_GUARD = 1 << 20  # most sets a construction lists


def _check_size(name: str, size: int) -> None:
    """Refuse a construction of more than CONSTRUCTION_GUARD sets before any
    of them is enumerated."""
    if size > CONSTRUCTION_GUARD:
        raise ValueError(f"{name} has {size} sets; constructions are limited to {CONSTRUCTION_GUARD}")


def middle_levels(n: int, r: int) -> Family:
    """All subsets with cardinality i for ceil((n-r)/2) <= i <= ceil((n+r)/2)-1;
    the family realizing the sum of the r largest binomial coefficients."""
    if not 1 <= r <= n + 1:
        raise ValueError(f"r must be in [1, {n + 1}], got {r}")
    ground_mask(n)  # first: past its guard the enumeration below would never finish
    lo = (n - r + 1) // 2
    hi = (n + r + 1) // 2 - 1
    _check_size(f"middle_levels({n}, {r})", sum(binomial(n, s) for s in range(lo, hi + 1)))
    bits = [1 << i for i in range(n)]
    return Family(n, chain(*(map(sum, combinations(bits, s)) for s in range(lo, hi + 1))))


def kt_construction(n: int) -> Family:
    """Sets of size floor(n/2) not containing element 1, together with sets of
    size ceil(n/2) containing element 1.  Attains the Katona-Tarjan bound
    2*C(n-1, floor((n-1)/2)) while containing no element below (or above) two
    equal-size sets.  Element "1" is literally ground element 1; symmetry
    makes the choice immaterial."""
    if n < 2:
        raise ValueError(f"kt_construction requires n >= 2, got {n}")
    ground_mask(n)  # first: past its guard the enumeration below would never finish
    low, high = n // 2, (n + 1) // 2
    _check_size(f"kt_construction({n})", binomial(n - 1, low) + binomial(n - 1, high - 1))
    bits = [1 << i for i in range(1, n)]  # elements 2..n
    tops = (sum(combo, 1) for combo in combinations(bits, high - 1))
    return Family(n, chain(map(sum, combinations(bits, low)), tops))


def diamond_r_for(m: int) -> int:
    """Largest r with C(r, floor(r/2)) < m."""
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    r = 1
    while binomial(r + 1, (r + 1) // 2) < m:
        r += 1
    return r


def diamond_levels(n: int, m: int) -> Family:
    """Middle levels with band width r = the largest integer such that
    C(r, floor(r/2)) < m; avoids the diamond with m equal-size middles.
    Clamped to the full powerset when r exceeds n+1 (huge m, tiny n)."""
    if n < 1 or m < 2:
        raise ValueError("diamond_levels requires n >= 1 and m >= 2")
    return middle_levels(n, min(diamond_r_for(m), n + 1))


def complement_family(family: Family) -> Family:
    """{[n] \\ F : F in family}; involutive."""
    full = family.full_mask
    return Family(family.n, (full ^ m for m in family.members))
