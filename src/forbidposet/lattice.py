"""Exact Boolean-lattice primitives: subsets as bitmasks, families,
maximal-chain counts, binomial sums, the inverse-binomial sum q(k), and the
Lubell function with its two counting bounds.

All values are exact (Python ints / fractions.Fraction); floats appear only in
Monte-Carlo summaries elsewhere.  Subsets of [n] = {1, ..., n} are n-bit
machine words (bit i-1 set iff element i is present), which caps the ground
set at n = 64.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

Mask = int

MAX_GROUND = 64
MAX_BINOMIAL_N = 10 ** 4


@dataclass(frozen=True)
class GroundSet:
    """The base set [n] = {1, ..., n}."""

    n: int

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_GROUND:
            raise ValueError(f"ground set size must be in [1, {MAX_GROUND}], got {self.n}")

    @property
    def full_mask(self) -> Mask:
        return (1 << self.n) - 1


def mask_of(elems, n: int) -> Mask:
    """Bitmask of a collection of elements from [n]."""
    m = 0
    for e in elems:
        if not 1 <= e <= n:
            raise ValueError(f"element {e} outside [1, {n}]")
        m |= 1 << (e - 1)
    return m


def elems_of(mask: Mask) -> tuple[int, ...]:
    """Sorted elements of a bitmask."""
    out = []
    e = 1
    while mask:
        if mask & 1:
            out.append(e)
        mask >>= 1
        e += 1
    return tuple(out)


class Family:
    """Deduplicated ordered collection of subsets of [n].

    Keeps insertion order (first occurrence wins) and an index from
    cardinality to the members of that cardinality.  Immutable after
    construction.
    """

    __slots__ = ("ground", "members", "member_set", "by_size")

    def __init__(self, n: int, masks=()):
        self.ground = GroundSet(n)
        full = self.ground.full_mask
        seen: dict[Mask, None] = {}
        for m in masks:
            if m < 0 or m & ~full:
                raise ValueError(f"mask {m} has bits outside the {n}-element ground set")
            if m not in seen:
                seen[m] = None
        self.members: tuple[Mask, ...] = tuple(seen)
        self.member_set = frozenset(self.members)
        by_size: dict[int, list[Mask]] = {}
        for m in self.members:
            by_size.setdefault(m.bit_count(), []).append(m)
        self.by_size: dict[int, tuple[Mask, ...]] = {s: tuple(v) for s, v in by_size.items()}

    @classmethod
    def from_sets(cls, n: int, sets) -> "Family":
        return cls(n, (mask_of(s, n) for s in sets))

    @property
    def n(self) -> int:
        return self.ground.n

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, mask: Mask) -> bool:
        return mask in self.member_set

    def __eq__(self, other) -> bool:
        if not isinstance(other, Family):
            return NotImplemented
        return self.n == other.n and self.member_set == other.member_set

    def __hash__(self) -> int:
        return hash((self.n, self.member_set))

    def __repr__(self) -> str:
        return f"Family(n={self.n}, size={len(self.members)})"

    def restrict_sizes(self, lo, hi) -> "Family":
        """Members whose cardinality s satisfies lo <= s <= hi (bounds may be rationals)."""
        return Family(self.n, (m for m in self.members if lo <= m.bit_count() <= hi))

    def sets(self) -> list[tuple[int, ...]]:
        return [elems_of(m) for m in self.members]

    # -- serialization ------------------------------------------------------

    def to_text(self) -> str:
        lines = [f"n={self.n}"]
        for m in self.members:
            lines.append(",".join(map(str, elems_of(m))) if m else "-")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Family":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("n="):
            raise ValueError("family text must start with an 'n=<int>' line")
        try:
            n = int(lines[0][2:])
        except ValueError:
            raise ValueError(f"bad ground-set line: {lines[0]!r}") from None
        masks = []
        for ln_no, ln in enumerate(lines[1:], start=2):
            ln = ln.strip()
            if ln == "-":
                masks.append(0)
                continue
            try:
                elems = [int(tok) for tok in ln.split(",")]
            except ValueError:
                raise ValueError(f"line {ln_no}: bad subset {ln!r}") from None
            if elems != sorted(elems) or len(set(elems)) != len(elems):
                raise ValueError(f"line {ln_no}: elements must be strictly ascending")
            masks.append(mask_of(elems, n))
        return cls(n, masks)

    def to_json_obj(self) -> dict:
        return {"n": self.n, "sets": [list(s) for s in self.sets()]}

    @classmethod
    def from_json_obj(cls, obj) -> "Family":
        if not isinstance(obj, dict) or "n" not in obj or "sets" not in obj:
            raise ValueError("family object must have 'n' and 'sets' fields")
        n, sets = obj["n"], obj["sets"]
        if type(n) is not int:
            raise ValueError(f"family field 'n' must be an integer, got {n!r}")
        if not isinstance(sets, list):
            raise ValueError(f"family field 'sets' must be a list, got {sets!r}")
        for i, s in enumerate(sets):
            if not isinstance(s, list) or any(type(e) is not int for e in s):
                raise ValueError(f"family field 'sets' item {i} must be a list of integers")
        return cls.from_sets(n, sets)

    @classmethod
    def loads(cls, text: str) -> "Family":
        """Parse either the line-based text format or the JSON object format."""
        stripped = text.lstrip()
        if stripped.startswith("{"):
            return cls.from_json_obj(json.loads(text))
        return cls.from_text(text)


# -- arithmetic -------------------------------------------------------------


def binomial(n: int, k: int) -> int:
    """C(n, k); 0 outside 0 <= k <= n (simplifies summations)."""
    if not 0 <= n <= MAX_BINOMIAL_N:
        raise ValueError(f"n must be in [0, {MAX_BINOMIAL_N}], got {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def sigma(n: int, k: int) -> int:
    """Sum of the k largest binomial coefficients of n:
    sum of C(n, i) for ceil((n-k)/2) <= i <= ceil((n+k)/2) - 1."""
    if k < 1 or k > n + 1:
        raise ValueError(f"k must be in [1, {n + 1}], got {k}")
    lo = (n - k + 1) // 2
    hi = (n + k + 1) // 2 - 1
    return sum(binomial(n, i) for i in range(lo, hi + 1))


def _sigma_or_zero(n: int, k: int) -> int:
    return 0 if k == 0 else sigma(n, k)


def q_value(k: int) -> Fraction:
    """q(k) = sum of 1/C(k, i) for 1 <= i <= k-1, exactly (see q_values_upto)."""
    if k < 2:
        raise ValueError(f"q(k) requires k >= 2, got {k}")
    return q_values_upto(k)[k]


def q_values_upto(kmax: int) -> dict[int, Fraction]:
    """q(k) for all 2 <= k <= kmax in one pass of the row-sum recurrence
    s(j) = (j+1)/(2j) * s(j-1) + 1 for s(j) = sum of 1/C(j, i) over the whole
    row 0..j, which keeps denominators small enough to scan k up to 10^4 in
    seconds; q(k) = s(k) - 2."""
    if kmax < 2:
        raise ValueError("kmax must be >= 2")
    out: dict[int, Fraction] = {}
    s = Fraction(1)
    for j in range(1, kmax + 1):
        s = Fraction(j + 1, 2 * j) * s + 1
        if j >= 2:
            out[j] = s - 2
    return out


def q_value_direct(k: int) -> Fraction:
    """Definitional term-by-term evaluation of q(k); oracle for q_value."""
    if k < 2:
        raise ValueError(f"q(k) requires k >= 2, got {k}")
    total = Fraction(0)
    c = k  # C(k, 1)
    for i in range(1, k):
        total += Fraction(1, c)
        c = c * (k - i) // (i + 1)
    return total


def lubell(family: Family) -> Fraction:
    """Lubell function: sum of 1/C(n, |F|) over the family.  Equals the
    expected number of family members on a uniformly random maximal chain."""
    n = family.n
    return sum(
        (Fraction(len(masks), binomial(n, s)) for s, masks in family.by_size.items()),
        Fraction(0),
    )


def lub_bound(n: int, x: int, y) -> Fraction:
    """Counting bound for a family whose Lubell function equals x + y with
    integer x >= 0: |F| <= sigma(n, x) + y * C(n, ceil((n+x)/2)).

    At x = 0 this degenerates to |F| <= lambda * C(n, floor(n/2)).
    """
    y = Fraction(y)
    if n < 1 or x < 0 or y < 0:
        raise ValueError("lub_bound requires n >= 1, x >= 0, y >= 0")
    if x > n + 1:
        raise ValueError(f"x must be at most n+1, got x={x}, n={n}")
    return _sigma_or_zero(n, x) + y * binomial(n, (n + x + 1) // 2)


def chains_through(sizes, n: int) -> int:
    """Number of maximal chains of [n] through one fixed nested tower with the
    listed cardinalities: the product of factorials of consecutive gaps."""
    prev = 0
    first = True
    count = 1
    for s in sizes:
        if s < 0 or s > n or (not first and s <= prev):
            raise ValueError(f"sizes must be strictly increasing within [0, {n}]")
        count *= math.factorial(s - prev)
        prev = s
        first = False
    return count * math.factorial(n - prev)


def tail_k(n: int) -> int:
    """Band half-width k = ceil(2*sqrt(n*log n)), natural logarithm.

    The logarithm base is a documented convention (any fixed choice serves the
    tail estimate); it is isolated here.
    """
    return math.ceil(2.0 * math.sqrt(n * math.log(n)))


def tail_ratio(n: int) -> Fraction:
    """Exact ratio 2 * sum(C(n, i) for i <= floor(n/2 - k)) / C(n, floor(n/2))
    with k = tail_k(n); 0 when the sum is empty."""
    if n < 4:
        raise ValueError(f"tail_ratio requires n >= 4, got {n}")
    top = n // 2 - tail_k(n)
    if top < 0:
        return Fraction(0)
    return Fraction(2 * sum(binomial(n, i) for i in range(top + 1)), binomial(n, n // 2))


def powerset_family(n: int) -> Family:
    """All 2^n subsets of [n] (n capped at 20 to keep this a desk-scale helper)."""
    if n > 20:
        raise ValueError("powerset_family is limited to n <= 20")
    return Family(n, range(1 << n))
