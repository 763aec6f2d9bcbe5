"""Exact Boolean-lattice primitives: subsets as bitmasks, families,
maximal-chain counts, binomial sums, the inverse-binomial sum q(k), and the
Lubell function with its two counting bounds.

All values are exact (Python ints / fractions.Fraction); floats appear only in
Monte-Carlo summaries elsewhere.  Subsets of [n] = {1, ..., n} are n-bit
machine words (bit i-1 set iff element i is present), which caps the ground
set at n = 64: ``ground_mask(n)``, the mask of [n] itself, raises ValueError
unless 1 <= n <= 64, and every Family is built through it.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import cache
from itertools import chain
from operator import getitem

Mask = int

MAX_GROUND = 64
MAX_BINOMIAL_N = 10 ** 4
TEXT_PIECE = 1 << 16  # characters from_text splits into lines at a time
TEXT_BLOCK = 4096  # lines to_text joins at a time


def ground_mask(n: int) -> Mask:
    """Bitmask of the whole ground set [n] = {1, ..., n}."""
    if not 1 <= n <= MAX_GROUND:
        raise ValueError(f"ground set size must be in [1, {MAX_GROUND}], got {n}")
    return (1 << n) - 1


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
    return tuple(e + 1 for e in range(mask.bit_length()) if mask >> e & 1)


def set_bits(bitset: int) -> tuple[int, ...]:
    """The indices of the set bits, ascending."""
    return tuple(i for i, bit in enumerate(bin(bitset)[:1:-1]) if bit == "1")


def transpose(rows, width: int) -> list[int]:
    """Bit-matrix transpose: for each bit i < width, the bitset of the
    indices of the rows holding bit i; every row must lie below 1 << width.
    It reads columns of the rows' binary texts, last row first:
    ``bin(row | 1 << width)`` is "0b1" and ``width`` digits, so every
    (width + 3)-th character from bit i's digit reads its column."""
    text = "".join(map(bin, map((1 << width).__or__, reversed(rows))))
    group = width + 3
    return [int(text[group - 1 - i :: group] or "0", 2) for i in range(width)]


def set_text(elems) -> str:
    """One set as the family text format writes it: "1,3", or "-" if empty."""
    return ",".join(map(str, elems)) if elems else "-"


@cache
def _byte_texts(chunks: int) -> tuple[tuple[str, ...], ...]:
    """For chunk c < ``chunks`` and byte value b, the elements 8c+1..8c+8
    that b holds, as set_text lists them ("" for b = 0)."""
    return tuple(
        tuple(",".join(str(8 * c + i + 1) for i in range(8) if b >> i & 1) for b in range(256))
        for c in range(chunks)
    )


def _pieces(text: str):
    """``text`` in pieces of TEXT_PIECE or more characters, each cut just past
    a newline: splitting the pieces gives the lines of text.splitlines()."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + TEXT_PIECE - 1) + 1 or len(text)
        yield text[start:end]
        start = end


class Family:
    """Deduplicated ordered collection of subsets of [n].

    Keeps insertion order (first occurrence wins), an index from cardinality
    to the members of that cardinality, and ``member_set``, built on first
    use.  Immutable after construction.
    """

    __slots__ = ("n", "full_mask", "members", "_member_set", "by_size")

    def __init__(self, n: int, masks=()):
        self.full_mask = full = ground_mask(n)
        self.n = n
        members = tuple(masks)
        # a mask in [0, full] has no bit outside [n]; only a failure scans
        if members and not (0 <= min(members) and max(members) <= full):
            bad = next(m for m in members if not 0 <= m <= full)
            raise ValueError(f"mask {bad} has bits outside the {n}-element ground set")
        by_size: dict[int, list[Mask]] = {}
        for m in members:
            by_size.setdefault(m.bit_count(), []).append(m)
        # a repeat lands on its own level, so sets of one level find it; dicts drop it
        if any(len(frozenset(level)) < len(level) for level in by_size.values()):
            members = tuple(dict.fromkeys(members))
            by_size = {s: list(dict.fromkeys(level)) for s, level in by_size.items()}
        self.members: tuple[Mask, ...] = members
        self._member_set: frozenset[Mask] | None = None
        self.by_size: dict[int, tuple[Mask, ...]] = {s: tuple(v) for s, v in by_size.items()}

    @classmethod
    def from_sets(cls, n: int, sets) -> "Family":
        return cls(n, (mask_of(s, n) for s in sets))

    @property
    def member_set(self) -> frozenset[Mask]:
        if self._member_set is None:
            self._member_set = frozenset(self.members)
        return self._member_set

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

    def sets(self) -> list[tuple[int, ...]]:
        return [elems_of(m) for m in self.members]

    # -- serialization ------------------------------------------------------

    def to_text(self) -> str:
        """The line-based format: each member is its bytes' cached texts
        joined, which is set_text(elems_of(member))."""
        chunks = (self.n + 7) // 8
        texts = _byte_texts(chunks)
        blocks = (
            "\n".join([
                ",".join(filter(None, map(getitem, texts, m.to_bytes(chunks, "little")))) or "-"
                for m in self.members[at : at + TEXT_BLOCK]
            ])
            for at in range(0, len(self.members), TEXT_BLOCK)
        )
        # the last newline is joined in rather than appended to a copy
        return "\n".join([f"n={self.n}", *blocks, ""])

    @classmethod
    def from_text(cls, text: str) -> "Family":
        """Parse the line-based format; errors name the line of ``text``
        they occur on, blank lines counted.

        A line of canonical elements ("1".."n", no spaces or signs) is read
        by table lookup; any other line, and any line the lookup rejects,
        goes through int() and mask_of, which alone accept other spellings
        and word the errors.  Lines are split a piece at a time; masks stream into the Family."""
        lines = enumerate(chain.from_iterable(map(str.splitlines, _pieces(text))), start=1)
        first, header = next(((i, ln) for i, ln in lines if ln.strip()), (0, ""))
        if not header.startswith("n="):
            raise ValueError("family text must start with an 'n=<int>' line")
        try:
            n = int(header[2:])
        except ValueError:
            raise ValueError(f"line {first}: bad ground-set line {header!r}") from None
        try:
            ground_mask(n)
        except ValueError as exc:
            raise ValueError(f"line {first}: {exc}") from None
        bit_of = {str(e): 1 << (e - 1) for e in range(1, n + 1)}.__getitem__

        def masks():
            for ln_no, ln in lines:
                try:
                    picked = list(map(bit_of, ln.split(",")))
                except KeyError:
                    pass
                else:
                    # distinct bits in ascending order: strictly ascending elements
                    mask = sum(picked)
                    if mask.bit_count() == len(picked) and picked == sorted(picked):
                        yield mask
                        continue
                ln = ln.strip()
                if not ln:
                    continue
                if ln == "-":
                    yield 0
                    continue
                try:
                    elems = [int(tok) for tok in ln.split(",")]
                except ValueError:
                    raise ValueError(f"line {ln_no}: bad subset {ln!r}") from None
                if elems != sorted(elems) or len(set(elems)) != len(elems):
                    raise ValueError(f"line {ln_no}: elements must be strictly ascending")
                try:
                    mask = mask_of(elems, n)
                except ValueError as exc:
                    raise ValueError(f"line {ln_no}: {exc}") from None
                yield mask

        return cls(n, masks())

    def to_json_obj(self) -> dict:
        return {"n": self.n, "sets": [list(elems_of(m)) for m in self.members]}

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
        if text.lstrip().startswith("{"):
            try:
                return cls.from_json_obj(json.loads(text))
            except RecursionError:  # the decoder recurses once per bracket
                raise ValueError("family JSON is nested too deeply") from None
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
    return (sigma(n, x) if x else 0) + y * binomial(n, (n + x + 1) // 2)


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
