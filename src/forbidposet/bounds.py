"""Closed-form upper bounds for families avoiding the named configurations,
plus the recursive constant of the general colored-poset bound.

Every evaluator returns an exact rational.  Statements whose published form
carries an unspecified O(.) error term are evaluated as their main term and
flagged ``main-term-only``; such values are reporting aids and never feed
equality assertions.  Out-of-range parameters still evaluate, with the
validity field recording the violated constraint, because small-n searches
probe exactly that regime.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

from .configs import ColoredPoset, require_valid
from .lattice import MAX_BINOMIAL_N, binomial, sigma

EXACT = "exact"
MAIN_TERM_ONLY = "main-term-only"


@dataclass(frozen=True)
class BoundResult:
    value: Fraction
    exactness: str  # EXACT or MAIN_TERM_ONLY
    validity: str  # "ok" or the violated constraint
    source: str
    n: int  # the ground-set size the bound was evaluated at


def _ceil_log(base: int, x: int) -> int:
    """Smallest K >= 0 with base**K >= x, so 0 for x < 1 (exact integers)."""
    k, v = 0, 1
    while v < x:
        k += 1
        v *= base
    return k


def _sigma(n: int, k: int) -> int:
    """``sigma`` with k clamped to [0, n + 1]: 0 for k <= 0, and all 2^n
    sets past n + 1, so that out-of-range parameters still evaluate."""
    return 0 if k <= 0 else sigma(n, min(k, n + 1))


def _fork_main(n: int, s: int) -> Fraction:
    return (1 + Fraction(2 * (s - 1), n)) * binomial(n, n // 2)


def _baton_main(n: int, h: int, s: int, t: int, h_factor: int) -> Fraction:
    return _sigma(n, h - 1) + binomial(n, (n + h) // 2) * Fraction(2 * h_factor * (s + t - 2), n)


def _diamond_restricted(n: int, m: int) -> int:
    return 3 * (_ceil_log(3, m - 1) + 1) * binomial(n, n // 2)


def _glu_diamond(n: int, m: int) -> Fraction:
    t = _ceil_log(2, m + 2)
    mid = binomial(t, t // 2)
    if m <= 2 ** t - mid - 1:
        return Fraction(_sigma(n, t))
    return (Fraction(t + 1) - Fraction(2 ** t - m - 1, mid)) * binomial(n, n // 2)


def _sigma2(n: int) -> int:
    return _sigma(n, 2)


class _Bound(NamedTuple):
    """One table row: the formula takes the parameters in ``params`` order;
    ``requirement`` is (predicate over the same arguments, its text), or None
    when the statement holds for every n >= 1."""

    params: tuple[str, ...]
    formula: Callable[..., Fraction | int]
    exactness: str
    requirement: tuple[Callable[..., bool], str] | None
    source: str


_S_AT_LEAST_2 = (lambda n, s: s >= 2, "s >= 2")
_BATON_RANGE = (lambda n, h, s, t: h >= 3 and s >= 1 and t >= 1, "h >= 3, s >= 1, t >= 1")

_TABLE = {
    "kt": _Bound(
        ("n",), lambda n: 2 * binomial(n - 1, (n - 1) // 2), EXACT,
        (lambda n: n >= 3, "n >= 3"), "size-restricted Katona-Tarjan bound",
    ),
    "fork_explicit": _Bound(
        ("n", "s"),
        lambda n, s: binomial(n, n // 2) + Fraction(2, 3) * (s - 1) * binomial(n, n // 2 + 1) + 1,
        EXACT, _S_AT_LEAST_2, "size-restricted fork bound, explicit form",
    ),
    "fork_main": _Bound(
        ("n", "s"), _fork_main, MAIN_TERM_ONLY,
        _S_AT_LEAST_2, "size-restricted fork bound, main term",
    ),
    "baton_main": _Bound(
        ("n", "h", "s", "t"), lambda n, h, s, t: _baton_main(n, h, s, t, 1), MAIN_TERM_ONLY,
        _BATON_RANGE, "size-restricted baton bound, main term",
    ),
    "butterfly": _Bound(
        ("n",), _sigma2, EXACT,
        (lambda n: n >= 13, "n >= 13"), "size-restricted butterfly bound",
    ),
    "j": _Bound(("n",), _sigma2, EXACT, None, "size-restricted J bound"),
    "diamond_restricted": _Bound(
        ("n", "m"), _diamond_restricted, EXACT,
        (lambda n, m: m >= 2, "m >= 2"), "size-restricted diamond bound",
    ),
    "diamond_m4": _Bound(
        ("n",), lambda n: _sigma(n, 4), EXACT, (lambda n: n >= 3, "n >= 3"),
        "size-restricted diamond bound, four equal-size middles (sharp)",
    ),
    "glu_diamond": _Bound(
        ("n", "m"), _glu_diamond, EXACT,
        (lambda n, m: n >= 2 and m >= 2, "n, m >= 2"), "Griggs-Li-Lu diamond bound",
    ),
    "dbk_fork_main": _Bound(
        ("n", "s"), _fork_main, MAIN_TERM_ONLY,
        _S_AT_LEAST_2, "De Bonis-Katona fork bound, main term",
    ),
    "glu_baton_main": _Bound(
        ("n", "h", "s", "t"), lambda n, h, s, t: _baton_main(n, h, s, t, h), MAIN_TERM_ONLY,
        _BATON_RANGE, "Griggs-Lu baton bound, main term",
    ),
    "dks_butterfly": _Bound(
        ("n",), _sigma2, EXACT, None, "De Bonis-Katona-Swanepoel butterfly bound"
    ),
    "li_j": _Bound(("n",), _sigma2, EXACT, None, "Li J bound"),
}

BOUND_IDS = tuple(sorted(_TABLE))


def _row(bound_id: str) -> _Bound:
    if bound_id not in _TABLE:
        raise ValueError(f"unknown bound id {bound_id!r}; known: {', '.join(BOUND_IDS)}")
    return _TABLE[bound_id]


def bound_params(bound_id: str) -> tuple[str, ...]:
    return _row(bound_id).params


def evaluate_bound(bound_id: str, **params: int) -> BoundResult:
    """Evaluate one closed-form bound by id; see BOUND_IDS for the table."""
    row = _row(bound_id)
    names = row.params
    missing = [k for k in names if k not in params]
    extra = [k for k in params if k not in names]
    if missing or extra:
        raise ValueError(
            f"bound {bound_id!r} takes parameters {names}; "
            f"missing {missing or 'none'}, unexpected {extra or 'none'}"
        )
    args = [int(params[k]) for k in names]
    if not 1 <= args[0] <= MAX_BINOMIAL_N:
        raise ValueError(f"n must be in [1, {MAX_BINOMIAL_N}], got {args[0]}")
    value = Fraction(row.formula(*args))
    validity = "ok"
    if row.requirement is not None:
        holds, text = row.requirement
        if not holds(*args):
            validity = f"outside stated range: requires {text}"
    return BoundResult(value, row.exactness, validity, row.source, args[0])


def cprime(m: int) -> Fraction:
    """Per-color constant: 3*(ceil(log3(m-1)) + 1) for m >= 2.

    The m = 1 value extends the recursion below its stated range: a family
    with no 3-chain meets every maximal chain at most twice, so its Lubell
    function is at most 2, giving constant 2.  Flag: extrapolation.
    """
    if m < 1:
        raise ValueError(f"color class size must be >= 1, got {m}")
    if m == 1:
        return Fraction(2)
    return Fraction(3 * (_ceil_log(3, m - 1) + 1))


def general_constant(a) -> Fraction:
    """Constant for the general colored-pattern bound with color class sizes
    a_1..a_k: the recursion peels one color per step and adds a per-color
    diamond constant, so the total is the sum of cprime(a_i)."""
    sizes = list(a)
    if not sizes:
        raise ValueError("need at least one color class size")
    return sum((cprime(m) for m in sizes), Fraction(0))


def constant_for_colored_poset(poset: ColoredPoset) -> Fraction:
    """general_constant applied to the poset's color class sizes."""
    require_valid(poset)
    return general_constant(poset.color_class_sizes())


def constant_for_poset_any_coloring(poset: ColoredPoset) -> Fraction:
    """Max of the general constant over every order-preserving coloring of
    the underlying poset, so the bound is coloring-independent.

    The maximum is 2p in closed form.  The constant is the sum of cprime
    over the color classes, cprime(1) = 2 and cprime(m) <= 2m for every m,
    so no coloring exceeds 2p; coloring each element alone by its place in
    a linear extension is order-preserving and reaches it."""
    require_valid(poset)
    return Fraction(2 * poset.p)
