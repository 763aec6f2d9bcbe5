"""Exact maximum avoiding-family computation by branch and bound.

Candidate sets are ordered by the distance of their cardinality from n/2
(ascending bitmask inside a tie): extremal families concentrate near the
middle levels, so good incumbents appear early.  A node of the tree is the
current family with its viable sets, the later candidates that can still be
added, and one rule branches at every depth.  The node records the current
family if it beats the incumbent, then includes the first viable set of each
orbit in turn; that set's subtree keeps the rest of its own orbit and drops
the orbits handled before it, so the subtrees are disjoint.  The loop stops
once |current| + 1 + |rest| cannot beat the incumbent.  An optional
user-supplied exact theorem bound ends the search once the incumbent meets
it.

Symmetry is only the choice of orbit key per depth.  An embedding depends
only on containment and cardinality, which every permutation of [n]
preserves, so any permuted copy of an avoiding family avoids the same
configurations.  Depth 0 keys by |X|: every nonempty family has a first size
class s in candidate order, and a permutation maps one of its sets of size s
onto the root [s] = {1..s}, the first set of that size.  Depth 1 keys by
(|X|, |X & [s]|), the orbits of the root's stabilizer Sym([s]) x
Sym([n] - [s]): the family {[s]} is fixed by the stabilizer, so a set's
viability is constant on its orbit and the first viable member represents
it.  Deeper depths, and every depth with symmetry off, key by the set
itself, which is the plain tree.

``nodes_explored`` counts the families entered, the empty root included;
``prunes`` counts the loops cut by the cardinality bound.  Results are
deterministic for fixed options.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from math import floor

from .bounds import EXACT, BoundResult
from .configs import ConfigSet
from .detector import _check_mode, _hits_with_member, is_avoiding
from .lattice import Family, GroundSet, Mask

PROVEN_OPTIMAL = "proven-optimal"
LOWER_BOUND_ONLY = "lower-bound-only"
OPTIMAL_ASSUMING_THEOREM = "optimal-assuming-theorem"

EXACT_STATUS_GUARD = 6  # proven-optimal promised only up to this ground size
SEARCH_GROUND_GUARD = 20


@dataclass
class SearchProblem:
    n: int
    configs: ConfigSet
    mode: str = "standard"
    symmetry: bool = True
    theorem_bound: BoundResult | Fraction | int | None = None
    time_limit: float | None = None
    include_empty_and_full: bool = True

    def __post_init__(self) -> None:
        GroundSet(self.n)
        _check_mode(self.mode)
        if self.n > SEARCH_GROUND_GUARD:
            raise ValueError(f"search enumerates all 2^n subsets; limited to n <= {SEARCH_GROUND_GUARD}")
        if self.time_limit is not None and self.time_limit <= 0:
            raise ValueError("time_limit must be positive")


@dataclass(frozen=True)
class SearchResult:
    best_size: int
    witness: Family
    status: str
    nodes_explored: int
    prunes: int


def candidate_order(n: int, include_empty_and_full: bool = True) -> list[Mask]:
    """All subsets of [n], middle cardinalities first, ascending mask on ties."""
    masks = sorted(range(1 << n), key=lambda m: (abs(2 * m.bit_count() - n), m))
    if not include_empty_and_full:
        masks = [m for m in masks if 0 < m.bit_count() < n]
    return masks


def _bound_target(theorem_bound, n: int) -> int | None:
    if theorem_bound is None:
        return None
    if isinstance(theorem_bound, BoundResult):
        if theorem_bound.n != n:
            raise ValueError(f"theorem bound was evaluated at n={theorem_bound.n}, not at n={n}")
        if theorem_bound.exactness != EXACT:
            raise ValueError("only exact bounds can gate the search")
        if theorem_bound.validity != "ok":
            raise ValueError(f"theorem bound cannot gate the search: {theorem_bound.validity}")
        return floor(theorem_bound.value)
    return floor(Fraction(theorem_bound))


class _Stop(Exception):
    def __init__(self, reason: str):
        self.reason = reason


class _Searcher:
    def __init__(self, problem: SearchProblem):
        self.problem = problem
        self.members: list[Mask] = []
        self.by_size: dict[int, list[Mask]] = {s: [] for s in range(problem.n + 1)}
        self.best_members: tuple[Mask, ...] = ()
        self.best_size = 0
        self.nodes = 0
        self.prunes = 0
        self.target = _bound_target(problem.theorem_bound, problem.n)
        self.deadline = None
        if problem.time_limit is not None:
            self.deadline = time.monotonic() + problem.time_limit

    def push(self, mask: Mask) -> None:
        self.members.append(mask)
        self.by_size[mask.bit_count()].append(mask)

    def pop(self) -> None:
        mask = self.members.pop()
        self.by_size[mask.bit_count()].pop()

    def addable(self, mask: Mask) -> bool:
        self.push(mask)
        hit = _hits_with_member(self.by_size, self.problem.configs, self.problem.mode, mask)
        self.pop()
        return not hit

    def record_if_better(self) -> None:
        cur = len(self.members)
        if cur > self.best_size:
            self.best_size = cur
            self.best_members = tuple(self.members)
            if self.target is not None and self.best_size >= self.target:
                raise _Stop("theorem")

    def orbit_key(self, depth: int):
        """Key whose classes are the orbits branched on at this depth."""
        if self.problem.symmetry and depth == 0:
            return int.bit_count
        if self.problem.symmetry and depth == 1:
            root = self.members[0]
            return lambda m: (m.bit_count(), (m & root).bit_count())
        return lambda m: m

    def branch(self, viable: list[Mask], depth: int) -> None:
        """Count a node at the current family, then include the first viable
        set of each orbit in turn, while the sets left could still beat the
        incumbent: its subtree keeps the rest of its own orbit and drops the
        orbits handled before it."""
        self.nodes += 1
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise _Stop("timeout")
        self.record_if_better()
        key = self.orbit_key(depth)
        while viable:
            if len(self.members) + len(viable) <= self.best_size:
                self.prunes += 1
                return
            c, rest = viable[0], viable[1:]
            self.push(c)
            self.branch([d for d in rest if self.addable(d)], depth + 1)
            self.pop()
            k = key(c)
            viable = [d for d in rest if key(d) != k]

    def run_root(self) -> str:
        problem = self.problem
        candidates = candidate_order(problem.n, problem.include_empty_and_full)
        try:
            self.branch([d for d in candidates if self.addable(d)], 0)
        except _Stop as stop:
            return stop.reason
        return "exhausted"


def exact_max_family(problem: SearchProblem) -> SearchResult:
    """Maximum size of a family of subsets of [n] avoiding the configuration
    set, with an attained witness.

    Status is proven-optimal only when the tree was exhausted without the
    theorem-bound shortcut and n is within the exactness guard; a timeout
    yields lower-bound-only with the best family found, and stopping at a
    supplied exact bound yields optimal-assuming-theorem.
    """
    searcher = _Searcher(problem)
    outcome = searcher.run_root()
    if outcome == "timeout":
        status = LOWER_BOUND_ONLY
    elif outcome == "theorem":
        status = OPTIMAL_ASSUMING_THEOREM
    elif problem.n <= EXACT_STATUS_GUARD:
        status = PROVEN_OPTIMAL
    else:
        status = LOWER_BOUND_ONLY
    witness = Family(problem.n, searcher.best_members)
    result = SearchResult(searcher.best_size, witness, status, searcher.nodes, searcher.prunes)
    assert verify_witness(result, problem), "witness failed re-verification"
    return result


def greedy_lower_bound(problem: SearchProblem) -> Family:
    """Maximal (not maximum) avoiding family: scan candidates in branch order
    and keep every set whose addition stays avoiding."""
    searcher = _Searcher(problem)
    for mask in candidate_order(problem.n, problem.include_empty_and_full):
        if searcher.addable(mask):
            searcher.push(mask)
    return Family(problem.n, searcher.members)


def verify_witness(result: SearchResult, problem: SearchProblem) -> bool:
    """Full detector pass over the witness plus the size bookkeeping."""
    return (
        result.witness.n == problem.n
        and len(result.witness) == result.best_size
        and is_avoiding(result.witness, problem.configs, problem.mode)
    )
