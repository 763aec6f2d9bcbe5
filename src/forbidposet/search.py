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
it.  A candidate is viable when the family stays avoiding with it added,
and since the current family is always avoiding, any embedding must use the
candidate.  So ``addable`` asks the detector whether any configuration
embeds into the enlarged family and names the candidate, and the detector
walks only the size choices that give some element the candidate's size.

A child skips the recheck of a set d when d and the set c just included
cannot both be images of one embedding.  Every d left in the loop is
viable at the node, so the node's family plus d avoids, as does the
family plus c; an embedding into the family plus c and d therefore maps
two distinct poset elements onto c and d.  Whether a pair of elements can
land on two given sets depends only on whether the sets are comparable or
of equal size, so three flags over the ConfigSet's element pairs decide it
(``_pair_roles``), and where they say no, d stays viable unasked.  The root
and ``greedy_lower_bound`` ask about every set.

The searcher holds one detector ``_Level`` per size with every candidate of
that size, for the whole search, and the family is their ``present`` bits:
``push`` sets its set's bit, found by bisection in the ascending level, and
``pop`` clears it.  The rows over a level never go stale, so each level
builds its slices at most once.

A child stops filtering early when it would prune anyway.  With m members
after including c, the child records itself and then prunes a non-empty
list of at most max(best, m) - m sets, so once the filter has kept one set
and the kept and the unscanned sets are no more than that, the kept prefix
goes to the child instead: the same node, the same prune, fewer questions.

Symmetry is only the choice of orbit key.  An embedding depends only on
containment and cardinality, which every permutation of [n] preserves, so
any permuted copy of an avoiding family avoids the same configurations.
Each node keys X by (|X & a| for each atom a), the atoms being the nonempty
cells the current members cut [n] into; its classes are the orbits of the
members' pointwise stabilizer.  That group fixes the current family, so
viability is constant on each orbit and the first viable set represents it;
it is a subgroup of every ancestor's group, so the sets the ancestors
dropped stay a union of orbits.  The root's one atom keys by |X|, and once
every atom is a singleton the key is the set itself, as it is at every node
with symmetry off: the plain tree.

``nodes_explored`` counts the families entered, the empty root included;
``prunes`` counts the loops cut by the cardinality bound.  Results are
deterministic for fixed options.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass
from heapq import merge
from itertools import compress, islice
from math import floor

from .bounds import EXACT, BoundResult
from .configs import ConfigSet
from .detector import _check_mode, _hits_with_member, _Level, _Pattern, is_avoiding
from .lattice import Family, Mask, ground_mask

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
    theorem_bound: BoundResult | None = None
    time_limit: float | None = None
    include_empty_and_full: bool = True

    def __post_init__(self) -> None:
        ground_mask(self.n)
        _check_mode(self.mode)
        if self.n > SEARCH_GROUND_GUARD:
            raise ValueError(f"search enumerates all 2^n subsets; limited to n <= {SEARCH_GROUND_GUARD}")
        if self.time_limit is not None and not self.time_limit > 0:
            raise ValueError("time_limit must be positive")


@dataclass(frozen=True)
class SearchResult:
    best_size: int
    witness: Family
    status: str
    nodes_explored: int
    prunes: int


def _candidates(n: int, include_empty_and_full: bool) -> tuple[list[Mask], dict[int, list[Mask]]]:
    """The candidates in branch order, middle cardinalities first and
    ascending mask on ties, and by size, each size ascending.  One pass
    groups the sets by size; then each distance from n/2, nearest first,
    merges its one or two sizes."""
    by_size: dict[int, list[Mask]] = {s: [] for s in range(n + 1)}
    for mask in range(1 << n):
        by_size[mask.bit_count()].append(mask)
    if not include_empty_and_full:
        del by_size[0], by_size[n]
    order: list[Mask] = []
    for low in range(n // 2, -1, -1):
        order += merge(*(by_size.get(s, ()) for s in {low, n - low}))
    return order, by_size


def _bound_target(theorem_bound: BoundResult | None, n: int) -> int | None:
    if theorem_bound is None:
        return None
    if theorem_bound.n != n:
        raise ValueError(f"theorem bound was evaluated at n={theorem_bound.n}, not at n={n}")
    if theorem_bound.exactness != EXACT:
        raise ValueError("only exact bounds can gate the search")
    if theorem_bound.validity != "ok":
        raise ValueError(f"theorem bound cannot gate the search: {theorem_bound.validity}")
    return floor(theorem_bound.value)


class _Stop(Exception):
    """Ends the search early with the result status it carries."""

    def __init__(self, status: str):
        self.status = status


def _pair_roles(configs: ConfigSet, mode: str) -> tuple[bool, bool, bool]:
    """Whether two distinct images of one embedding can be comparable sets,
    incomparable sets of equal sizes, and incomparable sets of different
    sizes.  A related pair of elements maps to comparable sets; an unrelated
    pair of one color to equal sizes, where comparable means equal; an
    unrelated pair of two colors to any two sets, except comparable ones in
    induced mode.  The coloring is order-preserving, so a pair of two colors
    is related only as the lower color below the higher one."""
    related = same = free = False
    for poset in configs:
        k, rows, colors = poset.num_colors, poset.rows, poset.colors
        classes = [0] * (k + 1)
        for e, c in enumerate(colors):
            classes[c] |= 1 << e
        above, higher = [0] * (k + 1), 0
        for c in range(k, 0, -1):
            above[c], higher = higher, higher | classes[c]
        related = related or any(rows)
        same = same or any(m & (m - 1) for m in classes)
        free = free or any(above[colors[a]] & ~rows[a] for a in range(poset.p))
    return related or (free and mode == "standard"), same or free, free


class _Searcher:
    def __init__(self, problem: SearchProblem):
        self.problem = problem
        self.members: list[Mask] = []
        self.roles = _pair_roles(problem.configs, problem.mode)
        self.patterns = tuple(map(_Pattern, problem.configs))
        self.best_members: tuple[Mask, ...] = ()
        self.best_size = 0
        self.nodes = 0
        self.prunes = 0
        self.target = _bound_target(problem.theorem_bound, problem.n)
        self.deadline = None
        if problem.time_limit is not None:
            self.deadline = time.monotonic() + problem.time_limit
        self.candidates, by_size = _candidates(problem.n, problem.include_empty_and_full)
        self.levels = {s: _Level(tuple(sets), s, 0) for s, sets in by_size.items()}

    def push(self, mask: Mask) -> None:
        level = self.levels[mask.bit_count()]
        level.present |= 1 << bisect_left(level.members, mask)
        self.members.append(mask)

    def pop(self) -> None:
        mask = self.members.pop()
        level = self.levels[mask.bit_count()]
        level.present &= ~(1 << bisect_left(level.members, mask))

    def addable(self, mask: Mask) -> bool:
        self.push(mask)
        hit = _hits_with_member(self.levels, self.patterns, self.problem.mode, mask)
        self.pop()
        return not hit

    def can_share(self, c: Mask, d: Mask) -> bool:
        """Whether one embedding can have both c and d among its images."""
        comparable, level, free = self.roles
        if c & d in (c, d):
            return comparable
        return level if c.bit_count() == d.bit_count() else free

    def check_deadline(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise _Stop(LOWER_BOUND_ONLY)

    def record_if_better(self) -> None:
        cur = len(self.members)
        if cur > self.best_size:
            self.best_size = cur
            self.best_members = tuple(self.members)
            if self.target is not None and self.best_size >= self.target:
                raise _Stop(OPTIMAL_ASSUMING_THEOREM)

    def orbit_key(self):
        """Key whose classes are the orbits branched on at this node."""
        if not self.problem.symmetry:
            return lambda m: m
        atoms = [(1 << self.problem.n) - 1]
        for member in self.members:
            atoms = [cell for a in atoms for cell in (a & member, a & ~member) if cell]
        return lambda m: tuple(map(int.bit_count, map(m.__and__, atoms)))

    def child(self, c: Mask, viable: list[Mask]) -> list[Mask]:
        """The viable sets of the child that includes c = viable[0], just
        pushed, or a prefix of them when the child prunes either way.  The
        child records itself first, so it prunes a non-empty list of at most
        best_size - |members| sets; once the filter has kept one set and the
        kept and unscanned sets are no more than that, it stops."""
        slack, left, kept = self.best_size - len(self.members), len(viable) - 1, []
        for d in islice(viable, 1, None):
            left -= 1
            if not self.can_share(c, d) or self.addable(d):
                kept.append(d)
            if kept and len(kept) + left <= slack:
                break
        return kept

    def branch(self, viable: list[Mask]) -> None:
        """Count a node at the current family, then include the first viable
        set of each orbit in turn, while the sets left could still beat the
        incumbent: its subtree keeps the rest of its own orbit and drops the
        orbits handled before it.  Sets are keyed once, after the first child."""
        self.nodes += 1
        self.check_deadline()
        self.record_if_better()
        keys = None
        while viable:
            if len(self.members) + len(viable) <= self.best_size:
                self.prunes += 1
                return
            c = viable[0]
            self.push(c)
            self.branch(self.child(c, viable))
            self.pop()
            keys = keys or list(map(self.orbit_key(), viable))  # a pruned node keys nothing
            other = [k != keys[0] for k in keys]
            viable, keys = list(compress(viable, other)), list(compress(keys, other))

    def run_root(self) -> str:
        """Search the whole tree and return the result status."""
        try:
            viable = []
            for d in self.candidates:  # 2^n checks before the first node
                self.check_deadline()
                if self.addable(d):
                    viable.append(d)
            self.branch(viable)
        except _Stop as stop:
            return stop.status
        return PROVEN_OPTIMAL if self.problem.n <= EXACT_STATUS_GUARD else LOWER_BOUND_ONLY


def exact_max_family(problem: SearchProblem) -> SearchResult:
    """Maximum size of a family of subsets of [n] avoiding the configuration
    set, with an attained witness.

    Status is proven-optimal only when the tree was exhausted without the
    theorem-bound shortcut and n is within the exactness guard; a timeout
    yields lower-bound-only with the best family found, and stopping at a
    supplied exact bound yields optimal-assuming-theorem.
    """
    searcher = _Searcher(problem)
    status = searcher.run_root()
    witness = Family(problem.n, searcher.best_members)
    result = SearchResult(searcher.best_size, witness, status, searcher.nodes, searcher.prunes)
    if not verify_witness(result, problem):
        raise RuntimeError("witness failed re-verification")
    return result


def greedy_lower_bound(problem: SearchProblem) -> Family:
    """Maximal (not maximum) avoiding family: scan candidates in branch order
    and keep every set whose addition stays avoiding."""
    searcher = _Searcher(problem)
    for mask in searcher.candidates:
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
