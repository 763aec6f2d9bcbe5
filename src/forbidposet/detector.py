"""Decide whether a colored poset embeds into a family of subsets.

An embedding maps poset elements injectively to family members so that
related elements land on proper sub/supersets and equal colors land on sets
of equal cardinality.  Induced mode additionally requires that containment
between image sets only happens along poset relations.

The backtracking assigns colors in ascending order (each color commits to one
set size, so the equal-size constraint becomes a loop over at most n+1 size
values) and elements within a color together, drawing candidates from the
family's size index.  Elements may be pinned to fixed members for incremental
search.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .configs import ColoredPoset, ConfigSet
from .lattice import Family, Mask

COUNT_FAMILY_GUARD = 4096
COUNT_POSET_GUARD = 8

_MODES = ("standard", "induced")


@dataclass(frozen=True)
class Embedding:
    """Witness assignment: poset element index -> index into family.members."""

    assignment: tuple[int, ...]

    def masks(self, family) -> tuple[Mask, ...]:
        return tuple(family.members[i] for i in self.assignment)


@lru_cache(maxsize=None)
def _plan(poset: ColoredPoset):
    """Per-poset backtracking plan: color classes, the element assignment
    order (colors ascending, classes together) and each element's position
    in it, successor lists for domain propagation, and the color pairs that
    force strictly increasing sizes."""
    k = poset.num_colors
    classes: list[list[int]] = [[] for _ in range(k + 1)]
    for e, c in enumerate(poset.colors):
        classes[c].append(e)
    order = tuple(e for c in range(1, k + 1) for e in classes[c])
    succs = tuple(
        tuple(b for b in range(poset.p) if (e, b) in poset.relation) for e in range(poset.p)
    )
    incomparable = tuple(
        tuple(
            f
            for f in range(poset.p)
            if f != e and (e, f) not in poset.relation and (f, e) not in poset.relation
        )
        for e in range(poset.p)
    )
    lower_colors: list[set[int]] = [set() for _ in range(k + 1)]
    for a, b in poset.relation:
        lower_colors[poset.colors[b]].add(poset.colors[a])
    return (
        k,
        tuple(tuple(cls) for cls in classes),
        order,
        tuple(order.index(e) for e in range(poset.p)),
        succs,
        incomparable,
        tuple(frozenset(s) for s in lower_colors),
    )


def _check_mode(mode: str) -> None:
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")


def verify_embedding(family, poset: ColoredPoset, mode: str, assignment) -> bool:
    """Independent full re-check of every embedding invariant."""
    _check_mode(mode)
    assignment = tuple(assignment)
    p = poset.p
    if len(assignment) != p or len(set(assignment)) != p:
        return False
    if any(not 0 <= i < len(family.members) for i in assignment):
        return False
    masks = [family.members[i] for i in assignment]
    for a in range(p):
        for b in range(p):
            if a == b:
                continue
            ma, mb = masks[a], masks[b]
            if poset.colors[a] == poset.colors[b] and ma.bit_count() != mb.bit_count():
                return False
            related = poset.less(a, b)
            contained = ma != mb and (ma & mb) == ma
            if related and not contained:
                return False
            if mode == "induced" and contained and not related:
                return False
    return True


def _validate_pins(family, poset: ColoredPoset, pinned) -> dict[int, int]:
    pins = dict(pinned or {})
    seen_idx = set()
    color_size: dict[int, int] = {}
    for e, idx in pins.items():
        if not 0 <= e < poset.p:
            raise ValueError(f"pinned element {e} outside poset")
        if not 0 <= idx < len(family.members):
            raise ValueError(f"pinned member index {idx} outside family")
        if idx in seen_idx:
            raise ValueError("pinned assignment is not injective")
        seen_idx.add(idx)
        c = poset.colors[e]
        size = family.members[idx].bit_count()
        if color_size.setdefault(c, size) != size:
            raise ValueError(f"pins give color {c} two different set sizes")
    return pins


def _search(family, poset: ColoredPoset, mode: str, pins: dict[int, int], count_all: bool):
    """Backtracking core.  Returns the first full assignment (count_all=False)
    or the exact number of embeddings (count_all=True).

    Two stages per size tuple: commit every color to one set size (respecting
    the size order forced by inter-color relations), then assign elements in
    color order while propagating each placement into the candidate domains
    of the unassigned elements.  The propagation is what keeps large
    single-size levels from turning into cartesian scans.
    """
    k, classes, order, pos_of, succs, incomparable, lower_colors = _plan(poset)
    p = poset.p
    members = family.members
    by_size = family.by_size
    avail_sizes = sorted(by_size)
    induced = mode == "induced"

    forced_size: dict[int, int] = {}
    for e, idx in pins.items():
        forced_size[poset.colors[e]] = members[idx].bit_count()

    assign_idx = [-1] * p
    used: set[Mask] = set()
    chosen_size = [-1] * (k + 1)
    count = 0

    def propagate(e: int, mask: Mask, domains, pos: int):
        """Filter the domains of unassigned elements against the new
        placement; None when some domain empties."""
        out = list(domains)
        for f in succs[e]:
            if pos_of[f] > pos:
                filtered = [x for x in out[f] if x != mask and (mask & x) == mask]
                if not filtered:
                    return None
                out[f] = filtered
        if induced:
            for f in incomparable[e]:
                if pos_of[f] > pos:
                    filtered = [
                        x for x in out[f] if (mask & x) != mask and (x & mask) != x
                    ]
                    if not filtered:
                        return None
                    out[f] = filtered
        return out

    def assign(pos: int, domains):
        nonlocal count
        if pos == p:
            if count_all:
                count += 1
                return None
            return tuple(assign_idx)
        e = order[pos]
        for mask in domains[e]:
            if mask in used:
                continue
            used.add(mask)
            assign_idx[e] = family.index[mask]
            narrowed = propagate(e, mask, domains, pos)
            if narrowed is not None:
                hit = assign(pos + 1, narrowed)
                if hit is not None:
                    used.discard(mask)
                    assign_idx[e] = -1
                    return hit
            used.discard(mask)
            assign_idx[e] = -1
        return None

    def initial_domains():
        domains: list[list[Mask]] = [[]] * p
        for e in range(p):
            if e in pins:
                domains[e] = [members[pins[e]]]
            else:
                domains[e] = by_size[chosen_size[poset.colors[e]]]
        return domains

    def choose_size(c: int):
        if c > k:
            return assign(0, initial_domains())
        floor = max((chosen_size[c2] for c2 in lower_colors[c]), default=-1)
        sizes = (forced_size[c],) if c in forced_size else avail_sizes
        for size in sizes:
            if size <= floor or size not in by_size:
                continue
            if len(by_size[size]) < len(classes[c]):
                continue  # not enough distinct sets of this size
            chosen_size[c] = size
            hit = choose_size(c + 1)
            chosen_size[c] = -1
            if hit is not None:
                return hit
        return None

    result = choose_size(1)
    if count_all:
        return count
    return result


def find_embedding(
    family,
    poset: ColoredPoset,
    mode: str = "standard",
    pinned: dict[int, int] | None = None,
) -> Embedding | None:
    """First embedding of the poset into the family extending the pins, or
    None.  The witness is re-verified against all invariants before return."""
    _check_mode(mode)
    pins = _validate_pins(family, poset, pinned)
    hit = _search(family, poset, mode, pins, count_all=False)
    if hit is None:
        return None
    assert verify_embedding(family, poset, mode, hit), "detector returned an invalid witness"
    return Embedding(hit)


def count_embeddings(family, poset: ColoredPoset, mode: str = "standard") -> int:
    """Exact number of distinct embeddings (small instances only)."""
    _check_mode(mode)
    if len(family.members) > COUNT_FAMILY_GUARD:
        raise ValueError(f"count_embeddings allows at most {COUNT_FAMILY_GUARD} members")
    if poset.p > COUNT_POSET_GUARD:
        raise ValueError(f"count_embeddings allows at most {COUNT_POSET_GUARD} poset elements")
    return _search(family, poset, mode, {}, count_all=True)


def is_avoiding(family, configs: ConfigSet, mode: str = "standard") -> bool:
    """True iff no member poset of the ConfigSet embeds into the family."""
    _check_mode(mode)
    return all(_search(family, poset, mode, {}, count_all=False) is None for poset in configs)


def find_violation(family, configs: ConfigSet, mode: str = "standard"):
    """(poset index, Embedding) for the first embeddable member, or None."""
    _check_mode(mode)
    for i, poset in enumerate(configs):
        emb = find_embedding(family, poset, mode)
        if emb is not None:
            return i, emb
    return None


def _hits_with_member(family, configs: ConfigSet, mode: str, new_idx: int) -> bool:
    """True iff some config embeds into the family with member new_idx in the
    image.  Assumes the member is already part of the family view."""
    for poset in configs:
        for e in range(poset.p):
            if _search(family, poset, mode, {e: new_idx}, count_all=False) is not None:
                return True
    return False


def violates_on_add(family: Family, new_set: Mask, configs: ConfigSet, mode: str = "standard") -> bool:
    """Whether family + {new_set} contains a forbidden embedding, given that
    the family itself avoids the configs.  Only embeddings whose image
    contains the new set need to be searched."""
    _check_mode(mode)
    if new_set in family.member_set:
        raise ValueError("new_set is already a member of the family")
    if not is_avoiding(family, configs, mode):
        raise ValueError("precondition failed: family must avoid the configs")
    extended = family.with_member(new_set)
    return _hits_with_member(extended, configs, mode, len(extended.members) - 1)
