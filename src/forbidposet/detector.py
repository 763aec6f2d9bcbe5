"""Decide whether a colored poset embeds into a family of subsets.

An embedding maps poset elements injectively to family members so that
related elements land on proper sub/supersets and equal colors land on sets
of equal cardinality.  Induced mode additionally requires that containment
between image sets only happens along poset relations.

One generator core, ``_embeddings``, does the backtracking over a plain size
index (set size -> the members of that size).  It assigns colors in
ascending order (each color commits to one set size, so the equal-size
constraint becomes a loop over at most n+1 size values) and elements within
a color together, and yields each embedding as the tuple of image masks.
Finding one embedding takes the first item; counting exhausts the generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .configs import ColoredPoset, ConfigSet
from .lattice import Mask

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
    """Per-poset backtracking plan: the element assignment order (colors
    ascending, classes together), each color's class size and the colors
    whose sizes it must exceed, successor lists for domain propagation, and
    for each position the later elements incomparable to its element.

    A valid coloring is order-preserving, so every successor of an element
    comes later in the order and propagation need not test positions."""
    k = poset.num_colors
    colors = poset.colors
    rel = poset.relation
    order = tuple(sorted(range(poset.p), key=colors.__getitem__))
    class_size = (0, *poset.color_class_sizes())
    lower_colors: list[set[int]] = [set() for _ in range(k + 1)]
    for a, b in rel:
        lower_colors[colors[b]].add(colors[a])
    succs = tuple(tuple(b for b in range(poset.p) if (e, b) in rel) for e in range(poset.p))
    later_incomparable = tuple(
        tuple(f for f in order[pos + 1 :] if (e, f) not in rel and (f, e) not in rel)
        for pos, e in enumerate(order)
    )
    return order, class_size, tuple(map(frozenset, lower_colors)), succs, later_incomparable


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


def _embeddings(by_size, poset: ColoredPoset, mode: str):
    """Backtracking core: yield every embedding of the poset into the indexed
    family, each as the tuple of image masks in element order.  ``by_size``
    maps a set size to the family's members of that size.  A poset with
    more elements than the family has members cannot embed injectively, so
    it yields nothing before any plan is built.

    Two stages per size tuple: commit every color to one set size (respecting
    the size order forced by inter-color relations), then assign elements in
    color order while propagating each placement into the candidate domains
    of the unassigned elements.  The propagation is what keeps large
    single-size levels from turning into cartesian scans.
    """
    if poset.p > sum(map(len, by_size.values())):
        return iter(())
    order, class_size, lower_colors, succs, later_incomparable = _plan(poset)
    p = poset.p
    k = poset.num_colors
    colors = poset.colors
    avail_sizes = sorted(by_size)
    induced = mode == "induced"

    image = [0] * p
    used: set[Mask] = set()
    chosen_size = [-1] * (k + 1)

    def propagate(e: int, mask: Mask, domains, incomparable):
        """Filter the domains of unassigned elements against the new
        placement; None when some domain empties."""
        out = list(domains)
        for f in succs[e]:
            filtered = [x for x in out[f] if x != mask and (mask & x) == mask]
            if not filtered:
                return None
            out[f] = filtered
        if induced:
            for f in incomparable:
                filtered = [x for x in out[f] if (mask & x) != mask and (x & mask) != x]
                if not filtered:
                    return None
                out[f] = filtered
        return out

    def assign(pos: int, domains):
        if pos == p:
            yield tuple(image)
            return
        e = order[pos]
        for mask in domains[e]:
            if mask in used:
                continue
            narrowed = propagate(e, mask, domains, later_incomparable[pos])
            if narrowed is not None:
                used.add(mask)
                image[e] = mask
                yield from assign(pos + 1, narrowed)
                used.discard(mask)

    def choose_size(c: int):
        if c > k:
            yield from assign(0, [by_size[chosen_size[colors[e]]] for e in range(p)])
            return
        floor = max((chosen_size[c2] for c2 in lower_colors[c]), default=-1)
        for size in avail_sizes:
            if size > floor and len(by_size.get(size, ())) >= class_size[c]:
                chosen_size[c] = size
                yield from choose_size(c + 1)

    return choose_size(1)


def _search(by_size, poset: ColoredPoset, mode: str):
    """The first embedding's image masks, or None."""
    return next(_embeddings(by_size, poset, mode), None)


def _hits_with_member(by_size, configs: ConfigSet, mode: str) -> bool:
    """True iff some config embeds into the indexed family.  When that family
    is an avoiding family plus one new set, every embedding must use the new
    set, so this is also the incremental check for adding it."""
    return any(_search(by_size, poset, mode) is not None for poset in configs)


def find_embedding(family, poset: ColoredPoset, mode: str = "standard") -> Embedding | None:
    """First embedding of the poset into the family, or None.  The witness is
    re-verified against all invariants before return."""
    _check_mode(mode)
    hit = _search(family.by_size, poset, mode)
    if hit is None:
        return None
    assignment = tuple(map(family.members.index, hit))
    assert verify_embedding(family, poset, mode, assignment), "detector returned an invalid witness"
    return Embedding(assignment)


def count_embeddings(family, poset: ColoredPoset, mode: str = "standard") -> int:
    """Exact number of distinct embeddings (small instances only)."""
    _check_mode(mode)
    if len(family.members) > COUNT_FAMILY_GUARD:
        raise ValueError(f"count_embeddings allows at most {COUNT_FAMILY_GUARD} members")
    if poset.p > COUNT_POSET_GUARD:
        raise ValueError(f"count_embeddings allows at most {COUNT_POSET_GUARD} poset elements")
    return sum(1 for _ in _embeddings(family.by_size, poset, mode))


def is_avoiding(family, configs: ConfigSet, mode: str = "standard") -> bool:
    """True iff no member poset of the ConfigSet embeds into the family."""
    _check_mode(mode)
    return not _hits_with_member(family.by_size, configs, mode)


def find_violation(family, configs: ConfigSet, mode: str = "standard"):
    """(poset index, Embedding) for the first embeddable member, or None."""
    _check_mode(mode)
    for i, poset in enumerate(configs):
        emb = find_embedding(family, poset, mode)
        if emb is not None:
            return i, emb
    return None

