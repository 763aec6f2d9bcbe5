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

A candidate domain is a bitset over the positions of its element's size
level.  A placement ANDs the later domains with the placed mask's
comparability rows.  A row over a level depends only on that level's
members, so rows are built lazily and kept per level: once per question
(one ``is_avoiding`` or ``find_violation``), shared by every poset of its
ConfigSet, or, for the search's incremental checks, in the searcher until
it changes that level.  Each row is the AND of a few bit slices, one per
ground element of the level.  Before an element walks its domain, support
counts candidates (Hall's condition on classes that share one domain): k
successors with one size and one domain D, such as the middles of
diamond(m) or the two tops of a butterfly, keep only the candidates below
at least k members of D, and when the element has
t - 1 later twins, whose images all lie in its domain, each successor keeps
only the positions above at least t members of it.  Every dropped candidate
is one no embedding uses, so the embeddings still come in the same order:
the same first violations, counts and search trees.

Twins are elements with the same color, predecessors and successors; swapping
two of them is a poset automorphism.  The generator yields only the
embeddings whose twins take their images in the order of the size index, one
per orbit of the twin permutations, so an avoiding verdict does not walk the
k! orderings of a class of k twins.  The first embedding in backtracking
order is always one of these, and ``count_embeddings`` multiplies by the
product of k! over twin classes, which is exact because permuting twins
never maps an injective embedding to itself.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice
from math import factorial, prod
from typing import NamedTuple

from .configs import ColoredPoset, ConfigSet
from .lattice import Mask

COUNT_FAMILY_GUARD = 4096
COUNT_POSET_GUARD = 8
SIZE_TUPLE_CACHE = 1024
SLICES_BY_TEXT = 16

_MODES = ("standard", "induced")


class _Plan(NamedTuple):
    order: tuple[int, ...]
    class_size: tuple[int, ...]
    lower_colors: tuple[frozenset[int], ...]
    succs: tuple[tuple[int, ...], ...]
    succ_groups: tuple[tuple[tuple[int, ...], ...], ...]
    later_incomparable: tuple[tuple[int, ...], ...]
    next_twin: tuple[int, ...]
    twins_left: tuple[int, ...]
    twin_factor: int


@lru_cache(maxsize=None)
def _plan(poset: ColoredPoset) -> _Plan:
    """Per-poset backtracking plan: the element assignment order (colors
    ascending, classes together), each color's class size and the colors
    whose sizes it must exceed, successor lists for domain propagation, each
    element's successors grouped by their predecessor sets (the groups
    support counts), for each position the later elements incomparable to
    its element, the next later twin (-1 if none) and the number of twins
    from it on, and the product of k! over twin classes.

    A valid coloring is order-preserving, so every successor of an element
    comes later in the order and propagation need not test positions."""
    k = poset.num_colors
    colors = poset.colors
    rows, preds = poset.rows, poset.dual().rows
    order = tuple(sorted(range(poset.p), key=colors.__getitem__))
    class_size = (0, *poset.color_class_sizes())
    succs = tuple(tuple(b for b in range(poset.p) if row >> b & 1) for row in rows)
    lower_colors: list[set[int]] = [set() for _ in range(k + 1)]
    for a, above in enumerate(succs):
        for b in above:
            lower_colors[colors[b]].add(colors[a])
    succ_groups = []
    for e in range(poset.p):
        groups: dict[int, list[int]] = {}
        for f in succs[e]:
            groups.setdefault(preds[f], []).append(f)
        succ_groups.append(tuple(map(tuple, groups.values())))
    later_incomparable = tuple(
        tuple(f for f in order[pos + 1 :] if not (rows[e] >> f & 1 or rows[f] >> e & 1))
        for pos, e in enumerate(order)
    )
    twins: dict[tuple, list[int]] = {}
    for e in order:
        twins.setdefault((colors[e], preds[e], rows[e]), []).append(e)
    later_twin = {e: f for cls in twins.values() for e, f in zip(cls, cls[1:])}
    left = {e: len(cls) - i for cls in twins.values() for i, e in enumerate(cls)}
    next_twin = tuple(later_twin.get(e, -1) for e in order)
    twins_left = tuple(left[e] for e in order)
    twin_factor = prod(factorial(len(cls)) for cls in twins.values())
    lower = tuple(map(frozenset, lower_colors))
    return _Plan(
        order, class_size, lower, succs, tuple(succ_groups), later_incomparable, next_twin,
        twins_left, twin_factor,
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


def _embeddings(by_size, poset: ColoredPoset, mode: str, cache):
    """Backtracking core: yield every embedding of the poset into the indexed
    family, each as the tuple of image masks in element order.  ``by_size``
    maps a set size to the family's members of that size, and ``cache`` is
    the ``(rows, slices)`` pair of per-level dicts (see ``_Call``).  A
    poset with more elements than the family has members cannot embed
    injectively, so it yields nothing before any plan is built.

    Two stages per size tuple: commit every color to one set size (respecting
    the size order forced by inter-color relations), then assign elements in
    color order.  A placement keeps, in each successor's domain, the
    positions strictly above it, and in induced mode drops from each
    incomparable element's domain the positions comparable to it.  Before
    an element walks its domain, the support step keeps only the candidates
    below at least k members of each smaller successor domain shared by k
    successors of one size, and a twin class of t left narrows each
    successor domain to the positions above at least t of the element's
    candidates.  Domains only shrink down the tree, so what either drops is
    dead and the order is unchanged.

    Placing an element at a position restricts its next twin to the later
    positions of the element's domain.  That is sound because every
    placement filters twins alike (same predecessors, and in induced mode
    the same comparabilities), so the element's domain is the later part of
    its twin's, and what the support step drops is dead for the twin too.
    The placement's own filters then apply to that suffix: in induced mode
    the twin is one of the incomparable elements, and filtering its old
    domain instead would undo the restriction.
    """
    if poset.p > sum(map(len, by_size.values())):
        return
    plan = _plan(poset)
    cap = max(plan.class_size)
    counts = tuple(sorted((s, min(len(v), cap)) for s, v in by_size.items() if v))
    sizes = _size_tuples(poset, counts)
    call = _Call(plan, by_size, mode == "induced", cache)
    for size in sizes if sizes is not None else _size_gen(poset, counts, ()):
        call.size, call.level = size, [by_size[s] for s in size]
        yield from _assign(call, 0, [(1 << len(level)) - 1 for level in call.level])


class _Call:
    """One call's state.  Only the call's generator frames refer to it and it
    refers to none of them, so reference counting frees it as soon as the
    generator ends or is dropped.  ``rows`` and ``slices`` cache ``_row``
    per level: ``rows[size][mask]`` is mask's row over level ``size`` and
    ``slices[size]`` that level's slices.  They come from the caller and
    outlive the call: a question's fresh pair is shared by every poset of
    its ConfigSet, and the searcher's pair lasts until it changes a level,
    when it drops that level's entries."""

    __slots__ = ("plan", "by_size", "induced", "size", "level", "image", "used", "rows", "slices")

    def __init__(self, plan: _Plan, by_size, induced: bool, cache):
        self.plan, self.by_size, self.induced = plan, by_size, induced
        self.image, self.used = [0] * len(plan.order), set()
        self.rows, self.slices = cache


def _slices(level) -> list[int]:
    """For each ground element up to the largest one a member holds, the
    bitset of the positions of the level's members holding it.  Past
    SLICES_BY_TEXT members, as in ``check``, they are the columns of the
    members' binary texts, last member first: ``bin(member | 1 << width)``
    is "0b1" and ``width`` digits, so every (width + 3)-th character from an
    element's digit reads its slice.  The search's small levels are faster
    set bit by set bit."""
    width = max(level).bit_length()
    if len(level) > SLICES_BY_TEXT:
        text = "".join(map(bin, map((1 << width).__or__, reversed(level))))
        group = width + 3
        return [int(text[group - 1 - i :: group], 2) for i in range(width)]
    slices = [0] * width
    for j, member in enumerate(level):
        while member:
            low = member & -member
            member ^= low
            slices[low.bit_length() - 1] |= 1 << j
    return slices


def _row(call: _Call, mask: Mask, size: int) -> int:
    """Bitset of the positions in level ``size`` strictly above ``mask`` (a
    larger size) or strictly below it (a smaller one); at mask's own size,
    mask's own position, which induced mode excludes.  Rows come from the
    level's bit slices (for each ground element, the positions of the
    members holding it), visiting only mask's set bits or its gaps: above is
    the AND of the slices of mask's elements, and 0 when mask holds an
    element no member holds (one past the slices); below, or at the same
    size, it is the positions in none of the slices of the elements mask
    lacks."""
    bucket = call.rows.get(size)
    if bucket is None:
        bucket = call.rows[size] = {}
    row = bucket.get(mask)
    if row is None:
        level = call.by_size[size]
        slices = call.slices.get(size)
        if slices is None:
            slices = call.slices[size] = _slices(level)
        row = (1 << len(level)) - 1
        if size > mask.bit_count():
            if mask >> len(slices):
                row = 0
            bits = mask
            while bits and row:
                low = bits & -bits
                bits ^= low
                row &= slices[low.bit_length() - 1]
        else:
            bits = ~mask & ((1 << len(slices)) - 1)
            while bits:
                low = bits & -bits
                bits ^= low
                row &= ~slices[low.bit_length() - 1]
        bucket[mask] = row
    return row


def _cover(call: _Call, domain: int, level, size: int, k: int) -> int:
    """Bitset of the positions in level ``size`` strictly above or below at
    least k members of ``domain`` (a bitset over ``level``).  ``counts[j]``
    holds the positions related to more than j members so far; adding a
    member's row moves each position up one counter, saturating at k.  A
    row already in the cache is read there, without a call."""
    bucket, counts = call.rows.setdefault(size, {}), [0] * k
    while domain:
        low = domain & -domain
        domain ^= low
        mask = level[low.bit_length() - 1]
        row = bucket.get(mask)
        if row is None:
            row = _row(call, mask, size)
        for j in range(k - 1, 0, -1):
            counts[j] |= counts[j - 1] & row
        counts[0] |= row
    return counts[-1]


def _assign(call: _Call, pos: int, domains):
    """Place the element at ``pos`` in turn on each candidate of its domain
    and recurse; yield the image tuple once every element is placed.

    First the support step.  A group of successors with one predecessor set
    whose k members have one size and one domain D needs k distinct images
    in D above the element's, so the element keeps the candidates below at
    least k members of D; a group that differs in size or domain counts each
    member alone, with k = 1.  Then, if the element has t - 1 later twins,
    all t images lie in its pruned domain and below every successor, so each
    successor keeps the positions above at least t of them, and an emptied
    one ends the call.  ``domains`` is this call's own list (the caller
    copies it per candidate), so the step narrows it in place."""
    if pos == len(domains):
        yield tuple(call.image)
        return
    plan, size, used = call.plan, call.size, call.used
    e = plan.order[pos]
    succs, domain, level = plan.succs[e], domains[e], call.level
    for group in plan.succ_groups[e]:
        f, k = group[0], len(group)
        if k == 1 or all(domains[g] == domains[f] and size[g] == size[f] for g in group):
            group = (f,)
        else:
            k = 1
        for f in group:
            if domains[f].bit_count() < domain.bit_count():
                domain &= _cover(call, domains[f], level[f], size[e], k)
    twins = plan.twins_left[pos]
    if twins > 1:
        for f in succs:
            domains[f] &= _cover(call, domain, level[e], size[f], twins)
            if not domains[f]:
                return
    twin = plan.next_twin[pos]
    incomparable = plan.later_incomparable[pos] if call.induced else ()
    rest = domain
    while rest:
        low = rest & -rest
        rest ^= low
        mask = level[e][low.bit_length() - 1]
        if mask in used:
            continue
        out = list(domains)
        if twin >= 0:
            if not rest:
                return
            out[twin] = rest
        for f in succs:
            out[f] &= _row(call, mask, size[f])
            if not out[f]:
                break
        else:
            for f in incomparable:
                out[f] &= ~_row(call, mask, size[f])
                if not out[f]:
                    break
            else:
                used.add(mask)
                call.image[e] = mask
                yield from _assign(call, pos + 1, out)
                used.discard(mask)


def _size_gen(poset: ColoredPoset, counts, chosen: tuple[int, ...]):
    """Every choice of one set size per color, in lexicographic order and
    given as the size of each element: color c takes a size with at least
    class_size[c] members, above the sizes of the colors it must exceed."""
    plan = _plan(poset)
    c = len(chosen) + 1
    if c == len(plan.class_size):
        yield tuple(chosen[color - 1] for color in poset.colors)
        return
    floor = max((chosen[c2 - 1] for c2 in plan.lower_colors[c]), default=-1)
    for size, count in counts:
        if size > floor and count >= plan.class_size[c]:
            yield from _size_gen(poset, counts, (*chosen, size))


@lru_cache(maxsize=4096)
def _size_tuples(poset: ColoredPoset, counts) -> tuple[tuple[int, ...], ...] | None:
    """``_size_gen``'s choices, cached per poset and level counts (capped at
    the largest class size: the choice depends on nothing else) so the
    search's many small calls do not redo them; None past SIZE_TUPLE_CACHE
    choices, which many unrelated colors can reach, and the call then draws
    them lazily."""
    sizes = tuple(islice(_size_gen(poset, counts, ()), SIZE_TUPLE_CACHE + 1))
    return sizes if len(sizes) <= SIZE_TUPLE_CACHE else None


def _search(by_size, poset: ColoredPoset, mode: str, cache):
    """The first embedding's image masks, or None."""
    return next(_embeddings(by_size, poset, mode, cache), None)


def _hits_with_member(by_size, configs: ConfigSet, mode: str, cache=None) -> bool:
    """True iff some config embeds into the indexed family.  When that family
    is an avoiding family plus one new set, every embedding must use the new
    set, so this is also the incremental check for adding it.  ``cache`` is
    a ``(rows, slices)`` pair that outlives the call (see ``_Call``); by
    default the question gets a fresh one."""
    if cache is None:
        cache = ({}, {})
    return any(_search(by_size, poset, mode, cache) is not None for poset in configs)


def find_embedding(family, poset: ColoredPoset, mode: str = "standard") -> tuple[int, ...] | None:
    """First embedding of the poset into the family as its assignment (poset
    element -> index into family.members), or None.  The witness is
    re-verified against all invariants before return."""
    _check_mode(mode)
    return _witness(family, poset, mode, ({}, {}))


def _witness(family, poset: ColoredPoset, mode: str, cache) -> tuple[int, ...] | None:
    """``find_embedding`` with the question's row cache."""
    hit = _search(family.by_size, poset, mode, cache)
    if hit is None:
        return None
    assignment = tuple(map(family.members.index, hit))
    if not verify_embedding(family, poset, mode, assignment):
        raise RuntimeError("detector returned an invalid witness")
    return assignment


def count_embeddings(family, poset: ColoredPoset, mode: str = "standard") -> int:
    """Exact number of distinct embeddings (small instances only): the
    embeddings whose twins (same color, predecessors and successors) take
    their images in size-index order, times the product of k! over twin
    classes of size k."""
    _check_mode(mode)
    if len(family.members) > COUNT_FAMILY_GUARD:
        raise ValueError(f"count_embeddings allows at most {COUNT_FAMILY_GUARD} members")
    if poset.p > COUNT_POSET_GUARD:
        raise ValueError(f"count_embeddings allows at most {COUNT_POSET_GUARD} poset elements")
    embeddings = _embeddings(family.by_size, poset, mode, ({}, {}))
    return sum(1 for _ in embeddings) * _plan(poset).twin_factor


def is_avoiding(family, configs: ConfigSet, mode: str = "standard") -> bool:
    """True iff no member poset of the ConfigSet embeds into the family."""
    _check_mode(mode)
    return not _hits_with_member(family.by_size, configs, mode)


def find_violation(family, configs: ConfigSet, mode: str = "standard"):
    """(poset index, assignment) for the first embeddable member, or None;
    the assignment is as ``find_embedding`` returns it."""
    _check_mode(mode)
    cache = ({}, {})
    for i, poset in enumerate(configs):
        assignment = _witness(family, poset, mode, cache)
        if assignment is not None:
            return i, assignment
    return None

