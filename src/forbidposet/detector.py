"""Decide whether a colored poset embeds into a family of subsets.

An embedding maps poset elements injectively to family members so that
related elements land on proper sub/supersets and equal colors land on sets
of equal cardinality.  Induced mode additionally requires that containment
between image sets only happens along poset relations.

One generator core, ``_assign``, does the backtracking over size levels
(set size -> the ``_Level`` of the members of that size) for one choice of
a set size per color (so the equal-size constraint becomes a loop over at
most n+1 size values).  It assigns colors in ascending order and elements
within a color together, and yields each embedding as the tuple of image
masks.  ``_embeddings`` is the one walk over the size choices: finding one
embedding (``_search``) takes its first item, and counting exhausts it.

A candidate domain is a bitset over the positions of its element's size
level, first its ``present`` members.  A placement ANDs the later domains
with the placed mask's comparability rows.  A row over a level depends only
on that level's members, so the level owns its rows, built lazily.  A
question (one ``is_avoiding`` or ``find_violation``) builds its levels once,
shared by every poset of its ConfigSet, and one ``_Pattern`` per poset; the
search builds both once, a level of every set per size, and changes only
what is present.  Each row is the AND of bit slices, one per ground element.
Before an element walks its domain, support counts candidates (Hall's
condition on classes that share one domain): k successors with one size and
one domain D, such as the middles of diamond(m) or the two tops of a
butterfly, keep only the candidates below at least k members of D, and when
the element has t - 1 later twins, whose images all lie in its domain, each
successor keeps only the positions above at least t members of it.  Every
dropped candidate is one no embedding uses, so the embeddings still come in
the same order: the same first violations, counts and search trees.  The
search asks for the same counts node after node, so the level counted onto
keeps them beside its rows, in a memo emptied once it holds COVER_CACHE.

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

from itertools import islice, permutations
from math import factorial, prod
from typing import NamedTuple

from .configs import ColoredPoset, ConfigSet, require_valid
from .lattice import Mask, set_bits, transpose

COUNT_FAMILY_GUARD = 4096
COUNT_POSET_GUARD = 8
SIZE_TUPLE_CACHE = 1024
COVER_CACHE = 216  # covers a level holds; a full level drops them all

_MODES = ("standard", "induced")


class _Plan(NamedTuple):
    order: tuple[int, ...]
    succs: tuple[tuple[int, ...], ...]
    succ_groups: tuple[tuple[tuple[int, ...], ...], ...]
    later_incomparable: tuple[int, ...]
    next_twin: tuple[int, ...]
    twins_left: tuple[int, ...]
    twin_factor: int


class _Pattern:
    """A poset prepared for one question.  Its size stage, by color 1..k:
    the class sizes and the largest (``cap``), and bitsets of each color's
    elements and of those above them (color c must exceed the size of each
    color reaching above into c), built in one pass over the rows.  That
    turns away a poset with no size choice before ``_plan``, quadratic in
    its size; ``plan`` holds it once built, ``sizes`` the size choices by
    the level counts, capped at ``cap``."""

    __slots__ = ("poset", "class_size", "cap", "of_color", "above", "plan", "sizes")

    def __init__(self, poset: ColoredPoset):
        k = poset.num_colors
        self.poset = poset
        self.of_color, self.above = [0] * (k + 1), [0] * (k + 1)
        for e, (c, row) in enumerate(zip(poset.colors, poset.rows)):
            self.of_color[c] |= 1 << e
            self.above[c] |= row
        self.class_size = (0, *poset.color_class_sizes())
        self.cap = max(self.class_size)
        self.plan, self.sizes = None, {}


def _plan(poset: ColoredPoset) -> _Plan:
    """Per-poset backtracking plan: the element assignment order (colors
    ascending, classes together), successor lists for domain propagation,
    each element's successors grouped by their predecessor sets (the groups
    support counts), for each position the bitset of the later elements
    incomparable to its element, the next later twin (-1 if none) and the
    number of twins from it on, and the product of k! over twin classes.
    Each part is linear in the relation or a bitset operation per element.

    A valid coloring is order-preserving, so every successor of an element
    comes later in the order and propagation need not test positions."""
    colors, p = poset.colors, poset.p
    rows, preds = poset.rows, transpose(poset.rows, p)
    order = tuple(sorted(range(p), key=colors.__getitem__))
    succs = tuple(map(set_bits, rows))
    succ_groups = []
    for e in range(p):
        groups: dict[int, list[int]] = {}
        for f in succs[e]:
            groups.setdefault(preds[f], []).append(f)
        succ_groups.append(tuple(map(tuple, groups.values())))
    later = [0] * p  # the elements after each position
    for pos in range(p - 1, 0, -1):
        later[pos - 1] = later[pos] | 1 << order[pos]
    later_incomparable = tuple(m & ~(rows[e] | preds[e]) for m, e in zip(later, order))
    twins: dict[tuple, list[int]] = {}
    for e in order:
        twins.setdefault((colors[e], preds[e], rows[e]), []).append(e)
    later_twin = {e: f for cls in twins.values() for e, f in zip(cls, cls[1:])}
    left = {e: len(cls) - i for cls in twins.values() for i, e in enumerate(cls)}
    next_twin = tuple(later_twin.get(e, -1) for e in order)
    twins_left = tuple(left[e] for e in order)
    twin_factor = prod(factorial(len(cls)) for cls in twins.values())
    return _Plan(
        order, succs, tuple(succ_groups), later_incomparable, next_twin, twins_left, twin_factor
    )


def _check_mode(mode: str) -> None:
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")


def verify_embedding(family, poset: ColoredPoset, mode: str, assignment) -> bool:
    """Independent full re-check of every embedding invariant."""
    _check_mode(mode)
    require_valid(poset)
    assignment = tuple(assignment)
    p = poset.p
    if len(assignment) != p or len(set(assignment)) != p:
        return False
    if any(not 0 <= i < len(family.members) for i in assignment):
        return False
    masks = [family.members[i] for i in assignment]
    for a, b in permutations(range(p), 2):
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


class _Level:
    """The members of one size, the bitset of those ``present`` in the
    family (every element's first domain), and the rows over them:
    ``rows[mask]`` is mask's row and ``slices`` the bit slices, None until
    ``_row`` needs them; ``covers`` memoizes ``_cover``'s answers onto it.
    The members never change, so neither rows nor covers go stale."""

    __slots__ = ("members", "size", "present", "rows", "slices", "covers")

    def __init__(self, members: tuple[Mask, ...], size: int, present: int):
        self.members, self.size, self.present = members, size, present
        self.rows, self.slices, self.covers = {}, None, {}


def _levels(family) -> dict[int, _Level]:
    """One question's levels, size -> ``_Level``, every member present."""
    return {s: _Level(members, s, (1 << len(members)) - 1) for s, members in family.by_size.items()}


def _counts(levels) -> tuple[tuple[int, int], ...]:
    """(size, members present) of each level with some present, by size."""
    counts = [(s, c) for s, level in levels.items() if (c := level.present.bit_count())]
    return tuple(sorted(counts))


def _embeddings(levels, pattern: _Pattern, mode: str, counts, size: int | None = None):
    """Yield every embedding of the poset into the family of the ``levels``
    (size -> ``_Level``), each as the tuple of image masks in element order;
    ``counts`` is ``_counts(levels)``.  Given a ``size``, only the size
    choices in which some element takes it are walked.  A poset with more
    elements than the family has members cannot embed injectively and gets
    no choices; the ``_plan`` and the call state are built at the first
    choice walked, so a question with none builds neither.

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
    if pattern.poset.p > sum([count for _, count in counts]):
        return
    cap, call = pattern.cap, None
    for choice in _size_tuples(pattern, tuple([(s, c if c < cap else cap) for s, c in counts])):
        if size is not None and size not in choice:
            continue
        if call is None:
            if pattern.plan is None:
                pattern.plan = _plan(pattern.poset)
            call = _Call(pattern.plan, mode == "induced")
        call.level = [levels[s] for s in choice]
        yield from _assign(call, 0, [level.present for level in call.level])


class _Call:
    """One call's state.  Only the call's generator frames refer to it and it
    refers to none of them, so reference counting frees it as soon as the
    generator ends or is dropped.  ``level[e]`` is the ``_Level`` of element
    e's size; the rows are the levels' own and outlive the call."""

    __slots__ = ("plan", "induced", "level", "image", "used")

    def __init__(self, plan: _Plan, induced: bool):
        self.plan, self.induced = plan, induced
        self.image, self.used = [0] * len(plan.order), set()


def _row(level: _Level, mask: Mask) -> int:
    """Bitset of the positions in the level strictly above ``mask`` (a
    larger size) or strictly below it (a smaller one); at mask's own size,
    mask's own position, which induced mode excludes.  Rows come from the
    level's bit slices, the members' transpose (for each ground element up
    to the largest one a member holds, the positions of the members holding
    it), visiting only mask's set bits or its gaps: above is the AND of the
    slices of mask's elements, and 0 when mask holds an element no member
    holds (one past the slices); below, or at the same size, it is the
    positions in none of the slices of the elements mask lacks."""
    row = level.rows.get(mask)
    if row is None:
        slices = level.slices
        if slices is None:
            members = level.members
            slices = level.slices = transpose(members, max(members).bit_length())
        row = (1 << len(level.members)) - 1
        if level.size > mask.bit_count():
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
        level.rows[mask] = row
    return row


def _cover(domain: int, level: _Level, target: _Level, k: int) -> int:
    """Bitset of the positions in ``target`` strictly above or below at
    least k members of ``domain`` (a bitset over ``level``).  ``counts[j]``
    holds the positions related to more than j members so far; adding a
    member's row moves each position up one counter, saturating at k (for
    k <= 2, ``once`` and ``twice``).  A row the target already holds is read
    there, without a call.  The answer depends only on the domain, the
    level's size and k, so the target memoizes it under them, emptying a
    memo of COVER_CACHE covers first."""
    key, covers = (domain, level.size, k), target.covers
    cover = covers.get(key)
    if cover is None:
        rows, members, counts, once, twice = target.rows, level.members, [0] * k, 0, 0
        while domain:
            low = domain & -domain
            domain ^= low
            mask = members[low.bit_length() - 1]
            row = rows.get(mask)
            if row is None:
                row = _row(target, mask)
            if k > 2:
                for j in range(k - 1, 0, -1):
                    counts[j] |= counts[j - 1] & row
                counts[0] |= row
            else:
                twice |= once & row
                once |= row
        cover = counts[-1] if k > 2 else twice if k == 2 else once
        if len(covers) >= COVER_CACHE:
            covers.clear()
        covers[key] = cover
    return cover


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
    plan, used = call.plan, call.used
    e = plan.order[pos]
    succs, domain, level = plan.succs[e], domains[e], call.level
    for group in plan.succ_groups[e]:
        f, k = group[0], len(group)
        if k == 1 or all(domains[g] == domains[f] and level[g] is level[f] for g in group):
            group = (f,)
        else:
            k = 1
        for f in group:
            if domains[f].bit_count() < domain.bit_count():
                domain &= _cover(domains[f], level[f], level[e], k)
    twins = plan.twins_left[pos]
    if twins > 1:
        for f in succs:
            domains[f] &= _cover(domain, level[e], level[f], twins)
            if not domains[f]:
                return
    twin = plan.next_twin[pos]
    incomparable = set_bits(plan.later_incomparable[pos]) if call.induced else ()
    rest, members = domain, level[e].members
    while rest:
        low = rest & -rest
        rest ^= low
        mask = members[low.bit_length() - 1]
        if mask in used:
            continue
        out = list(domains)
        if twin >= 0:
            if not rest:
                return
            out[twin] = rest
        for f in succs:
            out[f] &= level[f].rows.get(mask) or _row(level[f], mask)
            if not out[f]:
                break
        else:
            for f in incomparable:
                out[f] &= ~(level[f].rows.get(mask) or _row(level[f], mask))
                if not out[f]:
                    break
            else:
                used.add(mask)
                call.image[e] = mask
                yield from _assign(call, pos + 1, out)
                used.discard(mask)


def _size_gen(pattern: _Pattern, counts, chosen: tuple[int, ...]):
    """Every choice of one set size per color, in lexicographic order and
    given as the size of each element: color c takes a size with at least
    class_size[c] members, above the sizes of the colors it must exceed."""
    c = len(chosen) + 1
    if c == len(pattern.class_size):
        yield tuple(chosen[color - 1] for color in pattern.poset.colors)
        return
    mine = pattern.of_color[c]
    floor = max((s for s, up in zip(chosen, pattern.above[1:]) if up & mine), default=-1)
    for s, count in counts:
        if s > floor and count >= pattern.class_size[c]:
            yield from _size_gen(pattern, counts, (*chosen, s))


def _size_tuples(pattern: _Pattern, counts):
    """``_size_gen``'s choices for the level counts, capped at the largest
    class size (the choice depends on nothing else), memoized on the pattern
    under them so the search's many small calls do not redo them.  Past
    SIZE_TUPLE_CACHE choices, which many unrelated colors can reach, the memo
    holds None and each call draws them lazily."""
    sizes = pattern.sizes.get(counts)
    if sizes is None and counts not in pattern.sizes:
        sizes = tuple(islice(_size_gen(pattern, counts, ()), SIZE_TUPLE_CACHE + 1))
        pattern.sizes[counts] = sizes = sizes if len(sizes) <= SIZE_TUPLE_CACHE else None
    return _size_gen(pattern, counts, ()) if sizes is None else sizes


def _search(levels, pattern: _Pattern, mode: str, counts, size: int | None = None):
    """The first embedding's image masks, or None: ``_embeddings``' first item."""
    return next(_embeddings(levels, pattern, mode, counts, size), None)


def _hits_with_member(levels, patterns, mode: str, new: Mask | None = None) -> bool:
    """True iff some config embeds into the family of the levels, whose
    present sets are counted once for all the patterns.  Given the ``new``
    set, the family without it must be avoiding, or the answer may be wrong:
    then every embedding uses ``new``, so only the size choices that give
    some element its size are walked.  That is the incremental check."""
    counts = _counts(levels)
    size = None if new is None else new.bit_count()
    return any(_search(levels, pattern, mode, counts, size) is not None for pattern in patterns)


def find_embedding(family, poset: ColoredPoset, mode: str = "standard") -> tuple[int, ...] | None:
    """First embedding of the poset into the family as its assignment (poset
    element -> index into family.members), or None.  The witness is
    re-verified against all invariants before return."""
    _check_mode(mode)
    require_valid(poset)
    return _witness(family, _Pattern(poset), mode, _levels(family))


def _witness(family, pattern: _Pattern, mode: str, levels) -> tuple[int, ...] | None:
    """``find_embedding`` over the question's levels."""
    hit = _search(levels, pattern, mode, _counts(levels))
    if hit is None:
        return None
    assignment = tuple(map(family.members.index, hit))
    if not verify_embedding(family, pattern.poset, mode, assignment):
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
    require_valid(poset)
    pattern, levels = _Pattern(poset), _levels(family)
    count = sum(1 for _ in _embeddings(levels, pattern, mode, _counts(levels)))
    return count and count * pattern.plan.twin_factor  # no plan may exist for 0


def is_avoiding(family, configs: ConfigSet, mode: str = "standard") -> bool:
    """True iff no member poset of the ConfigSet embeds into the family."""
    _check_mode(mode)
    return not _hits_with_member(_levels(family), map(_Pattern, configs), mode)


def find_violation(family, configs: ConfigSet, mode: str = "standard"):
    """(poset index, assignment) for the first embeddable member, or None;
    the assignment is as ``find_embedding`` returns it."""
    _check_mode(mode)
    levels = _levels(family)
    for i, poset in enumerate(configs):
        assignment = _witness(family, _Pattern(poset), mode, levels)
        if assignment is not None:
            return i, assignment
    return None

