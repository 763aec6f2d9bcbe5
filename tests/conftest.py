"""Shared oracles and fixtures: reference implementations that share no code
with what they check (the brute-force embedding check, the member-by-member
comparability row, the definitional q(k) sum, the chain-by-chain
closest-size ownership and the p^p coloring walk),
the roster of named configurations and a strategy for random colored
posets."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from forbidposet import ColoredPoset, ConfigSet, Family, build_named

ALPHA_ENUM_GUARD = 8  # 8! = 40,320 chains, about 0.1 s a family


def named_roster() -> list[tuple[str, ConfigSet]]:
    """Every named builder at small parameters (posets of <= 6 elements)."""
    return [
        ("kt_pair", build_named("kt_pair")),
        ("fork(2)", build_named("fork", 2)),
        ("fork(3)", build_named("fork", 3)),
        ("baton(3,1,1)", build_named("baton", 3, 1, 1)),
        ("baton(3,2,1)", build_named("baton", 3, 2, 1)),
        ("baton(4,2,2)", build_named("baton", 4, 2, 2)),
        ("butterfly_pair", build_named("butterfly_pair")),
        ("j_config", build_named("j_config")),
        ("diamond(2)", build_named("diamond", 2)),
        ("diamond(3)", build_named("diamond", 3)),
        ("diamond(4)", build_named("diamond", 4)),
        ("chain(1)", build_named("chain", 1)),
        ("chain(2)", build_named("chain", 2)),
        ("chain(3)", build_named("chain", 3)),
        ("chain(4)", build_named("chain", 4)),
    ]


@pytest.fixture(scope="session")
def roster():
    return named_roster()


def combo_satisfies(masks, poset: ColoredPoset, mode: str, combo) -> bool:
    p = poset.p
    for a in range(p):
        ma = masks[combo[a]]
        for b in range(p):
            if a == b:
                continue
            mb = masks[combo[b]]
            if poset.colors[a] == poset.colors[b] and ma.bit_count() != mb.bit_count():
                return False
            related = poset.less(a, b)
            contained = ma != mb and (ma & mb) == ma
            if related and not contained:
                return False
            if mode == "induced" and contained and not related:
                return False
    return True


def brute_embedding_exists(family: Family, poset: ColoredPoset, mode: str = "standard") -> bool:
    """Naive enumeration of every injective assignment."""
    masks = family.members
    if len(masks) < poset.p:
        return False
    return any(
        combo_satisfies(masks, poset, mode, combo)
        for combo in itertools.permutations(range(len(masks)), poset.p)
    )


def brute_count_embeddings(family: Family, poset: ColoredPoset, mode: str = "standard") -> int:
    masks = family.members
    if len(masks) < poset.p:
        return 0
    return sum(
        1
        for combo in itertools.permutations(range(len(masks)), poset.p)
        if combo_satisfies(masks, poset, mode, combo)
    )


def brute_avoiding(family: Family, configs: ConfigSet, mode: str = "standard") -> bool:
    return all(not brute_embedding_exists(family, poset, mode) for poset in configs)


def scanned_row(level, mask: int, size: int) -> int:
    """The positions of the level's members strictly above mask (a larger
    size), strictly below it (a smaller one) or equal to it (the same size),
    by testing each member: between different sizes containment is strict."""
    row = 0
    for j, member in enumerate(level):
        if size > mask.bit_count():
            hit = member & mask == mask
        elif size < mask.bit_count():
            hit = member & mask == member
        else:
            hit = member == mask
        row |= hit << j
    return row


def powerset_family(n: int) -> Family:
    """All 2^n subsets of [n] (n capped at 20 to keep this a desk-scale helper)."""
    if n > 20:
        raise ValueError("powerset_family is limited to n <= 20")
    return Family(n, range(1 << n))


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


def alpha_counts_by_enumeration(family: Family) -> tuple[dict[int, int], int]:
    """Oracle for alpha_audit: walk all n! chains and hand each one to its
    member whose size is nearest m + 1/3.  Returns (counts, unassigned)."""
    n = family.n
    if n > ALPHA_ENUM_GUARD:
        raise ValueError(f"enumeration cross-check is limited to n <= {ALPHA_ENUM_GUARD}")
    target = n // 2 + Fraction(1, 3)
    members = family.member_set
    counts = {f: 0 for f in family.members}
    unassigned = 0
    for perm in itertools.permutations(range(n)):
        chain = [0]
        for e in perm:
            chain.append(chain[-1] | 1 << e)
        on_chain = [x for x in chain if x in members]
        if on_chain:
            counts[min(on_chain, key=lambda x: abs(x.bit_count() - target))] += 1
        else:
            unassigned += 1
    return counts, unassigned


def order_preserving_colorings(rows, p: int):
    """All order-preserving surjective colorings of a p-element strict poset,
    as tuples normalized to colors 1..k: every map to 1..p, remapped and
    deduplicated."""
    colorings = []
    colors = [0] * p

    def go(e: int) -> None:
        if e == p:
            used = sorted(set(colors))
            remap = {c: i + 1 for i, c in enumerate(used)}
            colorings.append(tuple(remap[c] for c in colors))
            return
        for c in range(1, p + 1):
            if all(
                (colors[f] < c if rows[f] >> e & 1 else True)
                and (c < colors[f] if rows[e] >> f & 1 else True)
                for f in range(e)
            ):
                colors[e] = c
                go(e + 1)
        colors[e] = 0

    go(0)
    return sorted(set(colorings))


def random_family(rng: random.Random, n: int, max_size: int | None = None) -> Family:
    """Uniformly chosen members without replacement, random count."""
    universe = 1 << n
    cap = universe if max_size is None else min(max_size, universe)
    count = rng.randint(0, cap)
    return Family(n, rng.sample(range(universe), count))


def all_families(n: int):
    """Every family over [n] (use only for n <= 3)."""
    universe = 1 << n
    for bits in range(1 << universe):
        yield Family(n, [m for m in range(universe) if bits >> m & 1])


@st.composite
def colored_posets(draw, max_p=4):
    """A valid colored poset: colors a nondecreasing cover of 1..k, relations
    drawn among pairs of strictly increasing color and closed transitively."""
    p = draw(st.integers(1, max_p))
    k = draw(st.integers(1, p))
    cuts = draw(st.permutations(range(1, p)))[: k - 1]
    colors = [1 + sum(e >= c for c in cuts) for e in range(p)]
    pairs = [(a, b) for a in range(p) for b in range(p) if colors[a] < colors[b]]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return ColoredPoset.build(p, chosen, colors)
