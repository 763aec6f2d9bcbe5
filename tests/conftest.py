"""Shared oracles and fixtures: the brute-force embedding check (independent
of the detector's backtracking), the roster of named configurations and a
strategy for random colored posets."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import strategies as st

from forbidposet import ColoredPoset, ConfigSet, Family, build_named


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
