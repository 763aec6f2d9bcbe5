import gc
import hashlib
import inspect
import random
import time
import weakref
from dataclasses import replace
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from forbidposet import (
    ColoredPoset,
    ConfigSet,
    Family,
    SearchProblem,
    build_named,
    complement_family,
    count_embeddings,
    exact_max_family,
    find_embedding,
    find_violation,
    greedy_lower_bound,
    is_avoiding,
    kt_construction,
    load_config,
    middle_levels,
    verify_embedding,
)
from forbidposet import detector, search
from forbidposet.detector import _levels, _Pattern, _plan, _size_tuples

from conftest import (
    brute_avoiding,
    brute_count_embeddings,
    brute_embedding_exists,
    colored_posets,
    named_roster,
    powerset_family,
    random_family,
    scanned_row,
)

KT = build_named("kt_pair")
KT_UP = KT.configs[0]
J = build_named("j_config")
D4 = build_named("diamond", 4)


def two_middle_levels_of_4() -> Family:
    return Family(4, [m for m in range(16) if m.bit_count() in (2, 3)])


def large_level_violations() -> list:
    """First violations of every roster config in both modes on full and
    seeded 60% middle levels, where the candidate domains are large enough
    for pruning on successor support to fire."""
    rng = random.Random(1608)
    roster = named_roster()
    results = []
    for n, r in ((7, 2), (8, 3), (9, 2), (10, 4)):
        full = middle_levels(n, r)
        sub = Family(n, rng.sample(full.members, round(0.6 * len(full))))
        for fam in (full, sub):
            for _label, cfg in roster:
                for mode in ("standard", "induced"):
                    results.append(find_violation(fam, cfg, mode))
    return results


# pinned before the detector's bitset domains
LARGE_LEVELS_DIGEST = "c6d5676193c613b06478ec6e49b348a5db98d676d28993081b049fb1b63ee678"


class TestFindEmbedding:
    def test_kt_up_in_small_family(self):
        fam = Family.from_sets(2, [[], [1], [2]])
        emb = find_embedding(fam, KT_UP)
        assert emb is not None
        masks = [fam.members[i] for i in emb]
        assert masks[0] == 0 and {masks[1], masks[2]} == {0b01, 0b10}
        assert verify_embedding(fam, KT_UP, "standard", emb)

    def test_two_middle_levels_have_no_j(self):
        fam = two_middle_levels_of_4()
        assert find_embedding(fam, J.configs[0]) is None
        assert not brute_embedding_exists(fam, J.configs[0])

    def test_antichain_has_no_induced_chain(self):
        fam = Family.from_sets(2, [[1], [2]])
        (chain2,) = build_named("chain", 2).configs
        assert find_embedding(fam, chain2, mode="induced") is None

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            find_embedding(Family(2, []), KT_UP, mode="weird")

    def test_failed_reverification_raises(self, monkeypatch):
        # an explicit raise, so running under python -O keeps the check
        monkeypatch.setattr("forbidposet.detector.verify_embedding", lambda *args: False)
        with pytest.raises(RuntimeError, match="invalid witness"):
            find_embedding(Family.from_sets(2, [[], [1], [2]]), KT_UP)


class TestTwinPlan:
    """Twins (same color, predecessors and successors) in the assignment
    order, each position naming its next later twin or -1."""

    def test_roster_twin_chains(self):
        (fork3,) = build_named("fork", 3).configs
        kt_up, kt_down = KT.configs
        bottoms, tops = build_named("butterfly_pair").configs
        expected = [
            (D4.configs[0], (-1, 2, 3, 4, -1, -1), 24),
            (fork3, (-1, 2, 3, -1), 6),
            (kt_up, (-1, 2, -1), 2),
            (kt_down, (1, -1, -1), 2),
            (bottoms, (1, -1, -1, -1), 2),
            (tops, (-1, -1, 3, -1), 2),
            (J.configs[0], (-1, -1, -1, -1), 1),
        ]
        for poset, next_twin, factor in expected:
            plan = _plan(poset)
            assert plan.order == tuple(range(poset.p)), poset.name
            assert plan.next_twin == next_twin, poset.name
            assert plan.twin_factor == factor, poset.name

    def test_successor_groups_and_twins_left(self):
        bottoms, tops = build_named("butterfly_pair").configs
        (d4,) = D4.configs
        groups = (((1, 2, 3, 4), (5,)), ((5,),), ((5,),), ((5,),), ((5,),), ())
        assert _plan(d4).succ_groups == groups
        assert _plan(d4).twins_left == (1, 4, 3, 2, 1, 1)
        # two tops of two singleton colors over one predecessor set form a group
        for poset in (bottoms, tops):
            assert _plan(poset).succ_groups == (((2, 3),), ((2, 3),), (), ()), poset.name
        assert _plan(bottoms).twins_left == (2, 1, 1, 1)
        assert _plan(tops).twins_left == (1, 1, 2, 1)
        # j_config's B and C share a predecessor but not a group with D
        assert _plan(J.configs[0]).succ_groups == (((1, 2), (3,)), ((3,),), (), ())

    def test_plan_of_a_large_fork_is_fast(self):
        # a plan quadratic in Python steps takes seconds at this size; each
        # top's later incomparable elements are the later tops, one bitset
        (fork,) = build_named("fork", 4095).configs
        start = time.perf_counter()
        plan = _plan(fork)
        assert time.perf_counter() - start < 1.5
        assert plan.succs[0] == tuple(range(1, 4096))
        assert plan.later_incomparable[0] == 0
        assert plan.later_incomparable[1] == (1 << 4096) - 4
        assert plan.later_incomparable[-1] == 0
        assert plan.twins_left[1] == 4095

    def test_chains_have_no_twins(self):
        for r in range(1, 8):
            (chain,) = build_named("chain", r).configs
            assert _plan(chain).next_twin == (-1,) * r
            assert _plan(chain).twin_factor == 1


class TestFirstViolationPinned:
    """The first embedding in backtracking order, pinned from before twin
    symmetry breaking: ``check`` prints it, so it must not move."""

    def test_explicit_assignments(self):
        fork3 = build_named("fork", 3)
        butterfly = build_named("butterfly_pair")
        # middle_levels(6, 4) avoids diamond(4); five levels do not
        assert find_violation(middle_levels(6, 4), D4) is None
        assert find_violation(middle_levels(6, 5), D4) == (0, (0, 6, 7, 8, 9, 56))
        assert find_violation(middle_levels(5, 2), fork3) == (0, (0, 10, 11, 12))
        assert find_violation(middle_levels(6, 3), butterfly, "induced") == (0, (0, 1, 35, 36))

    def test_random_families_digest(self):
        rng = random.Random(2016)
        roster = named_roster()
        results = []
        for _ in range(300):
            fam = random_family(rng, rng.randint(3, 6))
            for _label, cfg in roster:
                for mode in ("standard", "induced"):
                    results.append(find_violation(fam, cfg, mode))
        assert sum(r is None for r in results) == 3299
        digest = hashlib.sha256(repr(results).encode()).hexdigest()
        assert digest == "c19f25d4ad3d6e9df5aedd4ed00394d2834a82a30cfa163a7478446ab5d73f72"

    def test_large_levels_digest(self):
        results = large_level_violations()
        assert len(results) == 240
        assert sum(r is None for r in results) == 100
        digest = hashlib.sha256(repr(results).encode()).hexdigest()
        assert digest == LARGE_LEVELS_DIGEST


# Questions over kt_pair; each builds a plan and size choices for at least
# one of its posets.
QUESTIONS = {
    "is_avoiding": lambda cfg: is_avoiding(kt_construction(5), cfg),
    "find_violation": lambda cfg: find_violation(powerset_family(3), cfg, "induced"),
    "find_embedding": lambda cfg: find_embedding(powerset_family(3), cfg.configs[1]),
    "count_embeddings": lambda cfg: count_embeddings(powerset_family(3), cfg.configs[0]),
    "exact_max_family": lambda cfg: exact_max_family(SearchProblem(n=4, configs=cfg)),
    "greedy_lower_bound": lambda cfg: greedy_lower_bound(SearchProblem(n=4, configs=cfg)),
}


class TestCallState:
    @pytest.mark.parametrize("question", sorted(QUESTIONS))
    def test_a_question_leaves_nothing_behind(self, question):
        # nothing process-wide keeps a question's posets, or their plans and
        # size choices: once it returns and its locals go, they are garbage.
        # The names make the posets equal to none an earlier test asked about.
        configs = ConfigSet(tuple(replace(poset, name=f"{question}:{poset.name}") for poset in KT))
        refs = [weakref.ref(poset) for poset in configs]
        QUESTIONS[question](configs)
        del configs
        gc.collect()
        assert [ref() for ref in refs] == [None, None]

    def test_a_search_builds_one_pattern_per_poset(self, monkeypatch):
        built = []

        def counting(poset):
            built.append(poset.name)
            return _Pattern(poset)

        monkeypatch.setattr(search, "_Pattern", counting)
        assert exact_max_family(SearchProblem(n=4, configs=KT)).best_size == 6
        assert built == ["kt_pair_up", "kt_pair_down"]

    def test_calls_leave_no_cyclic_garbage(self):
        # a call's state is freed by reference counting alone, whether its
        # generator runs to the end, is dropped after its first item or is
        # counted out
        butterfly = build_named("butterfly_pair")
        avoiding, violating = middle_levels(8, 2), middle_levels(6, 3)
        gc.collect()
        gc.disable()
        try:
            assert is_avoiding(avoiding, butterfly)
            assert gc.collect() == 0
            assert find_violation(violating, butterfly) is not None
            assert gc.collect() == 0
            assert find_violation(violating, D4, "induced") is None
            assert gc.collect() == 0
            assert count_embeddings(violating, KT_UP) == 750
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_many_unrelated_colors_draw_sizes_lazily(self):
        # six incomparable elements of six colors over five levels have 5^6
        # size choices, past the cache; the first embedding needs few of them
        poset = ColoredPoset.build(6, [], [1, 2, 3, 4, 5, 6])
        fam = powerset_family(4)
        pattern = _Pattern(poset)
        counts = tuple((s, 1) for s in range(5))
        assert inspect.isgenerator(_size_tuples(pattern, counts))
        assert pattern.sizes == {counts: None}
        for mode in ("standard", "induced"):
            emb = find_embedding(fam, poset, mode)
            assert emb is not None and verify_embedding(fam, poset, mode, emb)

    def test_lazy_sizes_keep_the_first_violations(self, monkeypatch):
        # with every size list drawn lazily, the pinned first violations stay
        monkeypatch.setattr(detector, "SIZE_TUPLE_CACHE", 0)
        results = large_level_violations()
        assert hashlib.sha256(repr(results).encode()).hexdigest() == LARGE_LEVELS_DIGEST


class TestIsAvoiding:
    def test_kt_construction_avoids_kt(self):
        for n in range(2, 15):
            assert is_avoiding(kt_construction(n), KT), n

    def test_powerset3_avoids_diamond4(self):
        assert is_avoiding(powerset_family(3), D4)

    def test_powerset2_contains_j(self):
        assert not is_avoiding(powerset_family(2), J)

    def test_empty_family_avoids_everything(self):
        empty = Family(3, [])
        for label, cfg in named_roster():
            assert is_avoiding(empty, cfg), label

    def test_poset_larger_than_family_builds_no_plan(self, monkeypatch):
        def no_plan(poset):
            raise AssertionError("no plan is needed when the poset cannot fit")

        monkeypatch.setattr("forbidposet.detector._plan", no_plan)
        fam = Family(4, [0b0001, 0b0011, 0b0111])
        assert is_avoiding(fam, D4)
        assert is_avoiding(fam, D4, mode="induced")

    def test_long_chain_in_small_family(self):
        # chain(1000) has 499,500 comparable pairs and cannot fit in 12 sets
        assert find_violation(kt_construction(5), build_named("chain", 1000)) is None


class TestCountEmbeddings:
    def test_swap_gives_two(self):
        fam = Family.from_sets(2, [[], [1], [2]])
        assert count_embeddings(fam, KT_UP) == 2

    def test_empty_family(self):
        assert count_embeddings(Family(3, []), KT_UP) == 0

    def test_same_color_non_twins_not_sorted(self):
        # j_config's B and C share a color but only B lies below D, so they
        # are not twins and swapping them gives no second embedding
        fam = Family.from_sets(3, [[], [1], [2], [1, 3]])
        for mode in ("standard", "induced"):
            assert count_embeddings(fam, J.configs[0], mode) == 1
            assert brute_count_embeddings(fam, J.configs[0], mode) == 1

    def test_single_chain_unique(self):
        for r in range(1, 5):
            fam = Family(4, [(1 << i) - 1 for i in range(1, r + 1)])
            (chain,) = build_named("chain", r).configs
            assert count_embeddings(fam, chain) == 1

    def test_guards(self):
        big = powerset_family(13)
        with pytest.raises(ValueError):
            count_embeddings(big, KT_UP)

    def test_middle_levels_pinned(self):
        # levels 2..4 of [6], pinned before the bitset domains
        fam = middle_levels(6, 3)
        counts = [
            count_embeddings(fam, poset, mode)
            for _label, cfg in named_roster()
            for poset in cfg
            if poset.p <= 5
            for mode in ("standard", "induced")
        ]
        assert counts == [
            750, 750, 750, 750, 750, 750, 2280, 2280, 180, 180, 360, 360, 1440, 720, 1440,
            720, 540, 360, 180, 180, 0, 0, 50, 50, 210, 210, 180, 180, 0, 0,
        ]

    def test_matches_brute_force_randomized(self):
        rng = random.Random(99)
        roster = [item for item in named_roster() if max(c.p for c in item[1]) <= 4]
        for _ in range(60):
            fam = random_family(rng, 3, max_size=6)
            label, cfg = roster[rng.randrange(len(roster))]
            for poset in cfg:
                for mode in ("standard", "induced"):
                    assert count_embeddings(fam, poset, mode) == brute_count_embeddings(
                        fam, poset, mode
                    ), (label, mode, fam.sets())


# Directly constructed posets are not validated; each breaks one invariant.
INVALID_POSETS = {
    "self-loop": ColoredPoset(1, (0b1,), (1,)),
    "cycle": ColoredPoset(2, (0b10, 0b01), (1, 2)),
    "color 0": ColoredPoset(1, (0,), (0,)),
    "unclosed": ColoredPoset(3, (0b010, 0b100, 0), (1, 2, 3)),
    "not order-preserving": ColoredPoset(2, (0b10, 0), (2, 1)),
    "unused color": ColoredPoset(1, (0,), (2,)),
}
BARE_POSET_ENTRY_POINTS = {
    "find_embedding": find_embedding,
    "count_embeddings": count_embeddings,
    "verify_embedding": lambda fam, poset: verify_embedding(
        fam, poset, "standard", tuple(range(poset.p))
    ),
}


@pytest.mark.parametrize("entry", sorted(BARE_POSET_ENTRY_POINTS))
@pytest.mark.parametrize("invalid", sorted(INVALID_POSETS))
def test_bare_poset_entry_points_reject_invalid_posets(entry, invalid):
    # these take a bare poset, which no ConfigSet has validated; the
    # detector's walk assumes a valid one
    with pytest.raises(ValueError, match=r"invalid colored poset \("):
        BARE_POSET_ENTRY_POINTS[entry](Family(3, [1, 3, 7, 2]), INVALID_POSETS[invalid])


class TestCountAwareSupport:
    """A class of k interchangeable elements needs k candidates related to
    its common neighbours; instances with exactly k, and with one fewer."""

    def test_diamond3_needs_three_middles_under_the_top(self):
        (d3,) = build_named("diamond", 3).configs
        fams = [
            (Family.from_sets(3, [[], [1], [2], [3], [1, 2, 3]]), 6),
            (Family.from_sets(3, [[], [1], [2], [1, 2, 3]]), 0),
            # a fourth singleton keeps three candidates in the middle level,
            # but only two of them lie below the top
            (Family.from_sets(4, [[], [1], [2], [3], [4], [1, 2, 3]]), 6),
            (Family.from_sets(4, [[], [1], [2], [4], [1, 2, 3]]), 0),
        ]
        for fam, count in fams:
            for mode in MODES:
                assert count_embeddings(fam, d3, mode) == count, (fam.sets(), mode)
                assert brute_count_embeddings(fam, d3, mode) == count
                assert (find_embedding(fam, d3, mode) is None) == (count == 0)

    def test_butterfly_needs_two_common_supersets(self):
        butterfly = build_named("butterfly_pair")
        # {1} and {2} lie below exactly {1,2,3} and {1,2,4} at level 3;
        # {1,3,4} lies above {1} only
        both = Family.from_sets(4, [[1], [2], [1, 2, 3], [1, 2, 4], [1, 3, 4]])
        one = Family.from_sets(4, [[1], [2], [1, 2, 3], [1, 3, 4]])
        for mode in MODES:
            for poset in butterfly:
                assert count_embeddings(both, poset, mode) == 4
                assert brute_count_embeddings(both, poset, mode) == 4
                assert find_embedding(one, poset, mode) is None
                assert not brute_embedding_exists(one, poset, mode)

    def test_group_of_two_sizes_counts_each_member(self):
        # the two tops of butterfly_equal_bottoms take sizes 2 and 3, two
        # levels of two members each, so their domains are equal bitsets
        # over different levels; each top must count alone
        bottoms, _tops = build_named("butterfly_pair").configs
        fam = Family.from_sets(4, [[1], [2], [3], [4], [1, 2], [3, 4], [1, 2, 3], [2, 3, 4]])
        for mode in MODES:
            count = brute_count_embeddings(fam, bottoms, mode)
            assert count > 0
            assert count_embeddings(fam, bottoms, mode) == count

    @pytest.fixture
    def assign_calls(self, monkeypatch):
        """A one-item list counting the calls to ``detector._assign``."""
        calls = [0]
        assign = detector._assign

        def counted(*args):
            calls[0] += 1
            return assign(*args)

        monkeypatch.setattr(detector, "_assign", counted)
        return calls

    @pytest.mark.parametrize(
        "family, config, bound",
        [(middle_levels(12, 2), "butterfly_pair", 2000), (middle_levels(10, 4), "diamond(4)", 1000)],
        ids=["butterfly_pair_mid12_2", "diamond4_mid10_4"],
    )
    def test_assign_calls_bounded(self, assign_calls, family, config, bound):
        # counting support ends these avoiding checks within a few thousand
        # generator calls; support from one member at a time takes 57,025
        # and 23,884
        for mode in MODES:
            assign_calls[0] = 0
            assert is_avoiding(family, load_config(config), mode)
            assert assign_calls[0] <= bound, mode

    def test_twin_tail_counts_the_pruned_domain(self, assign_calls):
        # the two bottoms' domain, once pruned to the singletons below both
        # tops' candidates, is {1} and {2}; no candidate of either top lies
        # above both, so each of the five size choices ends at the root
        bottoms, _tops = build_named("butterfly_pair").configs
        fam = Family.from_sets(7, [[1], [2], [5], [6], [7], [1, 5], [2, 6], [1, 2, 7]])
        for mode in MODES:
            assign_calls[0] = 0
            assert find_embedding(fam, bottoms, mode) is None
            assert assign_calls[0] == 5, mode
        assert not brute_embedding_exists(fam, bottoms)


class TestSoundnessAndMonotonicity:
    def test_witnesses_verify(self):
        rng = random.Random(5)
        roster = named_roster()
        for _ in range(200):
            fam = random_family(rng, rng.randint(2, 5), max_size=12)
            label, cfg = roster[rng.randrange(len(roster))]
            for poset in cfg:
                for mode in ("standard", "induced"):
                    emb = find_embedding(fam, poset, mode)
                    if emb is not None:
                        assert verify_embedding(fam, poset, mode, emb), label

    def test_monotone_in_standard_mode(self):
        rng = random.Random(6)
        roster = named_roster()
        for _ in range(150):
            n = rng.randint(2, 5)
            fam = random_family(rng, n, max_size=10)
            label, cfg = roster[rng.randrange(len(roster))]
            extra = random_family(rng, n, max_size=6)
            superfam = Family(n, fam.members + extra.members)
            for poset in cfg:
                if find_embedding(fam, poset) is not None:
                    assert find_embedding(superfam, poset) is not None, label


class TestComplementDuality:
    def test_randomized(self):
        rng = random.Random(7)
        roster = named_roster()
        for _ in range(150):
            n = rng.randint(2, 5)
            fam = random_family(rng, n, max_size=12)
            comp = Family(n, [fam.full_mask ^ m for m in fam.members])
            label, cfg = roster[rng.randrange(len(roster))]
            assert is_avoiding(fam, cfg) == is_avoiding(comp, cfg.dual()), label


class TestOracleEquivalenceSmall:
    def test_all_families_over_2(self):
        roster = named_roster()
        for bits in range(1 << 4):
            fam = Family(2, [m for m in range(4) if bits >> m & 1])
            for label, cfg in roster:
                for mode in ("standard", "induced"):
                    for poset in cfg:
                        assert (find_embedding(fam, poset, mode) is not None) == (
                            brute_embedding_exists(fam, poset, mode)
                        ), (label, mode, fam.sets())

    def test_sampled_families_over_3(self):
        # the full 256-family scan in both modes is acceptance criterion 7;
        # keep a fast sampled version in the unit suite
        rng = random.Random(11)
        roster = named_roster()
        for _ in range(40):
            fam = random_family(rng, 3)
            for label, cfg in roster:
                assert is_avoiding(fam, cfg) == brute_avoiding(fam, cfg), (label, fam.sets())


@st.composite
def small_families(draw, max_n=3):
    n = draw(st.integers(1, max_n))
    return Family(n, draw(st.lists(st.integers(0, (1 << n) - 1), unique=True)))


@st.composite
def level_heavy_families(draw, max_size=6):
    """At most ``max_size`` members over [n], n in {3, 4}, a random share of
    them from the middle level: uniform random families this small seldom
    hold the 4 or 5 equal-size sets a large twin class needs."""
    n = draw(st.integers(3, 4))
    level = draw(st.permutations([m for m in range(1 << n) if m.bit_count() == n // 2]))
    members = level[: draw(st.integers(0, len(level)))]
    members += draw(st.lists(st.integers(0, (1 << n) - 1), max_size=max_size))
    return Family(n, list(dict.fromkeys(members))[:max_size])


ORACLE = settings(derandomize=True, max_examples=300, deadline=None, database=None)
MODES = ("standard", "induced")


@st.composite
def twin_heavy_posets(draw):
    """Either a class of 2-5 twins, with or without a common bottom below
    and a common top above them, or one to three bottoms below two tops of
    two singleton colors; element labels shuffled."""
    if draw(st.booleans()):
        t = draw(st.integers(2, 5))
        bottom, top = draw(st.booleans()), draw(st.booleans())
        mids = list(range(bottom, bottom + t))
        colors = [1] * bottom + [1 + bottom] * t + [2 + bottom] * top
        pairs = [(0, m) for m in mids] if bottom else []
        pairs += [(m, t + bottom) for m in mids] if top else []
    else:
        b = draw(st.integers(1, 3))
        bottom_colors = [1] * b if draw(st.booleans()) else list(range(1, b + 1))
        k = bottom_colors[-1]
        colors = bottom_colors + [k + 1, k + 2]
        pairs = [(a, c) for a in range(b) for c in (b, b + 1)]
    p = len(colors)
    label = draw(st.permutations(range(p)))
    shuffled = [0] * p
    for e, c in enumerate(colors):
        shuffled[label[e]] = c
    return ColoredPoset.build(p, [(label[a], label[b]) for a, b in pairs], shuffled)


class TestRandomPosetOracle:
    """The detector against brute force on random posets, not only the
    named roster."""

    @ORACLE
    @given(small_families(), colored_posets())
    def test_count_matches_brute_force(self, fam, poset):
        ConfigSet((poset,))  # the generator only builds valid posets
        for mode in MODES:
            assert count_embeddings(fam, poset, mode) == brute_count_embeddings(fam, poset, mode)

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(level_heavy_families(), colored_posets(max_p=5))
    def test_count_matches_brute_force_five_elements(self, fam, poset):
        # twin classes of 3 to 5 elements: the k! factor against brute force
        for mode in MODES:
            assert count_embeddings(fam, poset, mode) == brute_count_embeddings(fam, poset, mode)

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(level_heavy_families(), twin_heavy_posets())
    def test_twin_heavy_posets_match_brute_force(self, fam, poset):
        # classes of k twins or singleton-color tops: the counting support
        # may drop only candidates no embedding uses
        ConfigSet((poset,))  # the generator only builds valid posets
        for mode in MODES:
            assert count_embeddings(fam, poset, mode) == brute_count_embeddings(fam, poset, mode)
            found = find_embedding(fam, poset, mode) is not None
            assert found == brute_embedding_exists(fam, poset, mode)

    @ORACLE
    @given(small_families(), st.lists(colored_posets(), min_size=1, max_size=2))
    def test_complement_duality(self, fam, posets):
        cfg = ConfigSet(tuple(posets))
        for mode in MODES:
            assert is_avoiding(fam, cfg, mode) == is_avoiding(
                complement_family(fam), cfg.dual(), mode
            )


@st.composite
def avoiding_plus_new(draw):
    """A ConfigSet of one or two random posets, a mode, an avoiding family F
    over [n], n <= 4, and a set d not in F.  F keeps each of up to seven
    drawn sets that brute force says it can take, so d is sometimes a set
    F turned away."""
    n = draw(st.integers(1, 4))
    cfg = ConfigSet(tuple(draw(st.lists(colored_posets(), min_size=1, max_size=2))))
    mode = draw(st.sampled_from(MODES))
    members = []
    for mask in draw(st.permutations(range(1 << n)))[: draw(st.integers(0, 7))]:
        if brute_avoiding(Family(n, members + [mask]), cfg, mode):
            members.append(mask)
    new = draw(st.sampled_from([m for m in range(1 << n) if m not in members] or [None]))
    return n, cfg, mode, members, new


class TestIncrementalQuestion:
    """Told which set is new, the detector walks only the size choices that
    give some element its size; on an avoiding family plus that set, the
    answer is still brute force's."""

    @ORACLE
    @given(avoiding_plus_new())
    def test_matches_brute_force(self, case):
        n, cfg, mode, members, new = case
        assume(new is not None)  # F took every set
        fam = Family(n, members + [new])
        patterns = tuple(map(_Pattern, cfg))
        hit = detector._hits_with_member(_levels(fam), patterns, mode, new)
        assert hit == (not brute_avoiding(fam, cfg, mode))

    @ORACLE
    @given(avoiding_plus_new())
    def test_matches_brute_force_on_lazy_sizes(self, case):
        # no size list is memoized, so the new set's size filters choices
        # as _size_gen draws them
        n, cfg, mode, members, new = case
        assume(new is not None)
        fam = Family(n, members + [new])
        patterns = tuple(map(_Pattern, cfg))
        with patch.object(detector, "SIZE_TUPLE_CACHE", 0):
            hit = detector._hits_with_member(_levels(fam), patterns, mode, new)
        assert all(sizes in (None, ()) for p in patterns for sizes in p.sizes.values())
        assert hit == (not brute_avoiding(fam, cfg, mode))


@st.composite
def level_and_masks(draw):
    """One size level of a family over [n] (any share of the sets of one
    size) and masks over [n + 1]
    to ask rows of: any size, so strictly above, strictly below and same
    size all occur, and element n, which no member holds, among them."""
    n = draw(st.integers(1, 8))
    size = draw(st.integers(0, n))
    everyone = [m for m in range(1 << n) if m.bit_count() == size]
    keep = draw(st.lists(st.booleans(), min_size=len(everyone), max_size=len(everyone)))
    level = [m for m, kept in zip(draw(st.permutations(everyone)), keep) if kept] or everyone[:1]
    masks = draw(st.lists(st.integers(0, (1 << (n + 1)) - 1), min_size=1, max_size=6))
    return size, level, masks


class TestRowCache:
    @ORACLE
    @given(level_and_masks())
    @example((2, [0b011, 0b101], [0]))  # the empty mask below a level
    @example((1, [0b01, 0b10], [0b100, 0b101, 0]))  # an element no member holds
    @example((0, [0], [0, 0b1]))  # the empty set's level, with no slices
    def test_row_matches_a_scan_of_the_level(self, case):
        size, level, masks = case
        built = detector._Level(tuple(level), size, (1 << len(level)) - 1)
        for mask in masks:
            assert detector._row(built, mask) == scanned_row(level, mask, size), (level, mask)

    @pytest.mark.parametrize("question", ["find_violation", "is_avoiding"])
    def test_posets_of_one_question_share_rows(self, monkeypatch, question):
        # butterfly_pair's two posets ask for the same two levels of
        # middle(12, 2): 1,716 distinct rows, where each poset alone
        # computes 1,715 or 1,716 and builds both levels' slices
        computed, built = [], []
        row = detector._row

        def counted(level, mask):
            if mask not in level.rows:
                computed.append((mask, level.size))
                if level.slices is None:
                    built.append(level.size)
            return row(level, mask)

        monkeypatch.setattr(detector, "_row", counted)
        family, butterfly = middle_levels(12, 2), build_named("butterfly_pair")
        if question == "find_violation":
            assert find_violation(family, butterfly) is None
        else:
            assert is_avoiding(family, butterfly)
        assert sorted(built) == [5, 6]
        assert len(computed) == len(set(computed)) == 1716
