import hashlib
import itertools
import random
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from forbidposet import (
    ColoredPoset,
    ConfigSet,
    Family,
    binomial,
    build_named,
    evaluate_bound,
    exact_max_family,
    greedy_lower_bound,
    is_avoiding,
    kt_construction,
    middle_levels,
    parse_config_id,
    sigma,
    verify_witness,
)
from forbidposet import detector, search
from forbidposet.search import (
    LOWER_BOUND_ONLY,
    OPTIMAL_ASSUMING_THEOREM,
    PROVEN_OPTIMAL,
    SearchProblem,
    _Searcher,
    _Stop,
)

from conftest import (
    all_families,
    brute_avoiding,
    colored_posets,
    combo_satisfies,
    powerset_family,
    scanned_row,
)


def brute_force_max(n, configs, mode="standard"):
    """Maximum avoiding-family size by scanning every subset of the powerset
    (n <= 3 only: 2^(2^n) families)."""
    universe = 1 << n
    best = 0
    for bits in range(1 << universe):
        if bits.bit_count() <= best:
            continue
        fam = Family(n, [m for m in range(universe) if bits >> m & 1])
        if is_avoiding(fam, configs, mode):
            best = len(fam)
    return best


def candidate_order(n: int, include_empty_and_full: bool = True) -> list:
    """The order in which a search over [n] takes its candidates."""
    problem = SearchProblem(
        n, build_named("kt_pair"), include_empty_and_full=include_empty_and_full
    )
    return _Searcher(problem).candidates


class TestCandidateOrder:
    def test_middle_first_then_mask(self):
        order = candidate_order(3)
        sizes = [m.bit_count() for m in order]
        # sizes 1 and 2 tie at distance 1/2, then 0 and 3 at 3/2
        assert sizes[:6] == [1, 1, 2, 1, 2, 2]
        assert set(order[6:]) == {0, 0b111}
        assert order[:6] == sorted(order[:6])

    def test_exclude_empty_and_full(self):
        order = candidate_order(3, include_empty_and_full=False)
        assert 0 not in order and 0b111 not in order

    @pytest.mark.parametrize("include_empty_and_full", [True, False])
    def test_equals_the_sorted_definition(self, include_empty_and_full):
        for n in range(1, 11):
            masks = sorted(range(1 << n), key=lambda m: (abs(2 * m.bit_count() - n), m))
            if not include_empty_and_full:
                masks = [m for m in masks if 0 < m.bit_count() < n]
            assert candidate_order(n, include_empty_and_full) == masks, n


class TestExactValues:
    def test_kt_small(self):
        for n, expect in ((3, 4), (4, 6)):
            res = exact_max_family(SearchProblem(n=n, configs=build_named("kt_pair")))
            assert res.best_size == expect == 2 * binomial(n - 1, (n - 1) // 2)
            assert res.status == PROVEN_OPTIMAL

    def test_j_small(self):
        for n, expect in ((2, 3), (3, 6), (4, 10)):
            res = exact_max_family(SearchProblem(n=n, configs=build_named("j_config")))
            assert res.best_size == expect == sigma(n, 2)
            assert res.status == PROVEN_OPTIMAL

    def test_diamond4_small(self):
        for n, expect in ((3, 8), (4, 15)):
            res = exact_max_family(SearchProblem(n=n, configs=build_named("diamond", 4)))
            assert res.best_size == expect == sigma(n, 4)

    def test_butterfly_lower_direction(self):
        for n in (3, 4):
            res = exact_max_family(SearchProblem(n=n, configs=build_named("butterfly_pair")))
            assert res.best_size >= sigma(n, 2)
            witness = middle_levels(n, 2)
            assert is_avoiding(witness, build_named("butterfly_pair"))

    def test_brute_force_oracle_n_le_3(self, roster):
        for n in (2, 3):
            for label, cfg in roster:
                want = brute_force_max(n, cfg)
                res = exact_max_family(SearchProblem(n=n, configs=cfg))
                assert res.best_size == want, (label, n)

    def test_j_at_4_by_exhaustion(self):
        # independent derivation of the n=4 value: no 11-subset collection of
        # the 16 subsets avoids the pattern, and a 10-set family does
        j = build_named("j_config")
        assert is_avoiding(middle_levels(4, 2), j)
        for members in itertools.combinations(range(16), 11):
            assert not is_avoiding(Family(4, members), j), members


class TestSearchProperties:
    def test_anti_monotone_in_configs(self, roster):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(2, 4)
            (la, ca), (lb, cb) = rng.sample(roster, 2)
            combined = type(ca)(ca.configs + cb.configs)
            base = exact_max_family(SearchProblem(n=n, configs=ca)).best_size
            more = exact_max_family(SearchProblem(n=n, configs=combined)).best_size
            assert more <= base, (la, lb, n)

    def test_theorem_consistency(self):
        for n in (2, 3, 4):
            kt_val = exact_max_family(SearchProblem(n=n, configs=build_named("kt_pair"))).best_size
            if n >= 3:
                assert kt_val <= evaluate_bound("kt", n=n).value
            j_val = exact_max_family(SearchProblem(n=n, configs=build_named("j_config"))).best_size
            assert j_val <= evaluate_bound("j", n=n).value
            if n >= 3:
                d4 = exact_max_family(SearchProblem(n=n, configs=build_named("diamond", 4)))
                assert d4.best_size <= evaluate_bound("diamond_m4", n=n).value
            for m in (2, 3):
                dm = exact_max_family(SearchProblem(n=n, configs=build_named("diamond", m)))
                assert dm.best_size <= evaluate_bound("diamond_restricted", n=n, m=m).value
            for s in (2, 3):
                fk = exact_max_family(SearchProblem(n=n, configs=build_named("fork", s)))
                assert fk.best_size <= evaluate_bound("fork_explicit", n=n, s=s).value

    def test_construction_consistency(self):
        for n in (3, 4):
            res = exact_max_family(SearchProblem(n=n, configs=build_named("kt_pair")))
            assert res.best_size >= len(kt_construction(n))

    def test_symmetry_on_off_agree(self, roster):
        for mode, include_empty_and_full in itertools.product(
            ("standard", "induced"), (True, False)
        ):
            for n in (2, 3, 4):
                for label, cfg in roster:
                    opts = dict(
                        n=n, configs=cfg, mode=mode, include_empty_and_full=include_empty_and_full
                    )
                    on = exact_max_family(SearchProblem(**opts, symmetry=True))
                    off = exact_max_family(SearchProblem(**opts, symmetry=False))
                    case = (label, n, mode, include_empty_and_full)
                    assert on.best_size == off.best_size, case
                    assert on.status == off.status == PROVEN_OPTIMAL, case

    def test_stabilizer_orbits_split_by_intersection(self):
        # one set per size, and no set above two smaller ones of different
        # sizes: the optimum (the empty set, {1} and {2,3}) needs its 2-set
        # disjoint from its 1-set, so under the root {1} the orbit key must
        # keep 2-sets meeting the root apart from the others
        cfg = ConfigSet(
            (ColoredPoset.build(3, [(0, 2), (1, 2)], [1, 2, 3]), ColoredPoset.build(2, [], [1, 1]))
        )
        want = brute_force_max(3, cfg)
        assert want == 3
        for symmetry in (True, False):
            assert exact_max_family(SearchProblem(n=3, configs=cfg, symmetry=symmetry)).best_size == want

    def test_symmetry_reduces_nodes(self, roster):
        # the orbit keys merge sets the plain tree branches on one by one,
        # so the reduced search must explore fewer nodes than the plain tree
        def total_nodes(symmetry):
            return sum(
                exact_max_family(SearchProblem(n=4, configs=cfg, symmetry=symmetry)).nodes_explored
                for _, cfg in roster
            )

        assert total_nodes(True) < total_nodes(False)

    def test_deterministic_reruns(self):
        prob = SearchProblem(n=4, configs=build_named("kt_pair"))
        a = exact_max_family(prob)
        b = exact_max_family(prob)
        assert (a.best_size, a.nodes_explored, a.prunes) == (
            b.best_size,
            b.nodes_explored,
            b.prunes,
        )
        assert a.witness == b.witness


class TestGolden:
    # (best_size, status, witness masks in the order found) recorded from the
    # search before its levels shared one branching rule; symmetry on and off
    # reach the same first optimum
    GOLDEN = {
        ("kt_pair", 5): (12, PROVEN_OPTIMAL, (3, 5, 6, 9, 10, 12, 19, 21, 22, 25, 26, 28)),
        ("diamond(4)", 5): (
            30,
            PROVEN_OPTIMAL,
            (3, 5, 6, 7, 9, 10, 11, 12, 13, 14, 17, 18, 19, 20, 21, 22, 24, 25, 26, 28,
             1, 2, 4, 8, 15, 16, 23, 27, 29, 30),
        ),
        ("butterfly_pair", 4): (10, PROVEN_OPTIMAL, (3, 5, 6, 9, 10, 12, 1, 2, 4, 8)),
        ("j_config", 4): (10, PROVEN_OPTIMAL, (3, 5, 6, 9, 10, 12, 1, 2, 4, 8)),
    }

    @pytest.mark.parametrize("symmetry", (True, False))
    @pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: f"{c[0]}-n{c[1]}")
    def test_results_pinned(self, case, symmetry):
        label, n = case
        res = exact_max_family(
            SearchProblem(n=n, configs=build_named(parse_config_id(label)), symmetry=symmetry)
        )
        assert (res.best_size, res.status, res.witness.members) == self.GOLDEN[case]

    @pytest.mark.parametrize("symmetry", (True, False))
    def test_node_and_prune_counts(self, symmetry):
        # chain(4) cannot embed in [2], so every family avoids it.  The first
        # branch includes all four sets in order: the root plus one node per
        # set, 5 nodes.  Back at depths 2, 1 and 0, the next branch could
        # reach at most 3 sets, no better than the incumbent 4: one cut each
        res = exact_max_family(SearchProblem(n=2, configs=build_named("chain", 4), symmetry=symmetry))
        assert res.best_size == 4
        assert (res.nodes_explored, res.prunes) == (5, 3)


class TestSearchTreesPinned:
    """Every roster config at n = 2..4 in both modes: the result and the
    tree's node and prune counts, pinned before the detector's bitset
    domains, which must leave every tree exactly as it was."""

    def test_trees_digest(self, roster):
        trees = []
        for _label, cfg in roster:
            for n in (2, 3, 4):
                for mode in ("standard", "induced"):
                    res = exact_max_family(SearchProblem(n, cfg, mode))
                    trees.append(
                        (res.best_size, res.status, res.witness.members, res.nodes_explored, res.prunes)
                    )
        assert len(trees) == 90
        digest = hashlib.sha256(repr(trees).encode()).hexdigest()
        assert digest == "e051eb7b15459fdbff4b34fa731cef7a177ec775e30a3943bca3559c84ebf976"


class TestStatusesAndOptions:
    def test_theorem_bound_early_stop(self):
        bound = evaluate_bound("kt", n=4)
        res = exact_max_family(
            SearchProblem(n=4, configs=build_named("kt_pair"), theorem_bound=bound)
        )
        assert res.best_size == 6
        assert res.status == OPTIMAL_ASSUMING_THEOREM

    def test_inexact_theorem_bound_rejected(self):
        bound = evaluate_bound("fork_main", n=4, s=2)
        with pytest.raises(ValueError, match="exact"):
            exact_max_family(
                SearchProblem(n=4, configs=build_named("kt_pair"), theorem_bound=bound)
            )

    def test_out_of_range_theorem_bound_rejected(self):
        # kt holds for n >= 3 only; at n=2 it reads 2, below the true maximum 3
        bound = evaluate_bound("kt", n=2)
        with pytest.raises(ValueError, match="requires n >= 3"):
            exact_max_family(
                SearchProblem(n=2, configs=build_named("kt_pair"), theorem_bound=bound)
            )
        assert exact_max_family(SearchProblem(n=2, configs=build_named("kt_pair"))).best_size == 3

    def test_theorem_bound_from_another_n_rejected(self):
        # kt at n=4 reads 6; gating an n=5 search with it would stop at 6,
        # half the true maximum 12
        bound = evaluate_bound("kt", n=4)
        with pytest.raises(ValueError, match="n=4"):
            exact_max_family(
                SearchProblem(n=5, configs=build_named("kt_pair"), theorem_bound=bound)
            )

    def test_timeout_keeps_best_so_far(self):
        # kt_pair n=6 is still unproven after a minute, so 0.05 s cannot
        # finish it on any host
        res = exact_max_family(
            SearchProblem(n=6, configs=build_named("kt_pair"), time_limit=0.05)
        )
        assert res.status == LOWER_BOUND_ONLY
        assert res.best_size >= 1
        assert is_avoiding(res.witness, build_named("kt_pair"))

    def test_time_limit_bounds_the_root_screen(self, monkeypatch):
        # a clock that ticks once per reading passes the deadline during the
        # 256 root checks at n=8, before the first node
        ticks = itertools.count()
        monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=lambda: next(ticks)))
        res = exact_max_family(SearchProblem(n=8, configs=build_named("kt_pair"), time_limit=50))
        assert (res.status, res.nodes_explored, res.best_size) == (LOWER_BOUND_ONLY, 0, 0)

    def test_time_limit_validated(self):
        with pytest.raises(ValueError):
            SearchProblem(n=3, configs=build_named("kt_pair"), time_limit=0)
        with pytest.raises(ValueError):
            SearchProblem(n=3, configs=build_named("kt_pair"), time_limit=float("nan"))

    def test_exclude_empty_and_full(self):
        cfg = build_named("chain", 2)
        with_ef = exact_max_family(SearchProblem(n=2, configs=cfg))
        without = exact_max_family(
            SearchProblem(n=2, configs=cfg, include_empty_and_full=False)
        )
        # one antichain level of [2] has 2 sets; allowing the empty/full sets
        # cannot help against a 2-chain but they do count as candidates
        assert with_ef.best_size == 2
        assert without.best_size == 2

    def test_single_element_pattern_forces_empty(self):
        res = exact_max_family(SearchProblem(n=3, configs=build_named("chain", 1)))
        assert res.best_size == 0 and len(res.witness) == 0

    def test_long_chain_pattern_allows_powerset(self):
        res = exact_max_family(SearchProblem(n=3, configs=build_named("chain", 10)))
        assert res.best_size == 8
        assert res.status == PROVEN_OPTIMAL


class TestGreedy:
    def test_j_config_reaches_two_middle_levels(self):
        fam = greedy_lower_bound(SearchProblem(n=4, configs=build_named("j_config")))
        assert len(fam) >= 10

    def test_kt_n3(self):
        fam = greedy_lower_bound(SearchProblem(n=3, configs=build_named("kt_pair")))
        assert len(fam) >= 3
        assert is_avoiding(fam, build_named("kt_pair"))

    def test_long_chain_pattern_gives_powerset(self):
        fam = greedy_lower_bound(SearchProblem(n=3, configs=build_named("chain", 10)))
        assert len(fam) == 8

    def test_greedy_is_maximal(self, roster):
        rng = random.Random(6)
        for _ in range(15):
            n = rng.randint(2, 4)
            label, cfg = roster[rng.randrange(len(roster))]
            prob = SearchProblem(n=n, configs=cfg)
            fam = greedy_lower_bound(prob)
            assert is_avoiding(fam, cfg), label
            for mask in range(1 << n):
                if mask not in fam.member_set:
                    assert not is_avoiding(Family(n, fam.members + (mask,)), cfg), (label, n, mask)


class TestRandomPosetOracle:
    """Greedy and exact search on random colored posets, checked only by the
    brute-force oracle, which shares no code with the detector."""

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(st.integers(1, 3), st.lists(colored_posets(), min_size=1, max_size=2))
    def test_greedy_maximal_and_exact_maximum(self, n, posets):
        cfg = ConfigSet(tuple(posets))
        for mode in ("standard", "induced"):
            prob = SearchProblem(n=n, configs=cfg, mode=mode)
            fam = greedy_lower_bound(prob)
            assert brute_avoiding(fam, cfg, mode)
            for mask in range(1 << n):
                if mask not in fam.member_set:
                    assert not brute_avoiding(Family(n, fam.members + (mask,)), cfg, mode), mask
            if n <= 2:
                best = max(len(f) for f in all_families(n) if brute_avoiding(f, cfg, mode))
                assert exact_max_family(prob).best_size == best, mode

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(st.lists(colored_posets(), min_size=1, max_size=2))
    def test_symmetry_on_off_same_result(self, posets):
        # the reduced tree skips a set only when a symmetry of the current
        # members maps it onto an earlier one, so it reaches the plain
        # tree's first optimum; at n = 3, nodes two deep have atoms of two
        # elements, where a key that ignores a member merges two orbits
        cfg = ConfigSet(tuple(posets))
        for mode in ("standard", "induced"):
            on, off = (
                exact_max_family(SearchProblem(n=3, configs=cfg, mode=mode, symmetry=symmetry))
                for symmetry in (True, False)
            )
            assert (on.best_size, on.witness.members) == (off.best_size, off.witness.members), mode


class TestPairRoleSkip:
    """A child rechecks a set d only when it and the set c just included can
    both be images of one embedding: anything else is avoiding already."""

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(st.integers(1, 3), st.lists(colored_posets(), min_size=1, max_size=2))
    def test_every_pair_of_images_is_judged_shareable(self, n, posets):
        # the oracle walks every injective assignment into all 2^n sets
        cfg = ConfigSet(tuple(posets))
        masks = powerset_family(n).members
        for mode in ("standard", "induced"):
            searcher = _Searcher(SearchProblem(n=n, configs=cfg, mode=mode))
            for poset in cfg:
                for combo in itertools.permutations(range(len(masks)), poset.p):
                    if not combo_satisfies(masks, poset, mode, combo):
                        continue
                    for i, j in itertools.permutations(combo, 2):
                        assert searcher.can_share(masks[i], masks[j]), (mode, masks[i], masks[j])

    @staticmethod
    def _count(monkeypatch, module, name, config, n, eager):
        # counts calls of module.name over one exact search; eager runs the
        # search with every child's list of viable sets scanned in full
        counted = []
        wrapped = getattr(module, name)

        def counting(*args):
            counted.append(None)
            return wrapped(*args)

        monkeypatch.setattr(module, name, counting)
        if eager:
            monkeypatch.setattr(search, "_Searcher", _EagerSearcher)
        res = exact_max_family(SearchProblem(n, build_named(parse_config_id(config))))
        return len(counted), res

    @pytest.mark.parametrize(
        "config, n, calls, nodes, prunes",
        [
            ("kt_pair", 5, 3378, 533, 523),  # 4,841 calls without the skip
            ("diamond(4)", 5, 1978, 187, 185),  # 3,077 without it
            ("butterfly_pair", 4, 1435, 228, 216),  # unrelated pairs of two colors:
            ("j_config", 4, 891, 124, 113),  # every pair shareable, nothing skipped
        ],
    )
    def test_detector_calls_pinned(self, monkeypatch, config, n, calls, nodes, prunes):
        # every child's list scanned in full, as before the early stop
        count, res = self._count(monkeypatch, search, "_hits_with_member", config, n, True)
        assert (count, res.nodes_explored, res.prunes) == (calls, nodes, prunes)

    @pytest.mark.parametrize(
        "config, n, calls, nodes, prunes",
        [
            ("kt_pair", 5, 2786, 533, 523),
            ("diamond(4)", 5, 1978, 187, 185),
            ("butterfly_pair", 4, 1240, 228, 216),
            ("j_config", 4, 794, 124, 113),
        ],
    )
    def test_early_stop_detector_calls_pinned(self, monkeypatch, config, n, calls, nodes, prunes):
        # a child's filter stops once the child prunes either way: fewer
        # calls than the full scan above, the same nodes and prunes
        count, res = self._count(monkeypatch, search, "_hits_with_member", config, n, False)
        assert (count, res.nodes_explored, res.prunes) == (calls, nodes, prunes)

    @pytest.mark.parametrize(
        "config, n, keyed, nodes, prunes",
        [
            ("kt_pair", 5, 2178, 533, 523),  # 5,341 with every set keyed after each child
            ("diamond(4)", 5, 2878, 187, 185),  # 3,231
            ("butterfly_pair", 4, 692, 228, 216),  # 1,646
            ("j_config", 4, 391, 124, 113),  # 998
        ],
    )
    def test_orbit_keys_pinned(self, monkeypatch, config, n, keyed, nodes, prunes):
        # a node keys each of its viable sets once, after its first child
        # returns, and a node that prunes at once keys nothing
        counted = []
        orbit_key = _Searcher.orbit_key

        def counting_orbit_key(self):
            key = orbit_key(self)
            return lambda m: counted.append(None) or key(m)

        monkeypatch.setattr(_Searcher, "orbit_key", counting_orbit_key)
        res = exact_max_family(SearchProblem(n, build_named(parse_config_id(config))))
        assert (len(counted), res.nodes_explored, res.prunes) == (keyed, nodes, prunes)

    @pytest.mark.parametrize(
        "config, n, entries",
        [
            ("kt_pair", 5, 9964),
            ("diamond(4)", 5, 3301),
            ("butterfly_pair", 4, 6939),
            ("j_config", 4, 1785),
        ],
    )
    def test_assign_entries_pinned(self, monkeypatch, config, n, entries):
        # addable tells the detector which set is new, so only the size
        # choices that give some element its size are walked; the witness
        # check's full pass is counted too; every child's list in full
        count, _ = self._count(monkeypatch, detector, "_assign", config, n, True)
        assert count == entries

    @pytest.mark.parametrize(
        "config, n, entries",
        [
            ("kt_pair", 5, 7983),
            ("diamond(4)", 5, 3301),
            ("butterfly_pair", 4, 5775),
            ("j_config", 4, 1494),
        ],
    )
    def test_early_stop_assign_entries_pinned(self, monkeypatch, config, n, entries):
        # the same count with the child's filter stopping early
        count, _ = self._count(monkeypatch, detector, "_assign", config, n, False)
        assert count == entries

    @pytest.mark.parametrize(
        "config, n, builds",
        [
            ("kt_pair", 5, 3584),
            ("diamond(4)", 5, 1173),
            ("butterfly_pair", 4, 1538),
            ("j_config", 4, 372),
        ],
    )
    def test_call_state_builds_pinned(self, monkeypatch, config, n, builds):
        # a question builds its call state at the first size choice it
        # walks, so one whose choices all miss the new set's size builds none
        count, _ = self._count(monkeypatch, detector, "_Call", config, n, False)
        assert count == builds


class _EagerSearcher(_Searcher):
    """Builds every child's whole list of viable sets, with no early stop."""

    def child(self, c, viable):
        rest = itertools.islice(viable, 1, None)
        return [d for d in rest if not self.can_share(c, d) or self.addable(d)]


class TestChildEarlyStop:
    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(st.integers(1, 4), st.lists(colored_posets(), min_size=1, max_size=2))
    def test_same_tree_as_the_whole_list(self, n, posets):
        # the child filter stops once the child prunes either way, so the
        # child counts the same node and prune: the tree does not change
        cfg = ConfigSet(tuple(posets))
        for mode in ("standard", "induced"):
            for symmetry in (True, False):
                problem = SearchProblem(n=n, configs=cfg, mode=mode, symmetry=symmetry)
                res = exact_max_family(problem)
                eager = _EagerSearcher(problem)
                status = eager.run_root()
                got = (res.best_size, res.status, res.witness.members, res.nodes_explored, res.prunes)
                want = (eager.best_size, status, eager.best_members, eager.nodes, eager.prunes)
                assert got == want, (mode, symmetry)

    @pytest.mark.parametrize(
        "verdicts, kept, asked",
        [
            ((True, False, True), [0b0110], 2),  # 1 kept + 1 unscanned <= 2
            ((False, False, False), [], 3),  # an empty list prunes nothing
        ],
    )
    def test_stops_once_the_child_prunes(self, monkeypatch, verdicts, kept, asked):
        # 3 members with c pushed and best 5: the child prunes a non-empty
        # list of at most 2 sets
        searcher = _Searcher(SearchProblem(4, build_named("kt_pair")))
        searcher.best_size = 5
        for mask in (0b0011, 0b0101, 0b1001):
            searcher.push(mask)
        rest = [0b0110, 0b1010, 0b1100]
        answers = dict(zip(rest, verdicts))
        seen = []
        monkeypatch.setattr(searcher, "addable", lambda d: seen.append(d) or answers[d])
        monkeypatch.setattr(searcher, "can_share", lambda c, d: True)
        assert searcher.child(0b1001, [0b1001, *rest]) == kept
        assert seen == rest[:asked]


def test_traced_boundaries_stay_on_the_hot_path(monkeypatch):
    # the benchmark's tracer wraps search._hits_with_member and
    # detector._search where their callers look them up; every addable
    # check must pass through the first, and each such call through the second
    checks, calls, searched = [], [], []
    addable, hits, find = _Searcher.addable, search._hits_with_member, detector._search

    def counting_addable(self, mask):
        checks.append(mask)
        return addable(self, mask)

    def counting_hits(*args):
        calls.append(len(searched))
        return hits(*args)

    def counting_search(*args):
        searched.append(None)
        return find(*args)

    monkeypatch.setattr(_Searcher, "addable", counting_addable)
    monkeypatch.setattr(search, "_hits_with_member", counting_hits)
    monkeypatch.setattr(detector, "_search", counting_search)
    exact_max_family(SearchProblem(4, build_named("kt_pair")))
    assert len(calls) == len(checks) > 0
    # each call's first _search comes before the next call starts
    assert all(a < b for a, b in zip(calls, [*calls[1:], len(searched)]))


@st.composite
def searcher_walks(draw):
    """A searcher over random posets at n <= 4 and a walk of ("push", mask),
    ("pop", None) and ("addable", mask) steps, the masks not yet members."""
    n = draw(st.integers(1, 4))
    posets = draw(st.lists(colored_posets(), min_size=1, max_size=2))
    mode = draw(st.sampled_from(("standard", "induced")))
    members, steps = [], []
    for _ in range(draw(st.integers(1, 24))):
        kind = draw(st.sampled_from(("push", "pop", "addable", "addable")))
        if kind == "pop":
            if members:
                members.pop()
                steps.append((kind, None))
            continue
        free = [m for m in range(1 << n) if m not in members]
        if not free:
            continue
        mask = draw(st.sampled_from(free))
        if kind == "push":
            members.append(mask)
        steps.append((kind, mask))
    return SearchProblem(n=n, configs=ConfigSet(tuple(posets)), mode=mode), steps


class TestSearchRowCache:
    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(searcher_walks())
    def test_rows_stay_fresh_across_push_and_pop(self, walk):
        problem, steps = walk
        searcher = _Searcher(problem)
        levels = dict(searcher.levels)
        for kind, mask in steps:
            if kind == "push":
                searcher.push(mask)
            elif kind == "pop":
                searcher.pop()
            else:
                # addable names the new set to the detector, which answers
                # right only on an avoiding family, as the search's always is
                added = searcher.addable(mask)
                if is_avoiding(Family(problem.n, searcher.members), problem.configs, problem.mode):
                    family = Family(problem.n, [*searcher.members, mask])
                    assert added is is_avoiding(family, problem.configs, problem.mode)
            # the levels are the same objects all along, each holds every
            # set of its size in ascending order, its present bits are the
            # family's members of that size, and every row and slice it
            # holds matches a scan of its members
            assert searcher.levels == levels  # a _Level compares by identity
            for size, level in levels.items():
                members = level.members
                assert members == tuple(m for m in range(1 << problem.n) if m.bit_count() == size)
                assert level.present == sum(
                    1 << j for j, m in enumerate(members) if m in searcher.members
                ), size
                for source, row in level.rows.items():
                    assert row == scanned_row(members, source, size), (size, source)
                if level.slices is not None:
                    assert level.slices == [
                        sum((member >> e & 1) << j for j, member in enumerate(members))
                        for e in range(max(members).bit_length())
                    ], size

    def test_pop_restores_the_identical_level(self):
        searcher = _Searcher(SearchProblem(3, build_named("kt_pair")))
        searcher.push(0b011)
        searcher.push(0b101)
        level = searcher.levels[2]
        assert level.members == (0b011, 0b101, 0b110)
        assert level.present == 0b011
        assert not searcher.addable(0b001)  # {1} lies below {1,2} and {1,3}
        rows, slices = dict(level.rows), level.slices
        assert rows
        searcher.push(0b110)
        assert searcher.levels[2] is level
        assert level.present == 0b111
        searcher.pop()
        assert searcher.levels[2] is level
        assert (level.present, level.rows, level.slices) == (0b011, rows, slices)

    @pytest.mark.parametrize(
        "config, n, builds",
        [
            ("kt_pair", 5, 6),
            ("diamond(4)", 5, 8),
            ("butterfly_pair", 4, 6),
            ("j_config", 4, 4),
        ],
    )
    def test_slices_builds_pinned(self, monkeypatch, config, n, builds):
        # each of the search's levels builds its slices at most once, and
        # so does each level of the witness check, counted too
        built = []
        row = detector._row

        def counting(level, mask):
            if level.slices is None:
                built.append(level.size)
            return row(level, mask)

        monkeypatch.setattr(detector, "_row", counting)
        exact_max_family(SearchProblem(n, build_named(parse_config_id(config))))
        assert len(built) == builds


class TestBranchMemory:
    def test_one_candidate_list_per_depth(self):
        # the first 40 nodes of an n = 12 search dive one level each; from
        # node 10 on, the traced peak may grow by one list of the 2^12
        # candidates per node and what the detector adds, not by two lists
        searcher = _Searcher(SearchProblem(12, build_named("kt_pair")))
        peaks = []

        def stop_at_node_40():
            if searcher.nodes in (10, 40):
                peaks.append(tracemalloc.get_traced_memory()[1])
            if searcher.nodes == 40:
                raise _Stop(LOWER_BOUND_ONLY)

        searcher.check_deadline = stop_at_node_40
        tracemalloc.start()
        try:
            assert searcher.run_root() == LOWER_BOUND_ONLY
        finally:
            tracemalloc.stop()
        assert len(searcher.members) == 39  # the dive: one node per depth
        list_bytes = 8 << 12  # a pointer per candidate
        # a list and its copy per depth, 2.0 lists a node, exceed the bound
        assert peaks[1] - peaks[0] < 30 * 1.5 * list_bytes


class TestVerifyWitness:
    def test_valid_result_passes(self):
        prob = SearchProblem(n=3, configs=build_named("kt_pair"))
        res = exact_max_family(prob)
        assert verify_witness(res, prob)

    def test_tampered_witness_fails(self):
        prob = SearchProblem(n=3, configs=build_named("kt_pair"))
        res = exact_max_family(prob)
        # swap one member for a set completing a fork
        bad_members = list(res.witness.members)
        for mask in range(8):
            if mask not in res.witness.member_set:
                bad_members[-1] = mask
                tampered = type(res)(
                    res.best_size, Family(3, bad_members), res.status, 0, 0
                )
                if not is_avoiding(tampered.witness, prob.configs):
                    assert not verify_witness(tampered, prob)
                    break

    def test_size_mismatch_fails(self):
        prob = SearchProblem(n=3, configs=build_named("kt_pair"))
        res = exact_max_family(prob)
        wrong = type(res)(res.best_size - 1, res.witness, res.status, 0, 0)
        assert not verify_witness(wrong, prob)

    def test_failed_reverification_raises(self, monkeypatch):
        # an explicit raise, so running under python -O keeps the check
        monkeypatch.setattr("forbidposet.search.verify_witness", lambda result, problem: False)
        with pytest.raises(RuntimeError, match="witness failed re-verification"):
            exact_max_family(SearchProblem(n=3, configs=build_named("kt_pair")))


class TestGuards:
    def test_ground_guard(self):
        with pytest.raises(ValueError):
            SearchProblem(n=21, configs=build_named("kt_pair"))

    def test_mode_validated(self):
        # a misspelt mode used to run the search in standard mode
        with pytest.raises(ValueError, match="mode"):
            SearchProblem(n=4, configs=build_named("kt_pair"), mode="Induced")

    def test_status_downgrade_beyond_exact_guard(self):
        # chain(10) cannot embed, so the tree collapses instantly even at n=7;
        # the guard still caps the claim at a lower bound
        res = exact_max_family(SearchProblem(n=7, configs=build_named("chain", 10)))
        assert res.best_size == 128
        assert res.status == LOWER_BOUND_ONLY
