import itertools
import random

import pytest

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
from forbidposet.search import (
    LOWER_BOUND_ONLY,
    OPTIMAL_ASSUMING_THEOREM,
    PROVEN_OPTIMAL,
    SearchProblem,
    candidate_order,
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
        # disjoint from its 1-set, so under the root {1} the depth-1 orbit
        # key must keep 2-sets meeting the root apart from the others
        cfg = ConfigSet(
            (ColoredPoset.build(3, [(0, 2), (1, 2)], [1, 2, 3]), ColoredPoset.build(2, [], [1, 1]))
        )
        want = brute_force_max(3, cfg)
        assert want == 3
        for symmetry in (True, False):
            assert exact_max_family(SearchProblem(n=3, configs=cfg, symmetry=symmetry)).best_size == want

    def test_symmetry_reduces_nodes(self, roster):
        # the two symmetric depths split the tree into disjoint parts, so the
        # reduced search must explore fewer nodes than the plain tree
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
        res = exact_max_family(
            SearchProblem(n=5, configs=build_named("kt_pair"), time_limit=0.05)
        )
        assert res.status == LOWER_BOUND_ONLY
        assert res.best_size >= 1
        assert is_avoiding(res.witness, build_named("kt_pair"))

    def test_time_limit_validated(self):
        with pytest.raises(ValueError):
            SearchProblem(n=3, configs=build_named("kt_pair"), time_limit=0)

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
            from forbidposet import violates_on_add

            for mask in range(1 << n):
                if mask not in fam.member_set:
                    assert violates_on_add(fam, mask, cfg), (label, n, mask)


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
