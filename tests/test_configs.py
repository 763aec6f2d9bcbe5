import random
import time
import tracemalloc
from collections import Counter
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from forbidposet import (
    ColoredPoset,
    ConfigSet,
    build_named,
    load_config,
    parse_config,
    parse_config_id,
    serialize_config,
    validate,
)
from forbidposet.configs import POSET_GUARD, ConfigId, Violation

from conftest import colored_posets


class TestValidate:
    def test_two_chain_ok(self):
        poset = ColoredPoset.build(2, [(0, 1)], [1, 2])
        assert validate(poset) is None

    def test_comparable_elements_sharing_a_color(self):
        poset = ColoredPoset.build(2, [(0, 1)], [1, 1])
        v = validate(poset)
        assert v is not None and v.kind == "order-preserving"
        assert v.pair == (0, 1)

    def test_cycle_reported_as_acyclic(self):
        poset = ColoredPoset.build(3, [(0, 1), (1, 2), (2, 0)], [1, 2, 3])
        v = validate(poset)
        assert v is not None and v.kind == "acyclic"

    def test_missing_color_reported(self):
        poset = ColoredPoset.build(2, [(0, 1)], [1, 3])
        v = validate(poset)
        assert v is not None and v.kind == "colors"

    def test_not_closed_relation_reported(self):
        # 0 < 1 < 2 without 0 < 2
        raw = ColoredPoset(3, (0b010, 0b100, 0), (1, 2, 3))
        v = validate(raw)
        assert v is not None and v.kind == "acyclic" and v.pair == (0, 2)

    def test_first_unclosed_pair_reported(self):
        # (0, 1) is closed; (0, 2) misses both 3 and 4, and the smaller is named
        raw = ColoredPoset(5, (0b00110, 0, 0b11000, 0, 0), (1, 2, 2, 3, 3))
        v = validate(raw)
        assert v is not None and v.kind == "acyclic" and v.pair == (0, 3)

    def test_decreasing_colors_rejected(self):
        poset = ColoredPoset.build(2, [(0, 1)], [2, 1])
        v = validate(poset)
        assert v is not None and v.kind == "order-preserving"

    def test_matches_first_violation_by_brute_force(self):
        rng = random.Random(2024)
        reports = Counter()
        for _ in range(4000):
            poset = random_raw_poset(rng)
            expected = first_violation_brute_force(poset)
            assert validate(poset) == expected, poset
            reports[expected and (expected.kind, expected.detail.split()[0])] += 1
        # every report validate can give, valid posets included
        assert len(reports) == 8 and min(reports.values()) >= 20, reports

    def test_built_posets_match_brute_force(self):
        # build closes the generating pairs, so only cycles and colorings
        # are left to fail
        rng = random.Random(2025)
        reports = Counter()
        for _ in range(2000):
            raw = random_raw_poset(rng)
            if any(not (0 <= e < raw.p) for pair in raw.relation for e in pair):
                continue
            poset = ColoredPoset.build(raw.p, raw.relation, raw.colors)
            expected = first_violation_brute_force(poset)
            assert validate(poset) == expected, poset
            reports[expected and expected.kind] += 1
        assert len(reports) == 4 and min(reports.values()) >= 20, reports

    def test_replaced_relation_is_validated(self):
        # the rows are the poset's only relation, so a replaced one is the
        # one validated, and the pair view cannot be set beside them
        poset = ColoredPoset.build(2, [(0, 1)], [1, 2])
        cyclic = replace(poset, rows=(0b10, 0b01))
        assert validate(cyclic) == Violation("acyclic", "elements 0 and 1 lie on a cycle", (0, 1))
        with pytest.raises(ValueError, match="cycle"):
            ConfigSet((cyclic,))
        assert [f.name for f in fields(ColoredPoset)] == ["p", "rows", "colors", "name"]
        with pytest.raises(TypeError):
            replace(poset, relation=frozenset({(0, 1), (1, 0)}))

    def test_row_count_checked(self):
        for rows in ((0b10,), (0b10, 0, 0, 0)):
            assert validate(ColoredPoset(3, rows, (1, 2, 3))) == Violation(
                "elements", "successor rows must be 3 bitsets over 0..2"
            )


def closure(p, pairs):
    """The closed relation that build makes of a generating set."""
    return ColoredPoset.build(p, pairs, [1] * p).relation


def random_raw_poset(rng):
    """A poset as given, neither closed nor validated: most pairs go up one
    hidden order and most colorings follow it, so every check is reached."""
    p = rng.randint(1, 10)
    rank = rng.sample(range(p), p)
    pairs = set()
    for _ in range(rng.randint(0, 2 * p)):
        a, b = rng.randrange(p), rng.randrange(p)
        if rank[a] > rank[b] and rng.random() < 0.95:
            a, b = b, a
        if a != b or rng.random() < 0.05:
            pairs.add((a, b))
    if rng.random() < 0.5:
        pairs = set(closure(p, pairs))
        pairs -= {pair for pair in pairs if rng.random() < 0.05}
    if rng.random() < 0.05:
        # out of range: a row past the last element, or a bit past it
        a, b = rng.choice([p, p + 3]), rng.randrange(p)
        pairs.add((a, b) if rng.random() < 0.5 else (b, a))
    if rng.random() < 0.7:
        colors = tuple(1 + rank[e] for e in range(p))
    else:
        colors = tuple(rng.choice([0, 1, 1, 2, 2, 3, 4]) for _ in range(p))
    rows = [0] * max([p, *(a + 1 for a, _ in pairs)])
    for a, b in pairs:
        rows[a] |= 1 << b
    return ColoredPoset(p, tuple(rows), colors)


def first_violation_brute_force(poset):
    """validate's checks in their fixed order, each over every pair in sorted
    order and, for closure, every third element c in turn."""
    p, rel, colors = poset.p, poset.relation, poset.colors
    pairs = sorted(rel)
    for a, b in pairs:
        if not (0 <= a < p and 0 <= b < p):
            return Violation("elements", f"relation pair ({a}, {b}) out of range", (a, b))
    for a, b in pairs:
        if a == b:
            return Violation("acyclic", f"element {a} relates to itself (cycle)", (a, a))
        if (b, a) in rel:
            return Violation("acyclic", f"elements {a} and {b} lie on a cycle", (a, b))
    for a, b in pairs:
        for c in range(p):
            if (b, c) in rel and (a, c) not in rel:
                return Violation(
                    "acyclic", f"relation not transitively closed at ({a}, {c})", (a, c)
                )
    for c in colors:
        if c < 1:
            return Violation("colors", f"colors must be positive, got {c}")
    for c in range(1, max(colors) + 1):
        if c not in colors:
            return Violation("colors", f"color {c} unused (colors must cover 1..k)")
    for a, b in pairs:
        if colors[a] >= colors[b]:
            return Violation(
                "order-preserving",
                f"comparable elements {a} < {b} need increasing colors, got "
                f"{colors[a]} and {colors[b]}",
                (a, b),
            )
    return None


class TestClosure:
    def test_idempotent(self):
        pairs = [(0, 1), (1, 2), (3, 1)]
        once = closure(4, pairs)
        assert closure(4, once) == once

    def test_chain_closure(self):
        assert closure(3, [(0, 1), (1, 2)]) == frozenset(
            [(0, 1), (1, 2), (0, 2)]
        )

    def test_matches_repeated_composition(self):
        # cycles included, and pairs that go down in element order, which
        # take the closure more than one sweep
        rng = random.Random(99)
        for _ in range(1000):
            p = rng.randint(1, 11)
            pairs = [(rng.randrange(p), rng.randrange(p)) for _ in range(rng.randint(0, 2 * p))]
            closed = set(pairs)
            while more := {(a, d) for a, b in closed for c, d in closed if b == c} - closed:
                closed |= more
            assert closure(p, pairs) == closed, (p, pairs)

    def test_pair_outside_rejected(self):
        with pytest.raises(ValueError, match=r"relation pair \(0, 3\) outside 0..2"):
            ColoredPoset.build(3, [(0, 1), (0, 3)], [1, 2, 3])
        with pytest.raises(ValueError, match=r"relation pair \(-1, 0\) outside 0..2"):
            ColoredPoset.build(3, [(-1, 0)], [1, 2, 3])


class TestBuilders:
    def test_kt_pair_shape(self):
        cfg = build_named("kt_pair")
        assert len(cfg) == 2
        up, down = cfg.configs
        assert up.p == 3 and up.colors == (1, 2, 2)
        assert up.relation == frozenset([(0, 1), (0, 2)])
        assert down.p == 3 and down.colors == (1, 1, 2)
        assert down.relation == frozenset([(0, 2), (1, 2)])
        # the dual of "up" is "down" up to relabeling: same color multiset,
        # reversed comparabilities
        d = up.dual()
        assert sorted(d.colors) == sorted(down.colors)
        assert len(d.relation) == len(down.relation)

    def test_diamond_4(self):
        (poset,) = build_named("diamond", 4).configs
        assert poset.p == 6
        assert poset.colors == (1, 2, 2, 2, 2, 3)
        assert poset.color_class_sizes() == (1, 4, 1)
        # top is above bottom through the closure
        assert poset.less(0, 5)

    def test_degenerate_baton_is_chain(self):
        (baton,) = build_named("baton", 3, 1, 1).configs
        (chain,) = build_named("chain", 3).configs
        assert baton.p == chain.p == 3
        assert baton.relation == chain.relation
        assert baton.colors == chain.colors

    def test_chain_embeds_in_matching_baton_structurally(self):
        for r in range(3, 7):
            (baton,) = build_named("baton", r, 1, 1).configs
            (chain,) = build_named("chain", r).configs
            assert baton.relation == chain.relation
            assert baton.colors == chain.colors

    def test_butterfly_pair(self):
        cfg = build_named("butterfly_pair")
        bottoms, tops = cfg.configs
        assert bottoms.colors == (1, 1, 2, 3)
        assert tops.colors == (1, 2, 3, 3)
        assert bottoms.relation == tops.relation == frozenset(
            [(0, 2), (0, 3), (1, 2), (1, 3)]
        )

    def test_j_config(self):
        (j,) = build_named("j_config").configs
        assert j.p == 4
        assert j.colors == (1, 2, 2, 3)
        assert j.less(0, 3)  # bottom under the top through the closure

    def test_fork(self):
        (fork,) = build_named("fork", 3).configs
        assert fork.p == 4
        assert fork.colors == (1, 2, 2, 2)

    def test_all_named_validate(self, roster):
        for label, cfg in roster:
            for poset in cfg:
                assert validate(poset) is None, label
                assert poset.p <= 8

    def test_param_ranges(self):
        for bad in (("fork", 1), ("diamond", 1), ("chain", 0), ("baton", 2, 1, 1), ("baton", 3, 0, 1)):
            with pytest.raises(ValueError):
                build_named(*bad)
        with pytest.raises(ValueError):
            build_named("nonsense")


class TestLongChain:
    def test_load_holds_rows_not_pairs(self):
        # chain(1000) has 499,500 comparable pairs; loading it as rows peaks
        # below 1 MB, where a frozenset of the pairs peaked above 60 MB
        tracemalloc.start()
        try:
            load_config("chain(1000)")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, peak

    def test_chain_2000_loads(self):
        assert build_named("chain", 2000).configs[0].rows[0] == (1 << 2000) - 2


class TestPosetGuard:
    @pytest.mark.parametrize(
        "name, params, p",
        [
            ("diamond", (10**6,), 10**6 + 2),
            ("chain", (POSET_GUARD + 1,), POSET_GUARD + 1),
            ("fork", (POSET_GUARD,), POSET_GUARD + 1),
            ("baton", (3, POSET_GUARD, 1), POSET_GUARD + 2),
        ],
    )
    def test_named_checked_from_parameters(self, monkeypatch, name, params, p):
        def no_closure(p, pairs):
            raise AssertionError("closure computed past the guard")

        monkeypatch.setattr("forbidposet.configs._closure_rows", no_closure)
        with pytest.raises(ValueError) as info:
            build_named(name, *params)
        assert str(info.value) == f"posets are limited to {POSET_GUARD} elements, got {p}"

    def test_at_the_guard_loads(self):
        assert build_named("chain", POSET_GUARD).configs[0].p == POSET_GUARD

    def test_json_checked_before_closure(self, monkeypatch):
        def no_closure(p, pairs):
            raise AssertionError("closure computed past the guard")

        monkeypatch.setattr("forbidposet.configs._closure_rows", no_closure)
        p = POSET_GUARD + 1
        with pytest.raises(ValueError) as info:
            parse_config(f'{{"elements": {p}, "relations": [], "colors": {[1] * p}}}')
        assert str(info.value) == f"config #0: posets are limited to {POSET_GUARD} elements, got {p}"


class TestConfigIds:
    def test_parse_plain_and_params(self):
        assert parse_config_id("kt_pair") == ConfigId("kt_pair")
        assert parse_config_id("diamond(4)") == ConfigId("diamond", (4,))
        assert parse_config_id("baton(3, 1, 2)") == ConfigId("baton", (3, 1, 2))

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_config_id("diamond[4]")
        with pytest.raises(ValueError):
            parse_config_id("")

    @pytest.mark.parametrize("text", ["fork(,)", "fork(1,,2)", "diamond(4,)"])
    def test_parse_rejects_empty_parameters(self, text):
        with pytest.raises(ValueError) as info:
            parse_config_id(text)
        assert str(info.value) == f"bad config id {text!r}"

    def test_parse_keeps_spacing_and_empty_parentheses(self):
        assert parse_config_id("fork()") == ConfigId("fork")
        assert parse_config_id(" fork( 3 ) ") == ConfigId("fork", (3,))

    def test_build_from_id(self):
        assert build_named(ConfigId("diamond", (4,))) == build_named("diamond", 4)


class TestSerialization:
    def test_roundtrip_all_named(self, roster):
        for label, cfg in roster:
            assert parse_config(serialize_config(cfg)) == cfg, label

    def test_generating_relations_are_closed(self):
        text = '{"configs": [{"elements": 3, "relations": [[0,1],[1,2]], "colors": [1,2,3]}]}'
        cfg = parse_config(text)
        assert cfg.configs[0].less(0, 2)

    def test_bare_poset_object_accepted(self):
        cfg = parse_config('{"elements": 2, "relations": [[0,1]], "colors": [1,2]}')
        assert len(cfg) == 1

    def test_invalid_coloring_rejected(self):
        with pytest.raises(ValueError, match="order-preserving"):
            parse_config('{"configs": [{"elements": 2, "relations": [[0,1]], "colors": [2,1]}]}')

    def test_missing_colors_field(self):
        with pytest.raises(ValueError, match="colors"):
            parse_config('{"configs": [{"elements": 2, "relations": [[0,1]]}]}')

    def test_color_count_checked_before_closure(self, monkeypatch):
        # the O(p^2) closure used to run before validate counted the colors
        def no_closure(p, pairs):
            raise AssertionError("closure computed for a malformed config")

        monkeypatch.setattr("forbidposet.configs._closure_rows", no_closure)
        with pytest.raises(ValueError, match="colors"):
            parse_config('{"elements": 16000, "relations": [], "colors": [1]}')

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(st.lists(colored_posets(), min_size=1, max_size=3))
    def test_roundtrip_random_posets(self, posets):
        cfg = ConfigSet(tuple(posets))
        assert parse_config(serialize_config(cfg)) == cfg

    def test_each_poset_validated_once(self, monkeypatch):
        # validate dominates loading a large config, so it runs once per poset
        text = serialize_config(build_named("butterfly_pair"))
        calls = []

        def counting_validate(poset):
            calls.append(poset)
            return validate(poset)

        monkeypatch.setattr("forbidposet.configs.validate", counting_validate)
        cfg = parse_config(text)
        assert calls == list(cfg.configs)

    def test_first_bad_poset_reported(self):
        # an invalid poset is reported before a malformed one after it
        text = (
            '{"configs": [{"elements": 2, "relations": [[0,1]], "colors": [2,1]},'
            ' {"elements": 2, "relations": []}]}'
        )
        with pytest.raises(ValueError, match=r"^config #0 invalid \(order-preserving\): "):
            parse_config(text)
        with pytest.raises(ValueError, match=r"^config #1: poset field 'colors' required$"):
            parse_config(text.replace("[2,1]", "[1,2]"))

    def test_direct_configset_names_the_poset(self):
        good = ColoredPoset.build(2, [(0, 1)], [1, 2])
        bad = ColoredPoset.build(2, [(0, 1)], [1, 1])
        with pytest.raises(ValueError, match=r"^config #1 invalid \(order-preserving\): "):
            ConfigSet((good, bad))

    def test_malformed_json(self):
        with pytest.raises(ValueError, match="parse error"):
            parse_config("{nope")

    def test_configset_requires_nonempty(self):
        with pytest.raises(ValueError):
            ConfigSet(())
        with pytest.raises(ValueError, match="nonempty"):
            parse_config('{"configs": []}')


class TestDual:
    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(colored_posets(max_p=12))
    def test_dual_rows_are_the_bitwise_transpose(self, poset):
        assert poset.dual().rows == tuple(
            sum((row >> b & 1) << a for a, row in enumerate(poset.rows)) for b in range(poset.p)
        )

    def test_dual_of_a_long_chain_is_fast(self):
        # a transpose quadratic in Python steps takes seconds at this size
        (chain,) = build_named("chain", 4096).configs
        start = time.perf_counter()
        dual = chain.dual()
        assert time.perf_counter() - start < 1.5
        assert dual.rows[-1] == (1 << 4095) - 1 and dual.rows[0] == 0

    def test_dual_involutive_and_valid(self, roster):
        for label, cfg in roster:
            for poset in cfg:
                d = poset.dual()
                assert validate(d) is None, label
                dd = d.dual()
                assert dd.relation == poset.relation and dd.colors == poset.colors
