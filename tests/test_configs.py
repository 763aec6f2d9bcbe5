import pytest
from hypothesis import given, settings, strategies as st

from forbidposet import (
    ColoredPoset,
    ConfigSet,
    build_named,
    parse_config,
    parse_config_id,
    serialize_config,
    validate,
)
from forbidposet.configs import ConfigId, transitive_closure

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
        raw = ColoredPoset(3, frozenset([(0, 1), (1, 2)]), (1, 2, 3))
        v = validate(raw)
        assert v is not None and v.kind == "acyclic" and v.pair == (0, 2)

    def test_first_unclosed_pair_reported(self):
        # (0, 1) is closed; (0, 2) misses both 3 and 4, and the smaller is named
        raw = ColoredPoset(5, frozenset([(0, 1), (0, 2), (2, 3), (2, 4)]), (1, 2, 2, 3, 3))
        v = validate(raw)
        assert v is not None and v.kind == "acyclic" and v.pair == (0, 3)

    def test_decreasing_colors_rejected(self):
        poset = ColoredPoset.build(2, [(0, 1)], [2, 1])
        v = validate(poset)
        assert v is not None and v.kind == "order-preserving"


class TestClosure:
    def test_idempotent(self):
        pairs = [(0, 1), (1, 2), (3, 1)]
        once = transitive_closure(4, pairs)
        assert transitive_closure(4, once) == once

    def test_chain_closure(self):
        assert transitive_closure(3, [(0, 1), (1, 2)]) == frozenset(
            [(0, 1), (1, 2), (0, 2)]
        )


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

        monkeypatch.setattr("forbidposet.configs.transitive_closure", no_closure)
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
    def test_dual_involutive_and_valid(self, roster):
        for label, cfg in roster:
            for poset in cfg:
                d = poset.dual()
                assert validate(d) is None, label
                dd = d.dual()
                assert dd.relation == poset.relation and dd.colors == poset.colors
