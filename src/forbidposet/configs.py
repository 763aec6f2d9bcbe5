"""Forbidden configurations as colored posets.

A configuration is a finite strict poset together with an order-preserving
coloring; elements of one color must land on sets of equal size, so the
coloring is how "these sets have the same cardinality" is expressed.  Distinct
colors do NOT force distinct sizes.  A ConfigSet is a disjunction-free list of
such posets, all of which are forbidden at once (an "either ... or ..."
restriction becomes two posets in one ConfigSet).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass


def transitive_closure(p: int, pairs) -> frozenset[tuple[int, int]]:
    """Transitive closure of a relation on 0..p-1 (Warshall)."""
    adj = [set() for _ in range(p)]
    for a, b in pairs:
        if not (0 <= a < p and 0 <= b < p):
            raise ValueError(f"relation pair ({a}, {b}) outside 0..{p - 1}")
        adj[a].add(b)
    for mid in range(p):
        if adj[mid]:  # a mid with no successors adds nothing to anyone
            for a in range(p):
                if mid in adj[a]:
                    adj[a] |= adj[mid]
    return frozenset((a, b) for a in range(p) for b in adj[a])


@dataclass(frozen=True)
class Violation:
    """First invariant broken by a candidate colored poset."""

    kind: str  # "elements" | "colors" | "acyclic" | "order-preserving"
    detail: str
    pair: tuple[int, int] | None = None


@dataclass(frozen=True)
class ColoredPoset:
    """Strict poset on elements 0..p-1 with relation stored transitively
    closed, plus a coloring with values 1..k.

    Valid instances are irreflexive/acyclic, every color 1..k occurs, and the
    coloring is order-preserving: a < b implies color(a) < color(b).
    Construction closes the relation but does not validate, so invalid
    candidates can be built and then inspected with ``validate``.
    """

    p: int
    relation: frozenset[tuple[int, int]]
    colors: tuple[int, ...]
    name: str | None = None

    @classmethod
    def build(cls, p: int, pairs, colors, name: str | None = None) -> "ColoredPoset":
        return cls(p, transitive_closure(p, pairs), tuple(colors), name)

    def less(self, a: int, b: int) -> bool:
        return (a, b) in self.relation

    @property
    def num_colors(self) -> int:
        return max(self.colors, default=0)

    def color_class_sizes(self) -> tuple[int, ...]:
        """Number of elements of each color 1..k."""
        k = self.num_colors
        sizes = [0] * k
        for c in self.colors:
            sizes[c - 1] += 1
        return tuple(sizes)

    def dual(self) -> "ColoredPoset":
        """Order-dual: relation reversed, colors mirrored to stay
        order-preserving."""
        k = self.num_colors
        rel = frozenset((b, a) for a, b in self.relation)
        colors = tuple(k + 1 - c for c in self.colors)
        name = f"dual({self.name})" if self.name else None
        return ColoredPoset(self.p, rel, colors, name)


def validate(poset: ColoredPoset) -> Violation | None:
    """None if all invariants hold, else a report naming the first violated
    pair.  Checks run in a fixed order so the report is deterministic."""
    p = poset.p
    if p < 1:
        return Violation("elements", f"poset must have at least 1 element, got {p}")
    if len(poset.colors) != p:
        return Violation("colors", f"expected {p} colors, got {len(poset.colors)}")
    for a, b in sorted(poset.relation):
        if not (0 <= a < p and 0 <= b < p):
            return Violation("elements", f"relation pair ({a}, {b}) out of range", (a, b))
    for a, b in sorted(poset.relation):
        if a == b:
            return Violation("acyclic", f"element {a} relates to itself (cycle)", (a, a))
        if (b, a) in poset.relation:
            return Violation("acyclic", f"elements {a} and {b} lie on a cycle", (a, b))
    succ: list[set[int]] = [set() for _ in range(p)]
    for a, b in poset.relation:
        succ[a].add(b)
    for a, b in sorted(poset.relation):
        if not succ[b] <= succ[a]:
            c = min(succ[b] - succ[a])
            return Violation("acyclic", f"relation not transitively closed at ({a}, {c})", (a, c))
    for c in poset.colors:
        if c < 1:
            return Violation("colors", f"colors must be positive, got {c}")
    used = set(poset.colors)
    for c in range(1, max(used) + 1):
        if c not in used:
            return Violation("colors", f"color {c} unused (colors must cover 1..k)")
    for a, b in sorted(poset.relation):
        if poset.colors[a] >= poset.colors[b]:
            return Violation(
                "order-preserving",
                f"comparable elements {a} < {b} need increasing colors, got "
                f"{poset.colors[a]} and {poset.colors[b]}",
                (a, b),
            )
    return None


def require_valid(poset: ColoredPoset) -> ColoredPoset:
    v = validate(poset)
    if v is not None:
        raise ValueError(f"invalid colored poset ({v.kind}): {v.detail}")
    return poset


@dataclass(frozen=True)
class ConfigSet:
    """Nonempty list of colored posets, every one of which is forbidden."""

    configs: tuple[ColoredPoset, ...]

    def __post_init__(self) -> None:
        if not self.configs:
            raise ValueError("ConfigSet needs at least one poset")
        for i, c in enumerate(self.configs):
            v = validate(c)
            if v is not None:
                raise ValueError(f"config #{i} invalid ({v.kind}): {v.detail}")

    def __iter__(self):
        return iter(self.configs)

    def __len__(self) -> int:
        return len(self.configs)

    def max_elements(self) -> int:
        return max(c.p for c in self.configs)

    def dual(self) -> "ConfigSet":
        return ConfigSet(tuple(c.dual() for c in self.configs))


@dataclass(frozen=True)
class ConfigId:
    """Named configuration with integer parameters, e.g. diamond(4)."""

    name: str
    params: tuple[int, ...] = ()


NAMED_CONFIGS = ("kt_pair", "fork", "baton", "butterfly_pair", "j_config", "diamond", "chain")


def parse_config_id(text: str) -> ConfigId:
    """Parse "name" or "name(p1,p2,...)"."""
    m = re.fullmatch(r"\s*([a-z_]+)\s*(?:\(\s*([0-9,\s]*)\s*\))?\s*", text)
    if not m:
        raise ValueError(f"bad config id {text!r}")
    name = m.group(1)
    params = ()
    if m.group(2):
        params = tuple(int(tok) for tok in m.group(2).split(","))
    return ConfigId(name, params)


def _expect_params(cid: ConfigId, count: int) -> tuple[int, ...]:
    if len(cid.params) != count:
        raise ValueError(f"{cid.name} takes {count} parameter(s), got {len(cid.params)}")
    return cid.params


def build_named(cid: ConfigId | str, *params: int) -> ConfigSet:
    """The named forbidden configurations.

    kt_pair          -- no A below two equal-size sets, and no A above two
                        equal-size sets (two 3-element posets).
    fork(s)          -- no set below s pairwise-incomparable equal-size sets.
    baton(h, s, t)   -- s equal-size minimal sets below a chain of h-2 sets
                        below t equal-size maximal sets.
    butterfly_pair   -- two sets below two sets, with either the bottoms or
                        the tops of equal size (two 4-element posets).
    j_config         -- A below B below D, A below C, with |B| = |C|.
    diamond(m)       -- A below m equal-size middles below C.
    chain(r)         -- plain r-chain, all colors distinct.
    """
    if isinstance(cid, str):
        cid = ConfigId(cid, tuple(params))
    elif params:
        raise ValueError("pass parameters either in the ConfigId or positionally, not both")

    if cid.name == "kt_pair":
        _expect_params(cid, 0)
        up = ColoredPoset.build(3, [(0, 1), (0, 2)], [1, 2, 2], "kt_pair_up")
        down = ColoredPoset.build(3, [(0, 2), (1, 2)], [1, 1, 2], "kt_pair_down")
        return ConfigSet((up, down))

    if cid.name == "fork":
        (s,) = _expect_params(cid, 1)
        if s < 2:
            raise ValueError(f"fork needs s >= 2, got {s}")
        rel = [(0, i) for i in range(1, s + 1)]
        return ConfigSet((ColoredPoset.build(s + 1, rel, [1] + [2] * s, f"fork({s})"),))

    if cid.name == "baton":
        h, s, t = _expect_params(cid, 3)
        if h < 3 or s < 1 or t < 1:
            raise ValueError(f"baton needs h >= 3 and s, t >= 1, got ({h}, {s}, {t})")
        p = h + s + t - 2
        lows = list(range(s))
        mids = list(range(s, s + h - 2))
        highs = list(range(s + h - 2, p))
        rel = []
        rel += [(a, mids[0]) for a in lows]
        rel += [(mids[i], mids[i + 1]) for i in range(len(mids) - 1)]
        rel += [(mids[-1], c) for c in highs]
        colors = [1] * s + [2 + i for i in range(h - 2)] + [h] * t
        return ConfigSet((ColoredPoset.build(p, rel, colors, f"baton({h},{s},{t})"),))

    if cid.name == "butterfly_pair":
        _expect_params(cid, 0)
        rel = [(0, 2), (0, 3), (1, 2), (1, 3)]
        bottoms = ColoredPoset.build(4, rel, [1, 1, 2, 3], "butterfly_equal_bottoms")
        tops = ColoredPoset.build(4, rel, [1, 2, 3, 3], "butterfly_equal_tops")
        return ConfigSet((bottoms, tops))

    if cid.name == "j_config":
        _expect_params(cid, 0)
        rel = [(0, 1), (1, 3), (0, 2)]
        return ConfigSet((ColoredPoset.build(4, rel, [1, 2, 2, 3], "j_config"),))

    if cid.name == "diamond":
        (m,) = _expect_params(cid, 1)
        if m < 2:
            raise ValueError(f"diamond needs m >= 2, got {m}")
        rel = [(0, i) for i in range(1, m + 1)] + [(i, m + 1) for i in range(1, m + 1)]
        colors = [1] + [2] * m + [3]
        return ConfigSet((ColoredPoset.build(m + 2, rel, colors, f"diamond({m})"),))

    if cid.name == "chain":
        (r,) = _expect_params(cid, 1)
        if r < 1:
            raise ValueError(f"chain needs r >= 1, got {r}")
        rel = [(i, i + 1) for i in range(r - 1)]
        return ConfigSet((ColoredPoset.build(r, rel, list(range(1, r + 1)), f"chain({r})"),))

    raise ValueError(f"unknown config name {cid.name!r}; known: {', '.join(NAMED_CONFIGS)}")


# -- serialization ----------------------------------------------------------


def poset_to_obj(poset: ColoredPoset) -> dict:
    obj = {
        "elements": poset.p,
        "relations": [list(pair) for pair in sorted(poset.relation)],
        "colors": list(poset.colors),
    }
    if poset.name is not None:
        obj["name"] = poset.name
    return obj


def poset_from_obj(obj) -> ColoredPoset:
    if not isinstance(obj, dict):
        raise ValueError("poset must be a JSON object")
    for key in ("elements", "relations", "colors"):
        if key not in obj:
            raise ValueError(f"poset field {key!r} required")
    p, pairs, colors = obj["elements"], obj["relations"], obj["colors"]
    if type(p) is not int:
        raise ValueError(f"poset field 'elements' must be an integer, got {p!r}")
    if not isinstance(pairs, list) or not all(
        isinstance(pair, list) and len(pair) == 2 and all(type(e) is int for e in pair)
        for pair in pairs
    ):
        raise ValueError("poset field 'relations' must be a list of [a, b] integer pairs")
    if not isinstance(colors, list) or any(type(c) is not int for c in colors):
        raise ValueError(f"poset field 'colors' must be a list of integers, got {colors!r}")
    # the closure costs O(p^2) before validate would see this; p < 1 is left
    # to validate, which names it
    if p >= 1 and len(colors) != p:
        raise ValueError(f"poset field 'colors' needs one color per element: expected {p}, got {len(colors)}")
    return ColoredPoset.build(p, pairs, colors, obj.get("name"))


def serialize_config(configs: ConfigSet) -> str:
    return json.dumps({"configs": [poset_to_obj(c) for c in configs]}, indent=2) + "\n"


def parse_config(text: str) -> ConfigSet:
    """Parse a ConfigSet from JSON ({"configs": [...]} or one bare poset
    object); relations may be any generating set, the closure is computed and
    the result validated."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config parse error: {exc}") from None
    if isinstance(obj, dict) and "configs" in obj:
        items = obj["configs"]
        if not isinstance(items, list) or not items:
            raise ValueError("'configs' must be a nonempty list")
    else:
        items = [obj]
    posets = []
    for i, item in enumerate(items):
        try:
            posets.append(poset_from_obj(item))
        except ValueError as exc:
            if posets:  # an invalid earlier poset is still the one reported
                ConfigSet(tuple(posets))
            raise ValueError(f"config #{i}: {exc}") from None
    return ConfigSet(tuple(posets))


def load_config(text: str) -> ConfigSet:
    """A named id like "diamond(4)" or a JSON ConfigSet document."""
    if text.lstrip().startswith("{"):
        return parse_config(text)
    return build_named(parse_config_id(text))
