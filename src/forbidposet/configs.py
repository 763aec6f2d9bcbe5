"""Forbidden configurations as colored posets.

A configuration is a finite strict poset together with an order-preserving
coloring; elements of one color must land on sets of equal size, so the
coloring is how "these sets have the same cardinality" is expressed.  Distinct
colors do NOT force distinct sizes.  A ConfigSet is a disjunction-free list of
such posets, all of which are forbidden at once (an "either ... or ..."
restriction becomes two posets in one ConfigSet).

A poset holds its closed relation once, as successor bitsets (``rows``):
``ColoredPoset.build`` closes any generating set of pairs into them, direct
construction takes the rows, and ``relation`` is the pair view JSON writes.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .lattice import set_bits, transpose

POSET_GUARD = 4096  # elements; a poset's rows then take at most 2 MB


def _check_elements(p: int) -> None:
    if p > POSET_GUARD:
        raise ValueError(f"posets are limited to {POSET_GUARD} elements, got {p}")


def _closure_rows(p: int, pairs) -> tuple[int, ...]:
    """Successor bitsets of the transitive closure of a relation on 0..p-1.

    Each row takes in the rows of its direct successors, sweeping from the
    last element down, so a successor above its predecessor is final when
    it is read.  A row that changes after a higher element has read it (a
    pair going down in element order, as on every cycle) calls for another
    sweep; a relation whose pairs all go up, as the named configurations'
    do, is closed in one.
    """
    succ = [[] for _ in range(p)]
    read_from_above = [False] * p
    for a, b in pairs:
        if not (0 <= a < p and 0 <= b < p):
            raise ValueError(f"relation pair ({a}, {b}) outside 0..{p - 1}")
        succ[a].append(b)
        if b < a:
            read_from_above[b] = True
    rows = [0] * p
    changed = True
    while changed:
        changed = False
        for a in range(p - 1, -1, -1):
            row = rows[a]
            for b in succ[a]:
                row |= rows[b] | 1 << b
            if row != rows[a]:
                rows[a] = row
                changed = changed or read_from_above[a]
    return tuple(rows)


@dataclass(frozen=True)
class Violation:
    """First invariant broken by a candidate colored poset."""

    kind: str  # "elements" | "colors" | "acyclic" | "order-preserving"
    detail: str
    pair: tuple[int, int] | None = None


@dataclass(frozen=True)
class ColoredPoset:
    """Strict poset on elements 0..p-1, its closed relation held as successor
    bitsets (``rows[a]``: the elements above a), plus a coloring with values
    1..k.  ``build`` closes any generating set of pairs into the rows; direct
    construction takes them as they are.

    Valid instances are irreflexive/acyclic, every color 1..k occurs, and the
    coloring is order-preserving: a < b implies color(a) < color(b).
    Neither way of constructing validates, so invalid candidates can be built
    and then inspected with ``validate``.
    """

    p: int
    rows: tuple[int, ...]
    colors: tuple[int, ...]
    name: str | None = None

    @classmethod
    def build(cls, p: int, pairs, colors, name: str | None = None) -> "ColoredPoset":
        return cls(p, _closure_rows(p, pairs), tuple(colors), name)

    @property
    def relation(self) -> frozenset[tuple[int, int]]:
        """The pairs (a, b) with bit b set in row a, as JSON writes them."""
        return frozenset([(a, b) for a, row in enumerate(self.rows) for b in set_bits(row)])

    def less(self, a: int, b: int) -> bool:
        return bool(self.rows[a] >> b & 1)

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
        """Order-dual: rows transposed, colors mirrored to stay
        order-preserving."""
        k = self.num_colors
        colors = tuple(k + 1 - c for c in self.colors)
        name = f"dual({self.name})" if self.name else None
        return ColoredPoset(self.p, tuple(transpose(self.rows, self.p)), colors, name)


def _closed(rows: tuple[int, ...]) -> bool:
    """Whether every row holds the rows of its elements, given that no
    element lies in its own row.  Row a skips an element b lying in a row b'
    it has already read: row b' is then a proper subset of row a (b' is not
    in its own row), so by induction on row size it holds row b too."""
    for row in rows:
        unread = row
        while unread:
            low = unread & -unread
            above = rows[low.bit_length() - 1]
            if above & ~row:
                return False
            unread &= ~(above | low)
    return True


def validate(poset: ColoredPoset) -> Violation | None:
    """None if all invariants hold, else a report naming the first violated
    pair.  Checks run in a fixed order, each naming its first failing pair
    in sorted order, so the report is deterministic.

    Each check runs on the successor rows, and only a failing check lists
    and sorts its pairs, so a valid poset is never sorted.
    """
    p = poset.p
    if p < 1:
        return Violation("elements", f"poset must have at least 1 element, got {p}")
    colors = poset.colors
    if len(colors) != p:
        return Violation("colors", f"expected {p} colors, got {len(colors)}")
    rows = poset.rows
    if len(rows) != p or any(row >> p for row in rows):
        outside = [(a, b) for a, b in poset.relation if a >= p or b >= p]
        if not outside:
            return Violation("elements", f"successor rows must be {p} bitsets over 0..{p - 1}")
        a, b = min(outside)
        return Violation("elements", f"relation pair ({a}, {b}) out of range", (a, b))
    # colors ascend along every pair (a, b) when row a misses every element
    # colored at most colors[a]; ascending colors rule out cycles
    of_color: dict[int, int] = {}
    for a, c in enumerate(colors):
        of_color[c] = of_color.get(c, 0) | 1 << a
    at_most, below = {}, 0
    for c in sorted(of_color):
        below = at_most[c] = below | of_color[c]
    ascending = not any(row & at_most[c] for row, c in zip(rows, colors))
    if not ascending:
        cycle = [(a, b) for a, b in poset.relation if rows[b] >> a & 1]
        if cycle:
            a, b = min(cycle)
            if a == b:
                return Violation("acyclic", f"element {a} relates to itself (cycle)", (a, a))
            return Violation("acyclic", f"elements {a} and {b} lie on a cycle", (a, b))
    # an element in its own row breaks ascending colors and is a cycle
    # reported above, as _closed requires
    if not _closed(rows):
        # the first open pair (a, b); the lowest bit of rows[b] missing from
        # rows[a] names c
        a, b = min((a, b) for a, b in poset.relation if rows[b] & ~rows[a])
        missing = rows[b] & ~rows[a]
        c = (missing & -missing).bit_length() - 1
        return Violation("acyclic", f"relation not transitively closed at ({a}, {c})", (a, c))
    for c in colors:
        if c < 1:
            return Violation("colors", f"colors must be positive, got {c}")
    used = set(colors)
    for c in range(1, max(used) + 1):
        if c not in used:
            return Violation("colors", f"color {c} unused (colors must cover 1..k)")
    if not ascending:
        a, b = min((a, b) for a, b in poset.relation if colors[a] >= colors[b])
        return Violation(
            "order-preserving",
            f"comparable elements {a} < {b} need increasing colors, got "
            f"{colors[a]} and {colors[b]}",
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
    m = re.fullmatch(r"\s*([a-z_]+)\s*(?:\(\s*((?:[0-9]+\s*,\s*)*[0-9]+)?\s*\))?\s*", text)
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
        _check_elements(s + 1)
        rel = [(0, i) for i in range(1, s + 1)]
        return ConfigSet((ColoredPoset.build(s + 1, rel, [1] + [2] * s, f"fork({s})"),))

    if cid.name == "baton":
        h, s, t = _expect_params(cid, 3)
        if h < 3 or s < 1 or t < 1:
            raise ValueError(f"baton needs h >= 3 and s, t >= 1, got ({h}, {s}, {t})")
        p = h + s + t - 2
        _check_elements(p)
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
        _check_elements(m + 2)
        rel = [(0, i) for i in range(1, m + 1)] + [(i, m + 1) for i in range(1, m + 1)]
        colors = [1] + [2] * m + [3]
        return ConfigSet((ColoredPoset.build(m + 2, rel, colors, f"diamond({m})"),))

    if cid.name == "chain":
        (r,) = _expect_params(cid, 1)
        if r < 1:
            raise ValueError(f"chain needs r >= 1, got {r}")
        _check_elements(r)
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
        isinstance(pair, list) and len(pair) == 2 and type(pair[0]) is int and type(pair[1]) is int
        for pair in pairs
    ):
        raise ValueError("poset field 'relations' must be a list of [a, b] integer pairs")
    if not isinstance(colors, list) or any(type(c) is not int for c in colors):
        raise ValueError(f"poset field 'colors' must be a list of integers, got {colors!r}")
    # the closure costs O(p^2) before validate would see this; p < 1 is left
    # to validate, which names it
    if p >= 1 and len(colors) != p:
        raise ValueError(f"poset field 'colors' needs one color per element: expected {p}, got {len(colors)}")
    _check_elements(p)
    if not isinstance(obj.get("name", ""), str):
        raise ValueError(f"poset field 'name' must be a string, got {obj['name']!r}")
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
    except RecursionError:  # the decoder recurses once per bracket
        raise ValueError("config parse error: JSON is nested too deeply") from None
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
