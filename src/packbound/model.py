"""Items, placements, bins, and the feasibility rules of each packing variant.

Three families of rules share one model: plain one-dimensional bins (with or
without the packed-cost advice), colored one-dimensional bins capped at ``t``
distinct colors, and axis-parallel squares inside a unit square.  Values are
immutable after construction and all arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .exact import Exact, parse_rational, rat

ONE = rat(1)
ZERO = rat(0)


class PackingError(Exception):
    """Base class for rule violations raised by add_item."""

    def __init__(self, message, bin_index=None):
        super().__init__(message)
        self.bin_index = bin_index


class CapacityExceeded(PackingError):
    pass


class ColorLimitExceeded(PackingError):
    pass


class GeometricOverlap(PackingError):
    pass


class OutOfBinBounds(PackingError):
    pass


class BadPlacement(PackingError):
    """Placement malformed for the variant (bin index, missing coordinates)."""


@dataclass(frozen=True)
class VariantRules:
    """Feasibility rules: kind in {'one-d', 'known-opt', 'squares', 'class-constrained'}."""

    kind: str
    advice: Optional[int] = None  # known-opt only: the promised optimal cost
    t: Optional[int] = None  # class-constrained only: color classes per bin

    KINDS = ("one-d", "known-opt", "squares", "class-constrained")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown variant kind {self.kind!r}")
        if self.kind == "known-opt":
            if self.advice is None or self.advice < 1:
                raise ValueError("known-opt requires a positive advice value")
        elif self.advice is not None:
            raise ValueError("advice is only meaningful for known-opt")
        if self.kind == "class-constrained":
            if self.t is None or self.t < 1:
                raise ValueError("class-constrained requires t >= 1")
        elif self.t is not None:
            raise ValueError("t is only meaningful for class-constrained")

    @property
    def is_geometric(self) -> bool:
        return self.kind == "squares"

    @property
    def colored(self) -> bool:
        return self.kind == "class-constrained"


@dataclass(frozen=True)
class Item:
    """One input item; `size` is the side length for the squares variant."""

    ident: int
    size: Exact
    color: Optional[int] = None
    label: str = ""

    def __post_init__(self):
        if not (ZERO < self.size <= ONE):
            raise ValueError(f"item {self.ident}: size must lie in (0, 1]")


@dataclass(frozen=True)
class Placement:
    """Target bin plus, for squares, the lower-left corner coordinates."""

    bin_index: int
    x: Optional[Exact] = None
    y: Optional[Exact] = None

    @property
    def has_position(self) -> bool:
        return self.x is not None and self.y is not None


@dataclass(frozen=True)
class Violation:
    bin_index: int
    rule: str
    items: tuple
    detail: str

    def __str__(self):
        return f"bin {self.bin_index}: {self.rule}: {self.detail}"


def squares_disjoint(a: tuple, b: tuple) -> bool:
    """Whether two placed squares ((x, y, side)) have disjoint interiors.

    Shared boundary points are allowed; comparisons are exact.
    """
    ax, ay, asz = a
    bx, by, bsz = b
    if asz <= ZERO or bsz <= ZERO:
        raise ValueError("squares must have positive side")
    separated_x = ax + asz <= bx or bx + bsz <= ax
    separated_y = ay + asz <= by or by + bsz <= ay
    return separated_x or separated_y


class Packing:
    """Bins in creation order; every mutation re-checks the affected bin."""

    def __init__(self, rules: VariantRules):
        self.rules = rules
        self.bins: list[list[tuple[Item, Placement]]] = []
        self._loads: list[Exact] = []  # 1-D variants: cached content totals
        self._colors: list[set] = []  # cached color sets (empty unless colored)
        self._ids: set[int] = set()

    @property
    def cost(self) -> int:
        return len(self.bins)

    def bin_items(self, index: int) -> list[Item]:
        return [item for item, _ in self.bins[index]]

    def bin_load(self, index: int) -> Exact:
        return self._loads[index]

    def bin_colors(self, index: int) -> set:
        """The bin's cached color set; read it, never mutate it."""
        return self._colors[index]

    def copy(self) -> "Packing":
        clone = Packing(self.rules)
        clone.bins = [list(b) for b in self.bins]
        clone._loads = list(self._loads)
        clone._colors = [set(c) for c in self._colors]
        clone._ids = set(self._ids)
        return clone

    # -- the one-dimensional bin rule -----------------------------------

    def _load_after(self, b: int, item: Item) -> Exact:
        return item.size if b == len(self.bins) else self._loads[b] + item.size

    def _breaks_color_cap(self, b: int, item: Item) -> bool:
        if not self.rules.colored or b == len(self.bins):
            return False
        colors = self._colors[b]
        return item.color not in colors and len(colors) >= self.rules.t

    def fits(self, b: int, item: Item) -> bool:
        """Whether 1-D bin `b` (open, or the next fresh one) takes `item`:
        capacity, then the color cap.  `add_item` applies the same rule."""
        return self._load_after(b, item) <= ONE and not self._breaks_color_cap(b, item)

    # -- mutation -------------------------------------------------------

    def add_item(self, item: Item, placement: Placement) -> None:
        """Place `item` per `placement`; raises unless every rule still holds."""
        rules = self.rules
        if item.ident in self._ids:
            raise BadPlacement(f"item {item.ident} already packed")
        if (item.color is not None) != rules.colored:
            raise BadPlacement(
                f"item {item.ident}: color must be present iff the variant is class-constrained"
            )
        b = placement.bin_index
        if b < 0 or b > len(self.bins):
            raise BadPlacement(
                f"bin index {b} is neither existing nor the next fresh bin", b
            )
        if rules.is_geometric:
            if not placement.has_position:
                raise BadPlacement(f"squares require coordinates (item {item.ident})", b)
            if placement.x < ZERO or placement.y < ZERO:
                raise OutOfBinBounds(f"item {item.ident}: negative corner", b)
            if placement.x + item.size > ONE or placement.y + item.size > ONE:
                raise OutOfBinBounds(f"item {item.ident}: square leaves the unit bin", b)
        elif placement.has_position:
            raise BadPlacement("coordinates are only meaningful for squares", b)

        fresh = b == len(self.bins)
        if rules.is_geometric:
            square = (placement.x, placement.y, item.size)
            for other, oplace in ([] if fresh else self.bins[b]):
                if not squares_disjoint(square, (oplace.x, oplace.y, other.size)):
                    raise GeometricOverlap(
                        f"item {item.ident} overlaps item {other.ident}", b
                    )
        else:
            load = self._load_after(b, item)
            if load > ONE:
                raise CapacityExceeded(
                    f"item {item.ident} of size {item.size} exceeds bin capacity", b
                )
            if self._breaks_color_cap(b, item):
                raise ColorLimitExceeded(
                    f"item {item.ident} would be color {len(self._colors[b]) + 1} of a bin capped at {rules.t}",
                    b,
                )

        if fresh:
            self.bins.append([])
            self._loads.append(ZERO)
            self._colors.append(set())
        self.bins[b].append((item, placement))
        if not rules.is_geometric:
            self._loads[b] = load
        if item.color is not None:
            self._colors[b].add(item.color)
        self._ids.add(item.ident)

    def pop(self, b: int) -> Item:
        """Undo the last `add_item` on bin `b`; an emptied last bin closes."""
        item, _ = self.bins[b].pop()
        self._ids.discard(item.ident)
        if not self.bins[b] and b == len(self.bins) - 1:
            del self.bins[b], self._loads[b], self._colors[b]
            return item
        if not self.rules.is_geometric:
            self._loads[b] = self._loads[b] - item.size
        if item.color is not None and all(other.color != item.color for other, _ in self.bins[b]):
            self._colors[b].discard(item.color)
        return item

def validate_packing(packing: Packing) -> list[Violation]:
    """All rule violations in a packing; empty means fully feasible."""
    violations: list[Violation] = []
    rules = packing.rules
    seen: dict[int, int] = {}
    for index, contents in enumerate(packing.bins):
        items = [item for item, _ in contents]
        for item in items:
            if item.ident in seen:
                violations.append(
                    Violation(index, "duplicate-item", (item.ident,),
                              f"item {item.ident} also in bin {seen[item.ident]}")
                )
            seen[item.ident] = index
        if rules.is_geometric:
            for item, place in contents:
                if not place.has_position:
                    violations.append(
                        Violation(index, "missing-position", (item.ident,), "no coordinates")
                    )
                    continue
                if (place.x < ZERO or place.y < ZERO
                        or place.x + item.size > ONE or place.y + item.size > ONE):
                    violations.append(
                        Violation(index, "out-of-bounds", (item.ident,),
                                  f"item {item.ident} leaves the unit square")
                    )
            placed = [(i, p) for i, p in contents if p.has_position]
            for a in range(len(placed)):
                for b in range(a + 1, len(placed)):
                    ia, pa = placed[a]
                    ib, pb = placed[b]
                    if not squares_disjoint((pa.x, pa.y, ia.size), (pb.x, pb.y, ib.size)):
                        violations.append(
                            Violation(index, "overlap", (ia.ident, ib.ident),
                                      f"items {ia.ident} and {ib.ident} overlap")
                        )
        else:
            total = sum((item.size for item in items), ZERO)
            if total > ONE:
                violations.append(
                    Violation(index, "capacity", tuple(i.ident for i in items),
                              f"content total {total} exceeds 1")
                )
            if rules.colored:
                colors = {i.color for i in items}
                if len(colors) > rules.t:
                    violations.append(
                        Violation(index, "color-limit", tuple(i.ident for i in items),
                                  f"{len(colors)} colors exceed t={rules.t}")
                    )
    return violations


# -- instance serialization (JSON) ---------------------------------------


def rules_to_json(rules: VariantRules) -> dict:
    out = {"kind": rules.kind}
    if rules.advice is not None:
        out["advice"] = rules.advice
    if rules.t is not None:
        out["t"] = rules.t
    return out


def rules_from_json(obj: dict) -> VariantRules:
    return VariantRules(obj["kind"], advice=obj.get("advice"), t=obj.get("t"))


def item_to_json(item: Item, placement: Optional[Placement] = None) -> dict:
    out = {"size": item.size.to_json(), "color": item.color}
    out["x"] = placement.x.to_json() if placement is not None and placement.x is not None else None
    out["y"] = placement.y.to_json() if placement is not None and placement.y is not None else None
    if item.label:
        out["label"] = item.label
    return out


def _exact_from_json(obj) -> Exact:
    if isinstance(obj, str):
        return rat(obj)
    value = rat(obj["rational"])
    for term in obj["tiny"]:
        value = value + Exact.from_terms(
            0, {(term["base"], term["exp"]): parse_rational(term["coef"])}
        )
    return value


def items_from_json(objs: Iterable[dict]) -> list[tuple[Item, Optional[Placement]]]:
    out = []
    for i, obj in enumerate(objs):
        item = Item(i, _exact_from_json(obj["size"]), color=obj.get("color"),
                    label=obj.get("label", ""))
        if obj.get("x") is not None and obj.get("y") is not None:
            out.append((item, Placement(0, _exact_from_json(obj["x"]),
                                        _exact_from_json(obj["y"]))))
        else:
            out.append((item, None))
    return out


def packing_to_json(packing: Packing) -> list:
    """Bin-by-bin dump with exact coordinates, for external re-validation."""
    dump = []
    for contents in packing.bins:
        dump.append([
            {
                "item": item.ident,
                "size": item.size.to_json(),
                "color": item.color,
                "label": item.label,
                "x": place.x.to_json() if place.x is not None else None,
                "y": place.y.to_json() if place.y is not None else None,
            }
            for item, place in contents
        ])
    return dump
