"""Items, placements, bins, and the feasibility rules of each packing variant.

Three families of rules share one model: plain one-dimensional bins (with or
without the packed-cost advice), colored one-dimensional bins capped at ``t``
distinct colors, and axis-parallel squares inside a unit square.  Values are
immutable after construction and all arithmetic is exact.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from .exact import Exact, parse_rational, rat

ONE = rat(1)
ZERO = rat(0)


class PackingError(Exception):
    """Base class for rule violations raised by add_item."""


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


class _VariantRules(NamedTuple):
    kind: str
    advice: Optional[int] = None  # known-opt only: the promised optimal cost
    t: Optional[int] = None  # class-constrained only: color classes per bin


class VariantRules(_VariantRules):
    """Feasibility rules: kind in {'one-d', 'known-opt', 'squares', 'class-constrained'}."""

    __slots__ = ()
    KINDS = ("one-d", "known-opt", "squares", "class-constrained")

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
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
        return self

    @property
    def is_geometric(self) -> bool:
        return self.kind == "squares"

    @property
    def colored(self) -> bool:
        return self.kind == "class-constrained"


class _Item(NamedTuple):
    ident: int
    size: Exact
    color: Optional[int] = None
    label: str = ""


class Item(_Item):
    """One input item; `size` is the side length for the squares variant."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (ZERO < self.size <= ONE):
            raise ValueError(f"item {self.ident}: size must lie in (0, 1]")
        return self


class Placement(NamedTuple):
    """Target bin plus, for squares, the lower-left corner coordinates."""

    bin_index: int
    x: Optional[Exact] = None
    y: Optional[Exact] = None

    @property
    def has_position(self) -> bool:
        return self.x is not None and self.y is not None


class Violation(NamedTuple):
    bin_index: int
    rule: str
    items: tuple
    detail: str

    def __str__(self):
        return f"bin {self.bin_index}: {self.rule}: {self.detail}"


def square_box(x: Exact, y: Exact, side: Exact) -> tuple:
    """The box (x0, y0, x1, y1) of a square: the one place its far edges are summed."""
    if side <= ZERO:
        raise ValueError("squares must have positive side")
    return x, y, x + side, y + side


def squares_disjoint(a: tuple, b: tuple) -> bool:
    """Whether two boxes from `square_box` have disjoint interiors.

    Shared boundary points are allowed; comparisons are exact and nothing is added.
    """
    ax0, ay0, ax1, ay1 = a
    bx0, by0, bx1, by1 = b
    return ax1 <= bx0 or bx1 <= ax0 or ay1 <= by0 or by1 <= ay0


class Packing:
    """Bins in creation order; every mutation re-checks the affected bin.

    For the 1-D variants each bin caches its free room, ``1 - load``:
    `add_item` subtracts the item's size once and keeps the room the bin
    had before, which `pop` puts back, so `fits` is a single comparison
    ``size <= room`` and backtracking builds no new `Exact`.  A fresh
    bin's room is ``ONE``, so the same comparison covers it.  Squares bins
    leave their room at ``ONE``: their rule is the layout, checked square
    against square.  Each squares bin keeps the boxes of its squares
    (`square_box`), so a placement sums only its own far edges.

    The packing also caches its largest room (`largest_room`), so an item
    that no open bin can take is told so with one comparison
    (`fits_no_open_bin`).  It is filled on demand and then kept: a fresh
    bin costs one comparison with it, a placement into any other bin than
    the one holding it (told apart by identity) costs nothing, and a
    placement into that bin, or any `pop`, marks it unknown.

    `first_fit` applies `fits` to every bin in one scan, so the first-fit
    strategies ask the packing once per item rather than once per bin.
    """

    def __init__(self, rules: VariantRules):
        self.rules = rules
        self.bins: list[list[tuple[Item, Placement]]] = []
        self._rooms: list[Exact] = []  # 1-D variants: cached 1 - content total
        self._before: list[list[Exact]] = []  # 1-D only: each bin's room before each item
        self._colors: list[set] = []  # cached color sets (empty unless colored)
        self._boxes: list[list[tuple]] = []  # squares only: each bin's boxes
        self._ids: set[int] = set()
        self._largest: Optional[Exact] = None  # max of _rooms; None: unknown

    @property
    def cost(self) -> int:
        return len(self.bins)

    def bin_items(self, index: int) -> list[Item]:
        return [item for item, _ in self.bins[index]]

    def bin_room(self, index: int) -> Exact:
        """The free room ``1 - load`` of 1-D bin `index`."""
        return self._rooms[index]

    def bin_load(self, index: int) -> Exact:
        """The content total of 1-D bin `index`, derived from its room."""
        return ONE - self._rooms[index]

    def bin_colors(self, index: int) -> set:
        """The bin's cached color set; read it, never mutate it."""
        return self._colors[index]

    def copy(self) -> "Packing":
        clone = Packing(self.rules)
        clone.bins = [list(b) for b in self.bins]
        clone._rooms = list(self._rooms)
        clone._colors = [set(c) for c in self._colors]
        clone._boxes = [list(boxes) for boxes in self._boxes]
        clone._before = [list(rooms) for rooms in self._before]
        clone._ids = set(self._ids)
        clone._largest = self._largest
        return clone

    # -- the one-dimensional bin rule -----------------------------------

    def _room(self, b: int) -> Exact:
        return ONE if b == len(self.bins) else self._rooms[b]

    def _breaks_color_cap(self, b: int, item: Item) -> bool:
        if self.rules.t is None or b == len(self.bins):  # t is None unless colored
            return False
        colors = self._colors[b]
        return item.color not in colors and len(colors) >= self.rules.t

    def fits(self, b: int, item: Item) -> bool:
        """Whether 1-D bin `b` (open, or the next fresh one) takes `item`:
        the color cap, a set lookup, then capacity, an `Exact` comparison.
        `add_item` applies the same rule."""
        return not self._breaks_color_cap(b, item) and item.size <= self._room(b)

    def largest_room(self) -> Exact:
        """The largest room of any open bin, ``ZERO`` when none is open."""
        if self._largest is None:
            self._largest = max(self._rooms, default=ZERO)
        return self._largest

    def fits_no_open_bin(self, item: Item) -> bool:
        """True when `item` is larger than every open bin's room, so that
        only a fresh bin takes it; False means every bin must be asked.

        Colored rules always answer False: their bins refuse mostly on
        colors, which `fits` checks first by a set lookup, so the largest
        room rarely rules a scan out, while every placement into the bin
        holding it would recompute it.
        """
        return not self.rules.colored and item.size > self.largest_room()

    def first_fit(self, item: Item) -> int:
        """The first bin `b` with `fits(b, item)`, else `cost` (the fresh bin):
        `fits`' two tests in one loop, after the uncolored rules' shortcut
        `fits_no_open_bin`."""
        size, t = item.size, self.rules.t  # t is None unless colored
        if t is None:
            if size <= self.largest_room():
                for b, room in enumerate(self._rooms):
                    if size <= room:
                        return b
        else:
            color = item.color
            for b, room in enumerate(self._rooms):
                colors = self._colors[b]
                if (color in colors or len(colors) < t) and size <= room:
                    return b
        return len(self.bins)

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
            raise BadPlacement(f"bin index {b} is neither existing nor the next fresh bin")
        fresh = b == len(self.bins)
        if rules.is_geometric:
            if not placement.has_position:
                raise BadPlacement(f"squares require coordinates (item {item.ident})")
            if placement.x < ZERO or placement.y < ZERO:
                raise OutOfBinBounds(f"item {item.ident}: negative corner")
            box = square_box(placement.x, placement.y, item.size)
            if box[2] > ONE or box[3] > ONE:
                raise OutOfBinBounds(f"item {item.ident}: square leaves the unit bin")
            for i, other in enumerate([] if fresh else self._boxes[b]):
                if not squares_disjoint(box, other):
                    raise GeometricOverlap(
                        f"item {item.ident} overlaps item {self.bins[b][i][0].ident}")
        elif placement.has_position:
            raise BadPlacement("coordinates are only meaningful for squares")
        elif item.size > self._room(b):
            raise CapacityExceeded(f"item {item.ident} of size {item.size} exceeds bin capacity")
        elif self._breaks_color_cap(b, item):
            raise ColorLimitExceeded(f"item {item.ident} would be color {len(self._colors[b]) + 1}"
                                     f" of a bin capped at {rules.t}")

        if fresh:
            self.bins.append([])
            self._rooms.append(ONE)
            self._colors.append(set())
        self.bins[b].append((item, placement))
        if rules.is_geometric:
            if fresh:
                self._largest = ONE  # every squares bin keeps room ONE
                self._boxes.append([box])
            else:
                self._boxes[b].append(box)
        else:
            before = self._rooms[b]
            room = before - item.size
            if fresh:
                self._before.append([])
                if self._largest is not None and room > self._largest:
                    self._largest = room
            elif before is self._largest:
                self._largest = None
            self._before[b].append(before)
            self._rooms[b] = room
        if item.color is not None:
            self._colors[b].add(item.color)
        self._ids.add(item.ident)

    def pop(self, b: int) -> Item:
        """Undo the last `add_item` on bin `b`; an emptied last bin closes."""
        item, _ = self.bins[b].pop()
        self._ids.discard(item.ident)
        self._largest = None
        if not self.bins[b] and b == len(self.bins) - 1:
            del self.bins[b], self._rooms[b], self._colors[b], self._boxes[b:], self._before[b:]
            return item
        if self.rules.is_geometric:
            self._boxes[b].pop()
        else:
            self._rooms[b] = self._before[b].pop()
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
            placed = []  # (item, box), rebuilt here: the packing's stored boxes are not read
            for item, place in contents:
                if not place.has_position:
                    violations.append(
                        Violation(index, "missing-position", (item.ident,), "no coordinates")
                    )
                    continue
                box = square_box(place.x, place.y, item.size)
                if place.x < ZERO or place.y < ZERO or box[2] > ONE or box[3] > ONE:
                    violations.append(
                        Violation(index, "out-of-bounds", (item.ident,),
                                  f"item {item.ident} leaves the unit square")
                    )
                placed.append((item, box))
            for a, (ia, box_a) in enumerate(placed):
                for ib, box_b in placed[a + 1:]:
                    if not squares_disjoint(box_a, box_b):
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


def _field(obj, key: str, kind: type, default=KeyError):
    """The `kind` at obj[key] in the JSON object obj, or `default` when given and absent."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected an object, got {obj!r}")
    value = obj[key] if default is KeyError else obj.get(key, default)
    if value is not default and type(value) is not kind:
        raise ValueError(f"{key} must be of type {kind.__name__}, got {value!r}")
    return value


def rules_from_json(obj: dict) -> VariantRules:
    return VariantRules(_field(obj, "kind", str), advice=_field(obj, "advice", int, None),
                        t=_field(obj, "t", int, None))


def _exact_from_json(obj) -> Exact:
    if isinstance(obj, str):
        return rat(obj)
    value = rat(_field(obj, "rational", str))
    for term in _field(obj, "tiny", list):
        base, exp = _field(term, "base", int), _field(term, "exp", int)
        coef = parse_rational(_field(term, "coef", str))
        value = value + Exact.from_terms(0, {(base, exp): coef})
    return value


def items_from_json(objs: Iterable[dict]) -> list[tuple[Item, Optional[Placement]]]:
    if not isinstance(objs, list):
        raise ValueError(f"items must be a list, got {objs!r}")
    out = []
    for i, obj in enumerate(objs):
        color, label = _field(obj, "color", int, None), _field(obj, "label", str, "")
        item = Item(i, _exact_from_json(obj["size"]), color=color, label=label)
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
