"""Exact minimum-bin search for small 1-D instances (optionally colored).

Complete branch and bound: items are branched in decreasing size, the next
item goes into each distinguishable open bin and then one fresh bin.  Bins
with identical remaining room and color set are interchangeable for every
future decision, so only the first of each signature is branched.  The
first-fit baseline (`algorithms.first_fit`) fed the items in decreasing size
seeds the incumbent; the search proves optimality or improves on it, and
is skipped when the seed meets the root bound.  Every witness, the seed
included, is validated before it is returned (`InvalidWitness`).  A node
is pruned when max(open bins, lower) >= best, where lower is the root bound
ceil(total size), raised for colored rules to ceil(colors / t): open bins
stay open, and every packing needs the root bound.  The search stops after
`OracleInstance.node_budget` nodes (DEFAULT_NODE_BUDGET unless the instance
sets one) with the incumbent as an upper bound.  All arithmetic is exact,
because adversarial instances differ by amounts no float can see.

The search walks the tree on plain values: each open bin's room and color
set, and each placed item's bin.  `_scaled_sizes` turns the sizes into ints
over one common denominator, the unit room; that map keeps every sum and
every order, so each `size <= room` test, room subtraction and signature
lookup gives the answer it would give on the `Exact` sizes, and the search
itself does no `Exact` arithmetic.  When that denominator would be too long
the same search runs on the `Exact` sizes, with the unit room ONE.  A better
leaf is kept as its items' bins, and the best one is rebuilt once through
`Packing.add_item`, which re-checks every rule on the `Exact` sizes.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .algorithms import first_fit
from .exact import rat
from .model import (ONE, ZERO, Item, Packing, PackingError, Placement, VariantRules,
                    validate_packing)

__all__ = ["OracleInstance", "OracleResult", "BudgetExceeded", "InvalidWitness", "min_bins"]

DEFAULT_NODE_BUDGET = 2_000_000

# The search runs on int sizes while their common denominator has at most
# this many bits, and on the `Exact` sizes beyond it (`_scaled_sizes`).  The
# int search's cost grows with that length: on searched instances of 169 to
# 1,168 nodes it ran 1.3 to 1.7 times as fast as the `Exact` one at about
# 16k bits, and about as fast at 30k.
_INT_BITS_CAP = 16_384


class BudgetExceeded(RuntimeError):
    """The search ran out of nodes; `min_bins` keeps its incumbent."""


class InvalidWitness(RuntimeError):
    """The search's witness packing breaks a rule or disagrees with its count."""


class _OracleInstance(NamedTuple):
    items: tuple[Item, ...]
    rules: VariantRules
    node_budget: int = DEFAULT_NODE_BUDGET


class OracleInstance(_OracleInstance):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.rules.is_geometric:
            raise ValueError("exact search covers one-dimensional variants only")
        if self.node_budget < 1:
            raise ValueError(f"the node budget must be at least 1, got {self.node_budget}")
        return self


class OracleResult(NamedTuple):
    count: int
    witness: Packing
    nodes: int
    proven: bool  # True: provably minimal; False: budget ran out


def _sorted_items(items) -> list[Item]:
    return sorted(items, key=lambda it: (it.size, -it.ident), reverse=True)


def _lower_bound(rules: VariantRules, items) -> int:
    """Bins every packing needs: the volume bound, and for colored rules
    at least ceil(colors / t)."""
    total = sum((it.size for it in items), ZERO)
    # ceil of an Exact total by exact comparison: a total a perturbation
    # above an integer needs one bin more
    volume = 0
    while rat(volume) < total:
        volume += 1
    if not rules.colored:
        return volume
    return max(volume, -(-len({it.color for it in items}) // rules.t))


def _scaled_sizes(items) -> tuple[list, object]:
    """The items' sizes as ints over one common denominator, with the unit
    room as that denominator; or, when it might be longer than
    _INT_BITS_CAP bits, the `Exact` sizes with the unit room ONE.

    Scaling by a common denominator maps sums, differences and order
    exactly, so a search on the scaled sizes takes every decision it would
    take on the `Exact` ones.  The denominator is L * 2**twos * 5**fives,
    with L the lcm of every rational and coefficient denominator: every
    term's power 10**e = 2**e * 5**e or 20**e = 2**(2e) * 5**e divides
    2**twos * 5**fives, so each size scales by multiplying, never dividing a
    long int.  The cap is decided before any power is expanded, from
    log2 5 < 7/3."""
    parts = [(item.size.rational_part, item.size.terms) for item in items]
    common = math.lcm(*(q.denominator for q, _ in parts),
                      *(coef.denominator for _, terms in parts for _, _, coef in terms))
    twos = max((exp * (2 if base == 20 else 1)
                for _, terms in parts for base, exp, _ in terms), default=0)
    fives = max((exp for _, terms in parts for _, exp, _ in terms), default=0)
    if common.bit_length() + twos + 7 * fives // 3 > _INT_BITS_CAP:
        return [item.size for item in items], ONE
    powers = (5**fives) << twos
    sizes = []
    for q, terms in parts:
        size = q.numerator * (common // q.denominator) * powers
        for base, exp, coef in terms:
            scale = common // coef.denominator * 5 ** (fives - exp)
            size += coef.numerator * scale << twos - exp * (2 if base == 20 else 1)
        sizes.append(size)
    return sizes, common * powers


def min_bins(instance: OracleInstance) -> OracleResult:
    """Provably minimum bin count with a witness packing."""
    rules = instance.rules
    ordered = _sorted_items(instance.items)
    budget = instance.node_budget
    lower = _lower_bound(rules, ordered)
    best_packing = Packing(rules)
    for item in ordered:
        best_packing.add_item(item, first_fit(best_packing, item))
    best = best_packing.cost
    nodes = 0
    best_bins = None  # the best leaf's bin of each item, once one beats the seed
    sizes, unit = _scaled_sizes(ordered)
    colors = [item.color for item in ordered]
    t = rules.t  # None unless colored
    n_items = len(ordered)
    # the open bins: each one's room and color set, and each placed item's bin
    rooms: list = []
    held: list[frozenset] = []
    bins: list[int] = []

    def search(index: int):
        nonlocal nodes, best, best_bins
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded("node budget exceeded")
        cost = len(rooms)
        if index == n_items:
            if cost < best:
                best, best_bins = cost, list(bins)
            return
        # Open bins stay open, and no completion beats the root bound: every
        # item before `index` already sits in an open bin, so the volume
        # bound recounted here would equal max(open bins, ceil(total)).
        if max(cost, lower) >= best:
            return
        size, color = sizes[index], colors[index]
        seen_signatures = set()
        for b in range(cost):
            room, colors_b = rooms[b], held[b]
            # `Packing.fits`: the color cap, then capacity
            if t is not None and color not in colors_b and len(colors_b) >= t:
                continue
            if not size <= room:
                continue
            signature = (room, colors_b)
            if signature in seen_signatures:
                continue
            seen_signatures.add(signature)
            rooms[b] = room - size
            if t is not None and color not in colors_b:
                held[b] = colors_b | {color}
            bins.append(b)
            search(index + 1)
            bins.pop()
            rooms[b], held[b] = room, colors_b
        if cost + 1 < best:  # fresh bin, only if it can still improve
            rooms.append(unit - size)
            held.append(frozenset() if t is None else frozenset((color,)))
            bins.append(cost)
            search(index + 1)
            bins.pop()
            rooms.pop()
            held.pop()

    proven = True
    if best > lower:  # a seed that meets the bound is optimal: no node is searched
        try:
            search(0)
        except BudgetExceeded:
            proven = False  # best is an upper bound only
    if best_bins is not None:
        best_packing = Packing(rules)
        try:
            for item, b in zip(ordered, best_bins):
                best_packing.add_item(item, Placement(b))
        except PackingError as error:
            raise InvalidWitness(f"witness packing invalid: {error}") from error
    violations = validate_packing(best_packing)
    if violations:
        raise InvalidWitness(f"witness packing invalid: {'; '.join(map(str, violations[:3]))}")
    if best_packing.cost != best:
        raise InvalidWitness(f"witness uses {best_packing.cost} bins, count says {best}")
    return OracleResult(best, best_packing, nodes, proven)
