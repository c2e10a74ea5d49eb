"""Exact minimum-bin search for small 1-D instances (optionally colored).

Complete branch and bound: items are branched in decreasing size, the next
item goes into each distinguishable open bin and then one fresh bin.  Bins
with identical remaining room and color set are interchangeable for every
future decision, so only the first of each signature is branched.  The
first-fit baseline (`algorithms.first_fit`) fed the items in decreasing size
seeds the incumbent; the search proves optimality or improves on it.  A node
is pruned when max(open bins, ceil(total size)) >= best: open bins stay open,
and every packing needs the volume bound.  All arithmetic is exact, because
adversarial instances differ by amounts no float can see.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from .algorithms import first_fit
from .exact import Exact, rat
from .model import ONE, ZERO, Item, Packing, Placement, VariantRules, validate_packing

__all__ = ["OracleInstance", "OracleResult", "BudgetExceeded", "InvalidWitness", "min_bins"]

DEFAULT_NODE_BUDGET = 2_000_000


class BudgetExceeded(RuntimeError):
    """Search budget ran out; carries the best packing found so far."""

    def __init__(self, best_cost, message="node budget exceeded"):
        super().__init__(message)
        self.best_cost = best_cost


class InvalidWitness(RuntimeError):
    """The search's witness packing breaks a rule or disagrees with its count."""


@dataclass(frozen=True)
class OracleInstance:
    items: tuple[Item, ...]
    rules: VariantRules
    # None: PACKBOUND_NODE_BUDGET if set, else DEFAULT_NODE_BUDGET
    node_budget: Optional[int] = None

    def __post_init__(self):
        if self.rules.is_geometric:
            raise ValueError("exact search covers one-dimensional variants only")


@dataclass
class OracleResult:
    count: int
    witness: Packing
    nodes: int
    proven: bool  # True: provably minimal; False: budget ran out


def _env_budget() -> Optional[int]:
    raw = os.environ.get("PACKBOUND_NODE_BUDGET")
    return int(raw) if raw else None


def _sorted_items(items) -> list[Item]:
    return sorted(items, key=lambda it: (it.size, -it.ident), reverse=True)


def _volume_bound(items) -> int:
    total = sum((it.size for it in items), ZERO)
    # ceil of an Exact total: tiny perturbations cannot cross an integer on
    # their own, so ceil(rational part) + adjustment via exact comparison
    bound = 0
    while rat(bound) < total:
        bound += 1
    return bound


def _lower_bound(rules: VariantRules, items, volume: int) -> int:
    if not rules.colored:
        return volume
    return max(volume, -(-len({it.color for it in items}) // rules.t))


def _greedy(rules: VariantRules, ordered: list[Item]) -> Packing:
    packing = Packing(rules)
    for item in ordered:
        packing.add_item(item, first_fit(packing, item))
    return packing


def min_bins(instance: OracleInstance) -> OracleResult:
    """Provably minimum bin count with a witness packing."""
    rules = instance.rules
    if rules.kind == "known-opt":  # packing rules are plain 1-D
        rules = VariantRules("one-d")
    ordered = _sorted_items(instance.items)
    if not ordered:
        return OracleResult(0, Packing(rules), 0, True)

    budget = instance.node_budget
    if budget is None:
        budget = _env_budget()
    if budget is None:
        budget = DEFAULT_NODE_BUDGET
    volume = _volume_bound(ordered)
    lower = _lower_bound(rules, ordered, volume)
    best_packing = _greedy(rules, ordered)
    best = best_packing.cost
    if best == lower:
        return OracleResult(best, best_packing, 0, True)

    nodes = 0
    # bins held as parallel lists: loads, color sets, assignment lists
    loads: list[Exact] = []
    colors: list[set] = []
    content: list[list[Item]] = []

    def search(index: int):
        nonlocal nodes, best, best_packing
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(best)
        if index == len(ordered):
            if len(loads) < best:
                best = len(loads)
                packing = Packing(rules)
                for b, items_in_bin in enumerate(content):
                    for it in items_in_bin:
                        packing.add_item(it, Placement(b))
                best_packing = packing
            return
        # Every item before `index` sits in an open bin, so the volume still
        # to place beyond the open bins' free room is exactly
        # total - len(loads), and every completion of this node uses at least
        # max(len(loads), ceil(total)) bins.  The color bound is not applied
        # here; doing so would prune colored searches differently.
        if max(len(loads), volume) >= best:
            return
        item = ordered[index]
        seen_signatures = set()
        for b in range(len(loads)):
            if loads[b] + item.size > ONE:
                continue
            if rules.colored:
                cols = colors[b]
                if item.color not in cols and len(cols) >= rules.t:
                    continue
            signature = (loads[b], frozenset(colors[b]) if rules.colored else None)
            if signature in seen_signatures:
                continue
            seen_signatures.add(signature)
            loads[b] = loads[b] + item.size
            added_color = rules.colored and item.color not in colors[b]
            if added_color:
                colors[b].add(item.color)
            content[b].append(item)
            search(index + 1)
            content[b].pop()
            if added_color:
                colors[b].discard(item.color)
            loads[b] = loads[b] - item.size
        if len(loads) + 1 < best:  # fresh bin, only if it can still improve
            loads.append(item.size)
            colors.append({item.color} if rules.colored else set())
            content.append([item])
            search(index + 1)
            content.pop()
            colors.pop()
            loads.pop()
        return

    proven = True
    try:
        search(0)
    except BudgetExceeded:
        proven = False  # best is an upper bound only
    violations = validate_packing(best_packing)
    if violations:
        raise InvalidWitness(f"witness packing invalid: {'; '.join(map(str, violations[:3]))}")
    if best_packing.cost != best:
        raise InvalidWitness(f"witness uses {best_packing.cost} bins, count says {best}")
    return OracleResult(best, best_packing, nodes, proven)
