"""Exact minimum-bin search for small 1-D instances (optionally colored).

Complete branch and bound: items are branched in decreasing size, the next
item goes into each distinguishable open bin and then one fresh bin.  Bins
with identical remaining room and color set are interchangeable for every
future decision, so only the first of each signature is branched.  The
first-fit baseline (`algorithms.first_fit`) fed the items in decreasing size
seeds the incumbent; the search proves optimality or improves on it.  A node
is pruned when max(open bins, lower) >= best, where lower is the root bound
ceil(total size), raised for colored rules to ceil(colors / t): open bins
stay open, and every packing needs the root bound.  The search stops after
`OracleInstance.node_budget` nodes (DEFAULT_NODE_BUDGET unless the instance
sets one) with the incumbent as an upper bound.  All arithmetic is exact,
because adversarial instances differ by amounts no float can see.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    node_budget: int = DEFAULT_NODE_BUDGET

    def __post_init__(self):
        if self.rules.is_geometric:
            raise ValueError("exact search covers one-dimensional variants only")


@dataclass
class OracleResult:
    count: int
    witness: Packing
    nodes: int
    proven: bool  # True: provably minimal; False: budget ran out


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


def _lower_bound(rules: VariantRules, items) -> int:
    """Bins every packing needs: the volume bound, and for colored rules
    at least ceil(colors / t)."""
    volume = _volume_bound(items)
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
    lower = _lower_bound(rules, ordered)
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
        # Open bins stay open, and no completion beats the root bound: every
        # item before `index` already sits in an open bin, so the volume
        # bound recounted here would equal max(len(loads), ceil(total)).
        if max(len(loads), lower) >= best:
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
