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

The search runs on one `model.Packing`: it probes a bin with `fits`, places
with `add_item` and backtracks with `pop`, so it obeys the same bin rule as
every online strategy, and a better leaf is kept as a `copy()` of it.  A
placement makes one `Exact` subtraction; `pop` puts back the room object the
bin had before, so a backtrack does no arithmetic and the restored room keeps
the hash it cached for the signature lookups.
"""

from __future__ import annotations

from typing import NamedTuple

from .algorithms import first_fit
from .exact import rat
from .model import ZERO, Item, Packing, Placement, VariantRules, validate_packing

__all__ = ["OracleInstance", "OracleResult", "BudgetExceeded", "InvalidWitness", "min_bins"]

DEFAULT_NODE_BUDGET = 2_000_000


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


def min_bins(instance: OracleInstance) -> OracleResult:
    """Provably minimum bin count with a witness packing."""
    rules = instance.rules
    ordered = _sorted_items(instance.items)
    if not ordered:
        return OracleResult(0, Packing(rules), 0, True)

    budget = instance.node_budget
    lower = _lower_bound(rules, ordered)
    best_packing = Packing(rules)
    for item in ordered:
        best_packing.add_item(item, first_fit(best_packing, item))
    best = best_packing.cost
    if best == lower:
        return OracleResult(best, best_packing, 0, True)

    nodes = 0
    packing = Packing(rules)  # the search's one live packing

    def search(index: int):
        nonlocal nodes, best, best_packing
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded("node budget exceeded")
        if index == len(ordered):
            if packing.cost < best:
                best = packing.cost
                best_packing = packing.copy()
            return
        # Open bins stay open, and no completion beats the root bound: every
        # item before `index` already sits in an open bin, so the volume
        # bound recounted here would equal max(open bins, ceil(total)).
        if max(packing.cost, lower) >= best:
            return
        item = ordered[index]
        seen_signatures = set()
        for b in range(packing.cost):
            if not packing.fits(b, item):
                continue
            signature = (packing.bin_room(b), frozenset(packing.bin_colors(b)))
            if signature in seen_signatures:
                continue
            seen_signatures.add(signature)
            packing.add_item(item, Placement(b))
            search(index + 1)
            packing.pop(b)
        if packing.cost + 1 < best:  # fresh bin, only if it can still improve
            fresh = packing.cost
            packing.add_item(item, Placement(fresh))
            search(index + 1)
            packing.pop(fresh)

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
