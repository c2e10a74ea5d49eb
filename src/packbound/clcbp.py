"""Adversary for class-constrained bin packing (t = 2 or 3 colors per bin).

Wave one: M tiny items, every one a fresh color, sized by a base-20 oracle
whose exponent window sits far below the later wave, so even the largest
tiny item is negligible against every later size gap.  Wave two: items of
size 1/3 + a ("thirds") whose colors reuse the tiny colors found in bins the
algorithm left short of t items, two thirds per color, with fresh colors
once those run out; an item is small exactly when it lands as the second
third of its bin.  For t = 3 the wave length is adaptive.  Finals: per-third
matching items of size 3/5, or per-small-third matching items a hair under
2/3, matching meaning same color.

The other branch skips wave two entirely: near-unit "huge" items colored by
small tiny items, one per floor((M - X)/t), forcing cost X + count against
an offline M/t.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algorithms import check_replay, feed, make_session
from .exact import Exact, rat
from .model import Item, Packing, Placement, VariantRules, validate_packing
from .optoracle import OracleInstance, min_bins
from .oracle import AdaptiveOracle, OracleConfig
from .reports import Check, CrossCheckFailure, ScenarioOutcome

__all__ = ["ClassConstrainedConfig", "ClassCensus", "run_full", "closed_form_bounds"]

F = Fraction
THIRD = F(1, 3)

SCENARIOS = ("huge", "six-tenths", "short-two-thirds")


@dataclass(frozen=True)
class ClassConstrainedConfig:
    t: int
    m: int
    k_tiny: int = 20
    k_thirds: int = 10

    def __post_init__(self):
        if self.t not in (2, 3):
            raise ValueError("t must be 2 or 3")
        if self.m < 6 or self.m % 6:
            raise ValueError("M must be a positive multiple of 6")

    @property
    def thirds_budget(self) -> int:
        return 2 * self.m

    def tiny_window_offset(self) -> int:
        # every tiny exponent must sit far beyond every wave-two exponent
        thirds_hi = OracleConfig(self.k_thirds, self.thirds_budget).window_hi
        return 2 * thirds_hi + 16


@dataclass
class ClassCensus:
    t: int
    per_count: dict  # j -> bins with exactly j tiny items
    tiny_bins: int  # X = sum of per_count
    z1: int = 0  # bins holding at least one third
    z2: int = 0  # bins holding exactly two thirds

    def identity_checks(self, m: int) -> list[Check]:
        checks = [
            Check.equal(
                "census-tiny-items",
                sum(j * n for j, n in self.per_count.items()),
                m,
            ),
            Check.equal("census-tiny-bins", sum(self.per_count.values()), self.tiny_bins),
            Check.at_most("census-pairs", self.z2, self.z1),
        ]
        return checks


@dataclass
class ColorLedger:
    reused_colors: list
    fresh_colors: list
    matched: dict  # color -> number of matching items issued

    def summary(self) -> dict:
        return {
            "reusedColors": len(self.reused_colors),
            "freshColors": len(self.fresh_colors),
            "matchedItems": sum(self.matched.values()),
        }


@dataclass
class ClassConstrainedRun:
    algorithm_id: str
    t: int
    m: int
    tinies: list[Item]
    thirds: list[Item]
    small_tinies: set[int]
    small_thirds: set[int]
    tiny_margin: Exact  # epsilon for the huge branch
    thirds_margin: Optional[Exact]  # epsilon for the finals
    census: ClassCensus
    scenarios: list[ScenarioOutcome]
    closed_form: dict
    checks: list[Check]
    ledger: Optional[ColorLedger]
    traces: dict


def closed_form_bounds(tiny_bins: int, per_count: dict, t: int, m: int) -> dict:
    """Ratio lower bounds that follow from the wave-one census alone."""
    bounds = {"tiny-wave": F((t - 1) * tiny_bins + m, m)}
    if per_count.get(t, 0) * 2 * t <= m:
        bounds["spread-tinies"] = F(4 * t - 1, 2 * t)
    return bounds


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _opt_packing(rules, groups) -> Packing:
    packing = Packing(rules)
    for b, group in enumerate(groups):
        for item in group:
            packing.add_item(item, Placement(b))
    violations = validate_packing(packing)
    if violations:
        raise CrossCheckFailure(f"offline construction invalid: {violations[:3]}")
    return packing


def run_full(algorithm_id: str, t: int, m: int,
             verify_oracle: Optional[bool] = None) -> ClassConstrainedRun:
    config = ClassConstrainedConfig(t, m)
    if verify_oracle is None:
        verify_oracle = m <= 6
    rules = VariantRules("class-constrained", t=t)
    checks: list[Check] = []

    # wave one: tiny items, one fresh color each
    base_session = make_session(algorithm_id, rules)
    oracle_tiny = AdaptiveOracle(OracleConfig(
        config.k_tiny, m, offset=config.tiny_window_offset()))
    tinies: list[Item] = []
    small_tinies: set[int] = set()
    for i in range(m):
        a = oracle_tiny.next_value()
        item = Item(i, a, color=i, label="tiny")
        pre = base_session.cost
        placement = base_session.place(item)
        into_nonempty = placement.bin_index < pre
        oracle_tiny.observe(into_nonempty)
        if into_nonempty:
            small_tinies.add(item.ident)
        tinies.append(item)
    sep_tiny = oracle_tiny.separator()
    tiny_margin = sep_tiny.gamma * 10  # epsilon of the huge branch

    per_count: dict = {}
    for contents in base_session.packing.bins:
        per_count[len(contents)] = per_count.get(len(contents), 0) + 1
    if any(j > t for j in per_count):
        raise CrossCheckFailure("a bin holds more than t tiny items")
    per_count = {j: per_count.get(j, 0) for j in range(1, t + 1)}
    tiny_bins = base_session.cost
    checks.append(Check.equal("wave1-bins-equal-large-items",
                              tiny_bins, m - len(small_tinies)))
    checks.append(Check.truth(
        "tiny-margins",
        all(tinies[i].size < sep_tiny.gamma for i in small_tinies)
        and all(tinies[i].size > tiny_margin * 2 for i in range(m)
                if i not in small_tinies),
        "small < eps/10 and large > 2*eps",
    ))

    check_replay(base_session)

    smalls_in_order = [it for it in tinies if it.ident in small_tinies]
    census = ClassCensus(t, per_count, tiny_bins)
    scenarios = []

    # huge branch
    count_h = (m - tiny_bins) // t
    huge_size = rat(1) - tiny_margin
    huge_items = [
        Item(10 * m + j, huge_size, color=smalls_in_order[j].color, label="huge")
        for j in range(count_h)
    ]
    alg_h = feed(base_session.fork(), huge_items)
    groups = []
    mates = smalls_in_order[:count_h]  # huge j matches small j by color
    filler_pool = smalls_in_order[count_h:]
    for huge, mate in zip(huge_items, mates):
        fillers = [filler_pool.pop(0) for _ in range(t - 1)]
        groups.append([huge, mate] + fillers)
    leftover = filler_pool + [it for it in tinies if it.ident not in small_tinies]
    for j in range(0, len(leftover), t):
        groups.append(leftover[j : j + t])
    opt_h = _opt_packing(rules, groups)
    sc_h = ScenarioOutcome("huge", count_h, alg_h, opt_upper=opt_h.cost, opt_packing=opt_h)
    sc_h.checks.append(Check.equal("alg-forced-cost", alg_h, tiny_bins + count_h))
    sc_h.checks.append(Check.equal("opt-construction-cost", opt_h.cost, m // t))
    if verify_oracle:
        packed = [it for b in opt_h.bins for it, _ in b]
        result = min_bins(OracleInstance(tuple(packed), rules))
        sc_h.checks.append(Check.truth(
            "opt-oracle-confirms",
            result.proven and result.count == m // t,
            f"oracle found {result.count}",
        ))
    scenarios.append(sc_h)

    census_checks = census.identity_checks(m)
    closed = closed_form_bounds(tiny_bins, per_count, t, m)

    if per_count[t] * 2 * t <= m:
        # too few full bins: the tiny-wave bound already does the work and
        # the later waves are not defined for this census
        checks.extend(census_checks)
        return ClassConstrainedRun(
            algorithm_id, t, m, tinies, [], small_tinies, set(), tiny_margin,
            None, census, scenarios, closed, checks, None,
            {"tinies": oracle_tiny.trace()},
        )

    # wave two: thirds with color reuse
    reusable = [it.color for it in tinies
                if len(base_session.packing.bins[_bin_of(base_session, it.ident)]) < t]
    session_t = base_session.fork()
    oracle_thirds = AdaptiveOracle(OracleConfig(config.k_thirds, config.thirds_budget))
    thirds: list[Item] = []
    small_thirds: set[int] = set()
    z1 = z2 = 0
    fresh_colors: list[int] = []

    def third_color(index: int) -> int:
        pair = index // 2
        if pair < len(reusable):
            return reusable[pair]
        fresh = m + (pair - len(reusable))
        if fresh not in fresh_colors:
            fresh_colors.append(fresh)
        return fresh

    def present_one():
        nonlocal z1, z2
        a = oracle_thirds.next_value()
        item = Item(m + len(thirds), rat(THIRD) + a,
                    color=third_color(len(thirds)), label="third")
        pre_bins = [list(b) for b in session_t.packing.bins]
        placement = session_t.place(item)
        second_third = placement.bin_index < len(pre_bins) and any(
            it.label == "third" for it, _ in pre_bins[placement.bin_index]
        )
        oracle_thirds.observe(second_third)
        if second_third:
            small_thirds.add(item.ident)
            z2 += 1
        else:
            z1 += 1
        thirds.append(item)

    if t == 2:
        target = 2 * max(per_count[1], per_count[2])
        for _ in range(target):
            present_one()
        oracle_thirds.halt()
        checks.append(Check.equal("wave2-count", len(thirds), target))
    else:
        x3 = per_count[3]
        while z1 + z2 + 6 * x3 < 2 * m - 1 and 3 * z1 + 4 * z2 < 2 * m - 7:
            present_one()
        if 3 * z1 + 4 * z2 < 2 * m - 7:
            while 2 * z1 + 3 * z2 < 6 * x3 - 5:
                present_one()
        if len(thirds) % 2:
            present_one()
        oracle_thirds.halt()
        stop_disjunction = (3 * z1 + 4 * z2 <= 2 * m) or (
            2 * z1 + 3 * z2 <= 6 * x3 <= 2 * m
        )
        checks.append(Check.truth(
            "wave2-stop-disjunction", stop_disjunction,
            f"z1={z1} z2={z2} x3={x3}",
        ))
    checks.append(Check.truth("wave2-even-count", len(thirds) % 2 == 0))
    census.z1, census.z2 = z1, z2
    checks.extend(census.identity_checks(m))

    sep_thirds = oracle_thirds.separator()
    thirds_margin = (sep_thirds.small_sup * 10 + sep_thirds.large_inf) / 2
    checks.append(Check.truth(
        "thirds-margins",
        all(thirds[i - m].size < rat(THIRD) + thirds_margin / 10
            for i in small_thirds)
        and all(it.size > rat(THIRD) + thirds_margin for it in thirds
                if it.ident not in small_thirds),
        "small < 1/3 + eps/10 and large > 1/3 + eps",
    ))
    checks.append(Check.truth(
        "wave-scale-gap",
        min(
            (it.size for it in thirds), default=rat(1)
        ) - rat(THIRD) > max(it.size for it in tinies) * 6,
        "smallest third perturbation exceeds 6x the largest tiny",
    ))

    ledger = ColorLedger(reusable[: len(thirds) // 2], fresh_colors, {})

    large_third_items = [it for it in thirds if it.ident not in small_thirds]
    small_third_items = [it for it in thirds if it.ident in small_thirds]

    # final: matching items of size 3/5 for every third
    items_suffix = 20 * m
    halves = [
        Item(items_suffix + j, rat(F(3, 5)), color=it.color, label="matching")
        for j, it in enumerate(thirds)
    ]
    for it in thirds:
        ledger.matched[it.color] = ledger.matched.get(it.color, 0) + 1
    alg_half = feed(session_t.fork(), halves)
    opt_half = _opt_packing(rules, _halves_groups(t, tinies, thirds, halves,
                                                  reusable, small_tinies))
    sc_half = ScenarioOutcome("six-tenths", len(halves), alg_half,
                              opt_upper=opt_half.cost, opt_packing=opt_half)
    sc_half.checks.append(Check.at_least(
        "alg-lower-bound", alg_half, per_count[t] + z1 + 2 * z2))
    slack_half = 0 if t == 2 else 1
    sc_half.checks.append(Check.at_most(
        "opt-within-formula", opt_half.cost, z1 + z2 + slack_half))
    scenarios.append(sc_half)

    # final: matching items a hair under two thirds for every small third
    shy = rat(F(2, 3)) - thirds_margin / 5
    two_thirds = [
        Item(items_suffix + len(halves) + j, shy, color=it.color, label="matching")
        for j, it in enumerate(small_third_items)
    ]
    alg_two = feed(session_t.fork(), two_thirds)
    opt_two = _opt_packing(rules, _two_thirds_groups(
        t, tinies, thirds, small_third_items, large_third_items, two_thirds,
        reusable, small_thirds))
    sc_two = ScenarioOutcome("short-two-thirds", len(two_thirds), alg_two,
                             opt_upper=opt_two.cost, opt_packing=opt_two)
    sc_two.checks.append(Check.at_least(
        "alg-lower-bound", alg_two, per_count[t] + z1 + z2))
    if t == 2:
        x1, x2 = per_count[1], per_count[2]
        bound = F(z1, 2) + z2 + x2 - F(max(x1, x2), 2) + 1
    else:
        bound = F(z1 + 2 * z2, 2) + 2
    sc_two.checks.append(Check.truth(
        "opt-within-formula", F(opt_two.cost) <= bound,
        f"cost {opt_two.cost} vs {bound}",
    ))
    scenarios.append(sc_two)

    return ClassConstrainedRun(
        algorithm_id, t, m, tinies, thirds, small_tinies, small_thirds,
        tiny_margin, thirds_margin, census, scenarios, closed, checks, ledger,
        {"tinies": oracle_tiny.trace(), "thirds": oracle_thirds.trace()},
    )


def _bin_of(session, ident) -> int:
    for b, contents in enumerate(session.packing.bins):
        if any(it.ident == ident for it, _ in contents):
            return b
    raise KeyError(ident)


def _rider_map(tinies, reusable_used):
    """Tiny items whose color was reused ride a bin holding that color."""
    by_color = {it.color: it for it in tinies}
    return {c: by_color[c] for c in reusable_used}


def _halves_groups(t, tinies, thirds, halves, reusable, small_tinies):
    """One bin per third: the third, its matching item, a same-color tiny
    when one exists, and unique-color tinies up to the color cap."""
    used_colors = {it.color for it in thirds}
    riders = _rider_map(tinies, [c for c in used_colors if c < len(tinies)])
    unique = [it for it in tinies if it.color not in riders]
    groups = []
    placed_rider = set()
    for third, match in zip(thirds, halves):
        bin_items = [third, match]
        color = third.color
        if color in riders and color not in placed_rider:
            bin_items.append(riders[color])
            placed_rider.add(color)
        for _ in range(t - 1):
            if unique:
                bin_items.append(unique.pop(0))
        groups.append(bin_items)
    for j in range(0, len(unique), t):
        groups.append(unique[j : j + t])
    return groups


def _two_thirds_groups(t, tinies, thirds, small_third_items, large_third_items,
                       matches, reusable, small_thirds):
    """Small thirds pair with their matching item; large thirds pack in
    same-color pairs first, remaining ones two per bin; tinies ride along."""
    used_colors = {it.color for it in thirds}
    riders = _rider_map(tinies, [c for c in used_colors if c < len(tinies)])
    unique = [it for it in tinies if it.color not in riders]
    placed_rider = set()

    def rider_for(color):
        if color in riders and color not in placed_rider:
            placed_rider.add(color)
            return [riders[color]]
        return []

    def fill_unique(n):
        out = []
        for _ in range(n):
            if unique:
                out.append(unique.pop(0))
        return out

    groups = []
    for small, match in zip(small_third_items, matches):
        # same-color rider adds no color; t-1 unique colors still fit
        bin_items = [small, match] + rider_for(small.color) + fill_unique(t - 1)
        groups.append(bin_items)

    z1, z2 = len(large_third_items), len(small_third_items)
    k_same = (z1 - z2) // 2
    by_color: dict = {}
    for it in large_third_items:
        by_color.setdefault(it.color, []).append(it)
    same_pairs = [pair for pair in by_color.values() if len(pair) == 2]
    loose = [it for pair in by_color.values() if len(pair) == 1 for it in pair]
    if len(same_pairs) < k_same:
        raise CrossCheckFailure("fewer same-color large pairs than guaranteed")
    for pair in same_pairs[k_same:]:
        loose.extend(pair)
    for pair in same_pairs[:k_same]:
        bin_items = list(pair) + rider_for(pair[0].color) + fill_unique(t - 1)
        groups.append(bin_items)
    for j in range(0, len(loose), 2):
        chunk = loose[j : j + 2]
        bin_items = list(chunk)
        for it in chunk:
            bin_items += rider_for(it.color)
        free_colors = t - len({it.color for it in bin_items})
        bin_items += fill_unique(free_colors)
        groups.append(bin_items)
    for j in range(0, len(unique), t):
        groups.append(unique[j : j + t])
    return groups
