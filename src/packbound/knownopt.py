"""Adversary for bin packing with the optimal cost announced in advance.

The run feeds two adaptive waves and then branches into five continuations,
every one of which admits an offline packing of exactly M bins (built here
explicitly and validated), while the wave classification forces the online
algorithm to pay more in at least one branch.

Wave one: M items of size 1/7 + a ("sevenths"), a from the adaptive oracle;
an item opening a fresh bin is large, the rest are small.  Wave two: M items
of size 1/3 + a ("thirds"), same steering.  Continuations: four-fifths items,
almost-6/7 fillers sized against the wave-one threshold, unit items,
just-over-half items, and just-under-2/3 items sized against the wave-two
threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .adversary import (CensusGap, census, census_checks, ceil_div, continuation,
                        forced_check, offline_packing, run_wave)
from .algorithms import check_replay, make_session
from .exact import Exact, rat
from .model import Item, VariantRules
from .optoracle import OracleInstance, min_bins
from .oracle import AdaptiveOracle, OracleConfig
from .reports import Check, ScenarioOutcome
from .shapes import KO, structural_rows

__all__ = ["CensusGap", "run_full"]

F = Fraction
SEVENTH = F(1, 7)
THIRD = F(1, 3)
SEPARATION_BASE = 10  # both waves' oracle base
ORACLE_CHECK_MAX_M = 8  # the exact search confirms the offline optima up to here


@dataclass
class KnownOptRun:
    algorithm_id: str
    m: int
    sevenths: list[Item]
    thirds: list[Item]
    small_sevenths: set[int]
    small_thirds: set[int]
    sevenths_threshold: Exact
    thirds_threshold: Exact
    census: dict  # census name, bins7 and bins3 -> bin count
    scenarios: list[ScenarioOutcome]
    checks: list[Check]
    traces: dict


def run_full(algorithm_id: str, m: int) -> KnownOptRun:
    """Run all five branches; oracle-verify offline optima when M is small."""
    if m < 4 or m % 4:
        raise ValueError("M must be a positive integer divisible by 4")
    rules = VariantRules("known-opt", advice=m)
    checks: list[Check] = []

    # wave one: sevenths
    base_session = make_session(algorithm_id, rules)
    oracle1 = AdaptiveOracle(OracleConfig(SEPARATION_BASE, m))
    sevenths, small_sevenths = run_wave(
        base_session, oracle1, m, lambda i, a: Item(i, rat(SEVENTH) + a, label="seventh"))
    gamma1 = oracle1.separator().gamma
    bins7 = base_session.cost
    checks.append(Check.equal("wave1-bins-equal-large-items",
                              bins7, m - len(small_sevenths)))
    upper = rat(F(143, 1000))
    checks.append(Check.truth(
        "wave1-sizes-in-band",
        all(rat(SEVENTH) < it.size < upper for it in sevenths),
    ))
    check_replay(base_session)

    # wave two: thirds (continues a fork of the wave-one session)
    two_wave_session = base_session.fork()
    oracle2 = AdaptiveOracle(OracleConfig(SEPARATION_BASE, m))
    thirds, small_thirds = run_wave(
        two_wave_session, oracle2, m, lambda i, a: Item(m + i, rat(THIRD) + a, label="third"))
    gamma2 = oracle2.separator().gamma
    bins3 = two_wave_session.cost - bins7
    checks.append(Check.equal("wave2-new-bins-equal-large-items",
                              bins3, m - len(small_thirds)))
    checks.append(Check.truth(
        "wave2-sizes-in-band",
        all(rat(THIRD) < it.size < rat(F(33344, 100000)) for it in thirds),
    ))

    c = {**census(two_wave_session.packing.bins, {it.ident for it in sevenths}, KO.bands,
                  KO.wave_one),
         "bins7": bins7, "bins3": bins3}
    checks.extend(census_checks(structural_rows(KO), c, m))

    large_sevenths = [it for it in sevenths if it.ident not in small_sevenths]
    small_seventh_items = [it for it in sevenths if it.ident in small_sevenths]
    large_thirds = [it for it in thirds if it.ident not in small_thirds]
    small_third_items = [it for it in thirds if it.ident in small_thirds]

    scenarios = []

    # 1: four-fifths items after wave one
    items1 = [Item(2 * m + i, rat(F(4, 5)), label="four-fifths") for i in range(m)]
    opt1 = offline_packing(rules, [[items1[j], sevenths[j]] for j in range(m)])
    scenarios.append(continuation("four-fifths", base_session, items1, opt1, opt_cost=m))

    # 2: fillers that only a small seventh can join
    count2 = m - ceil_div(bins7, 6)
    filler = rat(F(6, 7)) - gamma1
    items2 = [Item(2 * m + i, filler, label="big-fill") for i in range(count2)]
    groups = [large_sevenths[i::ceil_div(bins7, 6)] for i in range(ceil_div(bins7, 6))]
    fill_bins = [[it] for it in items2]
    for j, small in enumerate(small_seventh_items):
        fill_bins[j].append(small)
    opt2 = offline_packing(rules, groups + fill_bins)
    scenarios.append(continuation("big-fill", base_session, items2, opt2, opt_cost=m))

    # 3: unit items after both waves
    items3 = [Item(2 * m + i, rat(1), label="unit") for i in range(m // 2)]
    mixed = [
        [sevenths[2 * j], sevenths[2 * j + 1], thirds[2 * j], thirds[2 * j + 1]]
        for j in range(m // 2)
    ]
    opt3 = offline_packing(rules, mixed + [[u] for u in items3])
    scenarios.append(continuation("units", two_wave_session, items3, opt3, opt_cost=m))

    # 4: items just over one half
    items4 = [Item(2 * m + i, rat(F(13, 25)), label="over-half") for i in range(m)]
    opt4 = offline_packing(
        rules, [[items4[j], thirds[j], sevenths[j]] for j in range(m)]
    )
    scenarios.append(continuation("over-half", two_wave_session, items4, opt4, opt_cost=m))

    # 5: items just under two thirds, count set by the wave-two bin count
    count5 = m - max(m // 4, ceil_div(bins3, 2))
    shy = rat(F(2, 3)) - gamma2
    items5 = [Item(2 * m + i, shy, label="short-two-thirds") for i in range(count5)]
    opt5 = offline_packing(rules, _scenario5_groups(
        m, bins3, sevenths, large_thirds, small_third_items, items5))
    scenarios.append(continuation("short-two-thirds", two_wave_session, items5, opt5,
                                  opt_cost=m))

    for sc in scenarios:
        sc.checks += [forced_check(KO.costs[sc.scenario], c, sc),
                      Check.equal("opt-construction-cost", sc.opt_packing.cost, m)]
        if m <= ORACLE_CHECK_MAX_M:
            packed = [it for b in sc.opt_packing.bins for it, _ in b]
            result = min_bins(OracleInstance(tuple(packed), rules))
            sc.checks.append(Check.truth(
                "opt-oracle-confirms-advice",
                result.proven and result.count == m,
                f"oracle found {result.count} (proven={result.proven})",
            ))

    return KnownOptRun(
        algorithm_id, m, sevenths, thirds, small_sevenths, small_thirds,
        gamma1, gamma2, c, scenarios, checks,
        {"sevenths": oracle1.trace(), "thirds": oracle2.trace()},
    )


def _scenario5_groups(m, bins3, sevenths, large_thirds, small_third_items, items5):
    """Offline grouping for the short-two-thirds continuation, cost exactly M."""
    groups: list[list[Item]] = []
    s = list(sevenths)
    larges = list(large_thirds)
    smalls = list(small_third_items)
    if bins3 <= m // 2:
        # m/4 bins of two thirds + two sevenths, larges first
        pool = larges + smalls
        for j in range(m // 4):
            groups.append([pool.pop(0), pool.pop(0), s.pop(), s.pop()])
        remaining_smalls = pool  # all larges are gone: m/2 >= bins3
        fill = [[it] for it in items5]
        for j in range(m // 4):
            fill[j].extend([s.pop(), s.pop()])
        for j in range(m // 2):
            fill[m // 4 + j].append(remaining_smalls.pop(0))
        groups.extend(fill)
    else:
        half_bins = ceil_div(bins3, 2)
        for j in range(half_bins):
            pair = larges[2 * j : 2 * j + 2]
            groups.append(pair + [s.pop(), s.pop()])
        fill = [[it] for it in items5]
        for j in range(m // 2 - half_bins):
            fill[j].extend([s.pop(), s.pop()])
        for j, small in enumerate(smalls):
            fill[m // 2 - half_bins + j].append(small)
        groups.extend(fill)
    return [g for g in groups if g]
