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

from fractions import Fraction

from .adversary import (CensusGap, Pool, Run, Wave, census, census_checks, chunks, continuation,
                        optimum_checks, per_m, presented, wave_one)
from .exact import rat
from .model import Item, VariantRules
from .oracle import AdaptiveOracle, OracleConfig
from .reports import Check
from .shapes import KO

__all__ = ["CensusGap", "run_full"]

F = Fraction
SEVENTH = F(1, 7)
THIRD = F(1, 3)
SEPARATION_BASE = 10  # both waves' oracle base


def run_full(algorithm_id: str, m: int) -> Run:
    """Run all five branches, each held to its offline optimum M
    (`adversary.optimum_checks`, which confirms it by exact search at small M)."""
    if m < 4 or m % 4:
        raise ValueError("M must be a positive integer divisible by 4")

    # wave one: sevenths
    base_session, wave7, checks = wave_one(
        algorithm_id, VariantRules("known-opt", advice=m), OracleConfig(SEPARATION_BASE, m),
        lambda i, a: Item(i, rat(SEVENTH) + a, label="seventh"))
    sevenths = wave7.items
    gamma1 = wave7.oracle.separator().gamma
    bins7 = base_session.cost
    checks.append(wave7.in_band("wave1-sizes-in-band", rat(SEVENTH), rat(F(143, 1000))))

    # wave two: thirds (continues a fork of the wave-one session)
    two_wave_session = base_session.fork()
    wave3 = Wave(AdaptiveOracle(OracleConfig(SEPARATION_BASE, m))).run(
        two_wave_session, lambda i, a: Item(m + i, rat(THIRD) + a, label="third"),
        lambda w: len(w.items) < m)
    thirds = wave3.items
    gamma2 = wave3.oracle.separator().gamma
    bins3 = two_wave_session.cost - bins7
    checks.append(Check.equal("wave2-new-bins-equal-large-items",
                              bins3, m - len(wave3.small_ids)))
    checks.append(wave3.in_band("wave2-sizes-in-band", rat(THIRD), rat(F(33344, 100000))))

    c = {**census(two_wave_session.packing.bins, {it.ident for it in sevenths}, KO.bands,
                  KO.wave_one),
         "bins7": bins7, "bins3": bins3}
    checks.extend(census_checks(KO.rows, c, m))

    scenarios = []

    def presented_items(name: str, size, label: str = "") -> list[Item]:
        return [Item(2 * m + i, size, label=label or name)
                for i in range(presented(KO.costs[name], c, m))]

    def settle(name: str, session, items: list[Item], bins) -> None:
        cost = KO.costs[name]
        opt = per_m(cost.opt, c, m)  # M
        sc = continuation(name, cost, c, session, items, bins, opt_cost=opt)
        sc.checks += optimum_checks(sc, opt, m)
        scenarios.append(sc)

    # 1: four-fifths items after wave one
    items1 = presented_items("four-fifths", rat(F(4, 5)))
    settle("four-fifths", base_session, items1, [list(pair) for pair in zip(items1, sevenths)])

    # 2: fillers that only a small seventh can join
    items2 = presented_items("big-fill", rat(F(6, 7)) - gamma1)
    smalls = Pool(wave7.smalls())
    settle("big-fill", base_session, items2,
           chunks(wave7.larges(), 6) + [[it] + smalls.take(1) for it in items2])

    # 3: unit items after both waves
    items3 = presented_items("units", rat(1), "unit")
    mixed = [two7 + two3 for two7, two3 in zip(chunks(sevenths, 2), chunks(thirds, 2))]
    settle("units", two_wave_session, items3, mixed + [[u] for u in items3])

    # 4: items just over one half
    items4 = presented_items("over-half", rat(F(13, 25)))
    settle("over-half", two_wave_session, items4,
           [list(trio) for trio in zip(items4, thirds, sevenths)])

    # 5: items just under two thirds, count set by the wave-two bin count
    items5 = presented_items("short-two-thirds", rat(F(2, 3)) - gamma2)
    settle("short-two-thirds", two_wave_session, items5,
           _scenario5_groups(m, sevenths, wave3.larges(), wave3.smalls(), items5))

    return Run(algorithm_id, m, {"sevenths": wave7, "thirds": wave3}, c, scenarios, checks)


def _scenario5_groups(m, sevenths, large_thirds, small_thirds, items5):
    """Offline grouping for the short-two-thirds continuation, cost exactly M.

    The M - len(items5) bins the short items leave ("pairs": M/4 when
    2*bins3 <= M, the run's case ko-case1, else ceil(bins3/2)) each hold
    two thirds, larges first, and two sevenths, so no large third meets a
    short item. Each short item gets a bin of its own, with two sevenths in
    the first M/2 - pairs of them and one left-over third in each of the rest.
    """
    pairs = m - len(items5)
    sevenths, thirds = Pool(sevenths), Pool(large_thirds + small_thirds)
    groups = [thirds.take(2) + sevenths.take(2) for _ in range(pairs)]
    return groups + [[it] + (sevenths.take(2) if j < m // 2 - pairs else thirds.take(1))
                     for j, it in enumerate(items5)]
