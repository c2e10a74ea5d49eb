"""Adversary for online packing of squares into unit-square bins.

Wave one: M squares of side 1/4 + a ("quarters"); an item opening a fresh bin
is large.  Wave two: squares of side 1/3 + a ("thirds"); an item is small
when its target bin already holds a third or at least five quarters (both
read off the bin's contents before the placement), large otherwise, so a
bin of thirds holds one large third below five quarters and none from five
(the `census-large-thirds` row); items keep coming until their weights
reach the total per M that sp's `stop-mix` row in `shapes.SP` states, which
also caps their count.  Continuations: big squares of side 3/4 - threshold
after wave one, or squares of side 3/5 or 2/3 - threshold after wave two.

Offline packings are built from closed-form corner coordinates: one big
square at the origin with up to five quarters in the leftover L-strip, a
corner square with three thirds and two quarters around it, a 2x2 block of
thirds with five quarters, 3x3 grids of quarters and rows of leftover
thirds; one rule (`_grid`) places every grid and row.  Every construction is
re-validated by the exact geometric checker; its cost is reported as an
upper bound on the offline optimum, so the reported ratios are valid lower
bounds on the true ones.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest

from .adversary import (CensusGap, Pool, Run, Wave, census, census_checks, chunks, continuation,
                        per_m, presented, wave_one)
from .exact import Exact, rat
from .model import Item, VariantRules
from .oracle import AdaptiveOracle, OracleConfig
from .reports import Check
from .shapes import SP

__all__ = ["CensusGap", "run_full",
           "l_strip_layout", "corner_court_layout", "block_court_layout",
           "grid_layout"]

F = Fraction
QUARTER = F(1, 4)
THIRD = F(1, 3)
QUARTER_PITCH = rat(F(2501, 10000))  # strictly above every quarter side
THIRD_PITCH = rat(F(33344, 100000))  # strictly above every third side
SEPARATION_BASE = 10  # both waves' oracle base


# -- closed-form layouts ----------------------------------------------------


def _check_count(layout: str, items: list, most: int) -> None:
    if len(items) > most:
        raise ValueError(f"{layout} places at most {most} squares of a kind, got {len(items)}")


def _arms(items: list[Item], arms: str) -> list[tuple[Item, Exact, Exact]]:
    """Place items[i] by the letter arms[i]: 'c' in the far corner
    (1 - s, 1 - s), 'r' on the right arm, stacked up from the floor, 't' on
    the top arm, packed right from the wall."""
    one = rat(1)
    last = {}  # arm -> (where its latest square starts, that square's side)
    coords = []
    for item, arm in zip(items, arms):
        s = item.size
        if arm == "c":
            coords.append((item, one - s, one - s))
            continue
        at = last[arm][0] + last[arm][1] if arm in last else rat(0)
        last[arm] = (at, s)
        coords.append((item, one - s, at) if arm == "r" else (item, at, one - s))
    return coords


def l_strip_layout(smalls: list[Item]) -> list[tuple[Item, Exact, Exact]]:
    """Up to five squares in the L-strip around a block at the origin: the
    opposite corner plus two along each arm.  `offline_packing` validates
    the result, so a block too large for them shows as an overlap."""
    _check_count("l_strip_layout", smalls, 5)
    return _arms(smalls, "crrtt")


def corner_court_layout(big: Item, thirds: list[Item], quarters: list[Item]):
    """Big square at the origin, thirds in the three free corners, one
    quarter against each arm between the corner squares."""
    _check_count("corner_court_layout", thirds, 3)
    _check_count("corner_court_layout", quarters, 2)
    return [(big, rat(0), rat(0))] + _arms([*thirds, *quarters], "rtc"[:len(thirds)] + "rt")


def _grid(items: list[Item], pitch: Exact, columns: int) -> list[tuple[Item, Exact, Exact]]:
    """items[i] in row i // columns and column i % columns of a grid from the origin."""
    return [(it, pitch * (i % columns), pitch * (i // columns)) for i, it in enumerate(items)]


def block_court_layout(thirds: list[Item], quarters: list[Item]):
    """2x2 block of thirds in the corner, up to five quarters in the L-strip."""
    _check_count("block_court_layout", thirds, 4)
    _check_count("block_court_layout", quarters, 5)
    return _grid(thirds, THIRD_PITCH, 2) + l_strip_layout(quarters)


def grid_layout(quarters: list[Item]) -> list[tuple[Item, Exact, Exact]]:
    """Up to nine quarters on a 3x3 grid of pitch just above every side."""
    _check_count("grid_layout", quarters, 9)
    return _grid(quarters, QUARTER_PITCH, 3)


# -- the run -----------------------------------------------------------------


def run_full(algorithm_id: str, m: int) -> Run:
    if m < 2 or m % 2:
        raise ValueError("M must be a positive integer divisible by 2")

    # wave one: quarters
    base_session, wave4, checks = wave_one(
        algorithm_id, VariantRules("squares"), OracleConfig(SEPARATION_BASE, m),
        lambda i, a: Item(i, rat(QUARTER) + a, label="quarter"))
    quarters = wave4.items
    gamma1 = wave4.oracle.separator().gamma
    bins4 = base_session.cost
    checks.append(wave4.in_band("wave1-sides-in-band", rat(QUARTER), QUARTER_PITCH))

    quarter_ids = {q.ident for q in quarters}

    scenarios = []

    def presented_items(name: str, size: Exact, counts: dict) -> list[Item]:
        return [Item(10 * m + i, size, label=name)
                for i in range(presented(SP.costs[name], counts, m))]

    # scenario 1: big squares right after wave one, counted before the census
    # on the one count its cost reads
    before = {"bins4": bins4}
    items1 = presented_items("three-quarter-fill", rat(F(3, 4)) - gamma1, before)
    bins_sc1 = [[(big, rat(0), rat(0))] + l_strip_layout(five)
                for big, five in zip(items1, chunks(wave4.smalls(), 5))]
    bins_sc1 += [grid_layout(nine) for nine in chunks(wave4.larges(), 9)]
    scenarios.append(continuation("three-quarter-fill", SP.costs["three-quarter-fill"], before,
                                  base_session, items1, bins_sc1))

    # wave two: thirds until the weighted stopping rule fires
    session_t = base_session.fork()

    def holds_a_third_or_five_quarters(before) -> bool:
        return (any(it.ident >= m for it, _ in before)
                or sum(1 for it, _ in before if it.ident in quarter_ids) >= SP.large_below)

    (_, weights, _, total), = SP.programs["sp"]  # the stop rule, per M
    lightest, heaviest = min(weights.values()), max(weights.values())
    most = -(-total * m // lightest)  # the thirds that reach the total, however they weigh

    def below_the_stop_weight(w: Wave) -> bool:
        counts = w.counts("sm3", "lg3")
        return not w.oracle.stop_check(lambda: per_m(weights, counts, m) >= total * m)

    wave3 = Wave(AdaptiveOracle(OracleConfig(SEPARATION_BASE, most))).run(
        session_t, lambda i, a: Item(m + i, rat(THIRD) + a, label="third"),
        below_the_stop_weight, small_when=holds_a_third_or_five_quarters)
    thirds = wave3.items
    gamma2 = wave3.oracle.separator().gamma
    bins3 = session_t.cost - bins4
    checks.append(wave3.in_band("wave2-sides-in-band", rat(THIRD), THIRD_PITCH))
    checks.append(Check.at_most("wave2-count", len(thirds), most))

    c = {**census(session_t.packing.bins, quarter_ids, SP.bands, SP.wave_one),
         "bins4": bins4, "bins3": bins3, **wave3.counts("sm3", "lg3")}
    n = len(thirds)
    # the stop rule's finite-M sandwich (the last third overshoots by at most the
    # heaviest weight) and the thirds count it implies: no program row states them
    checks.extend(census_checks(SP.rows, c, m) + [
        Check.truth("census-stop-sandwich",
                    total * m <= per_m(weights, c, m) <= total * m + heaviest,
                    " + ".join(f"{k}*{c[v]}" for v, k in weights.items()) + f" vs {total}*{m}"),
        Check.truth("census-thirds-count-band",
                    heaviest * n >= total * m > lightest * (n - 1), f"count {n}"),
    ])

    small_third_items = wave3.smalls()

    # scenario 2: squares of side exactly 3/5
    items2 = presented_items("six-tenths", rat(F(3, 5)), c)
    quarter_pool = Pool(quarters)
    threes = chunks(thirds, 3)
    bins_sc2 = [corner_court_layout(big, three, quarter_pool.take(2))
                for big, three in zip(items2, threes)]
    # the thirds left over, fewer than three, share a bin in a row
    bins_sc2 += [_grid(row, THIRD_PITCH, 3) for row in threes[len(items2):]]
    bins_sc2 += [grid_layout(nine) for nine in quarter_pool.rest(9)]
    scenarios.append(continuation("six-tenths", SP.costs["six-tenths"], c, session_t, items2,
                                  bins_sc2))

    # scenario 3: squares a hair under two thirds
    items3 = presented_items("short-two-thirds", rat(F(2, 3)) - gamma2, c)
    quarter_pool = Pool(quarters)
    bins_sc3 = [corner_court_layout(big, three, quarter_pool.take(2))
                for big, three in zip(items3, chunks(small_third_items, 3))]
    # one block per four thirds and per five quarters left, whichever needs more
    blocks = zip_longest(chunks(wave3.larges() + small_third_items[3 * len(items3):], 4),
                         quarter_pool.rest(5), fillvalue=[])
    bins_sc3 += [block_court_layout(four, five) for four, five in blocks]
    scenarios.append(continuation("short-two-thirds", SP.costs["short-two-thirds"], c, session_t,
                                  items3, bins_sc3))

    # opt per M on this run ("M" being m), plus the bins its layout's partly
    # filled bins may add (`Cost.slack`); only the first detail states the bound
    for i, sc in enumerate(scenarios):
        cost = SP.costs[sc.scenario]
        bound = per_m(cost.opt, c, m) + cost.slack
        detail = f"cost {sc.opt_upper}" + (f" vs {bound}" if i == 0 else "")
        sc.checks.append(Check.truth("opt-within-formula", sc.opt_upper <= bound, detail))

    return Run(algorithm_id, m, {"quarters": wave4, "thirds": wave3}, c, scenarios, checks)
