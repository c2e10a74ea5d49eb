"""Adversary for online packing of squares into unit-square bins.

Wave one: M squares of side 1/4 + a ("quarters"); an item opening a fresh bin
is large.  Wave two: squares of side 1/3 + a ("thirds"); an item is small
when its target bin already holds a third or at least five quarters (both
read off the bin's contents before the placement), large otherwise; items
keep coming until 8 * smalls + 15 * larges reaches 12M.  Continuations: big
squares of side 3/4 - threshold after wave one, or squares of side 3/5 or
2/3 - threshold after wave two.

Offline packings are built from closed-form corner coordinates: one big
square at the origin with up to five quarters in the leftover L-strip, a
corner square with three thirds and two quarters around it, a 2x2 block of
thirds with five quarters, and 3x3 grids of quarters.  Every construction is
re-validated by the exact geometric checker; its cost is reported as an
upper bound on the offline optimum, so the reported ratios are valid lower
bounds on the true ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algorithms import check_replay, feed, make_session
from .exact import Exact, rat
from .model import Item, Packing, Placement, VariantRules, validate_packing
from .oracle import AdaptiveOracle, OracleConfig
from .reports import Check, CrossCheckFailure, ScenarioOutcome

__all__ = ["SquaresConfig", "SquaresCensus", "CensusGap", "run_full",
           "l_strip_layout", "corner_court_layout", "block_court_layout",
           "grid_layout"]

F = Fraction
QUARTER = F(1, 4)
THIRD = F(1, 3)
QUARTER_PITCH = rat(F(2501, 10000))  # strictly above every quarter side
THIRD_PITCH = rat(F(33344, 100000))  # strictly above every third side

SCENARIOS = ("three-quarter-fill", "six-tenths", "short-two-thirds")


class CensusGap(RuntimeError):
    """A bin shape or side pattern matched no census category."""


@dataclass(frozen=True)
class SquaresConfig:
    m: int
    k: int = 10

    def __post_init__(self):
        if self.m < 2 or self.m % 2:
            raise ValueError("M must be a positive even integer")


@dataclass
class SquaresCensus:
    """Bin counts by (quarters, thirds) shape with forced side patterns."""

    f69: int = 0    # 6-9 quarters
    f15: int = 0    # 1-5 quarters
    f58t1: int = 0  # 5-8 quarters + 1 small third
    f14t1: int = 0  # 1-4 quarters + 1 large third
    f57t2: int = 0  # 5-7 quarters + 2 small thirds
    f4t2: int = 0   # 4 quarters + large and small third
    f13t2: int = 0  # 1-3 quarters + large and small third
    f56t3: int = 0  # 5-6 quarters + 3 small thirds
    f34t3: int = 0  # 3-4 quarters + 1 large, 2 small
    f12t3: int = 0  # 1-2 quarters + 1 large, 2 small
    f5t4: int = 0   # 5 quarters + 4 small thirds
    f24t4: int = 0  # 2-4 quarters + 1 large, 3 small
    f1t4: int = 0   # 1 quarter + 1 large, 3 small
    t13: int = 0    # no quarters, 1-3 thirds, exactly one large
    t4: int = 0     # no quarters, 4 thirds, exactly one large
    bins4: int = 0  # bins open after wave one
    bins3: int = 0  # fresh bins opened during wave two
    sm3: int = 0    # small thirds presented
    lg3: int = 0    # large thirds presented

    def category_counts(self) -> dict:
        names = ("f69", "f15", "f58t1", "f14t1", "f57t2", "f4t2", "f13t2",
                 "f56t3", "f34t3", "f12t3", "f5t4", "f24t4", "f1t4", "t13", "t4")
        return {n: getattr(self, n) for n in names}

    def identity_checks(self, m: int) -> list[Check]:
        c = self
        f_carrying = (c.f69 + c.f15 + c.f58t1 + c.f14t1 + c.f57t2 + c.f4t2
                      + c.f13t2 + c.f56t3 + c.f34t3 + c.f12t3 + c.f5t4
                      + c.f24t4 + c.f1t4)
        checks = [
            Check.equal("census-wave1-bins", f_carrying, c.bins4),
            Check.equal("census-wave2-bins", c.t13 + c.t4, c.bins3),
            Check.at_least(
                "census-thirds-capacity",
                c.f58t1 + c.f14t1 + 2 * (c.f57t2 + c.f4t2 + c.f13t2)
                + 3 * (c.f56t3 + c.f34t3 + c.f12t3)
                + 4 * (c.f5t4 + c.f24t4 + c.f1t4) + 3 * c.t13 + 4 * c.t4,
                c.sm3 + c.lg3,
            ),
            Check.equal(
                "census-large-thirds",
                c.f14t1 + c.f4t2 + c.f13t2 + c.f34t3 + c.f12t3 + c.f24t4
                + c.f1t4 + c.t13 + c.t4,
                c.lg3,
            ),
            Check.at_least(
                "census-quarters-capacity",
                9 * c.f69 + 5 * c.f15 + 8 * c.f58t1 + 4 * c.f14t1
                + 7 * c.f57t2 + 4 * c.f4t2 + 3 * c.f13t2 + 6 * c.f56t3
                + 4 * c.f34t3 + 2 * c.f12t3 + 5 * c.f5t4 + 4 * c.f24t4
                + c.f1t4,
                m,
            ),
            Check.truth(
                "census-stop-sandwich",
                12 * m <= 8 * c.sm3 + 15 * c.lg3 <= 12 * m + 15,
                f"8*{c.sm3} + 15*{c.lg3} vs 12*{m}",
            ),
            Check.truth(
                "census-thirds-count-band",
                4 * m <= 5 * (c.sm3 + c.lg3) and 2 * (c.sm3 + c.lg3) <= 3 * m,
                f"count {c.sm3 + c.lg3}",
            ),
        ]
        return checks


def _classify_bin(nf: int, nt: int, n_large: int) -> str:
    table = {
        0: (((6, 9), "f69"), ((1, 5), "f15")),
        1: (((5, 8), "f58t1"), ((1, 4), "f14t1"), ((0, 0), "t13")),
        2: (((5, 7), "f57t2"), ((4, 4), "f4t2"), ((1, 3), "f13t2"), ((0, 0), "t13")),
        3: (((5, 6), "f56t3"), ((3, 4), "f34t3"), ((1, 2), "f12t3"), ((0, 0), "t13")),
        4: (((5, 5), "f5t4"), ((2, 4), "f24t4"), ((1, 1), "f1t4"), ((0, 0), "t4")),
    }
    if nt not in table:
        raise CensusGap(f"bin shape ({nf} quarters, {nt} thirds)")
    name = next((nm for (lo, hi), nm in table[nt] if lo <= nf <= hi), None)
    if name is None:
        raise CensusGap(f"bin shape ({nf} quarters, {nt} thirds)")
    if nt > 0:
        expected_large = 0 if nf >= 5 else 1
        if n_large != expected_large:
            raise CensusGap(
                f"bin ({nf} quarters, {nt} thirds) has {n_large} large thirds, "
                f"expected {expected_large}"
            )
    return name


@dataclass
class SquaresRun:
    algorithm_id: str
    m: int
    quarters: list[Item]
    thirds: list[Item]
    small_quarters: set[int]
    small_thirds: set[int]
    quarters_threshold: Exact
    thirds_threshold: Exact
    census: SquaresCensus
    scenarios: list[ScenarioOutcome]
    checks: list[Check]
    traces: dict


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


# -- closed-form layouts ----------------------------------------------------


def _check_count(layout: str, items: list, most: int) -> None:
    if len(items) > most:
        raise ValueError(f"{layout} places at most {most} squares of a kind, got {len(items)}")


def l_strip_layout(extent: Exact, smalls: list[Item]) -> list[tuple[Item, Exact, Exact]]:
    """Up to five squares around a block [0, extent]^2: opposite corner plus
    two along each arm of the leftover L-strip.

    Requires every side < 1 - extent and 2 * side <= extent-side clearance,
    which holds for quarters against any extent <= 3/4 used here.
    """
    _check_count("l_strip_layout", smalls, 5)
    coords = []
    one = rat(1)
    placed_col = []
    placed_row = []
    for idx, item in enumerate(smalls):
        s = item.size
        if idx == 0:  # far corner
            coords.append((item, one - s, one - s))
        elif idx in (1, 2):  # right column, stacked from the bottom
            y = rat(0) if not placed_col else placed_col[-1]
            coords.append((item, one - s, y))
            placed_col.append(y + s)
        else:  # top row, packed from the left wall
            x = rat(0) if not placed_row else placed_row[-1]
            coords.append((item, x, one - s))
            placed_row.append(x + s)
    return coords


def corner_court_layout(big: Item, thirds: list[Item], quarters: list[Item]):
    """Big square at the origin, thirds in the three free corners, one
    quarter against each arm between the corner squares."""
    _check_count("corner_court_layout", thirds, 3)
    _check_count("corner_court_layout", quarters, 2)
    one = rat(1)
    coords = [(big, rat(0), rat(0))]
    arm_anchor = {}
    for idx, t in enumerate(thirds):
        s = t.size
        if idx == 0:
            coords.append((t, one - s, rat(0)))
            arm_anchor["right"] = s
        elif idx == 1:
            coords.append((t, rat(0), one - s))
            arm_anchor["top"] = s
        else:
            coords.append((t, one - s, one - s))
    for idx, q in enumerate(quarters):
        s = q.size
        if idx == 0:  # right arm, above the bottom-right third
            coords.append((q, one - s, arm_anchor.get("right", rat(0))))
        else:  # top arm, right of the top-left third
            coords.append((q, arm_anchor.get("top", rat(0)), one - s))
    return coords


def block_court_layout(thirds: list[Item], quarters: list[Item]):
    """2x2 block of thirds in the corner, up to five quarters in the L-strip."""
    _check_count("block_court_layout", thirds, 4)
    _check_count("block_court_layout", quarters, 5)
    p = THIRD_PITCH
    spots = [(rat(0), rat(0)), (p, rat(0)), (rat(0), p), (p, p)]
    coords = [(t, x, y) for t, (x, y) in zip(thirds, spots)]
    coords.extend(l_strip_layout(p + p, quarters))
    return coords


def grid_layout(quarters: list[Item]) -> list[tuple[Item, Exact, Exact]]:
    """Up to nine quarters on a 3x3 grid of pitch just above every side."""
    _check_count("grid_layout", quarters, 9)
    p = QUARTER_PITCH
    coords = []
    for idx, q in enumerate(quarters):
        row, col = divmod(idx, 3)
        coords.append((q, p * col, p * row))
    return coords


def _build_packing(bins: list[list[tuple[Item, Exact, Exact]]]) -> Packing:
    packing = Packing(VariantRules("squares"))
    for b, coords in enumerate(bins):
        for item, x, y in coords:
            packing.add_item(item, Placement(b, x, y))
    violations = validate_packing(packing)
    if violations:
        raise CrossCheckFailure(f"square construction invalid: {violations[:3]}")
    return packing


# -- the run -----------------------------------------------------------------


def run_full(algorithm_id: str, m: int) -> SquaresRun:
    config = SquaresConfig(m)
    rules = VariantRules("squares")
    checks: list[Check] = []

    # wave one: quarters
    base_session = make_session(algorithm_id, rules)
    oracle1 = AdaptiveOracle(OracleConfig(config.k, m))
    quarters: list[Item] = []
    small_quarters: set[int] = set()
    for i in range(m):
        a = oracle1.next_value()
        item = Item(i, rat(QUARTER) + a, label="quarter")
        pre = base_session.cost
        placement = base_session.place(item)
        into_nonempty = placement.bin_index < pre
        oracle1.observe(into_nonempty)
        if into_nonempty:
            small_quarters.add(item.ident)
        quarters.append(item)
    gamma1 = oracle1.separator().gamma
    bins4 = base_session.cost
    checks.append(Check.equal("wave1-bins-equal-large-items",
                              bins4, m - len(small_quarters)))
    checks.append(Check.truth(
        "wave1-sides-in-band",
        all(rat(QUARTER) < q.size < rat(F(2501, 10000)) for q in quarters),
    ))

    check_replay(base_session)

    quarter_ids = {q.ident for q in quarters}
    large_quarters = [q for q in quarters if q.ident not in small_quarters]
    small_quarter_items = [q for q in quarters if q.ident in small_quarters]

    scenarios = []

    # scenario 1: big squares right after wave one
    count1 = _ceil_div(m - bins4, 5)
    big_side = rat(F(3, 4)) - gamma1
    items1 = [Item(10 * m + i, big_side, label="three-quarter-fill")
              for i in range(count1)]
    alg1 = feed(base_session.fork(), items1)
    bins_sc1 = []
    for j, big in enumerate(items1):
        group = small_quarter_items[5 * j : 5 * j + 5]
        bins_sc1.append([(big, rat(0), rat(0))] + l_strip_layout(big.size, group))
    for g in range(_ceil_div(bins4, 9)):
        bins_sc1.append(grid_layout(large_quarters[9 * g : 9 * g + 9]))
    opt1 = _build_packing(bins_sc1)
    sc1 = ScenarioOutcome("three-quarter-fill", count1, alg1,
                          opt_upper=opt1.cost, opt_packing=opt1)
    sc1.checks.append(Check.equal("alg-forced-cost", alg1, bins4 + count1))
    sc1.checks.append(Check.truth(
        "opt-within-formula",
        F(opt1.cost) <= F(m, 5) - F(4 * bins4, 45) + 2,
        f"cost {opt1.cost} vs {F(m,5) - F(4*bins4,45) + 2}",
    ))
    scenarios.append(sc1)

    # wave two: thirds with the weighted stopping rule
    session_t = base_session.fork()
    oracle2 = AdaptiveOracle(OracleConfig(config.k, 3 * m // 2))
    thirds: list[Item] = []
    small_thirds: set[int] = set()
    sm3 = lg3 = 0
    while True:
        a = oracle2.next_value()
        item = Item(m + len(thirds), rat(THIRD) + a, label="third")
        pre_bins = [list(b) for b in session_t.packing.bins]
        placement = session_t.place(item)
        if placement.bin_index < len(pre_bins):
            before = pre_bins[placement.bin_index]
            n_quarters = sum(1 for it, _ in before if it.ident in quarter_ids)
            has_third = any(it.ident >= m for it, _ in before)
            satisfied = has_third or n_quarters >= 5
        else:
            satisfied = False
        oracle2.observe(satisfied)
        if satisfied:
            small_thirds.add(item.ident)
            sm3 += 1
        else:
            lg3 += 1
        thirds.append(item)
        if oracle2.stop_check(lambda: 8 * sm3 + 15 * lg3 >= 12 * m):
            break
    gamma2 = oracle2.separator().gamma
    bins3 = session_t.cost - bins4
    checks.append(Check.truth(
        "wave2-sides-in-band",
        all(rat(THIRD) < t.size < rat(F(33344, 100000)) for t in thirds),
    ))
    checks.append(Check.at_most("wave2-count", len(thirds), 3 * m // 2))

    census = _census(session_t, quarter_ids, small_thirds, bins4, bins3, sm3, lg3)
    checks.extend(census.identity_checks(m))

    large_thirds = [t for t in thirds if t.ident not in small_thirds]
    small_third_items = [t for t in thirds if t.ident in small_thirds]
    mprime = sm3 + lg3

    # scenario 2: squares of side exactly 3/5
    count2 = mprime // 3
    items2 = [Item(10 * m + i, rat(F(3, 5)), label="six-tenths")
              for i in range(count2)]
    alg2 = feed(session_t.fork(), items2)
    taken = 0
    bins_sc2 = []
    quarter_pool = list(quarters)
    for j, big in enumerate(items2):
        three = thirds[3 * j : 3 * j + 3]
        two = [quarter_pool.pop(0) for _ in range(min(2, len(quarter_pool)))]
        bins_sc2.append(corner_court_layout(big, three, two))
    leftover_thirds = thirds[3 * count2 :]
    if leftover_thirds:
        bins_sc2.append([(t, THIRD_PITCH * j, rat(0))
                         for j, t in enumerate(leftover_thirds)])
    for g in range(_ceil_div(len(quarter_pool), 9) if quarter_pool else 0):
        bins_sc2.append(grid_layout(quarter_pool[9 * g : 9 * g + 9]))
    opt2 = _build_packing(bins_sc2)
    sc2 = ScenarioOutcome("six-tenths", count2, alg2,
                          opt_upper=opt2.cost, opt_packing=opt2)
    c = census
    reusable2 = c.f15 + c.f14t1 + c.f13t2 + c.f12t3 + c.t13
    sc2.checks.append(Check.at_least(
        "alg-lower-bound", alg2, bins4 + bins3 - reusable2 + count2))
    sc2.checks.append(Check.truth(
        "opt-within-formula",
        F(opt2.cost) <= F(m, 9) + F(7 * sm3, 27) + F(7 * lg3, 27) + 3,
        f"cost {opt2.cost}",
    ))
    scenarios.append(sc2)

    # scenario 3: squares a hair under two thirds
    count3 = sm3 // 3
    shy = rat(F(2, 3)) - gamma2
    items3 = [Item(10 * m + i, shy, label="short-two-thirds")
              for i in range(count3)]
    alg3 = feed(session_t.fork(), items3)
    bins_sc3 = []
    quarter_pool = list(quarters)
    small_pool = list(small_third_items)
    for big in items3:
        three = [small_pool.pop(0) for _ in range(3)]
        two = [quarter_pool.pop(0) for _ in range(min(2, len(quarter_pool)))]
        bins_sc3.append(corner_court_layout(big, three, two))
    block_thirds = large_thirds + small_pool
    n_blocks = _ceil_div(len(block_thirds), 4) if block_thirds else 0
    n_blocks = max(n_blocks, _ceil_div(len(quarter_pool), 5) if quarter_pool else 0)
    for g in range(n_blocks):
        four = block_thirds[4 * g : 4 * g + 4]
        five = [quarter_pool.pop(0) for _ in range(min(5, len(quarter_pool)))]
        bins_sc3.append(block_court_layout(four, five))
    opt3 = _build_packing(bins_sc3)
    sc3 = ScenarioOutcome("short-two-thirds", count3, alg3,
                          opt_upper=opt3.cost, opt_packing=opt3)
    sc3.checks.append(Check.at_least(
        "alg-lower-bound", alg3, bins4 + bins3 - c.f15 + count3))
    sc3.checks.append(Check.truth(
        "opt-within-formula",
        F(opt3.cost) <= F(sm3, 3) + F(lg3, 4) + 2,
        f"cost {opt3.cost}",
    ))
    scenarios.append(sc3)

    return SquaresRun(
        algorithm_id, m, quarters, thirds, small_quarters, small_thirds,
        gamma1, gamma2, census, scenarios, checks,
        {"quarters": oracle1.trace(), "thirds": oracle2.trace()},
    )


def _census(session, quarter_ids, small_thirds, bins4, bins3, sm3, lg3) -> SquaresCensus:
    census = SquaresCensus(bins4=bins4, bins3=bins3, sm3=sm3, lg3=lg3)
    for contents in session.packing.bins:
        nf = sum(1 for it, _ in contents if it.ident in quarter_ids)
        thirds_here = [it for it, _ in contents if it.ident not in quarter_ids]
        nt = len(thirds_here)
        n_large = sum(1 for it in thirds_here if it.ident not in small_thirds)
        name = _classify_bin(nf, nt, n_large)
        setattr(census, name, getattr(census, name) + 1)
    return census
