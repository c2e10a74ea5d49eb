"""Adversary for class-constrained bin packing (t = 2 or 3 colors per bin).

Wave one: M tiny items, every one a fresh color, sized by a base-20 oracle
whose exponent window sits far below the later wave, so even the largest
tiny item is negligible against every later size gap.  Wave two: items of
size 1/3 + a ("thirds") whose colors reuse the tiny colors found in bins the
algorithm left short of t items, two thirds per color, with fresh colors
once those run out; an item is small exactly when it lands as the second
third of its bin.  The wave's length adapts to the census (below).  Finals:
per-third matching items of size 3/5, or per-small-third matching items a
hair under 2/3, matching meaning same color.

The other branch skips wave two entirely: near-unit "huge" items colored by
small tiny items, one per floor((M - X)/t), forcing cost X + count against
an offline M/t.

Offline packings: huge j shares a bin with small tiny j, whose color it
carries, and t - 1 further small tinies.  In the finals each third, or
same-color pair or chunk of two large thirds, gets a bin; a tiny whose color
a third reuses rides with the first bin of that color, and the other tinies
fill the bins' free color slots in ident order (`_TinyPool`, an
`adversary.Pool`).  Whatever tinies are left pack t to a bin.  The color
ledger counts the colors the thirds reuse and the fresh ones they take (two
thirds per color), and the matching items of the 3/5 final, one per third.

The census (x_j bins holding j tinies, z1 bins holding a third, z2 bins
holding two thirds), each branch's cost and the bound programs' own rows are
declared once, in `shapes.CLCBP[t]`: `adversary.census` counts the x_j by
that entry's bands, and the run checks its census against the entry's rows
and each branch's costs against its `Cost`, as the bound programs read them.
Wave two takes the programs' cases in a fixed order (`WAVE_TWO_CASES`),
presenting thirds while the case's own rows leave room for two more; the
first case whose ties run out stops it, and the last pair is completed.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .adversary import (Pool, Run, Wave, census, census_checks, chunks, continuation,
                        optimum_checks, per_m, presented, wave_one)
from .exact import Exact, rat
from .model import Item, VariantRules
from .oracle import AdaptiveOracle, OracleConfig
from .reports import Check, CrossCheckFailure
from .shapes import CLCBP

__all__ = ["run_full", "closed_form_bounds"]

F = Fraction
THIRD = F(1, 3)
TINY_BASE = 20  # wave-one oracle base
THIRDS_BASE = 10  # wave-two oracle base
# the order in which wave two takes the cases.  At t = 2 case 1 comes first:
# with x1 = 0 (ccff's census) case 2's tie n = 2*x1 is already reached, so
# case 2 first would stop the wave at once.  At t = 3 case 2 comes first: its
# rows bound the opening stretch of the wave.
WAVE_TWO_CASES = {2: ("clcbp2-case1", "clcbp2-case2"), 3: ("clcbp3-case2", "clcbp3-case1")}


class ClassConstrainedRun(Run):
    """A clcbp duel; its census maps xj (bins holding j tinies), z1 and z2 to bin counts."""

    def __init__(self, algorithm_id, m, waves, census, scenarios, checks, t: int,
                 closed_form: dict, ledger: Optional[dict]):
        super().__init__(algorithm_id, m, waves, census, scenarios, checks)
        self.t = t
        self.closed_form = closed_form
        self.ledger = ledger  # reusedColors, freshColors, matchedItems


def closed_form_bounds(counts: dict, t: int, m: int) -> dict:
    """Ratio lower bounds that follow from the wave-one census `counts` alone:
    the huge branch's (pays + items) / opt, unrounded, and the spread bound
    when few bins are full (t tinies each)."""
    huge = CLCBP[t].costs["huge"]
    paid = per_m(huge.pays, counts, m) + per_m(huge.items, counts, m)
    bounds = {"tiny-wave": paid / per_m(huge.opt, counts, m)}
    if counts[f"x{t}"] * 2 * t <= m:
        bounds["spread-tinies"] = F(4 * t - 1, 2 * t)
    return bounds


def run_full(algorithm_id: str, t: int, m: int) -> ClassConstrainedRun:
    if t not in (2, 3):
        raise ValueError("t must be 2 or 3")
    if m < 6 or m % 6:
        raise ValueError("M must be a positive integer divisible by 6")
    thirds_budget = 2 * m
    # every tiny exponent must sit far beyond every wave-two exponent
    tiny_offset = 2 * OracleConfig(THIRDS_BASE, thirds_budget).window_hi + 16

    # wave one: tiny items, one fresh color each
    base_session, wave_tiny, checks = wave_one(
        algorithm_id, VariantRules("class-constrained", t=t),
        OracleConfig(TINY_BASE, m, offset=tiny_offset),
        lambda i, a: Item(i, a, color=i, label="tiny"))
    tinies, small_tinies = wave_tiny.items, wave_tiny.small_ids
    sep_tiny = wave_tiny.oracle.separator()
    eps = sep_tiny.gamma * 10  # epsilon of the huge branch

    tiny_bins = base_session.cost
    table = CLCBP[t]
    c = census(base_session.packing.bins, {it.ident for it in tinies}, table.bands, table.wave_one)
    c.update(z1=0, z2=0)

    def census_identities() -> list[Check]:
        items, pairs = census_checks(table.rows, c, m)
        counted = sum(c[x] for _, x in table.bands[0])
        return [items, Check.equal("census-tiny-bins", counted, tiny_bins), pairs]
    checks.append(Check.truth(
        "tiny-margins",
        all(tinies[i].size < sep_tiny.gamma for i in small_tinies)
        and all(tinies[i].size > eps * 2 for i in range(m)
                if i not in small_tinies),
        "small < eps/10 and large > 2*eps",
    ))

    scenarios = []

    # huge branch: huge j shares its bin with small tiny j (its color) and
    # t - 1 fillers, the spare small tinies first, then the large ones
    huge = table.costs["huge"]
    huge_size = rat(1) - eps
    pool = Pool(wave_tiny.smalls() + wave_tiny.larges())
    mates = pool.take(presented(huge, c, m))
    huge_items = [Item(10 * m + j, huge_size, color=mate.color, label="huge")
                  for j, mate in enumerate(mates)]
    groups = [[item, mate] + pool.take(t - 1) for item, mate in zip(huge_items, mates)]
    sc_h = continuation("huge", huge, c, base_session, huge_items, groups + pool.rest(t))
    sc_h.checks += optimum_checks(sc_h, per_m(huge.opt, c, m), m)  # M/t
    scenarios.append(sc_h)

    closed = closed_form_bounds(c, t, m)

    if "spread-tinies" in closed:
        # too few full bins, the rule the spread bound holds under: the
        # tiny-wave bound already does the work and the later waves are not
        # defined for this census
        checks.extend(census_identities())
        return ClassConstrainedRun(algorithm_id, m, {"tinies": wave_tiny}, c, scenarios,
                                   checks, t, closed, None)

    # wave two: thirds with color reuse
    in_short_bins = {it.ident for contents in base_session.packing.bins
                     if len(contents) < t for it, _ in contents}
    reusable = [it.color for it in tinies if it.ident in in_short_bins]
    session_t = base_session.fork()
    wave3 = Wave(AdaptiveOracle(OracleConfig(THIRDS_BASE, thirds_budget)))

    def third(index: int, a: Exact) -> Item:
        pair = index // 2
        color = reusable[pair] if pair < len(reusable) else m + pair - len(reusable)
        return Item(m + index, rat(THIRD) + a, color=color, label="third")

    def holds_a_third(before) -> bool:
        return any(it.label == "third" for it, _ in before)

    def within(rows, w: Wave, more: int = 0) -> bool:
        """Whether every <= or == row among `rows` holds on the census with the
        wave's thirds (z1 large, z2 small) and `more` further thirds of the
        kind the row weighs most; >= rows are skipped."""
        counts = {**c, **w.counts("z2", "z1")}
        return all(per_m(terms, counts, m) + more * max(terms.get("z1", 0), terms.get("z2", 0))
                   <= total * m for _, terms, relation, total in rows if relation != ">=")

    ties = {case: [row for row in rows if row[2] == "=="] for case, rows in table.programs.items()}
    # two more: the next third and the one that may complete its pair
    for case in WAVE_TWO_CASES[t]:
        wave3.run(session_t, third, lambda w: within(table.programs[case], w, 2), holds_a_third)
        if not within(ties[case], wave3, 2):
            break
    wave3.run(session_t, third, lambda w: len(w.items) % 2, holds_a_third)
    c.update(wave3.counts("z2", "z1"))
    thirds = wave3.items
    if t == 2:  # n = 2*x_many: the stopping case's t-count tie
        (_, terms, _, total), = ties[case]
        n = len(thirds)
        checks.append(Check.equal("wave2-count", n, n - per_m(terms, c, m) + total * m))
    else:
        checks.append(Check.truth(
            "wave2-stop-disjunction", any(within(ties[k], wave3) for k in WAVE_TWO_CASES[t]),
            f"z1={c['z1']} z2={c['z2']} x3={c['x3']}"))
    checks.append(Check.truth("wave2-even-count", len(thirds) % 2 == 0))
    checks.extend(census_identities())

    sep_thirds = wave3.oracle.separator()
    thirds_margin = (sep_thirds.small_sup * 10 + sep_thirds.large_inf) / 2
    small_third_items = wave3.smalls()
    checks.append(Check.truth(
        "thirds-margins",
        all(it.size < rat(THIRD) + thirds_margin / 10 for it in small_third_items)
        and all(it.size > rat(THIRD) + thirds_margin for it in wave3.larges()),
        "small < 1/3 + eps/10 and large > 1/3 + eps",
    ))
    checks.append(Check.truth(
        "wave-scale-gap",
        min((it.size for it in thirds), default=rat(1)) - rat(THIRD)
        > max(it.size for it in tinies) * 6,
        "smallest third perturbation exceeds 6x the largest tiny",
    ))

    pairs = (len(thirds) + 1) // 2
    ledger = {
        "reusedColors": min(pairs, len(reusable)),
        "freshColors": max(0, pairs - len(reusable)),
        "matchedItems": len(thirds),
    }

    # final: matching items of size 3/5 for every third
    items_suffix = 20 * m
    halves = [
        Item(items_suffix + j, rat(F(3, 5)), color=it.color, label="matching")
        for j, it in enumerate(thirds)
    ]
    scenarios.append(continuation("six-tenths", table.costs["six-tenths"], c, session_t, halves,
                                  _halves_groups(t, tinies, thirds, halves)))

    # final: matching items a hair under two thirds for every small third
    shy = rat(F(2, 3)) - thirds_margin / 5
    two_thirds = [
        Item(items_suffix + len(halves) + j, shy, color=it.color, label="matching")
        for j, it in enumerate(small_third_items)
    ]
    scenarios.append(continuation(
        "short-two-thirds", table.costs["short-two-thirds"], c, session_t, two_thirds,
        _two_thirds_groups(t, tinies, small_third_items, wave3.larges(), two_thirds)))

    # opt per M on this run (at t = 2 short-two-thirds' is per case, and
    # x1 <= x2 exactly when case 1 is the smaller form), plus the bins its
    # groupings' partly filled bins may add (`Cost.slack`)
    for sc in scenarios[1:]:
        cost = table.costs[sc.scenario]
        bound = per_m(cost.opt, c, m) + cost.slack
        detail = (f"got {sc.opt_upper}, bound {bound}" if sc.scenario == "six-tenths"
                  else f"cost {sc.opt_upper} vs {bound}")
        sc.checks.append(Check.truth("opt-within-formula", sc.opt_upper <= bound, detail))

    return ClassConstrainedRun(algorithm_id, m, {"tinies": wave_tiny, "thirds": wave3}, c,
                               scenarios, checks, t, closed, ledger)


class _TinyPool(Pool):
    """The wave-one tinies as the offline bins draw them.

    A tiny whose color some third reuses rides with the first bin that asks
    for that color; the others, each the only item of its color, are the
    pool: they fill free color slots in ident order (`take`), and whatever
    is left packs t to a bin (`rest`).
    """

    def __init__(self, tinies: list[Item], thirds: list[Item]):
        used = {it.color for it in thirds}
        self._riders = {it.color: it for it in tinies if it.color in used}
        super().__init__([it for it in tinies if it.color not in used])

    def rider(self, color) -> list[Item]:
        """The tiny of a reused color, handed out once."""
        tiny = self._riders.pop(color, None)
        return [] if tiny is None else [tiny]


def _halves_groups(t, tinies, thirds, halves):
    """One bin per third: the third, its matching item, its rider when it
    has one, and t - 1 unique-color tinies."""
    pool = _TinyPool(tinies, thirds)
    groups = [[third, match] + pool.rider(third.color) + pool.take(t - 1)
              for third, match in zip(thirds, halves)]
    return groups + pool.rest(t)


def _two_thirds_groups(t, tinies, small_thirds, large_thirds, matches):
    """Small thirds pair with their matching item; large thirds pack in
    same-color pairs first, remaining ones two per bin; tinies ride along."""
    pool = _TinyPool(tinies, small_thirds + large_thirds)
    # same-color rider adds no color; t-1 unique colors still fit
    groups = [[small, match] + pool.rider(small.color) + pool.take(t - 1)
              for small, match in zip(small_thirds, matches)]

    k_same = (len(large_thirds) - len(small_thirds)) // 2
    by_color: dict = {}
    for it in large_thirds:
        by_color.setdefault(it.color, []).append(it)
    same_pairs = [pair for pair in by_color.values() if len(pair) == 2]
    if len(same_pairs) < k_same:
        raise CrossCheckFailure("fewer same-color large pairs than guaranteed")
    groups += [pair + pool.rider(pair[0].color) + pool.take(t - 1)
               for pair in same_pairs[:k_same]]
    loose = [it for pair in by_color.values() if len(pair) == 1 for it in pair]
    loose += [it for pair in same_pairs[k_same:] for it in pair]
    for chunk in chunks(loose, 2):
        bin_items = chunk + [r for it in chunk for r in pool.rider(it.color)]
        groups.append(bin_items + pool.take(t - len({it.color for it in bin_items})))
    return groups + pool.rest(t)
