"""The skeleton the three adversaries (knownopt, squares, clcbp) share.

Each construction feeds adaptive waves, then branches into continuations.
A `Wave` presents items steered by its oracle while the variant's stop
rule holds, classifying every item small or large from where the
algorithm puts it (`present`); `wave_one` opens every run with M such
items and its two shared checks. After the waves, `census` sorts the bins
into the variant's census categories, which its band table declares, and
`census_checks` holds the counts to the structural rows of its declaration
in `shapes`. Each continuation presents its entry's item count there
(`presented`) and is settled in one call (`continuation`): its offline
bins, drawn in order from a `Pool` or in `chunks`, are built and validated
(`offline_packing`), a fork of the live session is fed its items, and
`forced_check` holds the cost to its entry. Where the offline optimum is
known, `optimum_checks` holds the packing to it, confirmed by the exact
search at small M. `per_m` evaluates a per-M form, such as the offline
cost, on a run. A `Run` records the outcome, its waves keyed by report
name; `Wave.in_band` checks that a wave's sizes lie strictly inside their
band. Item sizes, stop rules, steering, groupings and layouts stay in the
variant's module.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Optional

from .algorithms import AlgorithmSession, check_replay, feed, make_session
from .exact import Exact
from .model import Item, Packing, PackingError, Placement, VariantRules, validate_packing
from .optoracle import OracleInstance, min_bins
from .oracle import AdaptiveOracle, OracleConfig
from .reports import CensusGap, Check, CrossCheckFailure, ScenarioOutcome
from .shapes import Cost, StructuralRow

__all__ = ["CensusGap", "census", "census_checks", "forced_check", "per_m", "presented",
           "chunks", "Pool", "offline_packing", "continuation", "optimum_checks", "present",
           "Wave", "wave_one", "Run"]

ORACLE_CHECK_MAX_M = 8  # the exact search confirms a known offline optimum up to here


def census(bins, wave_one_ids: set[int], bands: dict, wave_one: str) -> dict[str, int]:
    """Count `bins` by census name; every name in `bands` appears, 0 when empty.

    A bin holding n wave-one items (those in `wave_one_ids`, called
    `wave_one` in the error) and k other items ("thirds") is counted under
    the name of the ((lo, hi), name) range in `bands[k]` that covers n.
    Raises `CensusGap` for a bin no range covers.
    """
    counts = {name: 0 for ranges in bands.values() for _, name in ranges}
    for contents in bins:
        n = sum(1 for it, _ in contents if it.ident in wave_one_ids)
        k = len(contents) - n
        name = next((name for (lo, hi), name in bands.get(k, ()) if lo <= n <= hi), None)
        if name is None:
            raise CensusGap(f"bin shape ({n} {wave_one}, {k} thirds)")
        counts[name] += 1
    return counts


_CHECKS = {"==": Check.equal, ">=": Check.at_least, "<=": Check.at_most}


def census_checks(rows: list[StructuralRow], counts: dict, m: int) -> list[Check]:
    """One check per structural row on a run's census `counts`."""
    checks = []
    for row in rows:
        check = _CHECKS[row.relation]
        total = sum(counts[v] for v in row.total) if row.total else m
        checks.append(check(row.check, sum(c * counts[n] for n, c in row.terms.items()), total))
    return checks


def forced_check(cost: Cost, counts: dict, outcome: ScenarioOutcome) -> Check:
    """The algorithm pays a bin per item `outcome` presented plus `cost.pays`
    on the census `counts`: exactly when the cost is forced, else at least."""
    paid = sum(k * counts[var] for var, k in cost.pays.items()) + outcome.items_presented
    if cost.forced:
        return Check.equal("alg-forced-cost", outcome.alg_cost, paid)
    return Check.at_least("alg-lower-bound", outcome.alg_cost, paid)


def per_m(form: dict, counts: dict, m: int):
    """A per-M form on a run: "M" is `m`, any other variable its count; a per-case
    form (program id -> form) is read at its smallest case, the run's own."""
    if any(isinstance(case, dict) for case in form.values()):
        return min(per_m(case, counts, m) for case in form.values())
    return sum(k * (m if v == "M" else counts[v]) for v, k in form.items())


def presented(cost: Cost, counts: dict, m: int) -> int:
    """A continuation's item count on a run: `items` there, ceiled if it `rounds_up`."""
    n = per_m(cost.items, counts, m)
    return -(-n // 1) if cost.rounds_up else n // 1


def chunks(items: list, size: int) -> list[list]:
    """`items` in consecutive runs of `size`, the last one possibly shorter."""
    return [items[j:j + size] for j in range(0, len(items), size)]


class Pool:
    """Items handed out once each, in order."""

    def __init__(self, items):
        self._left = iter(items)

    def take(self, n: int) -> list:
        """The next n items (fewer when they run out)."""
        return list(islice(self._left, n))

    def rest(self, size: int) -> list[list]:
        """The items left, in `chunks` of `size`."""
        return chunks(list(self._left), size)


def offline_packing(rules: VariantRules, bins) -> Packing:
    """Build a packing bin by bin and validate it.

    Each bin is a list of entries: an `Item`, or an `(item, x, y)` triple
    placing a square's lower-left corner.  Raises `CrossCheckFailure` when an
    entry breaks a rule or the finished packing does not validate.
    """
    packing = Packing(rules)
    try:
        for b, entries in enumerate(bins):
            for entry in entries:
                if isinstance(entry, Item):
                    packing.add_item(entry, Placement(b))
                else:
                    item, x, y = entry
                    packing.add_item(item, Placement(b, x, y))
    except PackingError as exc:
        raise CrossCheckFailure(f"offline construction invalid: bin {b}: {exc}") from exc
    violations = validate_packing(packing)
    if violations:
        raise CrossCheckFailure(f"offline construction invalid: {violations[:3]}")
    return packing


def continuation(name: str, cost: Cost, counts: dict, session: AlgorithmSession,
                 items: list[Item], bins, opt_cost: Optional[int] = None) -> ScenarioOutcome:
    """Settle one continuation: build and validate its offline packing from
    `bins` under the session's rules (`offline_packing`), feed `items` to a
    fork of `session`, and hold the cost to `cost` on the census `counts`
    (`forced_check`, the outcome's first check).

    `opt_cost` is the optimum when it is known in advance; without it the
    packing's cost is reported as an upper bound on the optimum.  Raises
    `CrossCheckFailure` unless the packing holds exactly the session's items
    and `items`.
    """
    opt_packing = offline_packing(session.rules, bins)
    packed = {it.ident for contents in opt_packing.bins for it, _ in contents}
    branch = {it.ident for it, _ in session.transcript} | {it.ident for it in items}
    if packed != branch:
        raise CrossCheckFailure(
            f"{name}: offline packing does not hold the branch's items "
            f"(missing {sorted(branch - packed)[:3]}, extra {sorted(packed - branch)[:3]})")
    alg_cost = feed(session.fork(), items)
    opt_upper = opt_packing.cost if opt_cost is None else None
    outcome = ScenarioOutcome(name, len(items), alg_cost, opt_cost=opt_cost,
                              opt_upper=opt_upper, opt_packing=opt_packing)
    outcome.checks.append(forced_check(cost, counts, outcome))
    return outcome


def optimum_checks(outcome: ScenarioOutcome, opt, m: int) -> list[Check]:
    """Hold `outcome`'s offline packing to the optimum `opt`: it costs exactly
    `opt`, and up to M = `ORACLE_CHECK_MAX_M` the exact search over its items,
    under its rules, proves that no packing takes fewer bins."""
    packing = outcome.opt_packing
    checks = [Check.equal("opt-construction-cost", packing.cost, opt)]
    if m <= ORACLE_CHECK_MAX_M:
        items = tuple(it for contents in packing.bins for it, _ in contents)
        result = min_bins(OracleInstance(items, packing.rules))
        checks.append(Check.truth("opt-oracle-confirms", result.proven and result.count == opt,
                                  f"oracle found {result.count} (proven={result.proven})"))
    return checks


def present(session: AlgorithmSession, oracle: AdaptiveOracle, item: Item,
            small_when: Optional[Callable[[list], bool]] = None) -> bool:
    """Place one adaptive item, tell the oracle whether it is small, return that.

    An item that opens a fresh bin is large.  An item placed into an open bin
    is small, unless `small_when` is given: then it is small when
    `small_when(before)` holds, `before` being the target bin's
    `(item, placement)` pairs from before this placement.
    """
    fresh = session.cost
    b = session.place(item).bin_index
    # add_item appends, so the bin's last entry is this item
    small = b < fresh and (small_when is None or small_when(session.packing.bins[b][:-1]))
    oracle.observe(small)
    return small


class Wave:
    """One adaptive wave: its oracle, its items in order and the idents of
    the small ones (`small_ids`)."""

    def __init__(self, oracle: AdaptiveOracle):
        self.oracle = oracle
        self.items: list[Item] = []
        self.small_ids: set[int] = set()

    def smalls(self) -> list[Item]:
        return [it for it in self.items if it.ident in self.small_ids]

    def larges(self) -> list[Item]:
        return [it for it in self.items if it.ident not in self.small_ids]

    def counts(self, small: str, large: str) -> dict:
        """Its small and large item counts, named `small` and `large`."""
        return {small: len(self.small_ids), large: len(self.items) - len(self.small_ids)}

    def in_band(self, name: str, lo: Exact, hi: Exact) -> Check:
        """The check `name` that every item's size lies strictly between `lo` and `hi`."""
        return Check.truth(name, all(lo < it.size < hi for it in self.items))

    def run(self, session: AlgorithmSession, make_item: Callable[[int, Exact], Item],
            more: Callable[["Wave"], bool],
            small_when: Optional[Callable[[list], bool]] = None) -> "Wave":
        """While `more(self)` holds, present `make_item(len(self.items), a)`
        for the oracle's next value a (`present` takes `small_when`).

        A later call continues the same wave: its items and smalls grow.
        """
        while more(self):
            item = make_item(len(self.items), self.oracle.next_value())
            if present(session, self.oracle, item, small_when):
                self.small_ids.add(item.ident)
            self.items.append(item)
        return self


def wave_one(algorithm_id: str, rules: VariantRules, config: OracleConfig,
             make_item: Callable[[int, Exact], Item]) -> tuple[AlgorithmSession, Wave, list[Check]]:
    """Open a run: a fresh session fed one wave of `config.n` (that is, M)
    items, its replay checked (`check_replay`, which raises). Returns the
    session, the wave and a check that each large item opened one bin."""
    session = make_session(algorithm_id, rules)
    wave = Wave(AdaptiveOracle(config)).run(session, make_item,
                                            lambda w: len(w.items) < config.n)
    checks = [Check.equal("wave1-bins-equal-large-items",
                          session.cost, config.n - len(wave.small_ids))]
    check_replay(session)
    return session, wave, checks


class Run:
    """A finished duel: its waves keyed by report name, in the order they ran."""

    def __init__(self, algorithm_id: str, m: int, waves: dict[str, Wave], census: dict,
                 scenarios: list[ScenarioOutcome], checks: list[Check]):
        self.algorithm_id = algorithm_id
        self.m = m
        self.waves = waves
        self.census = census
        self.scenarios = scenarios
        self.checks = checks
