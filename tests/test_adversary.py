"""The shared adversary skeleton: presenting items, waves, offline packings."""

from fractions import Fraction as F

import pytest

from packbound import adversary, clcbp, knownopt, squares
from packbound.adversary import (
    CensusGap,
    Pool,
    census,
    census_checks,
    chunks,
    continuation,
    forced_check,
    offline_packing,
    optimum_checks,
    per_m,
    present,
    presented,
    Wave,
    wave_one,
)
from packbound.algorithms import make_session
from packbound.exact import rat
from packbound.mathprog import builtin_program
from packbound.model import Item, Placement, VariantRules, Violation
from packbound.oracle import AdaptiveOracle, OracleConfig
from packbound.reports import CrossCheckFailure, ScenarioOutcome, checks_pass
from packbound.shapes import CLCBP, KO, SP, Cost

ONE_D = VariantRules("one-d")
SQUARES = VariantRules("squares")


class CountingOracle(AdaptiveOracle):
    def __init__(self, n):
        super().__init__(OracleConfig(10, n))
        self.observed = []

    def observe(self, satisfied):
        self.observed.append(satisfied)
        super().observe(satisfied)


def _item(ident, size):
    return Item(ident, rat(F(size)))


def _present(session, oracle, item, small_when=None):
    oracle.next_value()
    return present(session, oracle, item, small_when=small_when)


class TestPresent:
    def test_item_opening_a_fresh_bin_is_never_small(self):
        session = make_session("first-fit", ONE_D)
        oracle = CountingOracle(2)
        always = lambda before: True  # noqa: E731
        assert _present(session, oracle, _item(0, "3/5"), always) is False
        assert _present(session, oracle, _item(1, "3/5"), always) is False
        assert session.cost == 2 and oracle.observed == [False, False]

    def test_item_joining_an_open_bin_is_small_by_default(self):
        session = make_session("first-fit", ONE_D)
        oracle = CountingOracle(2)
        assert _present(session, oracle, _item(0, "1/4"), None) is False
        assert _present(session, oracle, _item(1, "1/4"), None) is True

    def test_small_when_sees_the_bin_before_the_placement(self):
        session = make_session("first-fit", ONE_D)
        first, second = _item(0, "1/4"), _item(1, "1/4")
        session.place(first)
        seen = []

        def small_when(before):
            seen.append(list(before))
            return False

        assert _present(session, CountingOracle(1), second, small_when) is False
        assert seen == [[(first, Placement(0))]]
        assert session.packing.bin_items(0) == [first, second]

    def test_small_when_decides_the_class(self):
        session = make_session("first-fit", ONE_D)
        session.place(_item(0, "1/4"))
        holds_two = lambda before: len(before) >= 2  # noqa: E731
        oracle = CountingOracle(2)
        assert _present(session, oracle, _item(1, "1/4"), holds_two) is False
        assert _present(session, oracle, _item(2, "1/4"), holds_two) is True
        assert oracle.observed == [False, True]


def _quarter(i, a):
    return Item(i, rat(F(1, 4)) + a)


def _upto(n):
    return lambda wave: len(wave.items) < n


class TestWave:
    def test_one_observation_per_item(self):
        session = make_session("next-fit", ONE_D)
        oracle = CountingOracle(9)
        wave = Wave(oracle).run(session, _quarter, _upto(9))
        assert [it.ident for it in wave.items] == list(range(9))
        assert len(oracle.observed) == 9 == len(oracle.emitted)
        assert wave.small_ids == {e.index for e in oracle.emitted if e.small}
        # next-fit packs three quarters-plus per bin: the first of each is large
        assert wave.small_ids == {1, 2, 4, 5, 7, 8} and session.cost == 3
        assert [it.ident for it in wave.smalls()] == [1, 2, 4, 5, 7, 8]
        assert [it.ident for it in wave.larges()] == [0, 3, 6]
        assert wave.counts("small", "large") == {"small": 6, "large": 3}

    def test_item_sizes_carry_the_oracle_values(self):
        session = make_session("first-fit", ONE_D)
        oracle = AdaptiveOracle(OracleConfig(10, 3))
        wave = Wave(oracle).run(session, lambda i, a: Item(i, rat(F(1, 3)) + a), _upto(3))
        assert [it.size for it in wave.items] == [rat(F(1, 3)) + e.value for e in oracle.emitted]

    def test_a_second_run_continues_the_same_wave(self):
        session = make_session("next-fit", ONE_D)
        wave = Wave(CountingOracle(9)).run(session, _quarter, _upto(4))
        assert wave.run(session, _quarter, _upto(7)) is wave
        # the second call numbers its items on from the first and keeps its smalls
        assert [it.ident for it in wave.items] == list(range(7))
        assert wave.small_ids == {1, 2, 4, 5} and len(wave.oracle.emitted) == 7

    def test_more_is_asked_before_each_item(self):
        session = make_session("next-fit", ONE_D)
        asked = []

        def more(wave):
            asked.append((len(wave.items), len(wave.small_ids)))
            return len(wave.small_ids) < 2

        wave = Wave(CountingOracle(9)).run(session, _quarter, more)
        assert asked == [(0, 0), (1, 0), (2, 1), (3, 2)]
        assert len(wave.items) == 3
        assert Wave(CountingOracle(1)).run(session, _quarter, lambda w: False).items == []

    def test_small_when_steers_the_wave(self):
        session = make_session("first-fit", ONE_D)
        wave = Wave(CountingOracle(4)).run(session, _quarter, _upto(4),
                                           small_when=lambda before: len(before) >= 2)
        # the second joins one item, the third two; the fourth no longer fits
        assert wave.small_ids == {2} and session.cost == 2

    def test_in_band_is_strict_at_both_ends(self):
        wave = Wave(CountingOracle(1))
        wave.items = [_item(0, "1/4"), _item(1, "1/3")]
        assert wave.in_band("inside", rat(F(1, 5)), rat(F(1, 2))) == ("inside", True, "")
        assert wave.in_band("at-lo", rat(F(1, 4)), rat(F(1, 2))) == ("at-lo", False, "")
        assert wave.in_band("at-hi", rat(F(1, 5)), rat(F(1, 3))) == ("at-hi", False, "")
        assert wave.in_band("empty-band", rat(1), rat(0)) == ("empty-band", False, "")
        assert Wave(CountingOracle(1)).in_band("no-items", rat(1), rat(0)).passed


class TestWaveOne:
    def test_opens_a_session_with_m_items_and_its_check(self):
        session, wave, checks = wave_one("next-fit", ONE_D, OracleConfig(10, 6), _quarter)
        assert [it.ident for it in wave.items] == list(range(6))
        assert session.cost == 2 == 6 - len(wave.small_ids)
        assert [(c.name, c.passed) for c in checks] == [("wave1-bins-equal-large-items", True)]


class TestOfflinePacking:
    def test_valid_one_d_groups(self):
        a, b, c = _item(0, "1/2"), _item(1, "1/2"), _item(2, "2/3")
        packing = offline_packing(ONE_D, [[a, b], [c]])
        assert packing.cost == 2 and packing.bin_items(0) == [a, b]

    def test_overfull_bin_raises(self):
        with pytest.raises(CrossCheckFailure, match="offline construction invalid") as failure:
            offline_packing(ONE_D, [[_item(0, "3/5"), _item(1, "3/5")]])
        assert str(failure.value).startswith("offline construction invalid: bin 0: ")

    def test_overlapping_squares_raise(self):
        half = rat(F(1, 2))
        bins = [[(Item(0, half), rat(0), rat(0)),
                 (Item(1, half), rat(F(1, 4)), rat(F(1, 4)))]]
        with pytest.raises(CrossCheckFailure, match="overlaps"):
            offline_packing(SQUARES, bins)

    def test_square_triples_keep_their_corners(self):
        half = rat(F(1, 2))
        packing = offline_packing(SQUARES, [[(Item(0, half), half, rat(0))]])
        assert packing.bins[0][0][1] == Placement(0, half, rat(0))

    def test_a_violation_found_by_validation_raises(self, monkeypatch):
        bad = Violation(0, "capacity", (0,), "content total exceeds 1")
        monkeypatch.setattr(adversary, "validate_packing", lambda packing: [bad])
        with pytest.raises(CrossCheckFailure, match="capacity"):
            offline_packing(ONE_D, [[_item(0, "1/2")]])


class TestContinuation:
    PER_ITEM = Cost("row", {}, {"M": 1}, True)  # the algorithm pays one bin per item

    def test_feeds_a_fork_and_reports_the_bound_kind(self):
        session = make_session("first-fit", ONE_D)
        session.place(_item(0, "1/2"))
        items = [_item(1, "2/3"), _item(2, "1/3")]
        bins = [[_item(0, "1/2"), items[1]], [items[0]]]
        upper = continuation("upper", self.PER_ITEM, {}, session, items, bins)
        exact = continuation("exact", self.PER_ITEM, {}, session, items, bins, opt_cost=2)
        assert session.cost == 1  # the live session is untouched
        assert (upper.alg_cost, upper.items_presented) == (2, 2)
        assert (upper.opt_cost, upper.opt_upper) == (None, 2)
        assert (exact.opt_cost, exact.opt_upper) == (2, None)

    def test_a_packing_that_drops_an_item_raises(self):
        session = make_session("first-fit", ONE_D)
        session.place(_item(0, "1/2"))
        items = [_item(1, "2/3"), _item(2, "1/3")]
        with pytest.raises(CrossCheckFailure, match=r"dropped: .*missing \[2\], extra \[\]"):
            continuation("dropped", self.PER_ITEM, {}, session, items,
                         [[_item(0, "1/2")], [items[0]]])

    def test_a_packing_with_a_foreign_item_raises(self):
        session = make_session("first-fit", ONE_D)
        items = [_item(1, "2/3")]
        with pytest.raises(CrossCheckFailure, match=r"missing \[\], extra \[9\]"):
            continuation("foreign", self.PER_ITEM, {}, session, items, [[items[0], _item(9, "1/4")]])

    def test_an_overfull_bin_raises(self):
        session = make_session("first-fit", ONE_D)
        items = [_item(1, "3/5"), _item(2, "3/5")]
        with pytest.raises(CrossCheckFailure, match="offline construction invalid"):
            continuation("overfull", self.PER_ITEM, {}, session, items, [items])

    def test_the_bins_obey_the_sessions_rules(self):
        # two colors in one bin: fine in one dimension, not at one color per bin
        items = [Item(1, rat(F(1, 4)), color=0), Item(2, rat(F(1, 4)), color=1)]
        session = make_session("first-fit", VariantRules("class-constrained", t=1))
        with pytest.raises(CrossCheckFailure, match="offline construction invalid"):
            continuation("colors", self.PER_ITEM, {}, session, items, [items])

    @pytest.mark.parametrize("paid,passed", [(0, True), (1, False)])
    def test_its_first_check_is_the_forced_cost(self, paid, passed):
        cost = Cost("row", {"b": 1}, {"M": 1}, True)
        session = make_session("first-fit", ONE_D)
        items = [_item(1, "2/3"), _item(2, "2/3")]
        outcome = continuation("forced", cost, {"b": paid}, session, items, [[it] for it in items])
        assert outcome.checks == [forced_check(cost, {"b": paid}, outcome)]
        assert (outcome.checks[0].name, outcome.checks[0].passed) == ("alg-forced-cost", passed)


class TestOptimumChecks:
    @staticmethod
    def _outcome(bins):
        return ScenarioOutcome("x", 0, 2, opt_cost=2,
                               opt_packing=offline_packing(ONE_D, bins))

    def test_the_search_confirms_an_optimal_packing(self):
        outcome = self._outcome([[_item(0, "1/2"), _item(1, "1/2")]])
        checks = optimum_checks(outcome, 1, adversary.ORACLE_CHECK_MAX_M)
        assert [(c.name, c.passed, c.detail) for c in checks] == [
            ("opt-construction-cost", True, "got 1, want 1"),
            ("opt-oracle-confirms", True, "oracle found 1 (proven=True)")]

    def test_the_search_refutes_a_packing_one_bin_over(self):
        outcome = self._outcome([[_item(0, "1/2")], [_item(1, "1/2")]])
        checks = optimum_checks(outcome, 2, 8)
        assert [(c.name, c.passed, c.detail) for c in checks] == [
            ("opt-construction-cost", True, "got 2, want 2"),
            ("opt-oracle-confirms", False, "oracle found 1 (proven=True)")]

    def test_no_search_above_the_threshold(self, monkeypatch):
        def no_search(instance):
            raise AssertionError("the exact search ran")
        monkeypatch.setattr(adversary, "min_bins", no_search)
        outcome = self._outcome([[_item(0, "1/2")], [_item(1, "1/2")]])
        checks = optimum_checks(outcome, 2, 12)
        assert [(c.name, c.passed) for c in checks] == [("opt-construction-cost", True)]


class TestCensus:
    # thirds in the bin -> ((lo, hi) wave-one items, category); "b" twice
    BANDS = {0: (((1, 2), "a"),), 1: (((0, 0), "b"), ((1, 1), "c")), 2: (((0, 0), "b"),)}

    @staticmethod
    def _bins(*shapes):
        """Bins of (wave-one count, other count); wave-one idents are below 100."""
        ids = iter(range(100))
        others = iter(range(100, 200))
        return [[(Item(next(ids), rat("1/7")), Placement(b)) for _ in range(n)]
                + [(Item(next(others), rat("1/3")), Placement(b)) for _ in range(k)]
                for b, (n, k) in enumerate(shapes)]

    @pytest.mark.parametrize("bands", [BANDS, KO.bands, SP.bands],
                             ids=["toy", "knownopt", "squares"])
    def test_no_bins_gives_every_category_zero(self, bands):
        counts = census([], set(), bands, "sevenths")
        names = {name for ranges in bands.values() for _, name in ranges}
        assert counts == dict.fromkeys(names, 0)

    def test_counts_each_bin_under_its_band(self):
        bins = self._bins((1, 0), (2, 0), (0, 1), (1, 1), (0, 2))
        assert census(bins, set(range(100)), self.BANDS, "sevenths") == {"a": 2, "b": 2, "c": 1}

    @pytest.mark.parametrize("shape", [(3, 0), (2, 1), (0, 3), (0, 0)])
    def test_an_uncovered_shape_raises(self, shape):
        n, k = shape
        with pytest.raises(CensusGap, match=rf"^bin shape \({n} sevenths, {k} thirds\)$"):
            census(self._bins((1, 0), shape), set(range(100)), self.BANDS, "sevenths")


class TestClassConstrainedCensus:
    """clcbp's wave-one census: a bin holding j tinies counts as x_j."""

    @staticmethod
    def _bins(*sizes):
        ident = iter(range(100))
        return [[(Item(next(ident), rat(F(1, 1000))), Placement(b)) for _ in range(n)]
                for b, n in enumerate(sizes)]

    @pytest.mark.parametrize("t", [2, 3])
    def test_counts_bins_by_tinies_held(self, t):
        bins = self._bins(*range(1, t + 1), t, 1)
        counts = census(bins, set(range(100)), CLCBP[t].bands, "tinies")
        assert counts == {f"x{j}": 2 if j in (1, t) else 1 for j in range(1, t + 1)}

    @pytest.mark.parametrize("t", [2, 3])
    def test_a_bin_of_t_plus_one_tinies_raises(self, t):
        with pytest.raises(CensusGap, match=rf"^bin shape \({t + 1} tinies, 0 thirds\)$"):
            census(self._bins(1, t + 1), set(range(100)), CLCBP[t].bands, "tinies")


class TestPool:
    def test_chunks_cut_consecutive_runs(self):
        assert chunks(list(range(7)), 3) == [[0, 1, 2], [3, 4, 5], [6]]
        assert chunks([], 3) == []

    def test_each_item_is_handed_out_once_in_order(self):
        pool = Pool(range(10))
        drawn = [pool.take(2), pool.take(0), pool.take(3)]
        rest = pool.rest(2)
        assert drawn == [[0, 1], [], [2, 3, 4]]
        assert rest == [[5, 6], [7, 8], [9]]
        assert [x for part in drawn + rest for x in part] == list(range(10))
        assert pool.take(1) == [] and pool.rest(2) == []

    def test_take_past_the_end_returns_fewer(self):
        pool = Pool("abc")
        assert pool.take(2) == ["a", "b"]
        assert pool.take(5) == ["c"]
        assert pool.take(5) == []


class TestContinuationCosts:
    COUNTS = {"bins7": 5, "bins3": 3, "s2": 2, "s1": 1}

    @pytest.mark.parametrize("forced,name,passed", [
        (True, "alg-forced-cost", False),
        (False, "alg-lower-bound", True),
    ])
    def test_the_algorithm_pays_the_items_and_its_census_bins(self, forced, name, passed):
        cost = Cost("row", {"bins7": 1, "bins3": 1, "s2": -1, "s1": -1}, {"M": 1}, forced)
        check = forced_check(cost, self.COUNTS, ScenarioOutcome("x", 4, alg_cost=10))
        # 5 + 3 - 2 - 1 census bins and one bin per presented item
        assert (check.name, check.passed, check.detail) == (
            name, passed, f"got 10, {'want' if forced else 'bound'} 9")

    @pytest.mark.parametrize("table,programs", [
        (KO, ("ko-case1", "ko-case2")), (SP, ("sp",)),
        (CLCBP[2], ("clcbp2-case1", "clcbp2-case2")), (CLCBP[3], ("clcbp3-case1", "clcbp3-case2")),
    ], ids=["ko", "sp", "clcbp2", "clcbp3"])
    def test_costs_read_census_variables(self, table, programs):
        names = set(table.variables) - {"ratio"}
        for cost in table.costs.values():
            forms = [form.get(p, form) for form in (cost.opt, cost.items) for p in programs]
            assert set(cost.pays) <= names
            assert {v for form in forms for v in form} <= names | {"M"}


class TestCensusChecks:
    def test_each_relation_maps_to_its_check(self):
        counts = {"x1": 2, "x2": 5, "z1": 3, "z2": 4}
        checks = census_checks(CLCBP[2].rows, counts, 12)
        assert [(c.name, c.passed, c.detail) for c in checks] == [
            ("census-tiny-items", True, "got 12, want 12"),
            ("census-pairs", False, "got 4, bound 3"),
        ]

    def test_per_m_reads_m_and_the_counts(self):
        assert per_m({"M": F(1, 3), "z1": F(1, 2), "z2": 1}, {"z1": 3, "z2": 4}, 6) == F(15, 2)
        assert per_m({}, {}, 6) == 0
        # a per-case form is read at its smallest case
        cases = {"case1": {"M": F(3, 4)}, "case2": {"M": 1, "b": F(-1, 2)}}
        assert per_m(cases, {"b": 2}, 8) == 6
        assert per_m(cases, {"b": 6}, 8) == 5


class TestContinuationCounts:
    def test_presented_floors_unless_the_cost_rounds_up(self):
        cost = Cost("row", {}, {"M": F(1, 5), "b": F(-1, 5)}, True)
        assert presented(cost, {"b": 3}, 10) == 1
        assert presented(cost._replace(rounds_up=True), {"b": 3}, 10) == 2
        assert presented(cost._replace(rounds_up=True), {"b": 0}, 10) == 2

    def test_one_form_moves_the_duel_and_the_program_together(self, monkeypatch):
        before = builtin_program("ko-case1").row("cost-units")
        units = KO.costs["units"]._replace(items={"M": F(1, 4)})
        monkeypatch.setitem(KO.costs, "units", units)
        run = knownopt.run_full("first-fit", 8)
        outcome = next(sc for sc in run.scenarios if sc.scenario == "units")
        assert outcome.to_json()["itemsPresented"] == presented(units, run.census, 8) == 2
        assert builtin_program("ko-case1").row("cost-units") != before

    def test_one_stop_rule_moves_the_duel_and_the_program_together(self, monkeypatch):
        before = len(squares.run_full("shelf-first-fit", 48).waves["thirds"].items)
        (label, weights, relation, _), = SP.programs["sp"]
        monkeypatch.setitem(SP.programs, "sp", ((label, weights, relation, 11),))
        run = squares.run_full("shelf-first-fit", 48)
        assert len(run.waves["thirds"].items) < before
        sandwich = next(ch for ch in run.checks if ch.name == "census-stop-sandwich")
        assert sandwich.detail.endswith(" vs 11*48")
        assert builtin_program("sp").row("stop-mix").const == (11, 0)
        # the wave's cap, ceil(11M/8), and the count band follow the total
        for m, most in ((48, 66), (50, 69)):
            run = squares.run_full("shelf-first-fit", m)
            assert run.waves["thirds"].oracle.config.n == most
            assert checks_pass(run.checks)
            assert all(checks_pass(sc.checks) for sc in run.scenarios)

    @pytest.mark.parametrize("run_it,table", [
        (lambda: knownopt.run_full("first-fit", 8), KO),
        (lambda: squares.run_full("shelf-first-fit", 10), SP),
        (lambda: clcbp.run_full("first-fit", 2, 12), CLCBP[2]),
        (lambda: clcbp.run_full("best-fit", 3, 12), CLCBP[3]),
    ], ids=["ko", "sp", "clcbp2", "clcbp3"])
    def test_each_duel_reports_its_tables_continuations_in_order(self, run_it, table):
        run = run_it()
        assert [sc.scenario for sc in run.scenarios] == list(table.costs)
        for sc in run.scenarios:
            assert sc.items_presented == presented(table.costs[sc.scenario], run.census, run.m)


def test_one_census_gap_class():
    assert knownopt.CensusGap is squares.CensusGap is CensusGap
