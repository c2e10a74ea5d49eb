"""Class-constrained adversary: color discipline, stopping, matchings."""

from fractions import Fraction as F

import pytest

from packbound.algorithms import fork_replay, register_algorithm
from packbound.clcbp import (
    _halves_groups,
    _two_thirds_groups,
    closed_form_bounds,
    run_full,
)
from packbound.exact import rat
from packbound.model import Item, Placement, VariantRules, validate_packing
from packbound.optoracle import OracleInstance, min_bins
from packbound.reports import CrossCheckFailure, checks_pass


def _solo(packing, item):
    return Placement(packing.cost)


def _first_fit_past_bin_zero(packing, item):
    """First fit that never adds to bin 0: the first tiny keeps a short bin,
    so its color is reused."""
    for b in range(1, packing.cost):
        if packing.fits(b, item):
            return Placement(b)
    return Placement(packing.cost)


def _per_count(run):
    """Bins holding j tinies after wave one, by j."""
    return {j: run.census[f"x{j}"] for j in range(1, run.t + 1)}


register_algorithm("solo-test-clcbp", _solo)
register_algorithm("past-bin-zero-test-clcbp", _first_fit_past_bin_zero)


@pytest.fixture(scope="module")
def ccff2():
    return run_full("ccff", 2, 6)


@pytest.fixture(scope="module")
def ccff3():
    return run_full("ccff", 3, 6)


class TestConfig:
    def test_t_and_m_validation(self):
        with pytest.raises(ValueError, match="t must be 2 or 3"):
            run_full("ccff", 4, 6)
        with pytest.raises(ValueError, match="M must be a positive integer divisible by 6"):
            run_full("ccff", 2, 8)

    def test_closed_form_bounds(self):
        # the tiny-wave bound is (t-1)x + 1 with x = X/M, X the tiny bins
        assert closed_form_bounds({"x1": 6, "x2": 0}, 2, 6)["tiny-wave"] == F(2)
        assert closed_form_bounds({"x1": 0, "x2": 0, "x3": 1}, 3, 6) == {
            "tiny-wave": F(2 * 1 + 6, 6),
            "spread-tinies": F(11, 6),
        }
        # spread bonus appears exactly when full bins are scarce
        bounds = closed_form_bounds({"x1": 0, "x2": 3}, 2, 12)
        assert bounds == {"tiny-wave": F(1 * 3 + 12, 12), "spread-tinies": F(7, 4)}
        assert "spread-tinies" not in closed_form_bounds({"x1": 0, "x2": 4}, 2, 12)


class TestWaveOne:
    def test_ccff_fills_bins_to_t(self, ccff2, ccff3):
        assert _per_count(ccff2) == {1: 0, 2: 3}
        assert _per_count(ccff3) == {1: 0, 2: 0, 3: 2}

    def test_solo_skips_later_waves(self):
        run = run_full("solo-test-clcbp", 2, 6)
        assert _per_count(run) == {1: 6, 2: 0}
        assert [sc.scenario for sc in run.scenarios] == ["huge"]
        assert run.closed_form["tiny-wave"] == F(2)
        assert run.closed_form["spread-tinies"] == F(7, 4)

    def test_margins_and_scale_gap(self, ccff2):
        failed = [c for c in ccff2.checks if not c.passed]
        assert not failed, [(c.name, c.detail) for c in failed]
        eps = ccff2.waves["tinies"].oracle.separator().gamma * 10
        for it in ccff2.waves["tinies"].items:
            if it.ident in ccff2.waves["tinies"].small_ids:
                assert it.size * 10 < eps
            else:
                assert it.size > eps * 2

    def test_every_bin_at_most_t_tinies(self, ccff3):
        # the wave-one packing, rebuilt by replaying the tinies through ccff
        packing = fork_replay("ccff", VariantRules("class-constrained", t=3),
                              ccff3.waves["tinies"].items).packing
        counts = [len(packing.bins[b]) for b in range(packing.cost)]
        assert all(1 <= n <= 3 for n in counts)
        assert {j: counts.count(j) for j in (1, 2, 3)} == _per_count(ccff3)


class TestHugeBranch:
    @pytest.mark.parametrize("t", [2, 3])
    def test_forced_cost_and_offline(self, t):
        run = run_full("ccff", t, 6)
        sc = run.scenarios[0]
        x = sum(_per_count(run).values())
        count = (6 - x) // t
        assert sc.alg_cost == x + count
        assert sc.opt_upper == 6 // t
        assert validate_packing(sc.opt_packing) == []

    def test_huge_sizes_and_colors(self, ccff2):
        sc = ccff2.scenarios[0]
        huges = [it for b in sc.opt_packing.bins for it, _ in b
                 if it.label == "huge"]
        small_colors = {ccff2.waves["tinies"].items[i].color
                        for i in ccff2.waves["tinies"].small_ids}
        assert all(h.color in small_colors for h in huges)
        assert len({h.color for h in huges}) == len(huges)

    def test_oracle_confirms_small_instance(self, ccff2):
        sc = ccff2.scenarios[0]
        items = tuple(it for b in sc.opt_packing.bins for it, _ in b)
        result = min_bins(OracleInstance(items, sc.opt_packing.rules))
        assert result.proven and result.count == 3


class TestWaveTwo:
    def test_t2_item_count_rule(self, ccff2):
        x1, x2 = ccff2.census["x1"], ccff2.census["x2"]
        assert len(ccff2.waves["thirds"].items) == 2 * max(x1, x2)
        assert (ccff2.census["z1"] + ccff2.census["z2"]) % 2 == 0

    def test_two_thirds_per_color(self, ccff2, ccff3):
        for run in (ccff2, ccff3):
            colors = {}
            for it in run.waves["thirds"].items:
                colors[it.color] = colors.get(it.color, 0) + 1
            assert all(n == 2 for n in colors.values())

    def test_no_color_from_full_bins_reused(self, ccff3):
        # ccff fills every wave-one bin to t, so nothing is reusable: all fresh
        reused = {it.color for it in ccff3.waves["thirds"].items
                  if it.color < len(ccff3.waves["tinies"].items)}
        assert not reused

    @pytest.mark.parametrize("t,m", [(2, 12), (3, 24)])
    def test_reused_colors_come_from_short_bins(self, t, m):
        run = run_full("past-bin-zero-test-clcbp", t, m)
        # the wave-one packing, rebuilt by replaying the tinies
        wave_one = fork_replay(run.algorithm_id, VariantRules("class-constrained", t=t),
                               run.waves["tinies"].items).packing
        short = {it.color for b in range(wave_one.cost) if len(wave_one.bins[b]) < t
                 for it in wave_one.bin_items(b)}
        reused = {it.color for it in run.waves["thirds"].items if it.color < m}
        assert reused and reused <= short

    def test_t3_stop_disjunction(self, ccff3):
        z1, z2 = ccff3.census["z1"], ccff3.census["z2"]
        x3 = ccff3.census["x3"]
        assert (3 * z1 + 4 * z2 <= 2 * 6) or (2 * z1 + 3 * z2 <= 6 * x3 <= 2 * 6)

    @pytest.mark.parametrize("t,m", [(2, 6), (2, 12), (3, 6), (3, 12)])
    def test_all_checks_pass(self, t, m):
        run = run_full("ccff", t, m)
        assert checks_pass(run.checks), [
            (c.name, c.detail) for c in run.checks if not c.passed
        ]
        for sc in run.scenarios:
            assert checks_pass(sc.checks), (sc.scenario, [
                (c.name, c.detail) for c in sc.checks if not c.passed
            ])


class TestFinals:
    def test_golden_ratios_m6(self, ccff2, ccff3):
        assert {sc.scenario: sc.ratio for sc in ccff2.scenarios} == {
            "huge": F(4, 3), "six-tenths": F(2), "short-two-thirds": F(3, 2),
        }
        assert {sc.scenario: sc.ratio for sc in ccff3.scenarios} == {
            "huge": F(3, 2), "six-tenths": F(2), "short-two-thirds": F(3, 2),
        }

    def test_matching_items_share_colors(self, ccff2):
        for sc in ccff2.scenarios[1:]:
            for contents in sc.opt_packing.bins:
                matches = [it for it, _ in contents if it.label == "matching"]
                thirds = [it for it, _ in contents if it.label == "third"]
                for match in matches:
                    assert any(t.color == match.color for t in thirds)

    def test_final_packings_validate(self, ccff2, ccff3):
        for run in (ccff2, ccff3):
            for sc in run.scenarios:
                assert validate_packing(sc.opt_packing) == []
                for contents in sc.opt_packing.bins:
                    colors = {it.color for it, _ in contents}
                    assert len(colors) <= run.t

    def test_alg_lower_bounds(self, ccff3):
        by_name = {sc.scenario: sc for sc in ccff3.scenarios}
        c = ccff3.census
        x3 = c["x3"]
        assert by_name["six-tenths"].alg_cost >= x3 + c["z1"] + 2 * c["z2"]
        assert by_name["short-two-thirds"].alg_cost >= x3 + c["z1"] + c["z2"]


class TestColorLedger:
    @pytest.mark.parametrize("algorithm,t,m", [
        ("ccff", 3, 12), ("past-bin-zero-test-clcbp", 2, 12),
        ("past-bin-zero-test-clcbp", 3, 24),
    ])
    def test_counts_the_colors_the_thirds_carry(self, algorithm, t, m):
        run = run_full(algorithm, t, m)
        colors = {it.color for it in run.waves["thirds"].items}
        assert run.ledger == {
            "reusedColors": len({c for c in colors if c < m}),
            "freshColors": len({c for c in colors if c >= m}),
            "matchedItems": len(run.waves["thirds"].items),
        }

    def test_reused_colors_ride_in_valid_packings(self):
        run = run_full("past-bin-zero-test-clcbp", 2, 12)
        assert run.ledger == {"reusedColors": 2, "freshColors": 3, "matchedItems": 10}
        assert all(checks_pass(sc.checks) for sc in run.scenarios)

    def test_no_ledger_without_wave_two(self):
        assert run_full("solo-test-clcbp", 2, 6).ledger is None


def _items(first, colors):
    return [Item(first + j, rat("1/100"), color=c) for j, c in enumerate(colors)]


def _idents(groups):
    return [[it.ident for it in contents] for contents in groups]


class TestGroupings:
    """The offline groupings on hand-built thirds.  Large thirds are 100+,
    small thirds 200+, their two-thirds matches 300+, the 3/5 matches 400+;
    tiny i has color i.  Every shipped algorithm leaves clcbp with no
    same-color large pair, so the duels never reach these branches."""

    def _groups(self, t, large_colors, small_colors, n_tinies):
        tinies = _items(0, range(n_tinies))
        large, small = _items(100, large_colors), _items(200, small_colors)
        thirds = large + small
        halves = _items(400, [it.color for it in thirds])
        return (_idents(_halves_groups(t, tinies, thirds, halves)),
                _idents(_two_thirds_groups(t, tinies, small, large,
                                           _items(300, small_colors))))

    def test_same_color_pair_takes_its_rider(self):
        halves, two = self._groups(2, [0, 0, 1, 1, 2], [3], 6)
        assert halves == [[100, 400, 0, 4], [101, 401, 5], [102, 402, 1],
                          [103, 403], [104, 404, 2], [200, 405, 3]]
        assert two == [[200, 300, 3, 4], [100, 101, 0, 5], [102, 103, 1], [104, 2]]

    def test_broken_pair_riders_land_in_loose_chunks(self):
        halves, two = self._groups(2, [0, 0, 1, 1, 2], [3, 4, 5], 8)
        assert halves == [[100, 400, 0, 6], [101, 401, 7], [102, 402, 1],
                          [103, 403], [104, 404, 2], [200, 405, 3],
                          [201, 406, 4], [202, 407, 5]]
        assert two == [[200, 300, 3, 6], [201, 301, 4, 7], [202, 302, 5],
                       [100, 101, 0], [104, 102, 2, 1], [103]]

    def test_t3_fills_two_free_slots(self):
        halves, two = self._groups(3, [0, 0, 1, 1, 2], [3], 9)
        assert halves == [[100, 400, 0, 4, 5], [101, 401, 6, 7], [102, 402, 1, 8],
                          [103, 403], [104, 404, 2], [200, 405, 3]]
        assert two == [[200, 300, 3, 4, 5], [100, 101, 0, 6, 7], [102, 103, 1, 8],
                       [104, 2]]

    def test_leftover_tinies_pack_t_to_a_bin(self):
        halves, two = self._groups(2, [0, 0, 1, 1, 2], [3], 11)
        assert halves == [[100, 400, 0, 4], [101, 401, 5], [102, 402, 1, 6],
                          [103, 403, 7], [104, 404, 2, 8], [200, 405, 3, 9], [10]]
        assert two == [[200, 300, 3, 4], [100, 101, 0, 5], [102, 103, 1, 6],
                       [104, 2, 7], [8, 9], [10]]
        halves, two = self._groups(3, [0, 0, 1, 1, 2], [3, 4, 5], 14)
        assert halves == [[100, 400, 0, 6, 7], [101, 401, 8, 9],
                          [102, 402, 1, 10, 11], [103, 403, 12, 13], [104, 404, 2],
                          [200, 405, 3], [201, 406, 4], [202, 407, 5]]
        assert two == [[200, 300, 3, 6, 7], [201, 301, 4, 8, 9],
                       [202, 302, 5, 10, 11], [100, 101, 0, 12, 13],
                       [104, 102, 2, 1], [103]]

    def test_too_few_same_color_pairs_raise(self):
        tinies, large = _items(0, range(6)), _items(100, [0, 1, 7, 7])
        with pytest.raises(CrossCheckFailure, match="fewer same-color large pairs"):
            _two_thirds_groups(2, tinies, [], large, [])
