"""Class-constrained adversary: color discipline, stopping, matchings."""

from fractions import Fraction as F

import pytest

from packbound.algorithms import register_algorithm
from packbound.clcbp import ClassConstrainedConfig, closed_form_bounds, run_full
from packbound.model import Placement, validate_packing
from packbound.optoracle import OracleInstance, min_bins
from packbound.reports import checks_pass


def _solo(packing, item):
    return Placement(packing.cost)


register_algorithm("solo-test-clcbp", _solo)


@pytest.fixture(scope="module")
def ccff2():
    return run_full("ccff", 2, 6)


@pytest.fixture(scope="module")
def ccff3():
    return run_full("ccff", 3, 6)


class TestConfig:
    def test_t_and_m_validation(self):
        with pytest.raises(ValueError):
            ClassConstrainedConfig(4, 6)
        with pytest.raises(ValueError):
            ClassConstrainedConfig(2, 8)

    def test_closed_form_bounds(self):
        # everything in full bins: ratio bound (t-1)x + 1 with x = X/M
        assert closed_form_bounds(6, {1: 6, 2: 0}, 2, 6)["tiny-wave"] == F(2)
        assert closed_form_bounds(1, {1: 0, 2: 0, 3: 1}, 3, 6) == {
            "tiny-wave": F(2 * 1 + 6, 6),
            "spread-tinies": F(11, 6),
        }
        # spread bonus appears exactly when full bins are scarce
        bounds = closed_form_bounds(3, {1: 0, 2: 3}, 2, 12)
        assert bounds["spread-tinies"] == F(7, 4)


class TestWaveOne:
    def test_ccff_fills_bins_to_t(self, ccff2, ccff3):
        assert ccff2.census.per_count == {1: 0, 2: 3}
        assert ccff3.census.per_count == {1: 0, 2: 0, 3: 2}

    def test_solo_skips_later_waves(self):
        run = run_full("solo-test-clcbp", 2, 6)
        assert run.census.per_count == {1: 6, 2: 0}
        assert [sc.scenario for sc in run.scenarios] == ["huge"]
        assert run.closed_form["tiny-wave"] == F(2)
        assert run.closed_form["spread-tinies"] == F(7, 4)

    def test_margins_and_scale_gap(self, ccff2):
        failed = [c for c in ccff2.checks if not c.passed]
        assert not failed, [(c.name, c.detail) for c in failed]
        eps = ccff2.tiny_margin
        for it in ccff2.tinies:
            if it.ident in ccff2.small_tinies:
                assert it.size * 10 < eps
            else:
                assert it.size > eps * 2

    def test_every_bin_at_most_t_tinies(self, ccff3):
        assert all(j <= 3 for j in ccff3.census.per_count)


class TestHugeBranch:
    @pytest.mark.parametrize("t", [2, 3])
    def test_forced_cost_and_offline(self, t):
        run = run_full("ccff", t, 6)
        sc = run.scenarios[0]
        x = run.census.tiny_bins
        count = (6 - x) // t
        assert sc.alg_cost == x + count
        assert sc.opt_upper == 6 // t
        assert validate_packing(sc.opt_packing) == []

    def test_huge_sizes_and_colors(self, ccff2):
        sc = ccff2.scenarios[0]
        huges = [it for b in sc.opt_packing.bins for it, _ in b
                 if it.label == "huge"]
        small_colors = {ccff2.tinies[i].color for i in ccff2.small_tinies}
        assert all(h.color in small_colors for h in huges)
        assert len({h.color for h in huges}) == len(huges)

    def test_oracle_confirms_small_instance(self, ccff2):
        sc = ccff2.scenarios[0]
        items = tuple(it for b in sc.opt_packing.bins for it, _ in b)
        result = min_bins(OracleInstance(items, sc.opt_packing.rules))
        assert result.proven and result.count == 3


class TestWaveTwo:
    def test_t2_item_count_rule(self, ccff2):
        x1, x2 = ccff2.census.per_count[1], ccff2.census.per_count[2]
        assert len(ccff2.thirds) == 2 * max(x1, x2)
        assert (ccff2.census.z1 + ccff2.census.z2) % 2 == 0

    def test_two_thirds_per_color(self, ccff2, ccff3):
        for run in (ccff2, ccff3):
            colors = {}
            for it in run.thirds:
                colors[it.color] = colors.get(it.color, 0) + 1
            assert all(n == 2 for n in colors.values())

    def test_no_color_from_full_bins_reused(self, ccff3):
        full_colors = set()
        # wave-one full bins are exactly those with t tinies
        run = ccff3
        seen = {}
        for it in run.tinies:
            seen.setdefault(it.color, 0)
        # colors used by thirds must come from short bins or be fresh
        reused = {it.color for it in run.thirds if it.color < len(run.tinies)}
        # ccff fills every bin to t, so nothing is reusable: all fresh
        assert not reused

    def test_t3_stop_disjunction(self, ccff3):
        z1, z2 = ccff3.census.z1, ccff3.census.z2
        x3 = ccff3.census.per_count[3]
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
        x3 = c.per_count[3]
        assert by_name["six-tenths"].alg_cost >= x3 + c.z1 + 2 * c.z2
        assert by_name["short-two-thirds"].alg_cost >= x3 + c.z1 + c.z2
