"""Known-optimal-cost adversary: censuses, forced costs, offline optima."""

from fractions import Fraction as F

import pytest

from packbound.adversary import census, offline_packing
from packbound.algorithms import ONE_D_BASELINES, register_algorithm
from packbound.exact import rat
from packbound.knownopt import CensusGap, _scenario5_groups, run_full
from packbound.model import Item, Placement, VariantRules, validate_packing
from packbound.optoracle import OracleInstance, min_bins
from packbound.reports import checks_pass
from packbound.shapes import KO


def _solo(packing, item):
    return Placement(packing.cost)


register_algorithm("solo-test", _solo)


@pytest.fixture(scope="module")
def ff8():
    return run_full("first-fit", 8)


@pytest.fixture(scope="module")
def ff4():
    return run_full("first-fit", 4)


def _census_of(n_sevenths, n_thirds):
    """Census of one hand-built bin holding the given numbers of items."""
    contents = ([(Item(i, rat(F(1, 7))), Placement(0)) for i in range(n_sevenths)]
                + [(Item(100 + i, rat(F(1, 3))), Placement(0)) for i in range(n_thirds)])
    return census([contents], set(range(100)), KO.bands, "sevenths")


class TestConfig:
    def test_m_must_be_multiple_of_four(self):
        with pytest.raises(ValueError, match="M must be a positive integer divisible by 4"):
            run_full("first-fit", 6)
        with pytest.raises(ValueError, match="M must be a positive integer divisible by 4"):
            run_full("first-fit", 0)

    def test_census_gap_raises_on_impossible_shape(self):
        with pytest.raises(CensusGap, match=r"^bin shape \(5 sevenths, 1 thirds\)$"):
            _census_of(5, 1)
        with pytest.raises(CensusGap, match=r"^bin shape \(0 sevenths, 3 thirds\)$"):
            _census_of(0, 3)
        with pytest.raises(CensusGap, match=r"^bin shape \(0 sevenths, 0 thirds\)$"):
            _census_of(0, 0)


class TestWaves:
    def test_next_fit_m4_single_bin_wave_one(self):
        run = run_full("next-fit", 4)
        assert run.census["bins7"] == 1

    def test_solo_algorithm_every_item_large(self):
        run = run_full("solo-test", 4)
        assert run.census["bins7"] == 4
        assert not run.waves["sevenths"].small_ids
        assert run.census["s1"] == 4 and run.census["t1"] == 4

    def test_sizes_strictly_inside_bands(self, ff8):
        for it in ff8.waves["sevenths"].items:
            assert F(1, 7) < it.size.rational_part or it.size > F(1, 7)
            assert it.size > F(1, 7) and it.size < F(143, 1000)
        for it in ff8.waves["thirds"].items:
            assert it.size > F(1, 3) and it.size < F(33344, 100000)

    def test_thresholds_separate_classes(self, ff8):
        for it in ff8.waves["sevenths"].items:
            small = it.ident in ff8.waves["sevenths"].small_ids
            assert (it.size < F(1, 7) + ff8.waves["sevenths"].oracle.separator().gamma) == small
        for it in ff8.waves["thirds"].items:
            small = it.ident in ff8.waves["thirds"].small_ids
            assert (it.size < F(1, 3) + ff8.waves["thirds"].oracle.separator().gamma) == small


class TestGoldenCensuses:
    def test_first_fit_m4_census(self, ff4):
        c = ff4.census
        assert (c["s24t1"], c["t1"], c["t2"], c["bins7"], c["bins3"]) == (1, 1, 1, 1, 2)
        assert (c["s46"] == c["s3"] == c["s2"] == c["s1"] == c["s1t1"] == c["s1t2"]
                == c["s2t2"] == 0)

    def test_first_fit_m8_census(self, ff8):
        c = ff8.census
        assert (c["s46"], c["s2t2"], c["t2"], c["bins7"], c["bins3"]) == (1, 1, 3, 2, 3)

    @pytest.mark.parametrize("algo", ONE_D_BASELINES)
    @pytest.mark.parametrize("m", [4, 8])
    def test_census_identities_all_baselines(self, algo, m):
        run = run_full(algo, m)
        assert checks_pass(run.checks), [
            (c.name, c.detail) for c in run.checks if not c.passed
        ]


class TestScenarios:
    def test_first_fit_m8_ratios(self, ff8):
        ratios = {sc.scenario: sc.ratio for sc in ff8.scenarios}
        assert ratios == {
            "four-fifths": F(5, 4),
            "big-fill": F(9, 8),
            "units": F(9, 8),
            "over-half": F(13, 8),
            "short-two-thirds": F(11, 8),
        }

    @pytest.mark.parametrize("algo", ONE_D_BASELINES + ("solo-test",))
    @pytest.mark.parametrize("m", [4, 8])
    def test_forced_equalities_and_bounds(self, algo, m):
        run = run_full(algo, m)
        by_name = {sc.scenario: sc for sc in run.scenarios}
        c = run.census
        count2 = by_name["big-fill"].items_presented
        assert by_name["big-fill"].alg_cost == c["bins7"] + count2
        assert by_name["units"].alg_cost == c["bins7"] + c["bins3"] + m // 2
        for sc in run.scenarios:
            assert checks_pass(sc.checks), (sc.scenario, [
                (ch.name, ch.detail) for ch in sc.checks if not ch.passed
            ])

    @pytest.mark.parametrize("algo", ONE_D_BASELINES)
    @pytest.mark.parametrize("m", [4, 8])
    def test_offline_cost_exactly_m_and_oracle_confirms(self, algo, m):
        run = run_full(algo, m)
        for sc in run.scenarios:
            assert sc.opt_cost == m
            assert sc.opt_packing.cost == m
            assert validate_packing(sc.opt_packing) == []
            oracle_checks = [c for c in sc.checks
                             if c.name == "opt-oracle-confirms"]
            assert oracle_checks and all(c.passed for c in oracle_checks)

    def test_oracle_never_beats_constructions(self, ff4):
        for sc in ff4.scenarios:
            items = tuple(it for b in sc.opt_packing.bins for it, _ in b)
            result = min_bins(OracleInstance(items, sc.opt_packing.rules))
            assert result.proven and result.count <= sc.opt_packing.cost

    def test_scenario_item_counts(self, ff8):
        by_name = {sc.scenario: sc for sc in ff8.scenarios}
        c = ff8.census
        assert by_name["four-fifths"].items_presented == 8
        assert by_name["big-fill"].items_presented == 8 - (-(-c["bins7"] // 6))
        assert by_name["units"].items_presented == 4
        assert by_name["over-half"].items_presented == 8
        expected5 = 8 - max(2, -(-c["bins3"] // 2))
        assert by_name["short-two-thirds"].items_presented == expected5


class TestShortTwoThirdsGrouping:
    @pytest.mark.parametrize("m", [4, 8, 12])
    def test_every_wave_two_bin_count_packs_into_m_bins(self, m):
        # sizes inside the bands the waves keep: a large third with a short
        # item overfills its bin, a small one does not
        sevenths = [Item(i, rat(F(1, 7) + F(1, 10**4))) for i in range(m)]
        for bins3 in range(1, m + 1):
            thirds = [Item(m + i, rat(F(1, 3) + (F(1, 10**4) if i < bins3 else F(1, 10**5))))
                      for i in range(m)]
            count5 = m - max(m // 4, -(-bins3 // 2))
            shorts = [Item(2 * m + i, rat(F(2, 3) - F(1, 20000))) for i in range(count5)]
            groups = _scenario5_groups(m, sevenths, thirds[:bins3], thirds[bins3:], shorts)
            packing = offline_packing(VariantRules("known-opt", advice=m), groups)
            assert packing.cost == m, bins3
            assert sorted(it.ident for b in packing.bins for it, _ in b) == list(
                range(2 * m + count5)), bins3


class TestTrend:
    def test_first_fit_ratio_grows_with_m(self):
        small = max(sc.ratio for sc in run_full("first-fit", 8).scenarios)
        large = max(sc.ratio for sc in
                    run_full("first-fit", 48).scenarios)
        assert large > small
        assert large > F(13, 10)
