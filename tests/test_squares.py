"""Square-packing adversary: geometry, stopping rule, census, layouts."""

import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import packbound
from packbound.exact import power, rat
from packbound.model import (
    Item,
    Packing,
    Placement,
    VariantRules,
    validate_packing,
)
from packbound.reports import checks_pass
from packbound.squares import (
    CensusGap,
    SquaresConfig,
    _classify_bin,
    block_court_layout,
    corner_court_layout,
    grid_layout,
    l_strip_layout,
    run_full,
)


@pytest.fixture(scope="module")
def shelf20():
    return run_full("shelf-first-fit", 20)


@pytest.fixture(scope="module")
def shelf10():
    return run_full("shelf-first-fit", 10)


def build_and_validate(coords):
    packing = Packing(VariantRules("squares"))
    for item, x, y in coords:
        packing.add_item(item, Placement(0, x, y))
    assert validate_packing(packing) == []
    return packing


class TestConfig:
    def test_m_must_be_even(self):
        with pytest.raises(ValueError):
            SquaresConfig(5)

    def test_census_gap_on_impossible_shapes(self):
        with pytest.raises(CensusGap):
            _classify_bin(9, 1, 0)  # ten squares above 1/4 cannot coexist
        with pytest.raises(CensusGap):
            _classify_bin(0, 5, 1)
        with pytest.raises(CensusGap):
            _classify_bin(2, 1, 0)  # low-quarter bin must hold a large third


class TestLayouts:
    def test_grid_of_nine_quarters(self):
        quarters = [Item(i, rat(F(1, 4)) + power(10, 70 + i)) for i in range(9)]
        packing = build_and_validate(grid_layout(quarters))
        assert len(packing.bins[0]) == 9

    def test_big_square_with_five_smalls(self):
        g = power(10, 60)
        big = Item(99, rat(F(3, 4)) - g)
        smalls = [Item(i, rat(F(1, 4)) + power(10, 64 + 2 * i)) for i in range(5)]
        coords = [(big, rat(0), rat(0))] + l_strip_layout(big.size, smalls)
        packing = build_and_validate(coords)
        assert len(packing.bins[0]) == 6

    def test_six_tenths_court(self):
        big = Item(99, rat(F(3, 5)))
        thirds = [Item(i, rat(F(1, 3)) + power(10, 80 + 2 * i)) for i in range(3)]
        quarters = [Item(10 + i, rat(F(1, 4)) + power(10, 90 + i)) for i in range(2)]
        packing = build_and_validate(corner_court_layout(big, thirds, quarters))
        assert len(packing.bins[0]) == 6

    def test_short_two_thirds_court_tight_fit(self):
        g = power(10, 77)
        big = Item(99, rat(F(2, 3)) - g)
        # small thirds sit strictly under the threshold: they just fit
        thirds = [Item(i, rat(F(1, 3)) + power(10, 80 + 2 * i)) for i in range(3)]
        quarters = [Item(10 + i, rat(F(1, 4)) + power(10, 90 + i)) for i in range(2)]
        packing = build_and_validate(corner_court_layout(big, thirds, quarters))
        assert len(packing.bins[0]) == 6

    def test_block_of_four_thirds_with_five_quarters(self):
        thirds = [Item(i, rat(F(1, 3)) + power(10, 70 + 2 * i)) for i in range(4)]
        quarters = [Item(10 + i, rat(F(1, 4)) + power(10, 80 + i)) for i in range(5)]
        packing = build_and_validate(block_court_layout(thirds, quarters))
        assert len(packing.bins[0]) == 9

    @pytest.mark.parametrize("layout, args", [
        (grid_layout, lambda q: (q[:10],)),
        (l_strip_layout, lambda q: (rat(F(3, 4)), q[:6])),
        (corner_court_layout, lambda q: (q[0], q[1:4], q[4:7])),
        (block_court_layout, lambda q: (q[:4], q[4:10])),
    ])
    def test_oversized_layouts_raise(self, layout, args):
        quarters = [Item(i, rat(F(1, 4))) for i in range(10)]
        with pytest.raises(ValueError):
            layout(*args(quarters))

    def test_guard_survives_optimized_python(self):
        """The size guards are real raises, not asserts that `python -O` strips."""
        script = (
            "import sys\n"
            "from packbound.exact import rat\n"
            "from packbound.model import Item\n"
            "from packbound.squares import grid_layout\n"
            "if __debug__:\n"
            "    sys.exit(2)\n"
            "try:\n"
            "    grid_layout([Item(i, rat('1/4')) for i in range(10)])\n"
            "except ValueError:\n"
            "    sys.exit(0)\n"
            "sys.exit(1)\n"
        )
        src = str(Path(packbound.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              env={"PYTHONPATH": src}, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestRun:
    def test_golden_census_m20(self, shelf20):
        c = shelf20.census
        assert c.f15 == 4 and c.t13 == 8
        assert (c.bins4, c.bins3, c.sm3, c.lg3) == (4, 8, 15, 8)

    def test_golden_ratios_m20(self, shelf20):
        ratios = {sc.scenario: sc.ratio for sc in shelf20.scenarios}
        assert ratios == {
            "three-quarter-fill": F(8, 5),
            "six-tenths": F(2),
            "short-two-thirds": F(17, 7),
        }
        assert max(ratios.values()) >= F(12, 10)

    @pytest.mark.parametrize("m", [4, 10, 20])
    def test_all_checks_pass(self, m):
        run = run_full("shelf-first-fit", m)
        assert checks_pass(run.checks), [
            (c.name, c.detail) for c in run.checks if not c.passed
        ]
        for sc in run.scenarios:
            assert checks_pass(sc.checks), (sc.scenario, [
                (c.name, c.detail) for c in sc.checks if not c.passed
            ])

    def test_stopping_sandwich(self, shelf10):
        c = shelf10.census
        assert 12 * 10 <= 8 * c.sm3 + 15 * c.lg3 <= 12 * 10 + 15
        assert 5 * (c.sm3 + c.lg3) >= 4 * 10
        assert c.sm3 + c.lg3 <= 15

    def test_forced_cost_wave_one_branch(self, shelf20):
        sc1 = shelf20.scenarios[0]
        c = shelf20.census
        count1 = -(-(20 - c.bins4) // 5)
        assert sc1.alg_cost == c.bins4 + count1

    def test_opt_packings_validate_geometrically(self, shelf20):
        for sc in shelf20.scenarios:
            assert validate_packing(sc.opt_packing) == []

    def test_offline_cost_formulas(self, shelf20):
        c = shelf20.census
        by_name = {sc.scenario: sc for sc in shelf20.scenarios}
        m = 20
        assert F(by_name["three-quarter-fill"].opt_upper) <= F(m, 5) - F(4 * c.bins4, 45) + 2
        assert F(by_name["six-tenths"].opt_upper) <= F(m, 9) + F(7 * c.sm3, 27) + F(7 * c.lg3, 27) + 3
        assert F(by_name["short-two-thirds"].opt_upper) <= F(c.sm3, 3) + F(c.lg3, 4) + 2

    def test_replay_determinism(self):
        a = run_full("shelf-first-fit", 10)
        b = run_full("shelf-first-fit", 10)
        assert [sc.ratio for sc in a.scenarios] == [sc.ratio for sc in b.scenarios]
        assert a.census == b.census

