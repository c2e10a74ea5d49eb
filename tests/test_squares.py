"""Square-packing adversary: geometry, stopping rule, census, layouts."""

import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import packbound
from packbound.adversary import census
from packbound.algorithms import fork_replay, register_algorithm
from packbound.exact import power, rat
from packbound.model import (
    Item,
    Packing,
    Placement,
    VariantRules,
    validate_packing,
)
from packbound.reports import checks_pass
from packbound.shapes import SP
from packbound.squares import (
    CensusGap,
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


def _census_of(n_quarters, n_thirds):
    """Census of one hand-built bin holding the given numbers of squares."""
    contents = ([(Item(i, rat(F(1, 4))), Placement(0)) for i in range(n_quarters)]
                + [(Item(100 + i, rat(F(1, 3))), Placement(0)) for i in range(n_thirds)])
    return census([contents], set(range(100)), SP.bands, "quarters")


THIRD, HALF = rat(F(1, 3)), rat(F(1, 2))
QUARTER_CELLS = [(rat(x), rat(y)) for y in (0, F(3, 10)) for x in (0, F(3, 10), F(3, 5))]
THIRD_CELLS = [(rat(0), rat(F(3, 5))), (HALF, rat(F(3, 5)))]


def _thirds_above_quarters(packing, item):
    """Five quarters in two rows of the first bin, every later quarter alone
    in the corner of a fresh bin, then up to two thirds in the top row of
    each bin of quarters in turn: bins of five quarters and of one take two
    thirds each.  Every larger square opens a fresh bin."""
    if item.size < THIRD and packing.cost == 1 and len(packing.bins[0]) < 5:
        return Placement(0, *QUARTER_CELLS[len(packing.bins[0])])
    if THIRD < item.size < HALF:
        for b, contents in enumerate(packing.bins):
            n_thirds = sum(1 for it, _ in contents if it.size > THIRD)
            if contents[0][0].size < THIRD and n_thirds < 2:
                return Placement(b, *THIRD_CELLS[n_thirds])
    return Placement(packing.cost, rat(0), rat(0))


register_algorithm("thirds-above-quarters-test-squares", _thirds_above_quarters)


def bin_shapes(algorithm, m):
    """(quarters, thirds, large thirds) of each bin holding thirds after
    the waves of an sp duel, its packing replayed from the waves' items."""
    run = run_full(algorithm, m)
    quarters, thirds = run.waves["quarters"], run.waves["thirds"]
    session = fork_replay(algorithm, VariantRules("squares"), quarters.items + thirds.items)
    quarter_ids = {q.ident for q in quarters.items}
    shapes = []
    for contents in session.packing.bins:
        ids = [it.ident for it, _ in contents]
        nf = sum(1 for i in ids if i in quarter_ids)
        large = sum(1 for i in ids if i not in quarter_ids and i not in thirds.small_ids)
        if len(ids) > nf:
            shapes.append((nf, len(ids) - nf, large))
    return shapes


class TestLargeThirds:
    """sp's steering rule, bin by bin: a bin holding thirds holds exactly one
    large third below `SP.large_below` quarters and none from there on."""

    @pytest.mark.parametrize("algorithm, m", [
        *(("shelf-first-fit", m) for m in (4, 10, 20, 48, 96)),
        ("thirds-above-quarters-test-squares", 12),
    ])
    def test_one_large_third_per_bin_below_five_quarters(self, algorithm, m):
        shapes = bin_shapes(algorithm, m)
        assert shapes and all(large == (nf < SP.large_below) for nf, _, large in shapes), shapes

    def test_the_test_strategy_reaches_both_sides_of_the_rule(self):
        shapes = set(bin_shapes("thirds-above-quarters-test-squares", 12))
        assert {(SP.large_below, 2, 0), (1, 2, 1)} <= shapes


class TestConfig:
    def test_m_must_be_even(self):
        with pytest.raises(ValueError, match="M must be a positive integer divisible by 2"):
            run_full("shelf-first-fit", 5)

    def test_census_gap_on_impossible_shapes(self):
        # ten squares above 1/4 cannot coexist
        with pytest.raises(CensusGap, match=r"^bin shape \(9 quarters, 1 thirds\)$"):
            _census_of(9, 1)
        with pytest.raises(CensusGap, match=r"^bin shape \(0 quarters, 5 thirds\)$"):
            _census_of(0, 5)


class TestLayouts:
    def test_grid_of_nine_quarters(self):
        quarters = [Item(i, rat(F(1, 4)) + power(10, 70 + i)) for i in range(9)]
        packing = build_and_validate(grid_layout(quarters))
        assert len(packing.bins[0]) == 9

    def test_big_square_with_five_smalls(self):
        g = power(10, 60)
        big = Item(99, rat(F(3, 4)) - g)
        smalls = [Item(i, rat(F(1, 4)) + power(10, 64 + 2 * i)) for i in range(5)]
        coords = [(big, rat(0), rat(0))] + l_strip_layout(smalls)
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

    # (ident, x, y) of every square for each arm length, as the layouts
    # placed them before they shared one arm rule; the duels' goldens pin
    # only the arm lengths their runs produce.  The L-strip: the far corner,
    # two on the right arm, two on the top arm
    L_STRIP = [
        (0, "3/4 - 10^-64", "3/4 - 10^-64"),
        (1, "3/4 - 10^-66", "0"),
        (2, "3/4 - 10^-68", "1/4 + 10^-66"),
        (3, "0", "3/4 - 10^-70"),
        (4, "1/4 + 10^-70", "3/4 - 10^-72"),
    ]
    # after the big square: thirds on the right arm, the top arm and in the
    # far corner, then one quarter on each arm
    COURT = {
        (0, 0): [],
        (0, 1): [(20, "3/4 - 10^-90", "0")],
        (0, 2): [(20, "3/4 - 10^-90", "0"), (21, "0", "3/4 - 10^-91")],
        (1, 0): [(10, "2/3 - 10^-80", "0")],
        (1, 1): [(10, "2/3 - 10^-80", "0"), (20, "3/4 - 10^-90", "1/3 + 10^-80")],
        (1, 2): [(10, "2/3 - 10^-80", "0"), (20, "3/4 - 10^-90", "1/3 + 10^-80"),
                 (21, "0", "3/4 - 10^-91")],
        (2, 0): [(10, "2/3 - 10^-80", "0"), (11, "0", "2/3 - 10^-82")],
        (2, 1): [(10, "2/3 - 10^-80", "0"), (11, "0", "2/3 - 10^-82"),
                 (20, "3/4 - 10^-90", "1/3 + 10^-80")],
        (2, 2): [(10, "2/3 - 10^-80", "0"), (11, "0", "2/3 - 10^-82"),
                 (20, "3/4 - 10^-90", "1/3 + 10^-80"), (21, "1/3 + 10^-82", "3/4 - 10^-91")],
        (3, 0): [(10, "2/3 - 10^-80", "0"), (11, "0", "2/3 - 10^-82"),
                 (12, "2/3 - 10^-84", "2/3 - 10^-84")],
        (3, 1): [(10, "2/3 - 10^-80", "0"), (11, "0", "2/3 - 10^-82"),
                 (12, "2/3 - 10^-84", "2/3 - 10^-84"), (20, "3/4 - 10^-90", "1/3 + 10^-80")],
        (3, 2): [(10, "2/3 - 10^-80", "0"), (11, "0", "2/3 - 10^-82"),
                 (12, "2/3 - 10^-84", "2/3 - 10^-84"), (20, "3/4 - 10^-90", "1/3 + 10^-80"),
                 (21, "1/3 + 10^-82", "3/4 - 10^-91")],
    }

    @staticmethod
    def _placed(coords):
        return [(item.ident, str(x), str(y)) for item, x, y in coords]

    @pytest.mark.parametrize("n", range(6))
    def test_l_strip_short_arms(self, n):
        smalls = [Item(i, rat(F(1, 4)) + power(10, 64 + 2 * i)) for i in range(5)]
        assert self._placed(l_strip_layout(smalls[:n])) == self.L_STRIP[:n]

    @pytest.mark.parametrize("n_thirds, n_quarters", [(a, b) for a in range(4) for b in range(3)])
    def test_corner_court_short_arms(self, n_thirds, n_quarters):
        big = Item(99, rat(F(3, 5)))
        thirds = [Item(10 + i, rat(F(1, 3)) + power(10, 80 + 2 * i)) for i in range(3)]
        quarters = [Item(20 + i, rat(F(1, 4)) + power(10, 90 + i)) for i in range(2)]
        coords = corner_court_layout(big, thirds[:n_thirds], quarters[:n_quarters])
        assert self._placed(coords) == [(99, "0", "0")] + self.COURT[n_thirds, n_quarters]

    @pytest.mark.parametrize("layout, args", [
        (grid_layout, lambda q: (q[:10],)),
        (l_strip_layout, lambda q: (q[:6],)),
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
        proc = subprocess.run([sys.executable, "-B", "-O", "-c", script],
                              env={"PYTHONPATH": src}, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestRun:
    def test_golden_census_m20(self, shelf20):
        c = shelf20.census
        assert c["f15"] == 4 and c["t13"] == 8
        assert (c["bins4"], c["bins3"], c["sm3"], c["lg3"]) == (4, 8, 15, 8)

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
        assert 12 * 10 <= 8 * c["sm3"] + 15 * c["lg3"] <= 12 * 10 + 15
        assert 5 * (c["sm3"] + c["lg3"]) >= 4 * 10
        assert c["sm3"] + c["lg3"] <= 15

    def test_forced_cost_wave_one_branch(self, shelf20):
        sc1 = shelf20.scenarios[0]
        c = shelf20.census
        count1 = -(-(20 - c["bins4"]) // 5)
        assert sc1.alg_cost == c["bins4"] + count1

    def test_opt_packings_validate_geometrically(self, shelf20):
        for sc in shelf20.scenarios:
            assert validate_packing(sc.opt_packing) == []

    def test_offline_cost_formulas(self, shelf20):
        c = shelf20.census
        by_name = {sc.scenario: sc for sc in shelf20.scenarios}
        m = 20
        assert F(by_name["three-quarter-fill"].opt_upper) <= F(m, 5) - F(4 * c["bins4"], 45) + 2
        assert (F(by_name["six-tenths"].opt_upper)
                <= F(m, 9) + F(7 * c["sm3"], 27) + F(7 * c["lg3"], 27) + 3)
        assert F(by_name["short-two-thirds"].opt_upper) <= F(c["sm3"], 3) + F(c["lg3"], 4) + 2

    def test_replay_determinism(self):
        a = run_full("shelf-first-fit", 10)
        b = run_full("shelf-first-fit", 10)
        assert [sc.ratio for sc in a.scenarios] == [sc.ratio for sc in b.scenarios]
        assert a.census == b.census

