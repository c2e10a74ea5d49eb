"""Bound programs: exact optima, certificates, bisection brackets."""

import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import packbound
from packbound import mathprog
from packbound.mathprog import (
    Certificate,
    Infeasible,
    MismatchedTarget,
    NonMonotoneDetected,
    NoUpperBound,
    Program,
    Row,
    SignViolation,
    UnknownProgram,
    bisect_min_r,
    builtin_program,
    builtin_program_ids,
    check_certificate,
    combine_rows,
    exact_threshold,
    feasible_at,
    ko_certificate_suite,
    solve_min_r_exact,
)
from packbound.algebra import check_threshold, sign_at
from packbound.mathprog import (
    _bland, _check_monotone, _cost_rows, _integer_rows, _phase1, _structural, _tableau,
)
from packbound.shapes import CLCBP, KO, SP, banded

TOL = F(1, 10**9)


class TestExactOptima:
    def test_ko_case1_is_87_over_62(self):
        assert solve_min_r_exact(builtin_program("ko-case1")) == F(87, 62)

    def test_ko_case2_is_17_over_12(self):
        assert solve_min_r_exact(builtin_program("ko-case2")) == F(17, 12)

    def test_trivial_program(self):
        trivial = builtin_program("ko-case1")
        prog = type(trivial)(
            "trivial", ("ratio",), (Row.build("floor", {"ratio": 1}, ">=", 1),)
        )
        assert solve_min_r_exact(prog) == 1

    def test_r_on_the_right_hand_side_is_linear(self):
        # minimize R subject to x >= 1 and 2x <= R, R written on either side
        floor = Row.build("floor", {"x": 1}, ">=", 1)
        for cap in (Row.build("cap", {"x": 2}, "<=", (0, 1)),
                    Row.build("cap", {"x": 2, "ratio": -1}, "<=", 0)):
            program = Program("cap", ("x", "ratio"), (floor, cap))
            assert program.linear_in_r
            assert solve_min_r_exact(program) == 2

    def test_exact_targets_are_the_linear_programs(self):
        # `bounds` solves a target exactly, not by bisection, by its mode
        modes = {pid: mode for pid, (_, mode) in mathprog.REFERENCE_TARGETS.items()}
        assert set(modes) == set(builtin_program_ids())
        for pid, mode in modes.items():
            assert (mode == "exact") == builtin_program(pid).linear_in_r, pid


class TestStructure:
    def test_program_ids(self):
        # declared once, by the censuses, in the order `bounds` prints them
        order = ["ko-case1", "ko-case2", "sp",
                 "clcbp2-case1", "clcbp2-case2", "clcbp3-case1", "clcbp3-case2"]
        assert builtin_program_ids() == order
        assert [pid for table in (KO, SP, CLCBP[2], CLCBP[3]) for pid in table.programs] == order
        assert list(mathprog.REFERENCE_TARGETS) == order
        with pytest.raises(UnknownProgram):
            builtin_program("nope")

    def test_per_case_forms_are_keyed_by_their_censuss_programs(self):
        # `per_m` reads the smallest case as the run's own and `_cost_rows`
        # looks each program up by id, so a per-case form names every case
        found = []
        for table in (KO, SP, CLCBP[2], CLCBP[3]):
            for name, cost in table.costs.items():
                for form in (cost.items, cost.opt):
                    if any(isinstance(case, dict) for case in form.values()):
                        assert all(isinstance(case, dict) for case in form.values()), name
                        assert set(form) == set(table.programs), name
                        found.append(name)
        assert found == ["short-two-thirds", "short-two-thirds"]

    def test_ko_shape(self):
        p = builtin_program("ko-case1")
        assert len(p.variables) == 13 and "ratio" in p.variables
        assert len(p.rows) == 10
        assert p.linear_in_r

    def test_sp_shape(self):
        p = builtin_program("sp")
        assert len(p.variables) == 20
        assert not p.linear_in_r

    def test_clcbp3_contains_item_row(self):
        p = builtin_program("clcbp3-case1")
        row = p.row("items")
        assert dict(row.coeffs) == {"x1": (F(1), F(0)), "x2": (F(2), F(0)),
                                    "x3": (F(3), F(0))}
        assert row.const == (F(1), F(0)) and row.relation == "=="


    def test_unknown_relation_raises(self):
        with pytest.raises(ValueError, match="relation"):
            Row.build("bad", {"x": 1}, "<", 1)

    def test_linear_solve_rejects_r_terms(self):
        # an R*x term; R alone on the right-hand side is linear
        row = Row.build("c", {"x": (1, 1)}, ">=", 1)
        with pytest.raises(ValueError, match="linear solve"):
            solve_min_r_exact(Program("r-terms", ("x", "ratio"), (row,)))

    def test_ratio_coefficient_carrying_r_is_refused(self):
        # (1 + R)*R >= 1 would be quadratic in R: no solver takes the row
        prog = Program("ratio-squared", ("x", "ratio"), (
            Row.build("cap", {"x": 1}, "<=", 2),
            Row.build("square", {"x": 1, "ratio": (1, 1)}, ">=", 1),
        ))
        for solve in (lambda p: p.lowered, solve_min_r_exact,
                      lambda p: feasible_at(p, F(2)), bisect_min_r):
            with pytest.raises(ValueError, match="row square: the ratio's coefficient carries R"):
                solve(prog)


class TestSimplexEdgePaths:
    """Paths of the exact simplex that the built-in programs never take."""

    def test_infeasible_program_raises(self):
        prog = Program("infeasible", ("x", "ratio"),
                       (Row.build("negative", {"x": 1, "ratio": 1}, "<=", -1),))
        with pytest.raises(Infeasible, match="infeasible"):
            solve_min_r_exact(prog)

    def test_unbounded_ray_is_reported(self):
        # solve_min_r_exact minimizes a nonnegative variable, so its phase 2
        # is never unbounded; _bland is driven directly instead.  Minimize
        # -x over x - y + s = 1: x enters on row 0, then y's reduced cost is
        # negative and its column has no positive entry.
        tab = [[1, -1, 1, 1]]
        basis = [2]
        cost = [-1, 0, 0, 0]
        assert _bland(tab, basis, cost, range(3)) == "unbounded"
        assert basis == [0]
        assert cost[1] < 0 and cost[-1] > 0

    def test_artificials_left_at_zero_are_driven_out(self):
        # items-again repeats items, so its artificial stays basic on a row
        # with no real entry and the row is dropped; pin's artificial stays
        # basic at zero on the entry -1 under x, and phase 2 pivots on it
        prog = Program("redundant", ("x", "ratio"), (
            Row.build("items", {"x": 1, "ratio": 1}, "==", 1),
            Row.build("items-again", {"x": 2, "ratio": 2}, "==", 2),
            Row.build("pin", {"x": -1}, "==", 0),
        ))
        tab, basis, real, cost = _phase1(*_integer_rows(prog))
        assert cost[-1] == 0
        left = {i: tab[i][:real] for i, b in enumerate(basis) if b >= real}
        assert left[1] == [0, 0] and left[2][0] < 0 and left[2][1] == 0
        pivots = []
        inner = mathprog._pivot

        def recording(tab, basis, r, c):
            pivots.append((r, c, tab[r][c] < 0))
            return inner(tab, basis, r, c)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mathprog, "_pivot", recording)
            assert solve_min_r_exact(prog) == 1
        assert (2, 0, True) in pivots

    def test_feasible_at_with_a_degenerate_phase1(self):
        # at R = 2 the only point is x = 1, y = 0, and b's artificial ends
        # phase 1 basic at zero; at R = 3, x >= 2 breaks a
        prog = Program("degenerate", ("x", "y", "ratio"), (
            Row.build("a", {"x": 1, "y": 1}, "<=", 1),
            Row.build("b", {"x": 1}, ">=", (-1, 1)),
        ))
        tab, basis, real, cost = _phase1(*_integer_rows(prog, F(2)))
        assert any(b >= real and row[-1] == 0 for row, b in zip(tab, basis))
        assert feasible_at(prog, F(2))
        assert not feasible_at(prog, F(3))


# reference: the structural rows of the ko and sp programs written out
# coefficient by coefficient; the rows derived from the band tables must
# equal them
KO_STRUCTURAL = (
    Row.build(
        "items-thirds",
        {"s24t1": 1, "s1t1": 1, "s1t2": 2, "s2t2": 2, "t1": 1, "t2": 2},
        "==", 1,
    ),
    Row.build(
        "items-sevenths",
        {"s46": 6, "s3": 3, "s2": 2, "s1": 1, "s24t1": 4, "s1t1": 1,
         "s1t2": 1, "s2t2": 2},
        ">=", 1,
    ),
    Row.build(
        "bins7-def",
        {"bins7": 1, "s46": -1, "s3": -1, "s2": -1, "s1": -1, "s24t1": -1,
         "s1t1": -1, "s1t2": -1, "s2t2": -1},
        "==", 0,
    ),
    Row.build("bins3-def", {"bins3": 1, "t1": -1, "t2": -1}, "==", 0),
)
SP_STRUCTURAL = (
    Row.build(
        "bins4-def",
        {"bins4": 1, "f69": -1, "f15": -1, "f58t1": -1, "f14t1": -1,
         "f57t2": -1, "f4t2": -1, "f13t2": -1, "f56t3": -1, "f34t3": -1,
         "f12t3": -1, "f5t4": -1, "f24t4": -1, "f1t4": -1},
        "==", 0,
    ),
    Row.build("bins3-def", {"bins3": 1, "t13": -1, "t4": -1}, "==", 0),
    Row.build(
        "items-thirds",
        {"f58t1": 1, "f14t1": 1, "f57t2": 2, "f4t2": 2, "f13t2": 2,
         "f56t3": 3, "f34t3": 3, "f12t3": 3, "f24t4": 4,
         "f5t4": 4, "f1t4": 4, "t13": 3, "t4": 4, "sm3": -1, "lg3": -1},
        ">=", 0,
    ),
    Row.build(
        "large-thirds",
        {"f14t1": 1, "f4t2": 1, "f13t2": 1, "f34t3": 1, "f12t3": 1,
         "f24t4": 1, "f1t4": 1, "t13": 1, "t4": 1, "lg3": -1},
        "==", 0,
    ),
    Row.build(
        "items-quarters",
        {"f69": 9, "f15": 5, "f58t1": 8, "f14t1": 4, "f57t2": 7, "f4t2": 4,
         "f13t2": 3, "f56t3": 6, "f34t3": 4, "f12t3": 2, "f5t4": 5,
         "f24t4": 4, "f1t4": 1},
        ">=", 1,
    ),
)


def _mismatches(derived, expected, ordered):
    """Labels of the rows that differ in coefficients, constant or relation
    (and, when `ordered`, in coefficient order)."""
    assert [r.label for r in derived] == [r.label for r in expected]
    return [
        want.label for got, want in zip(derived, expected)
        if (got.coeffs if ordered else dict(got.coeffs))
        != (want.coeffs if ordered else dict(want.coeffs))
        or got.const != want.const or got.relation != want.relation
    ]


class TestStructuralRowsFromBandTables:
    def test_variables_keep_their_order(self):
        assert KO.variables == (
            "s46", "s3", "s2", "s1", "s24t1", "s1t1", "s1t2", "s2t2", "t1", "t2",
            "bins7", "bins3", "ratio",
        )
        assert SP.variables == (
            "f69", "f15", "f58t1", "f14t1", "f57t2", "f4t2", "f13t2", "f56t3",
            "f34t3", "f12t3", "f5t4", "f24t4", "f1t4", "t13", "t4",
            "bins4", "bins3", "sm3", "lg3", "ratio",
        )

    @pytest.mark.parametrize("pid", ["ko-case1", "ko-case2"])
    def test_ko_rows_equal_the_hand_rows_in_order(self, pid):
        rows = builtin_program(pid).rows[:len(KO_STRUCTURAL)]
        assert _mismatches(rows, KO_STRUCTURAL, ordered=True) == []

    def test_sp_rows_equal_the_hand_rows(self):
        # items-thirds lists f5t4 before f24t4, which the lowering, indexing
        # by variable, does not see
        rows = builtin_program("sp").rows[:len(SP_STRUCTURAL)]
        assert _mismatches(rows, SP_STRUCTURAL, ordered=False) == []

    def test_program_row_order(self):
        assert [r.label for r in builtin_program("ko-case1").rows] == [
            "items-thirds", "items-sevenths", "bins7-def", "bins3-def", "few-new-thirds",
            "cost-fourfifths", "cost-bigfill", "cost-units", "cost-halves", "cost-twothirds",
        ]
        assert [r.label for r in builtin_program("sp").rows] == [
            "bins4-def", "bins3-def", "items-thirds", "large-thirds", "items-quarters",
            "stop-mix", "ratio-bigsquares", "ratio-sixtenths", "ratio-twothirds",
        ]

    def test_widening_a_ko_band_changes_its_row(self):
        bands = dict(KO.bands)
        bands[0] = tuple(((3, 4) if name == "s3" else band, name) for band, name in bands[0])
        table = banded(bands, "sevenths", ("bins7", "bins3"), (),
                       ("thirds", "wave-one", "wave-one-bins", "wave-two-bins"), KO.costs,
                       KO.programs)
        rows = _structural(table.rows)
        assert dict(rows[1].coeffs)["s3"] == (F(4), F(0))
        assert _mismatches(rows, KO_STRUCTURAL, ordered=True) == ["items-sevenths"]

    def test_raising_an_sp_band_moves_it_out_of_large_thirds(self):
        bands = dict(SP.bands)
        bands[1] = tuple(((5 if name == "f14t1" else lo, hi), name)
                         for (lo, hi), name in bands[1])
        table = banded(bands, "quarters", ("bins4", "bins3"), ("sm3", "lg3"),
                       ("wave-one-bins", "wave-two-bins", "thirds", "large-thirds", "wave-one"),
                       SP.costs, SP.programs, large_below=5)
        rows = _structural(table.rows)
        large = next(r for r in rows if r.label == "large-thirds")
        assert "f14t1" not in dict(large.coeffs)
        assert _mismatches(rows, SP_STRUCTURAL, ordered=False) == ["large-thirds"]

    def test_bounds_does_not_load_the_adversaries(self):
        script = (
            "import sys\n"
            "import packbound.mathprog\n"
            "loaded = [m for m in ('packbound.knownopt', 'packbound.squares',\n"
            "                      'packbound.clcbp', 'packbound.adversary')\n"
            "          if m in sys.modules]\n"
            "sys.exit(', '.join(loaded) or None)\n"
        )
        src = str(Path(packbound.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-B", "-c", script],
                              env={"PYTHONPATH": src}, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


# reference: the ko cost rows written out coefficient by coefficient, the
# four both cases share and each case's cost-twothirds; the rows derived from
# the continuations' cost entries must equal them
KO_COSTS = (
    Row.build(
        "cost-fourfifths",
        {"ratio": 1, "s46": -1, "s3": -1, "s2": -1, "s24t1": -1, "s2t2": -1},
        ">=", 1,
    ),
    Row.build("cost-bigfill", {"ratio": 6, "bins7": -5}, ">=", 6),
    Row.build("cost-units", {"ratio": 2, "bins7": -2, "bins3": -2}, ">=", 1),
    Row.build(
        "cost-halves",
        {"ratio": 1, "s46": -1, "s24t1": -1, "s2t2": -1, "s1t2": -1, "t2": -1},
        ">=", 1,
    ),
)
KO_TWOTHIRDS = {
    "ko-case1": Row.build(
        "cost-twothirds", {"ratio": 4, "bins7": -4, "bins3": -4, "s2": 4, "s1": 4}, ">=", 3),
    "ko-case2": Row.build(
        "cost-twothirds", {"ratio": 2, "bins7": -2, "bins3": -1, "s2": 2, "s1": 2}, ">=", 2),
}
# the sp rows as the paper states them, R on the right of "<="
SP_COSTS = (
    Row.build("ratio-bigsquares", {"bins4": (36, 4)}, "<=", (-9, 9)),
    Row.build(
        "ratio-sixtenths",
        {"bins4": 1, "bins3": 1, "f15": -1, "f14t1": -1, "f13t2": -1,
         "f12t3": -1, "t13": -1,
         "sm3": (F(1, 3), F(-7, 27)), "lg3": (F(1, 3), F(-7, 27))},
        "<=", (0, F(1, 9)),
    ),
    Row.build(
        "ratio-twothirds",
        {"bins4": 1, "bins3": 1, "f15": -1,
         "sm3": (F(1, 3), F(-1, 3)), "lg3": (0, F(-1, 4))},
        "<=", (0, 0),
    ),
)


def _oriented(row):
    """lhs - rhs of `row` as {(variable, 0 for the constant part or 1 for the
    R part): coefficient}, negated for "<=", the ratio variable read as R."""
    sign = -1 if row.relation == "<=" else 1
    form = {(1, 0): -row.const[0], (1, 1): -row.const[1]}
    for var, (c, d) in row.coeffs:
        if var == "ratio":
            assert d == 0
            form[(1, 1)] += c
        else:
            form[(var, 0)], form[(var, 1)] = c, d
    return {key: sign * x for key, x in form.items() if x}


def _same_constraint(got, want):
    """Whether two rows are one constraint: their oriented forms are equal up
    to a factor, which is positive unless both rows are "=="."""
    a, b = _oriented(got), _oriented(want)
    equality = got.relation == "=="
    if a.keys() != b.keys() or equality != (want.relation == "=="):
        return False
    factor = next(a[key] / b[key] for key in a)
    return (equality or factor > 0) and all(a[key] == factor * b[key] for key in a)


class TestCostRowsFromCostEntries:
    @pytest.mark.parametrize("pid", ["ko-case1", "ko-case2"])
    def test_ko_rows_equal_the_hand_rows_in_order(self, pid):
        want = KO_COSTS + (KO_TWOTHIRDS[pid],)
        rows = [builtin_program(pid).row(r.label) for r in want]
        assert _mismatches(rows, want, ordered=True) == []

    def test_sp_rows_are_the_paper_constraints(self):
        sp = builtin_program("sp")
        for want in SP_COSTS:
            got = sp.row(want.label)
            assert _same_constraint(got, want), got.render()

    def test_same_constraint_tells_rows_apart(self):
        bigsquares = SP_COSTS[0]
        assert _same_constraint(Row.build("x", {"bins4": (-72, -8)}, ">=", (18, -18)), bigsquares)
        assert not _same_constraint(Row.build("x", {"bins4": (72, 8)}, ">=", (-18, 18)),
                                    bigsquares)
        assert not _same_constraint(Row.build("x", {"bins4": (-36, -4)}, ">=", (9, -8)),
                                    bigsquares)

    def test_dropping_a_paid_category_moves_the_row_and_the_duel_bound(self, monkeypatch):
        from packbound import knownopt

        def over_half_bound(run):
            sc = next(sc for sc in run.scenarios if sc.scenario == "over-half")
            check = next(c for c in sc.checks if c.name == "alg-lower-bound")
            return int(check.detail.rsplit(" ", 1)[1])

        run = knownopt.run_full("first-fit", 8)
        assert run.census["t2"] == 3
        halves = KO.costs["over-half"]
        table = KO._replace(costs={**KO.costs, "over-half": halves._replace(
            pays={v: k for v, k in halves.pays.items() if v != "t2"})})
        rows = _cost_rows(table, "ko-case1")
        assert _mismatches(rows, KO_COSTS + (KO_TWOTHIRDS["ko-case1"],),
                           ordered=True) == ["cost-halves"]
        assert "t2" not in dict(rows[3].coeffs)
        monkeypatch.setattr(knownopt, "KO", table)
        assert over_half_bound(knownopt.run_full("first-fit", 8)) == over_half_bound(run) - 3


# reference: the clcbp programs' rows as they were written out by hand, in
# the paper's variables: e_j bins holding j tinies, tb1 bins holding a third,
# tb2 bins holding two thirds, and at t = 3 e_all = e1 + e2 + e3
CLCBP2_HAND = (
    Row.build("items", {"e1": 1, "e2": 2}, "==", 1),
    Row.build("skew", {"e1": 1, "e2": -2}, "<=", 0),
    Row.build("cost-tiny", {"e1": 1, "e2": 1}, "<=", (-1, 1)),
    Row.build("cost-sixtenths", {"e2": 1, "tb1": (1, -1), "tb2": (2, -1)}, "<=", (0, 0)),
    Row.build("third-pairs", {"tb2": 1, "tb1": -1}, "<=", 0),
)
CLCBP3_HAND = (
    Row.build("items", {"e1": 1, "e2": 2, "e3": 3}, "==", 1),
    Row.build("e-total", {"e_all": 1, "e1": -1, "e2": -1, "e3": -1}, "==", 0),
    Row.build("cost-tiny", {"e_all": 2}, "<=", (-1, 1)),
    Row.build("third-pairs", {"tb2": 1, "tb1": -1}, "<=", 0),
    Row.build("cost-twothirds", {"e3": 1, "tb1": (1, F(-1, 2)), "tb2": (1, -1)}, "<=", (0, 0)),
    Row.build("cost-sixtenths", {"e3": 1, "tb1": (1, -1), "tb2": (2, -1)}, "<=", (0, 0)),
)
CLCBP_HAND = {
    "clcbp2-case1": CLCBP2_HAND + (
        Row.build("balance", {"e1": 1, "e2": -1}, "<=", 0),
        Row.build("t-count", {"tb1": 1, "tb2": 1, "e2": -2}, "==", 0),
        Row.build("cost-twothirds", {"e2": (1, F(-1, 2)), "tb1": (1, F(-1, 2)), "tb2": (1, -1)},
                  "<=", (0, 0)),
    ),
    "clcbp2-case2": CLCBP2_HAND + (
        Row.build("balance", {"e2": 1, "e1": -1}, "<=", 0),
        Row.build("t-count", {"tb1": 1, "tb2": 1, "e1": -2}, "==", 0),
        Row.build("cost-twothirds", {"e2": (1, -1), "tb1": (1, F(-1, 2)), "tb2": (1, -1),
                                     "e1": (0, F(1, 2))}, "<=", (0, 0)),
    ),
    "clcbp3-case1": CLCBP3_HAND + (
        Row.build("stop-low", {"tb1": 1, "tb2": 1, "e3": 6}, ">=", 2),
        Row.build("stop-tie", {"tb1": 2, "tb2": 3, "e3": -6}, "==", 0),
    ),
    "clcbp3-case2": CLCBP3_HAND + (
        Row.build("stop-low", {"tb1": 1, "tb2": 1, "e3": 6}, "<=", 2),
        Row.build("stop-tie", {"tb1": 3, "tb2": 4}, "==", 2),
    ),
}


def _in_census_variables(row):
    """A hand clcbp row over x_j, z1 and z2, with e_all = e1 + e2 + e3 substituted."""
    names = {"e1": ("x1",), "e2": ("x2",), "e3": ("x3",), "e_all": ("x1", "x2", "x3"),
             "tb1": ("z1",), "tb2": ("z2",)}
    coeffs = {}
    for var, (c, d) in row.coeffs:
        for name in names[var]:
            cc, dd = coeffs.get(name, (0, 0))
            coeffs[name] = (cc + c, dd + d)
    return Row.build(row.label, coeffs, row.relation, row.const)


class TestClcbpRowsFromDeclaration:
    @pytest.mark.parametrize("pid", sorted(CLCBP_HAND))
    def test_rows_are_the_hand_constraints(self, pid):
        program = builtin_program(pid)
        want = [_in_census_variables(r) for r in CLCBP_HAND[pid] if r.label != "e-total"]
        assert sorted(r.label for r in program.rows) == sorted(r.label for r in want)
        for row in want:
            got = program.row(row.label)
            assert _same_constraint(got, row), (got.render(), row.render())

    def test_variables(self):
        assert builtin_program("clcbp2-case1").variables == ("x1", "x2", "z1", "z2", "ratio")
        assert builtin_program("clcbp3-case2").variables == (
            "x1", "x2", "x3", "z1", "z2", "ratio")

    def test_program_row_order(self):
        assert [r.label for r in builtin_program("clcbp2-case2").rows] == [
            "items", "third-pairs", "skew", "balance", "t-count",
            "cost-tiny", "cost-sixtenths", "cost-twothirds",
        ]
        assert [r.label for r in builtin_program("clcbp3-case1").rows] == [
            "items", "third-pairs", "stop-low", "stop-tie",
            "cost-tiny", "cost-sixtenths", "cost-twothirds",
        ]

    def test_same_constraint_reads_equalities_up_to_sign(self):
        items = Row.build("items", {"x1": 1, "x2": 2}, "==", 1)
        assert _same_constraint(Row.build("i", {"x1": -2, "x2": -4}, "==", -2), items)
        assert not _same_constraint(Row.build("i", {"x1": 1, "x2": 2}, ">=", 1), items)
        assert not _same_constraint(Row.build("i", {"x1": 1, "x2": 1}, "==", 1), items)

    def test_changing_a_payment_moves_the_row_and_the_duel_bound(self, monkeypatch):
        from packbound import clcbp

        def sixtenths_bound(run):
            sc = next(sc for sc in run.scenarios if sc.scenario == "six-tenths")
            check = next(c for c in sc.checks if c.name == "alg-lower-bound")
            return int(check.detail.rsplit(" ", 1)[1])

        run = clcbp.run_full("ccff", 2, 12)
        assert run.census["z2"] == 6
        halves = CLCBP[2].costs["six-tenths"]
        table = CLCBP[2]._replace(costs={**CLCBP[2].costs, "six-tenths":
                                         halves._replace(pays={"x2": 1})})
        before, after = _cost_rows(CLCBP[2], "clcbp2-case1"), _cost_rows(table, "clcbp2-case1")
        assert [b.label for a, b in zip(after, before) if a != b] == ["cost-sixtenths"]
        # R*z1 + R*z2 - x2 - z1 - 2*z2 >= 0 loses one z2, stated as <= 0
        assert dict(before[1].coeffs)["z2"] == (F(2), F(-1))
        assert dict(after[1].coeffs)["z2"] == (F(1), F(-1))
        monkeypatch.setattr(clcbp, "CLCBP", {**CLCBP, 2: table})
        assert sixtenths_bound(clcbp.run_full("ccff", 2, 12)) == sixtenths_bound(run) - 6


def test_no_cost_row_is_a_zero_constant_at_least_row():
    # phase 1 would start such a row on an artificial; stated as <= 0 it starts on its slack
    labels = {cost.label for table in (KO, SP, *CLCBP.values()) for cost in table.costs.values()}
    for pid in builtin_program_ids():
        costs = [row for row in builtin_program(pid).rows if row.label in labels]
        assert costs, pid
        for row in costs:
            assert row.relation != ">=" or row.const != (0, 0), (pid, row.render())


class TestFeasibility:
    def test_sp_examples(self):
        sp = builtin_program("sp")
        assert feasible_at(sp, F(2))
        assert not feasible_at(sp, F(1))

    def test_ko_case1_boundary(self):
        ko = builtin_program("ko-case1")
        assert feasible_at(ko, F(87, 62))
        assert not feasible_at(ko, F(87, 62) - F(1, 1000))

    def test_every_builtin_feasible_at_three(self):
        for pid in builtin_program_ids():
            assert feasible_at(builtin_program(pid), F(3)), pid


class TestBisection:
    @pytest.mark.parametrize(
        "pid,printed,mode",
        [
            ("sp", F("1.751544578513"), "contains"),
            ("clcbp2-case1", F("1.7320507"), "near"),
            ("clcbp2-case2", F("1.717668486"), "near"),
            ("clcbp3-case1", F("1.902018"), "near"),
            ("clcbp3-case2", F("1.80814287"), "near"),
        ],
    )
    def test_brackets_hit_printed_values(self, pid, printed, mode):
        lo, hi = bisect_min_r(builtin_program(pid), TOL)
        assert hi - lo <= TOL
        if mode == "contains":
            assert lo <= printed <= hi
        else:
            distance = max(lo - printed, printed - hi, F(0))
            assert distance <= F(1, 10**6)

    # each bisected program's threshold polynomial, highest power first, read
    # off the final phase-1 basis at tolerance 1e-12; its root is min R
    POLYNOMIALS = {
        "sp": (256, 9264, 78669, -167589),
        "clcbp2-case1": (1, 0, -3),
        "clcbp2-case2": (4, -9, -1, 8),
        "clcbp3-case1": (6, -3, -16),
        "clcbp3-case2": (3, -1, -8),
    }

    @pytest.mark.parametrize("pid", sorted(POLYNOMIALS))
    def test_threshold_polynomial_changes_sign_across_the_bracket(self, pid):
        lo, hi = bisect_min_r(builtin_program(pid), F(1, 10**12))
        threshold = exact_threshold(builtin_program(pid), lo, hi)
        assert threshold.proven
        assert threshold.polynomial == self.POLYNOMIALS[pid]
        a, b = threshold.interval
        assert lo <= a < b <= hi

        def value(r: F) -> F:
            total = F(0)
            for c in self.POLYNOMIALS[pid]:
                total = total * r + c
            return total

        assert value(lo) < 0 < value(hi)

    def test_sp_reference_lies_above_the_exact_threshold(self):
        # the printed digits sit about 1.6e-10 above the encoded program's min R,
        # which is why a bracket tighter than 1e-10 misses them
        program = builtin_program("sp")
        threshold = exact_threshold(program, *bisect_min_r(program, F(1, 10**12)))
        a, b = threshold.interval
        reference = F("1.751544578513")
        assert threshold.proven
        assert F(15, 10**11) < reference - b < reference - a < F(17, 10**11)

    def test_bisection_cross_validates_simplex(self):
        for pid, exact in (("ko-case1", F(87, 62)), ("ko-case2", F(17, 12))):
            lo, hi = bisect_min_r(builtin_program(pid), TOL)
            assert lo <= exact <= hi

    @pytest.mark.parametrize("tol", [0, -1, F(-1, 10**9)])
    def test_tolerance_must_be_positive(self, tol):
        with pytest.raises(ValueError, match="positive"):
            bisect_min_r(builtin_program("sp"), tol)

    # LP solves per bisection at 1e-9, R_HI and R_LO included: every other
    # point is certified by the piece of an earlier solve (one solve per
    # point took 33)
    SOLVES = {"sp": 8, "clcbp2-case1": 4, "clcbp2-case2": 8, "clcbp3-case1": 4,
              "clcbp3-case2": 4}

    @staticmethod
    def solved_points(pid):
        visited = []
        inner = mathprog.feasible_at

        def recording(program, r0):
            visited.append(r0)
            return inner(program, r0)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mathprog, "feasible_at", recording)
            bisect_min_r(builtin_program(pid), TOL)
        return visited

    def test_upper_end_is_solved_once(self):
        visited = self.solved_points("clcbp2-case1")
        assert visited.count(mathprog.R_HI) == 1
        assert len(visited) == self.SOLVES["clcbp2-case1"]

    @pytest.mark.parametrize("pid", sorted(SOLVES))
    def test_solves_per_program(self, pid):
        visited = self.solved_points(pid)
        assert visited[0] == mathprog.R_HI and visited.count(mathprog.R_HI) == 1
        assert len(visited) == self.SOLVES[pid]

    def test_non_monotone_feasibility_is_detected(self):
        # (R - 5/2)*x + (3/2 - R)*y == 1 needs one coefficient positive:
        # feasible at R = 1 (y) and R = 3 (x), not at R = 2 (both -1/2)
        prog = Program("two-sided", ("x", "y", "ratio"), (
            Row.build("split", {"x": (F(-5, 2), 1), "y": (F(3, 2), -1)}, "==", 1),
        ))
        assert feasible_at(prog, F(1)) and feasible_at(prog, F(3))
        assert not feasible_at(prog, F(2))
        with pytest.raises(NonMonotoneDetected, match="two-sided"):
            bisect_min_r(prog, TOL)

    def test_no_upper_bound_detected(self):
        prog = type(builtin_program("sp"))(
            "impossible", ("x", "ratio"),
            (Row.build("bad", {"x": 1}, "<=", -1),),
        )
        with pytest.raises(NoUpperBound):
            bisect_min_r(prog, TOL)

    def test_feasible_at_the_left_end_gives_a_point_bracket(self):
        prog = Program("floor", ("x", "ratio"), (
            Row.build("floor", {"ratio": 1}, ">=", F(1, 2)),
        ))
        assert bisect_min_r(prog, TOL) == (mathprog.R_LO, mathprog.R_LO)


class TestMonotoneProof:
    def test_every_builtin_program_is_proven(self):
        for pid in builtin_program_ids():
            assert _check_monotone(builtin_program(pid)) is None, pid

    @pytest.mark.parametrize("pid", builtin_program_ids())
    def test_phase1_runs_once_per_program(self, pid):
        # each row that carries R prices its objective out on a copy of one
        # phase-1 result
        calls = []
        inner = mathprog._phase1

        def counting(n, rows):
            calls.append(n)
            return inner(n, rows)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mathprog, "_phase1", counting)
            _check_monotone(builtin_program(pid))
        assert len(calls) == 1

    def test_narrow_band_is_refused(self):
        # feasible in a band just above R = 3/2 and again from R = 5/2 up,
        # though no grid point of [1, 3] falls inside the band
        prog = Program("narrow-band", ("x", "y", "ratio"), (
            Row.build("wide", {"x": (F(-3, 2), 1), "y": (F(-5, 2), 1)}, ">=", 1),
            Row.build("narrow", {"x": (F(151, 100), -1), "y": (F(-5, 2), 1)}, ">=", 1),
        ))
        assert feasible_at(prog, F(301, 200)) and feasible_at(prog, mathprog.R_HI)
        assert not feasible_at(prog, F(3, 2)) and not feasible_at(prog, F(2))
        with pytest.raises(NonMonotoneDetected, match="narrow-band: .*row narrow "):
            bisect_min_r(prog, TOL)

    @pytest.mark.parametrize("label", ["ratio-bigsquares", "ratio-sixtenths"])
    def test_positive_r_free_part_is_refused(self, label):
        # shift the constant so that the row's R-free part,
        # sign*(c.x - c0), is positive somewhere the other rows hold
        sp = builtin_program("sp")
        row = sp.row(label)
        shift = -1000 if row.relation == ">=" else 1000
        bent = row._replace(const=(row.const[0] + shift, row.const[1]))
        prog = Program("bent-sp", sp.variables,
                       tuple(bent if r is row else r for r in sp.rows))
        with pytest.raises(NonMonotoneDetected, match=f"bent-sp: .*row {label} "):
            _check_monotone(prog)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_equality_carrying_r_is_refused(self, sign):
        # x = R*y with x = 1 and y >= 1/2: feasible up to R = 2 only, though
        # the row read as <= (sign 1) or as >= (sign -1) would pass the LP
        prog = Program("equality-band", ("x", "y", "ratio"), (
            Row.build("one", {"x": 1}, "==", 1),
            Row.build("half", {"y": 1}, ">=", F(1, 2)),
            Row.build("tie", {"x": sign, "y": (0, -sign)}, "==", 0),
        ))
        assert feasible_at(prog, F(2)) and not feasible_at(prog, F(3))
        with pytest.raises(NonMonotoneDetected, match="row tie "):
            _check_monotone(prog)

    def test_r_free_part_reaching_zero_is_proven(self):
        # R*x - y >= 0 with x + y = 1: its R-free part, -y, peaks at 0
        prog = Program("touching", ("x", "y", "ratio"), (
            Row.build("sum", {"x": 1, "y": 1}, "==", 1),
            Row.build("lean", {"x": (0, 1), "y": -1}, ">=", 0),
        ))
        assert _check_monotone(prog) is None

    def test_holds_vacuously_without_a_point_off_the_r_rows(self):
        prog = Program("empty", ("x", "y", "ratio"), (
            Row.build("none", {"x": 1}, "<=", -1),
            Row.build("narrow", {"x": (F(151, 100), -1), "y": (F(-5, 2), 1)}, ">=", 1),
        ))
        assert _check_monotone(prog) is None


class TestExactThreshold:
    POLYNOMIALS = TestBisection.POLYNOMIALS

    @pytest.mark.parametrize("tol", [F(3), F(1, 1000), TOL], ids=str)
    @pytest.mark.parametrize("pid", sorted(POLYNOMIALS))
    def test_every_bisected_program_is_proven(self, pid, tol):
        # a coarse bracket is halved until the pieces below and above meet
        program = builtin_program(pid)
        lo, hi = bisect_min_r(program, tol)
        threshold = exact_threshold(program, lo, hi)
        assert threshold.proven and threshold.polynomial == self.POLYNOMIALS[pid]
        assert check_threshold(threshold.polynomial, threshold.interval)
        a, b = threshold.interval
        assert lo <= a < b <= hi

    @pytest.mark.parametrize("pid,optimum", [("ko-case1", F(87, 62)), ("ko-case2", F(17, 12))])
    def test_linear_programs_give_their_exact_optimum(self, pid, optimum):
        program = builtin_program(pid)
        threshold = exact_threshold(program, *bisect_min_r(program, TOL))
        assert threshold.proven
        assert threshold.polynomial == (optimum.denominator, -optimum.numerator)

    @pytest.mark.parametrize("pid", sorted(POLYNOMIALS))
    def test_replay_rejects_a_changed_coefficient(self, pid):
        program = builtin_program(pid)
        polynomial, interval, _ = exact_threshold(program, *bisect_min_r(program, TOL))
        for k in range(len(polynomial)):
            for delta in (-1, 1):
                changed = list(polynomial)
                changed[k] += delta
                assert not check_threshold(changed, interval), (k, delta)

    def test_narrowing_keeps_the_root(self):
        program = builtin_program("clcbp2-case1")
        threshold = exact_threshold(program, *bisect_min_r(program, TOL))
        for _ in range(40):
            threshold = threshold.narrowed()
            a, b = threshold.interval
            assert a * a < 3 < b * b
        assert b - a < F(1, 10**20)

    @pytest.mark.parametrize("lo,hi", [(F(2), F(3)), (F(1), F(3, 2))])
    def test_a_bracket_must_fail_below_and_hold_above(self, lo, hi):
        with pytest.raises(ValueError, match="sp: R = .* must fail and R = .* hold"):
            exact_threshold(builtin_program("sp"), lo, hi)


def _at(poly, r: F) -> F:
    return sum(c * r ** (len(poly) - 1 - i) for i, c in enumerate(poly))


def _basic_artificial_sum(program, piece, r: F):
    """The artificial sum of the piece's basic solution at R = r, by Fraction
    elimination of its solve's system; None where the basis is singular."""
    tab, _, real, _ = _tableau(*_integer_rows(program, r), piece.negated)
    rows = [[F(row[j]) for j in piece.basis] + [F(row[-1])] for row in tab]
    for k in range(len(rows)):
        p = next((i for i in range(k, len(rows)) if rows[i][k]), None)
        if p is None:
            return None
        rows[k], rows[p] = rows[p], rows[k]
        for i, row in enumerate(rows):
            if i != k and row[k]:
                f = row[k] / rows[k][k]
                rows[i] = [x - f * y for x, y in zip(row, rows[k])]
    return sum(row[-1] / row[k] for k, (row, j) in enumerate(zip(rows, piece.basis)) if j >= real)


class TestPieceConditions:
    @pytest.mark.parametrize("pid", builtin_program_ids())
    def test_every_condition_allows_its_sign_at_the_solve_point(self, pid):
        program = builtin_program(pid)
        bisect_min_r(program, TOL)
        for piece in program.pieces:
            d = sign_at(piece.det, piece.r0)
            assert piece.polynomials() == (*(p for p, _ in piece.conditions), piece.det)
            assert [a for _, a in piece.conditions].count((1,)) == (not piece.feasible)
            for p, allowed in piece.conditions:
                assert sign_at(p, piece.r0) * d in allowed

    @pytest.mark.parametrize("pid", builtin_program_ids())
    def test_an_infeasible_piece_starts_with_its_dual_bound(self, pid):
        # y.rhs = c_B B^-1 rhs is the artificial sum of the basic solution, so
        # the first polynomial over D is a positive multiple of it at every R
        program = builtin_program(pid)
        bisect_min_r(program, TOL)
        for piece in program.pieces:
            if piece.feasible:
                continue
            first = piece.polynomials()[0]
            assert piece.conditions[0] == (first, (1,))
            ratios = set()
            for r in (piece.r0, piece.r0 + 1, piece.r0 + F(5, 2)):
                total = _basic_artificial_sum(program, piece, r)
                if total:
                    ratios.add(_at(first, r) / (_at(piece.det, r) * total))
            assert len(ratios) == 1 and ratios.pop() > 0


class TestCertificates:
    def test_suite_reproduces_pinned_rows(self):
        suite = ko_certificate_suite()
        assert [c.name for c in suite] == [
            "five-row-mix", "ko-case1-bound", "ko-case2-bound",
        ]
        derived = {c.name: check_certificate(c) for c in suite}
        final1 = derived["ko-case1-bound"]
        assert dict(final1.coeffs) == {"ratio": (F(62), F(0)), "s3": (F(-10), F(0))}
        assert final1.const == (F(87), F(0))
        final2 = derived["ko-case2-bound"]
        assert dict(final2.coeffs) == {"ratio": (F(12), F(0)), "s3": (F(-2), F(0))}
        assert final2.const == (F(17), F(0))

    def test_certificate_bounds_dont_exceed_optima(self):
        # derived a*R >= b implies optimum >= b/a
        assert F(87, 62) <= solve_min_r_exact(builtin_program("ko-case1"))
        assert F(17, 12) <= solve_min_r_exact(builtin_program("ko-case2"))

    def test_sign_violation(self):
        program = builtin_program("ko-case1")
        with pytest.raises(SignViolation):
            combine_rows([(program.row("cost-bigfill"), F(-1))])

    def test_mismatched_target(self):
        program = builtin_program("ko-case1")
        bad = Certificate(
            "wrong",
            ((program.row("cost-bigfill"), F(1)),),
            Row.build("x", {"ratio": 5}, ">=", 6),
        )
        with pytest.raises(MismatchedTarget):
            check_certificate(bad)


class TestEmpiricalCensusAgainstPrograms:
    """Normalized run censuses satisfy the program rows they model."""

    @pytest.mark.parametrize("algo", ["first-fit", "next-fit", "best-fit", "harmonic-5"])
    @pytest.mark.parametrize("m", [4, 8])
    def test_ko_census_satisfies_rows(self, algo, m):
        from packbound import knownopt

        run = knownopt.run_full(algo, m)
        c = run.census
        by_name = {sc.scenario: sc for sc in run.scenarios}
        # every census category, bins7 and bins3
        point = {name: F(count, m) for name, count in c.items()}
        case = "ko-case1" if 2 * c["bins3"] <= m else "ko-case2"
        program = builtin_program(case)
        ratios = {
            "cost-fourfifths": by_name["four-fifths"].ratio,
            "cost-bigfill": by_name["big-fill"].ratio,
            "cost-units": by_name["units"].ratio,
            "cost-halves": by_name["over-half"].ratio,
            "cost-twothirds": by_name["short-two-thirds"].ratio,
        }
        # finite-M slack: ceil() in the scenario item counts costs at most
        # this many bins on the row's scale
        slack_bins = {"cost-bigfill": 5, "cost-twothirds": 0 if case == "ko-case1" else 1}
        for row in program.rows:
            point["ratio"] = ratios.get(row.label, F(3))  # counting rows ignore R
            lhs = sum(F(cc) * point[var] for var, (cc, dd) in row.coeffs)
            rhs = row.const[0]
            slack = F(slack_bins.get(row.label, 0), m)
            if row.label in ("few-new-thirds", "many-new-thirds") or row.label in ratios or row.relation != "==":
                if row.relation == ">=":
                    assert lhs + slack >= rhs, (case, row.label, lhs, rhs)
                elif row.relation == "<=":
                    assert lhs <= rhs + slack, (case, row.label, lhs, rhs)
                else:
                    assert abs(lhs - rhs) <= slack, (case, row.label)
            else:
                assert lhs == rhs, (case, row.label, lhs, rhs)

    @pytest.mark.parametrize("t", [2, 3])
    @pytest.mark.parametrize("m", [12, 48, 96])
    def test_clcbp_census_satisfies_rows(self, t, m):
        from packbound import clcbp

        run = clcbp.run_full("ccff", t, m)
        point = {name: F(count, m) for name, count in run.census.items()}
        for pid in (f"clcbp{t}-case1", f"clcbp{t}-case2"):
            program = builtin_program(pid)
            items, pairs = program.row("items"), program.row("third-pairs")
            assert sum(c * point[var] for var, (c, _) in items.coeffs) == items.const[0] == 1
            assert sum(c * point[var] for var, (c, _) in pairs.coeffs) <= pairs.const[0] == 0

    @pytest.mark.parametrize("m", [24, 48, 96])
    def test_sp_census_satisfies_rows(self, m):
        from packbound import squares

        run = squares.run_full("shelf-first-fit", m)
        point = {name: F(count, m) for name, count in run.census.items()}
        r = point["ratio"] = max(sc.ratio for sc in run.scenarios)
        for row in builtin_program("sp").rows:
            lhs = sum((c + d * r) * point[var] for var, (c, d) in row.coeffs)
            rhs = row.const[0] + row.const[1] * r
            if row.label == "stop-mix":
                # the wave stops at the first third that reaches 12M, so it
                # may overshoot by one large third (census-stop-sandwich)
                assert rhs <= lhs <= rhs + F(15, m), (m, lhs)
            elif row.relation == ">=":
                assert lhs >= rhs, (m, row.label, lhs, rhs)
            elif row.relation == "<=":
                assert lhs <= rhs, (m, row.label, lhs, rhs)
            else:
                assert lhs == rhs, (m, row.label, lhs, rhs)
