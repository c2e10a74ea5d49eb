"""The exact simplex against the Fraction tableau it replaced, and the one
lowering against the per-solve lowering it replaced.

`_rows_for_lp` below is the Fraction lowering that ran before every solve,
and `_scaled` the Fraction-to-int scaling that `_phase1` applied to its rows,
both verbatim.  `_pivot`, `_bland`, `_price_out` and `_phase1` are the
Fraction simplex verbatim, and `reference_min_r` is the phase 2 that
`solve_min_r_exact` ran on them.  The integer-row simplex in
`packbound.mathprog` must take the same pivots, reach the same verdicts and
optimum, and end on rows that are positive multiples of these; on the rows of
`Program.lowered` it must end on exactly the tableau it ends on from the
scaled `_rows_for_lp` rows.

`reference_bisect_min_r` is the bisection that ran one `feasible_at` solve
per point, verbatim.  `bisect_min_r`, which lets the pieces of earlier solves
decide the points they certify, must give the same brackets and raise the
same errors; and wherever a piece certifies a point, it must agree with a
fresh solve there.

`_interpolator` is the Lagrange interpolator that built a piece's
polynomials from its t + 1 samples, and `reference_build` the `Piece._build`
that used it, both verbatim.  Solving the samples' Vandermonde system with
`_cramer` must give every piece the same D and the same conditions.
"""

import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Optional
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from packbound import mathprog
from packbound.algebra import integral
from packbound.mathprog import (
    Infeasible,
    NonMonotoneDetected,
    NoUpperBound,
    Program,
    R_HI,
    R_LO,
    Row,
    Unbounded,
    bisect_min_r,
    builtin_program,
    builtin_program_ids,
    exact_threshold,
    feasible_at,
    solve_min_r_exact,
)
from packbound.mathprog import Piece, _check_monotone, _cramer, _integer_rows, _tableau

F = Fraction


# -- the Fraction lowering, verbatim -------------------------------------------


def _rows_for_lp(program: Program, r0: Optional[Fraction] = None):
    """Rows in dense-list form over x >= 0.

    With r0 given, R = r0 is substituted: each coefficient becomes c + d*r0
    and the ratio column, now a constant, moves to the right-hand side.
    Without it the ratio stays a column and only the c parts are read.
    """
    r = F(0) if r0 is None else r0
    variables = [v for v in program.variables if r0 is None or v != "ratio"]
    index = {v: i for i, v in enumerate(variables)}
    dense = []
    for row in program.rows:
        line = [F(0)] * len(variables)
        rhs = row.const[0] + row.const[1] * r
        for var, (c, d) in row.coeffs:
            if var in index:
                line[index[var]] = c + d * r
            else:
                rhs -= (c + d * r) * r
        dense.append((line, rhs, row.relation))
    return variables, dense


def _scaled(dense):
    """Each dense row times the lcm of its denominators, as integer rows
    (coeff list, rhs, rel, factor) for the integer `_phase1`."""
    out = []
    for coeffs, rhs, rel in dense:
        scale = lcm(*(x.denominator for x in coeffs), rhs.denominator)
        row = [x.numerator * (scale // x.denominator) for x in (*coeffs, rhs)]
        out.append((row[:-1], row[-1], rel, scale))
    return out


# -- the Fraction simplex, verbatim -------------------------------------------


def _pivot(tab, basis, r, c):
    pr = tab[r]
    inv = F(1) / pr[c]
    tab[r] = [x * inv for x in pr]
    for i, row in enumerate(tab):
        if i != r and row[c] != 0:
            factor = row[c]
            tab[i] = [x - factor * y for x, y in zip(row, tab[r])]
    basis[r] = c


def _bland(tab, basis, cost, allowed) -> str:
    """Minimize cost (list over columns, last entry = current -objective)."""
    m = len(tab)
    while True:
        enter = next(
            (j for j in allowed if cost[j] < 0),
            None,
        )
        if enter is None:
            return "optimal"
        ratios = []
        for i in range(m):
            if tab[i][enter] > 0:
                ratios.append((tab[i][-1] / tab[i][enter], basis[i], i))
        if not ratios:
            return "unbounded"
        ratios.sort(key=lambda t: (t[0], t[1]))
        _, _, leave = ratios[0]
        _pivot(tab, basis, leave, enter)
        factor = cost[enter]
        cost[:] = [x - factor * y for x, y in zip(cost, tab[leave])]


def _price_out(cost, tab, basis):
    """Zero the cost row on every basic column."""
    for i, b in enumerate(basis):
        if cost[b] != 0:
            factor = cost[b]
            cost[:] = [x - factor * y for x, y in zip(cost, tab[i])]


def _phase1(n, rows):
    """Phase 1 of the exact simplex over rows (coeff list, rhs, rel), x >= 0.

    Minimizes the sum of the artificial columns.  Returns the final tableau,
    its basis, the number of columns before the artificials (structural then
    slack) and the cost row, whose last entry is minus that minimum: the rows
    are feasible exactly when it is zero.
    """
    # normalize rhs >= 0
    norm = []
    for coeffs, rhs, rel in rows:
        if rhs < 0:
            coeffs = [-c for c in coeffs]
            rhs = -rhs
            rel = {"<=": ">=", ">=": "<=", "==": "=="}[rel]
        norm.append((coeffs, rhs, rel))

    slack_cols = sum(1 for _, _, rel in norm if rel in ("<=", ">="))
    art_cols = sum(1 for _, _, rel in norm if rel in (">=", "=="))
    real = n + slack_cols
    tab = []
    basis = []
    s_at = n
    a_at = real
    for coeffs, rhs, rel in norm:
        row = list(coeffs) + [F(0)] * (slack_cols + art_cols) + [rhs]
        if rel == "<=":
            row[s_at] = F(1)
            basis.append(s_at)
            s_at += 1
        else:
            if rel == ">=":
                row[s_at] = F(-1)
                s_at += 1
            row[a_at] = F(1)
            basis.append(a_at)
            a_at += 1
        tab.append(row)

    cost = [F(0)] * real + [F(1)] * art_cols + [F(0)]
    _price_out(cost, tab, basis)
    if _bland(tab, basis, cost, range(real + art_cols)) != "optimal":
        raise Unbounded("phase 1 of the simplex reported an unbounded ray")
    return tab, basis, real, cost


def reference_bisect_min_r(program: Program, tol: Fraction = F(1, 10**9)) -> tuple[Fraction, Fraction]:
    """Bracket (lo, hi) with hi - lo <= tol, infeasible at lo and feasible at
    hi (or (R_LO, R_LO)); as `_check_monotone` proves that feasibility grows
    with R, min R lies in (lo, hi].  tol must be positive (ValueError)."""
    lo, hi, tol = R_LO, R_HI, F(tol)
    if tol <= 0:
        raise ValueError(f"bisection tolerance must be positive, got {tol}")
    if not feasible_at(program, hi):
        raise NoUpperBound(f"{program.program_id} infeasible at R = {hi}")
    _check_monotone(program)
    if feasible_at(program, lo):
        return lo, lo
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if feasible_at(program, mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def reference_min_r(program):
    """solve_min_r_exact as it was on Fraction rows."""
    if not program.linear_in_r:
        raise ValueError(f"{program.program_id}: linear solve requires rows with no R terms")
    variables, dense = _rows_for_lp(program)
    n = len(variables)
    tab, basis, real, cost = _phase1(n, dense)
    if cost[-1] != 0:
        raise Infeasible(program.program_id)
    # phase 2: drive leftover artificials out of the basis, drop the rows
    # they still hold, then minimize the ratio over the real columns
    for i in range(len(tab)):
        if basis[i] >= real:
            pivot_col = next((j for j in range(real) if tab[i][j] != 0), None)
            if pivot_col is not None:
                _pivot(tab, basis, i, pivot_col)
    keep = [i for i in range(len(tab)) if basis[i] < real]
    tab = [tab[i] for i in keep]
    basis = [basis[i] for i in keep]
    objective = [F(1) if v == "ratio" else F(0) for v in variables]
    cost = objective + [F(0)] * (len(cost) - n)
    _price_out(cost, tab, basis)
    if _bland(tab, basis, cost, range(real)) == "unbounded":
        raise Unbounded(program.program_id)
    return -cost[-1]


# -- comparisons -------------------------------------------------------------


@contextmanager
def pivots_of(module):
    """Record each (leaving row, entering column) pivot made by module."""
    log = []
    inner = module._pivot

    def recording(tab, basis, r, c):
        log.append((r, c))
        return inner(tab, basis, r, c)

    with mock.patch.object(module, "_pivot", recording):
        yield log


REFERENCE = sys.modules[__name__]


def _scaled_by_positive(ints, fractions):
    """ints is a positive multiple of the Fraction row."""
    j = next((j for j, x in enumerate(fractions) if x != 0), None)
    if j is None:
        return all(x == 0 for x in ints)
    k = F(ints[j]) / fractions[j]
    return k > 0 and all(x == k * y for x, y in zip(ints, fractions))


def assert_phase1_agrees(program, r0=None):
    """Same pivots, basis and verdict; every integer row, the cost row
    included, a positive multiple of the Fraction one."""
    variables, dense = _rows_for_lp(program, r0)
    with pivots_of(REFERENCE) as want:
        ref_tab, ref_basis, ref_real, ref_cost = _phase1(len(variables), dense)
    with pivots_of(mathprog) as got:
        tab, basis, real, cost = mathprog._phase1(*_integer_rows(program, r0))
    assert got == want
    assert (basis, real) == (ref_basis, ref_real)
    assert all(isinstance(x, int) for row in tab + [cost] for x in row)
    assert all(_scaled_by_positive(row, ref) for row, ref in zip(tab, ref_tab))
    assert _scaled_by_positive(cost, ref_cost)
    assert (cost[-1] == 0) == (ref_cost[-1] == 0)
    return ref_cost[-1] == 0


def assert_lowering_exact(program, r0=None):
    """The integer phase 1 ends on the same tableau, basis and cost row from
    the one lowering as from the scaled per-solve lowering."""
    variables, dense = _rows_for_lp(program, r0)
    want = mathprog._phase1(len(variables), _scaled(dense))
    assert mathprog._phase1(*_integer_rows(program, r0)) == want


def bisection_samples(program, bisect=reference_bisect_min_r, module=REFERENCE, tol=F(1, 10**9)):
    """Every R at which `bisect` solves the program, in order: by default
    every point the bisection tests."""
    visited = []
    inner = mathprog.feasible_at

    def recording(program, r0):
        visited.append(r0)
        return inner(program, r0)

    with mock.patch.object(module, "feasible_at", recording):
        bisect(program, tol)
    return [F(r0) for r0 in visited]


def outcome(solve, program):
    try:
        return solve(program)
    except (Infeasible, Unbounded) as exc:
        return type(exc)


def assert_min_r_agrees(program):
    with pivots_of(REFERENCE) as want:
        expected = outcome(reference_min_r, program)
    with pivots_of(mathprog) as got:
        assert outcome(solve_min_r_exact, program) == expected
    assert got == want
    return expected


# -- random programs ---------------------------------------------------------

SMALL = st.one_of(st.just(F(0)), st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def programs(draw, linear):
    names = tuple(f"x{j}" for j in range(draw(st.integers(1, 5)))) + ("ratio",)
    rows = []
    for k in range(draw(st.integers(1, 5))):
        # the ratio's own coefficient never carries R: programs are affine in R
        coeffs = {v: (draw(SMALL), F(0) if linear or v == "ratio" else draw(SMALL))
                  for v in names}
        const = (draw(SMALL), F(0) if linear else draw(SMALL))
        rows.append(Row.build(f"r{k}", coeffs, draw(st.sampled_from(["<=", ">=", "=="])), const))
    # a floor under the ratio, so that most optima are not simply zero
    floor = {v: (-abs(draw(SMALL)), F(0)) for v in names[:-1]}
    rows.append(Row.build("floor", {**floor, "ratio": 1}, ">=",
                          draw(st.fractions(min_value=F(1, 4), max_value=3, max_denominator=4))))
    return Program("random", names, tuple(rows))


class TestRandomPrograms:
    @settings(max_examples=200, deadline=None)
    @given(programs(linear=False), st.fractions(min_value=1, max_value=3, max_denominator=8))
    def test_phase1_takes_the_same_pivots(self, program, r0):
        assert feasible_at(program, r0) == assert_phase1_agrees(program, r0)
        assert_lowering_exact(program, r0)

    @settings(max_examples=300, deadline=None)
    @given(programs(linear=True))
    def test_min_r_takes_the_same_pivots(self, program):
        assert_min_r_agrees(program)
        assert_lowering_exact(program)


class TestOneLowering:
    def test_is_computed_once(self):
        program = builtin_program("clcbp2-case1")
        assert program.lowered is program.lowered


class TestBuiltinPrograms:
    @pytest.mark.parametrize("pid", ["ko-case1", "ko-case2"])
    def test_linear_optimum(self, pid):
        expected = assert_min_r_agrees(builtin_program(pid))
        assert_lowering_exact(builtin_program(pid))
        assert expected == {"ko-case1": F(87, 62), "ko-case2": F(17, 12)}[pid]

    @pytest.mark.parametrize(
        "pid", [p for p in builtin_program_ids() if not builtin_program(p).linear_in_r])
    def test_every_bisection_sample(self, pid):
        program = builtin_program(pid)
        for r0 in bisection_samples(program):
            assert_phase1_agrees(program, r0)

    @pytest.mark.parametrize(
        "pid", [p for p in builtin_program_ids() if not builtin_program(p).linear_in_r])
    def test_one_lowering_is_exact(self, pid):
        program = builtin_program(pid)
        samples = bisection_samples(program)
        # R_HI, R_LO, 31 halvings of [1, 3] down to 1e-9
        assert len(samples) == 33
        for r0 in samples:
            assert_lowering_exact(program, r0)


# -- the bisection by pieces against the bisection by solves -------------------

BISECTED = [p for p in builtin_program_ids() if not builtin_program(p).linear_in_r]
TOLERANCES = [F(1, 10**6), F(1, 10**9), F(1, 10**10), F(1, 10**12), F(1, 10**13)]

# the synthetic programs of tests/test_mathprog.py that reach each error
SYNTHETIC = {
    "floor": Program("floor", ("x", "ratio"), (
        Row.build("floor", {"ratio": 1}, ">=", F(1, 2)),
    )),
    "two-sided": Program("two-sided", ("x", "y", "ratio"), (
        Row.build("split", {"x": (F(-5, 2), 1), "y": (F(3, 2), -1)}, "==", 1),
    )),
    "impossible": Program("impossible", ("x", "ratio"), (
        Row.build("bad", {"x": 1}, "<=", -1),
    )),
    "narrow-band": Program("narrow-band", ("x", "y", "ratio"), (
        Row.build("wide", {"x": (F(-3, 2), 1), "y": (F(-5, 2), 1)}, ">=", 1),
        Row.build("narrow", {"x": (F(151, 100), -1), "y": (F(-5, 2), 1)}, ">=", 1),
    )),
    "degenerate": Program("degenerate", ("x", "y", "ratio"), (
        Row.build("a", {"x": 1, "y": 1}, "<=", 1),
        Row.build("b", {"x": 1}, ">=", (-1, 1)),
    )),
}


def bisection_outcome(bisect, program, tol=F(1, 10**9)):
    """The bracket, or the type and message of the error raised."""
    try:
        return bisect(program, tol)
    except (ArithmeticError, RuntimeError, ValueError) as exc:
        return type(exc), str(exc)


class TestBisectionByPieces:
    @pytest.mark.parametrize("tol", TOLERANCES, ids=str)
    @pytest.mark.parametrize("pid", builtin_program_ids())
    def test_same_bracket_as_one_solve_per_point(self, pid, tol):
        program = builtin_program(pid)
        assert bisect_min_r(program, tol) == reference_bisect_min_r(program, tol)

    @pytest.mark.parametrize("name", sorted(SYNTHETIC))
    def test_same_outcome_on_the_synthetic_programs(self, name):
        # bisect_min_r first, while the program holds no piece of the reference's solves
        got = bisection_outcome(bisect_min_r, SYNTHETIC[name])
        assert got == bisection_outcome(reference_bisect_min_r, SYNTHETIC[name])

    @settings(max_examples=60, deadline=None)
    @given(programs(linear=False))
    def test_same_outcome_on_random_programs(self, program):
        tol = F(1, 1000)
        got = bisection_outcome(bisect_min_r, program, tol)
        assert got == bisection_outcome(reference_bisect_min_r, program, tol)

    @pytest.mark.parametrize("pid", BISECTED)
    def test_solves_only_points_that_one_solve_per_point_tests(self, pid):
        program = builtin_program(pid)
        solved = bisection_samples(program, bisect_min_r, mathprog)
        assert solved[0] == R_HI and set(solved) <= set(bisection_samples(program))
        for r0 in solved:
            assert_phase1_agrees(program, r0)


@lru_cache(maxsize=None)
def sample_pieces(pid):
    """The pieces of a solve at every point the bisection tests, and the
    program's exact threshold, a rational inside its isolating interval."""
    program = builtin_program(pid)
    for r0 in bisection_samples(builtin_program(pid)):
        feasible_at(program, r0)
    if program.linear_in_r:
        return program.pieces, solve_min_r_exact(program)
    solved = builtin_program(pid)
    a, b = exact_threshold(solved, *bisect_min_r(solved, F(1, 10**12))).interval
    return program.pieces, (a + b) / 2


class TestPiecesAgreeWithTheLP:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(builtin_program_ids()),
           st.one_of(st.fractions(min_value=1, max_value=3, max_denominator=10**6),
                     st.integers(-1000, 1000).map(lambda k: F(k, 10**15))))
    def test_every_certifying_piece_agrees_with_a_fresh_solve(self, pid, r):
        pieces, threshold = sample_pieces(pid)
        if r < 1:  # within 1e-12 of the threshold
            r = threshold + r
        verdicts = {piece.feasible for piece in pieces if piece.certifies(r)}
        assert verdicts <= {feasible_at(builtin_program(pid), r)}

    @settings(max_examples=150, deadline=None)
    @given(programs(linear=False), st.fractions(min_value=1, max_value=3, max_denominator=8),
           st.fractions(min_value=0, max_value=4, max_denominator=16))
    def test_a_random_programs_piece_agrees_with_a_fresh_solve(self, program, r0, r1):
        feasible = feasible_at(program, r0)
        (piece,) = program.pieces
        assert piece.certifies(r0) and piece.feasible == feasible
        if piece.certifies(r1):
            assert feasible_at(program, r1) == feasible


# -- the Lagrange interpolation of the pieces, verbatim -------------------------


@lru_cache(maxsize=8)
def _interpolator(points: tuple):
    """(L, W) with L > 0: the coefficients, highest power first, of the
    polynomial of degree < len(points) taking values v at points are
    W.v / L, exactly."""
    basis = []
    for j, xj in enumerate(points):
        poly, den = [F(1)], F(1)
        for k, xk in enumerate(points):
            if k != j:
                poly = [x - xk * y for x, y in zip([*poly, 0], [0, *poly])]
                den *= xj - xk
        basis.append([c / den for c in poly])
    scale = lcm(*(c.denominator for poly in basis for c in poly))
    return scale, tuple(tuple(int(poly[k] * scale) for poly in basis)
                        for k in range(len(points)))


def reference_build(self) -> None:
    """`Piece._build` as it interpolated with `_interpolator`."""
    m, basis = len(self.basis), self.basis
    degree = sum(1 for _, _, b, _ in self.program.lowered[1] if any(b))
    points, samples, v = [], [], 0
    while len(points) <= degree:
        # the solve's system at R = v
        tab, _, real, art_cols = _tableau(*_integer_rows(self.program, F(v)), self.negated)
        if self.feasible:  # B x = rhs
            det, solved = _cramer([[row[j] for j in basis] + [row[-1]] for row in tab], m)
            if det:
                samples.append([det, *(row[0] for row in solved)])
        else:  # B^T y = c_B, then D c_j - D y.M_j and D y.rhs
            at = list(zip(*tab))  # its columns, rhs last
            costs = [0] * real + [1] * art_cols
            det, solved = _cramer([[*at[j], costs[j]] for j in basis], m)
            if det:
                dy = [row[0] for row in solved]
                samples.append([det, sum(u * w for u, w in zip(dy, at[-1])),
                                *(c * det - sum(u * w for u, w in zip(dy, col))
                                  for c, col in zip(costs, at))])
        if det:
            points.append(v)
        v += 1
    scale, weights = _interpolator(tuple(points))
    polys = []
    for values in zip(*samples):
        coeffs = []
        for w in weights:
            c, rest = divmod(sum(x * y for x, y in zip(w, values)), scale)
            if rest:
                raise ArithmeticError(f"{self.program.program_id}: a piece's polynomial "
                                      "exceeds its degree bound")
            coeffs.append(c)
        polys.append(integral(coeffs))
    self.det = polys[0]
    if self.feasible:
        basic = list(zip(basis, polys[1:]))
        self.conditions = (*((p, (0, 1)) for p in {p for j, p in basic if j < real and p}),
                           *((p, (0,)) for p in {p for j, p in basic if j >= real and p}))
    else:
        self.conditions = ((polys[1], (1,)), *((p, (0, 1)) for p in {
            p for j, p in enumerate(polys[2:]) if j not in basis and p}))
    if not self.certifies(self.r0):
        raise ArithmeticError(f"{self.program.program_id}: a piece does not certify "
                              f"its own solve at R = {self.r0}")


def assert_interpolations_agree(piece):
    """The piece's polynomials, solved by `_cramer`, are the Lagrange ones."""
    piece.polynomials()
    again = Piece(piece.program, piece.r0, piece.negated, piece.basis, piece.feasible)
    reference_build(again)
    assert (piece.det, piece.conditions) == (again.det, again.conditions)


class TestVandermondeSolveAgainstLagrange:
    @pytest.mark.parametrize("pid", builtin_program_ids())
    def test_every_piece_of_every_builtin_program(self, pid):
        pieces, _ = sample_pieces(pid)
        assert pieces
        for piece in pieces:
            assert_interpolations_agree(piece)

    @settings(max_examples=150, deadline=None)
    @given(programs(linear=False), st.fractions(min_value=1, max_value=3, max_denominator=8))
    def test_a_random_programs_piece(self, program, r0):
        feasible_at(program, r0)
        (piece,) = program.pieces
        assert_interpolations_agree(piece)
