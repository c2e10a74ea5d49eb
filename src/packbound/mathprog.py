"""Exact encodings of the bound programs and the solvers that settle them.

Programs minimize a ratio variable R subject to rows whose coefficients are
affine in R: a row stores one (c, d) pair per variable, meaning (c + d*R) *
var, and a (c0, d0) constant pair; the ratio's d is 0, or a row would hold
R^2.  Each program is lowered once, on first use, to integer rows a + R*b
with the ratio folded in as R (`Program.lowered`), and `_integer_rows` reads
them either with R as the last column or with R = p/q substituted in integer
arithmetic.  Every program is built alike from its census in `shapes`: the
structural rows, the program's own rows and the continuations' cost rows.

The two known-opt programs are linear in R and solved outright by the exact
two-phase simplex (Bland's rule).  The remaining programs carry genuine
R*var products: `feasible_at` fixes R and runs phase 1 alone (its verdict is
whether the artificial sum reaches zero), and `bisect_min_r` brackets min R
on [R_LO, R_HI] with it.  A bracket (lo, hi] is certified by the exact verdict
at each end and by `_check_monotone`'s proof that feasibility grows with R,
which runs once per program.

The final basis of each solve is kept in its program's `pieces` as a
`Piece`: its basic values, or its phase-1 dual, as ratios of integer
polynomials in R, read from the same phase-1 system (`_tableau`) that the
solve started from.  Its sign conditions certify the same verdict at every R
where they hold, so the bisection solves only the points that no piece of
the program certifies (28 of the 165 points of the five bisected programs at
the default tolerance), and every verdict is still the exact one.
`exact_threshold` reads min R off the program's infeasible piece below a
bracket and its feasible piece above it, which after `bisect_min_r` are the
ones that decided the bracket: a root of a polynomial of each, isolated by a
Sturm sequence (`algebra`) and proven to be min R.

The simplex is exact without Fractions: it starts from those integer rows,
and every tableau row and the cost row holds some positive multiple of the
true rational row.  A pivot cross-multiplies (integer-preserving
elimination in the sense of Bareiss, Math. Comp. 22, 1968) and divides each
updated row by the gcd of its entries.  Bland's rule reads only the signs of
the cost row and the ratios rhs/entry within one row, ties broken by basis
index, and a positive factor on a row changes none of them; so the pivots,
the verdicts and the optimum are those of the rational tableau.  The final
phase-1 cost row is a positive multiple of the phase-1 reduced costs.

Hand-written multiplier certificates are replayed symbolically, so the known
closed-form bounds (87/62, 17/12) are reproduced instead of trusted.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import NamedTuple, Optional

from .algebra import check_threshold, count_roots, integral, poly_gcd, sign_at, squarefree, sturm
from .shapes import CLCBP, KO, SP

__all__ = [
    "Row",
    "Program",
    "Certificate",
    "UnknownProgram",
    "Infeasible",
    "Unbounded",
    "NonMonotoneDetected",
    "NoUpperBound",
    "SignViolation",
    "MismatchedTarget",
    "Piece",
    "Threshold",
    "builtin_program",
    "builtin_program_ids",
    "solve_min_r_exact",
    "feasible_at",
    "bisect_min_r",
    "exact_threshold",
    "check_certificate",
    "combine_rows",
    "ko_certificate_suite",
    "REFERENCE_TARGETS",
]

F = Fraction


class UnknownProgram(KeyError):
    pass


class Infeasible(RuntimeError):
    pass


class Unbounded(RuntimeError):
    pass


class NonMonotoneDetected(RuntimeError):
    """bisect_min_r could not prove that feasibility only grows with R."""


class NoUpperBound(RuntimeError):
    pass


class SignViolation(ValueError):
    pass


class MismatchedTarget(AssertionError):
    pass


def _pair(value) -> tuple[Fraction, Fraction]:
    if isinstance(value, tuple):
        return (F(value[0]), F(value[1]))
    return (F(value), F(0))


class Row(NamedTuple):
    """sum_j (c_j + d_j*R) * var_j  REL  c0 + d0*R."""

    label: str
    coeffs: tuple  # tuple of (var, (c, d)) pairs, deterministic order
    const: tuple  # (c0, d0)
    relation: str  # '<=', '>=', '=='

    @staticmethod
    def build(label, coeffs: dict, relation: str, const) -> "Row":
        if relation not in ("<=", ">=", "=="):
            raise ValueError(f"row {label}: unknown relation {relation!r}")
        packed = tuple(
            (v, _pair(c)) for v, c in coeffs.items() if _pair(c) != (F(0), F(0))
        )
        return Row(label, packed, _pair(const), relation)

    def render(self) -> str:
        parts = []
        for var, (c, d) in self.coeffs:
            if d == 0:
                parts.append(f"{c}*{var}")
            elif c == 0:
                parts.append(f"({d}R)*{var}")
            else:
                parts.append(f"({c}{'+' if d > 0 else ''}{d}R)*{var}")
        c0, d0 = self.const
        rhs = f"{c0}" if d0 == 0 else f"{c0}{'+' if d0 > 0 else ''}{d0}R"
        return f"[{self.label}] " + " + ".join(parts) + f" {self.relation} {rhs}"


class Program:
    def __init__(self, program_id: str, variables: tuple, rows: tuple):
        self.program_id = program_id
        self.variables = variables  # every variable is nonnegative; minimize 'ratio'
        self.rows = rows
        self.pieces = []  # the `Piece` of every `feasible_at` solve, oldest first

    @property
    def linear_in_r(self) -> bool:
        """Whether R is a column of its own: no lowered row has an R term but its constant."""
        return not any(any(b[:-1]) for _, _, b, _ in self.lowered[1])

    def row(self, label: str) -> Row:
        for row in self.rows:
            if row.label == label:
                return row
        raise KeyError(label)

    @cached_property
    def lowered(self) -> tuple:
        """The rows over integers, computed once: (columns, rows).

        columns are the variables other than the ratio, which is folded in as
        R.  Each row (s, a, b, rel), a and b over the columns and then the
        constant, means a.(x, 1) + R*b.(x, 1)  REL  0: s times the rational
        row, s the lcm of its denominators.  Raises ValueError for a row
        whose ratio coefficient carries R, which would make it quadratic in R.
        """
        columns = tuple(v for v in self.variables if v != "ratio")
        rows = []
        for row in self.rows:
            coeffs = dict(row.coeffs)
            rc, d = coeffs.pop("ratio", (0, 0))
            if d:
                raise ValueError(f"row {row.label}: the ratio's coefficient carries R")
            c0, d0 = row.const
            pairs = [coeffs.pop(v, (0, 0)) for v in columns] + [(-c0, rc - d0)]
            if coeffs:
                raise KeyError(f"row {row.label}: unknown variables {sorted(coeffs)}")
            values = [x for pair in pairs for x in pair]
            s = lcm(*(x.denominator for x in values))
            ints = [x.numerator * (s // x.denominator) for x in values]
            rows.append((s, ints[0::2], ints[1::2], row.relation))
        return columns, tuple(rows)

    @cached_property
    def unproven_row(self) -> Optional[str]:
        """The label of the first row `_check_monotone` cannot prove monotone
        in R, or None; the proof runs once."""
        return _unproven_row(self)


# -- exact two-phase simplex ------------------------------------------------
# (integer rows, each a positive multiple of its rational row: module docstring)


def _reduced(row):
    """row divided by the gcd of its entries, a positive factor."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _eliminate(row, pivot_row, c, columns):
    """A positive multiple of row minus the multiple of pivot_row that zeroes
    column c; pivot_row[c] > 0, and columns holds its nonzero columns."""
    p, a = pivot_row[c], row[c]
    g = gcd(p, a)
    p, a = p // g, a // g
    out = [p * x for x in row] if p != 1 else row[:]
    for j in columns:
        out[j] -= a * pivot_row[j]
    return _reduced(out)


def _pivot(tab, basis, r, c):
    """Make column c basic in row r; return the pivot row's nonzero columns.
    A negative pivot entry (phase 2 may drive an artificial out on one) is
    made positive by negating the row, which keeps it a positive multiple of
    the true pivot row divided by its pivot entry."""
    pr = tab[r]
    if pr[c] < 0:
        pr = [-x for x in pr]
    pr = tab[r] = _reduced(pr)
    columns = [j for j, x in enumerate(pr) if x]
    for i, row in enumerate(tab):
        if i != r and row[c]:
            tab[i] = _eliminate(row, pr, c, columns)
    basis[r] = c
    return columns


def _bland(tab, basis, cost, allowed) -> str:
    """Minimize cost (list over columns, last entry = current -objective)."""
    while True:
        enter = next((j for j in allowed if cost[j] < 0), None)
        if enter is None:
            return "optimal"
        # min of tab[i][-1] / tab[i][enter] over tab[i][enter] > 0, compared
        # cross-multiplied, then by basis index
        leave = None
        for i, row in enumerate(tab):
            d = row[enter]
            if d > 0:
                n = row[-1]
                if leave is None:
                    leave, ln, ld = i, n, d
                else:
                    lhs, rhs = n * ld, ln * d
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                        leave, ln, ld = i, n, d
        if leave is None:
            return "unbounded"
        columns = _pivot(tab, basis, leave, enter)
        cost[:] = _eliminate(cost, tab[leave], enter, columns)


def _price_out(cost, tab, basis):
    """Zero the cost row on every basic column."""
    for row, b in zip(tab, basis):
        if cost[b] != 0:
            cost[:] = _eliminate(cost, row, b, range(len(row)))


def _tableau(n, rows, negated):
    """The phase-1 system of integer rows (coeff list, rhs, rel, factor) over
    n columns, x >= 0, each row `factor` > 0 times its rational row, with row
    i negated (entries, rhs and relation) where negated[i].

    Returns the rows [structural, slack, artificial, rhs], not reduced, their
    basis (each row's slack if <=, else its artificial), the number of real
    (structural then slack) columns and the number of artificial ones.  The
    slack and artificial entries are the row's factor, minus it for a >=
    row's slack."""
    flip = {"<=": ">=", ">=": "<=", "==": "=="}
    rels = [flip[rel] if neg else rel for (_, _, rel, _), neg in zip(rows, negated)]
    slack_cols = sum(1 for rel in rels if rel != "==")
    art_cols = sum(1 for rel in rels if rel != "<=")
    real = n + slack_cols
    tab, basis = [], []
    s_at, a_at = n, real
    for (coeffs, rhs, _, factor), rel, neg in zip(rows, rels, negated):
        if neg:
            coeffs, rhs = [-c for c in coeffs], -rhs
        row = [*coeffs, *[0] * (slack_cols + art_cols), rhs]
        if rel == "<=":
            row[s_at] = factor
            basis.append(s_at)
            s_at += 1
        else:
            if rel == ">=":
                row[s_at] = -factor
                s_at += 1
            row[a_at] = factor
            basis.append(a_at)
            a_at += 1
        tab.append(row)
    return tab, basis, real, art_cols


def _phase1(n, rows):
    """Phase 1 of the exact simplex over `_tableau`'s system, each row with
    a negative rhs negated and then reduced.

    Minimizes the sum of the artificial columns.  Returns the final tableau,
    its basis, the number of columns before the artificials (structural then
    slack) and the cost row, all integer rows; the cost row's last entry is a
    positive multiple of minus that minimum: the rows are feasible exactly
    when it is 0.
    """
    tab, basis, real, art_cols = _tableau(n, rows, [rhs < 0 for _, rhs, _, _ in rows])
    tab = [_reduced(row) for row in tab]
    cost = [0] * real + [1] * art_cols + [0]
    _price_out(cost, tab, basis)
    if _bland(tab, basis, cost, range(real + art_cols)) != "optimal":
        raise Unbounded("phase 1 of the simplex reported an unbounded ray")
    return tab, basis, real, cost


# -- program-level operations ------------------------------------------------


def _integer_rows(program: Program, r0: Optional[Fraction] = None):
    """The column count and the rows (coeff list, rhs, rel, factor) of
    `program.lowered` for `_phase1`.

    With r0 = p/q given, R = r0 is substituted: a row becomes a*q + b*p, s*q
    times its rational row.  Without r0, R is the last column, read from b's
    constant, and only a and that constant are read.
    """
    columns, lowered = program.lowered
    if r0 is None:
        return len(columns) + 1, [([*a[:-1], b[-1]], -a[-1], rel, s) for s, a, b, rel in lowered]
    p, q = r0.numerator, r0.denominator
    out = []
    for s, a, b, rel in lowered:
        line = [x * q + y * p for x, y in zip(a, b)]
        out.append((line[:-1], -line[-1], rel, s * q))
    return len(columns), out


def _feasible_basis(program: Program, n: int, rows):
    """`_phase1`, then its leftover artificials driven out and the rows they
    still hold dropped: the tableau, basis, real column count and cost row
    length that phase 2 starts from.  Raises Infeasible."""
    tab, basis, real, cost = _phase1(n, rows)
    if cost[-1] != 0:
        raise Infeasible(program.program_id)
    for i in range(len(tab)):
        if basis[i] >= real:
            pivot_col = next((j for j in range(real) if tab[i][j] != 0), None)
            if pivot_col is not None:
                _pivot(tab, basis, i, pivot_col)
    keep = [i for i in range(len(tab)) if basis[i] < real]
    return [tab[i] for i in keep], [basis[i] for i in keep], real, len(cost)


def _phase2(program: Program, start, objective):
    """Minimize objective (n coefficients, then minus its constant) from
    `_feasible_basis`'s start, which is left as it was; return the final
    tableau, basis and cost row, whose last entry is a positive multiple of
    minus the minimum."""
    tab, basis, real, width = start
    tab, basis = [row[:] for row in tab], basis[:]
    n = len(objective) - 1
    cost = [*objective[:-1], *[0] * (width - n - 1), objective[-1]]
    _price_out(cost, tab, basis)
    if _bland(tab, basis, cost, range(real)) == "unbounded":
        raise Unbounded(program.program_id)
    return tab, basis, cost


def solve_min_r_exact(program: Program) -> Fraction:
    """Exact optimum of a program that is linear in R."""
    if not program.linear_in_r:
        raise ValueError(f"{program.program_id}: linear solve requires rows with no R terms")
    n, rows = _integer_rows(program)
    tab, basis, _ = _phase2(program, _feasible_basis(program, n, rows), [0] * (n - 1) + [1, 0])
    # the optimum is R's value in the final basic solution
    return next((F(row[-1], row[n - 1]) for row, b in zip(tab, basis) if b == n - 1), F(0))


def feasible_at(program: Program, r0: Fraction) -> bool:
    """Exact feasibility of the row system with R fixed to r0.  The solve's
    final basis is appended to `program.pieces` as a `Piece`."""
    r0 = F(r0)
    n, rows = _integer_rows(program, r0)
    _, basis, _, cost = _phase1(n, rows)
    feasible = cost[-1] == 0
    negated = tuple(rhs < 0 for _, rhs, _, _ in rows)
    program.pieces.append(Piece(program, r0, negated, tuple(basis), feasible))
    return feasible


def _check_monotone(program: Program) -> None:
    """Prove that a point meeting the rows at some R0 > 0 meets them at every
    R >= R0, or raise NonMonotoneDetected naming the first row that fails.
    The proof runs once per program (`Program.unproven_row`)."""
    label = program.unproven_row
    if label is not None:
        raise NonMonotoneDetected(
            f"{program.program_id}: could not prove row {label} monotone in R")


def _unproven_row(program: Program) -> Optional[str]:
    """`_check_monotone`'s proof: the label of the first row it fails on, or None.

    A row carries R when its b is nonzero.  It must read
    sign*(f(x) + R*g(x)) >= 0, sign = +1 for >= and -1 for <=, f = a.(x, 1),
    with sign*f <= 0 wherever x >= 0 meets the rows that do not carry R (an
    LP, vacuous if none does): then R0*sign*g >= -sign*f >= 0 at the point,
    so the row holds at every R >= R0.  Phase 1 of those rows runs once; each
    row maximizes its sign*f from a copy of its result."""
    columns, lowered = program.lowered
    carries = [any(b) for _, _, b, _ in lowered]
    fixed = [(a[:-1], -a[-1], rel, s) for (s, a, _, rel), c in zip(lowered, carries) if not c]
    start = None
    for row, (_, a, _, rel), c in zip(program.rows, lowered, carries):
        if not c:
            continue
        if rel != "==":
            sign = 1 if rel == ">=" else -1
            if start is None:
                try:
                    start = _feasible_basis(program, len(columns), fixed)
                except Infeasible:
                    return None
            try:
                *_, cost = _phase2(program, start, [-sign * x for x in a[:-1]] + [sign * a[-1]])
            except Unbounded:
                cost = [1]
            if cost[-1] <= 0:
                continue
        return row.label
    return None


# bisect_min_r searches min R inside [R_LO, R_HI]
R_LO = F(1)
R_HI = F(3)


def _certifying(program: Program, r0: Fraction) -> "Piece":
    """The program's newest piece that certifies r0, else the piece of a new
    solve at r0."""
    for piece in reversed(program.pieces):
        if piece.certifies(r0):
            return piece
    feasible_at(program, r0)
    return program.pieces[-1]


def _halved(program: Program, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """The half of (lo, hi] that holds min R, decided at its midpoint."""
    mid = (lo + hi) / 2
    return (lo, mid) if _certifying(program, mid).feasible else (mid, hi)


def bisect_min_r(program: Program, tol: Fraction = F(1, 10**9)) -> tuple[Fraction, Fraction]:
    """Bracket (lo, hi) with hi - lo <= tol, infeasible at lo and feasible at
    hi (or (R_LO, R_LO)); as `_check_monotone` proves that feasibility grows
    with R, min R lies in (lo, hi].  tol must be positive (ValueError).

    Each point is decided by the program's pieces when one of them
    certifies it, and by a `feasible_at` solve, which adds its piece, when
    none does; either way the verdict is the exact one."""
    lo, hi, tol = R_LO, R_HI, F(tol)
    if tol <= 0:
        raise ValueError(f"bisection tolerance must be positive, got {tol}")
    if not _certifying(program, hi).feasible:
        raise NoUpperBound(f"{program.program_id} infeasible at R = {hi}")
    _check_monotone(program)
    if _certifying(program, lo).feasible:
        return lo, lo
    while hi - lo > tol:
        lo, hi = _halved(program, lo, hi)
    return lo, hi


# -- pieces: one phase-1 basis as a function of R ----------------------------


def _cramer(rows, m: int):
    """(det A, det(A) * A^-1 C) for rows = [A | C], A m x m over the integers,
    by fraction-free Gauss-Jordan elimination (Bareiss), or (0, None) when A
    is singular.  Every entry stays a minor of [A | C], so each division is
    exact; a row swap flips the sign, which the end undoes."""
    rows = [list(r) for r in rows]
    prev, flips = 1, 1
    for k in range(m):
        p = next((i for i in range(k, m) if rows[i][k]), None)
        if p is None:
            return 0, None
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            flips = -flips
        pk, tail = rows[k][k], rows[k][k + 1:]
        # columns up to k are read no more: only the tails are updated
        for i, row in enumerate(rows):
            f = row[k]
            if i == k or not f and pk == prev:
                continue
            if f:
                row[k + 1:] = [(pk * x - f * y) // prev for x, y in zip(row[k + 1:], tail)]
            else:
                row[k + 1:] = [pk * x // prev for x in row[k + 1:]]
        prev = pk
    return flips * prev, [[flips * x for x in row[m:]] for row in rows]


class Piece:
    """The final basis of one `_phase1` solve at R = r0, with that solve's row
    orientation, read as a function of R.

    The build samples the system that solve started from, `_tableau` with
    the solve's `negated` bits, at integer points R = v, where its rows are
    a + b*v with the factor s on the slacks and artificials (`_integer_rows`
    with q = 1): one builder, so the piece reads the system the simplex
    solved.  B(R), its basic columns, has entries affine in R; let
    D = det B.  A feasible piece holds D and, by Cramer's rule, each basic
    value N_i/D.  Where D != 0, every N_i*D >= 0 and every basic artificial's
    N_i = 0, the basic solution is a point with all artificials zero, so it
    meets every row.  An infeasible piece holds D, the reduced costs
    c_j - y.M_j and the bound y.rhs on the artificial sum, y = c_B B^-1, each
    times D.  Where D != 0, every reduced cost >= 0 and y.rhs > 0, y is a
    feasible point of phase 1's dual, so (weak duality) the artificial sum
    is at least y.rhs > 0 and no point meets the rows.  Each requirement
    but D != 0 is one entry of `conditions`: a polynomial P and the signs of
    P*D it allows, (0,) for a basic artificial's N_i, (1,) for y.rhs times
    D, and (0, 1) for every other N_i or reduced cost times D.

    Degree: B, rhs and each column M_j are rows of the phase-1 system, and
    row i depends on R (affinely) only if the program's row i carries R.
    D, each N_i = det(B with column i replaced by rhs), each reduced cost
    times D, c_j*D - sum_k c_Bk det(B with column k replaced by M_j), and
    y.rhs times D, sum_k c_Bk N_k, are determinants of such matrices or
    sums of them with constant weights.  A determinant is linear in each
    row, so each is a polynomial of degree at most t, the number of rows
    that carry R, and t + 1 points where D != 0 interpolate it exactly:
    `_cramer` solves their Vandermonde system for every polynomial at once.

    The polynomials are built on the first `certifies` call.  A piece
    certifies its own solve point by construction (the final phase-1 basis
    is primal feasible, and optimal for the phase-1 costs), which the build
    checks.
    """

    def __init__(self, program: Program, r0: Fraction, negated: tuple, basis: tuple,
                 feasible: bool):
        self.program, self.r0, self.negated, self.basis = program, r0, negated, basis
        self.feasible = feasible
        self.det = None  # D
        self.conditions = ()  # (P, the signs of P*D allowed); y.rhs times D first

    def _build(self) -> None:
        m, basis = len(self.basis), self.basis
        degree = sum(1 for _, _, b, _ in self.program.lowered[1] if any(b))
        samples, v = [], 0  # (v, the polynomials' values at R = v)
        while len(samples) <= degree:
            # the solve's system at R = v
            tab, _, real, art_cols = _tableau(*_integer_rows(self.program, F(v)), self.negated)
            if self.feasible:  # B x = rhs
                det, solved = _cramer([[row[j] for j in basis] + [row[-1]] for row in tab], m)
                if det:
                    samples.append((v, [det, *(row[0] for row in solved)]))
            else:  # B^T y = c_B, then D c_j - D y.M_j and D y.rhs
                at = list(zip(*tab))  # its columns, rhs last
                costs = [0] * real + [1] * art_cols
                det, solved = _cramer([[*at[j], costs[j]] for j in basis], m)
                if det:
                    dy = [row[0] for row in solved]
                    samples.append((v, [det, sum(u * w for u, w in zip(dy, at[-1])),
                                        *(c * det - sum(u * w for u, w in zip(dy, col))
                                          for c, col in zip(costs, at))]))
            v += 1
        # the Vandermonde system [v^t ... v 1 | the samples at v]: its solution,
        # times its determinant, is each polynomial's coefficients
        det, solved = _cramer([[v**k for k in range(degree, -1, -1)] + s
                               for v, s in samples], degree + 1)
        if any(x % det for row in solved for x in row):
            raise ArithmeticError(f"{self.program.program_id}: a piece's polynomial "
                                  "exceeds its degree bound")
        polys = [integral([x // det for x in column]) for column in zip(*solved)]
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

    def holds(self, sign_of) -> bool:
        """Whether the certificate holds where each polynomial P has the sign
        sign_of(P): D is nonzero and every condition allows sign(P*D)."""
        d = sign_of(self.det)
        return bool(d) and all(sign_of(p) * d in allowed for p, allowed in self.conditions)

    def polynomials(self) -> tuple:
        """The conditions' polynomials, then D: y.rhs times D first."""
        if self.det is None:
            self._build()
        return (*(p for p, _ in self.conditions), self.det)

    def certifies(self, r: Fraction) -> bool:
        """Whether this piece proves the verdict `feasible` at R = r."""
        if self.det is None:
            self._build()
        return self.holds(lambda poly: sign_at(poly, r))


# -- exact thresholds -----------------------------------------------------------


class Threshold(NamedTuple):
    """min R as an algebraic number: the one root of `polynomial` (integers,
    highest power first, gcd 1, leading coefficient positive) strictly inside
    `interval`.  `proven` when two pieces showed that the rows hold at that
    root and fail just below it, so that (feasibility growing with R) it is
    min R, and `check_threshold` replayed the isolation."""

    polynomial: tuple
    interval: tuple  # (a, b), Fractions
    proven: bool

    def narrowed(self) -> "Threshold":
        """The same root in the half of the interval that holds it."""
        p, (a, b) = self.polynomial, self.interval
        mid = (a + b) / 2
        s = sign_at(p, mid)
        if not s:  # the root is mid itself
            interval = (a + mid) / 2, (mid + b) / 2
        else:
            interval = (mid, b) if s == sign_at(p, a) else (a, mid)
        return Threshold(p, interval, self.proven)


# a bracket is halved at most this often for its pieces to meet
_HALVINGS = 64
# an isolating interval is halved at most this often for a proof
_REFINEMENTS = 200


def exact_threshold(program: Program, lo: Fraction, hi: Fraction) -> Threshold:
    """The exact min R of a program whose rows fail at lo and hold at hi, as
    from `bisect_min_r`; ValueError when they do not.

    The program's pieces that certify lo and hi, an infeasible one below
    and a feasible one above, meet at min R = r when r is a root of a
    polynomial of each: some condition of each fails at r.  The candidate is
    the square-free gcd of such a pair; `_prove` shows that it is min R.
    While the pieces do not meet, the bracket is halved as in
    `bisect_min_r`.  After `bisect_min_r`, the pieces that decided lo and
    hi are already the program's, so neither end is solved again."""
    lo, hi = F(lo), F(hi)
    _check_monotone(program)
    for _ in range(_HALVINGS):
        below, above = _certifying(program, lo), _certifying(program, hi)
        if below.feasible or not above.feasible:
            raise ValueError(f"{program.program_id}: R = {lo} must fail and R = {hi} hold")
        for p in _candidates(below, above, lo, hi):
            interval = _prove(below, above, p, lo, hi)
            if interval:
                return Threshold(p, interval, check_threshold(p, interval))
        lo, hi = _halved(program, lo, hi)
    return Threshold((), (lo, hi), False)


def _candidates(below: Piece, above: Piece, lo: Fraction, hi: Fraction):
    """Square-free polynomials with exactly one root r in (lo, hi], each the
    gcd of a polynomial of `below` and one of `above` (below's bound y.rhs
    first); a rational r = hi is given as its linear polynomial."""

    def crosses(poly) -> bool:
        return (len(poly) > 1 and (sign_at(poly, lo) * sign_at(poly, hi) <= 0
                                   or count_roots(sturm(poly), lo, hi) > 0))

    ins = [p for p in below.polynomials() if crosses(p)]
    outs = [p for p in above.polynomials() if crosses(p)]
    seen = set()
    for u in ins:
        for w in outs:
            p = squarefree(poly_gcd(u, w))
            if len(p) < 2 or p in seen or not sign_at(p, lo):
                continue
            seen.add(p)
            if not sign_at(p, hi):
                yield (hi.denominator, -hi.numerator)
            elif count_roots(sturm(p), lo, hi) == 1:
                yield p


def _prove(below: Piece, above: Piece, p: tuple, lo: Fraction, hi: Fraction):
    """An interval (a, b) isolating p's root r from lo on, on which `below`
    certifies infeasibility on [a, r) and `above` feasibility at r, or None.

    (a, b) is halved until every polynomial of both pieces is nonzero at a
    and at b and has no root in (a, b) but, possibly, r, which it then shares
    with p (their gcd changes sign across (a, b)).  Each polynomial then has
    its sign at a on [a, r), and at r that sign or, when shared, 0."""
    a, b = lo, hi if sign_at(p, hi) else 2 * hi - lo
    if not check_threshold(p, (a, b)):
        return None
    polys = set(below.polynomials()) | set(above.polynomials())
    seqs = {poly: sturm(poly) for poly in polys if len(poly) > 1}
    gcds = {}
    for _ in range(_REFINEMENTS):
        at_root = {}
        for poly, seq in seqs.items():
            if not sign_at(poly, a) or not sign_at(poly, b):
                break
            n = count_roots(seq, a, b)
            if n:
                if poly not in gcds:
                    gcds[poly] = poly_gcd(poly, p)
                g = gcds[poly]
                if n > 1 or len(g) < 2 or sign_at(g, a) * sign_at(g, b) >= 0:
                    break
                at_root[poly] = 0
        else:
            def left(poly):
                return sign_at(poly, a)

            def root(poly):
                return at_root.get(poly, sign_at(poly, a))

            if below.holds(left) and above.holds(root):
                return a, b
            return None
        a, b = Threshold(p, (a, b), False).narrowed().interval
    return None


# -- certificates -------------------------------------------------------------


class Certificate(NamedTuple):
    """Nonnegative multipliers over >= rows (any sign on ==) with a target."""

    name: str
    ingredients: tuple  # tuple of (Row, Fraction multiplier)
    target: Row


def combine_rows(ingredients) -> tuple[dict, tuple, str]:
    """Weighted sum of rows oriented as >=; enforces multiplier signs."""
    coeffs: dict = {}
    const = [F(0), F(0)]
    for row, mult in ingredients:
        mult = F(mult)
        if row.relation == ">=" and mult < 0:
            raise SignViolation(f"negative multiplier on >= row {row.label}")
        if row.relation == "<=" and mult > 0:
            raise SignViolation(f"positive multiplier on <= row {row.label}")
        for var, (c, d) in row.coeffs:
            cc, dd = coeffs.get(var, (F(0), F(0)))
            coeffs[var] = (cc + mult * c, dd + mult * d)
        const[0] += mult * row.const[0]
        const[1] += mult * row.const[1]
    coeffs = {v: c for v, c in coeffs.items() if c != (F(0), F(0))}
    return coeffs, (const[0], const[1]), ">="


def check_certificate(certificate: Certificate) -> Row:
    """Replay the weighted sum symbolically and compare to the target row."""
    coeffs, const, relation = combine_rows(certificate.ingredients)
    derived = Row.build(f"derived-{certificate.name}", coeffs, relation, const)
    target = certificate.target
    if (
        dict(derived.coeffs) != dict(target.coeffs)
        or derived.const != target.const
        or derived.relation != target.relation
    ):
        raise MismatchedTarget(
            f"{certificate.name}: derived {derived.render()} != target {target.render()}"
        )
    return derived


# -- builtin programs ---------------------------------------------------------

def _structural(rows) -> list[Row]:
    # the programs count per M, so a total of M is 1
    return [Row.build(r.label, r.coeffs, r.relation, 0 if r.total else 1) for r in rows]


def _cost_rows(table, program_id: str) -> list[Row]:
    """R*opt - pays - items >= 0 per continuation of `table`, scaled by the
    lcm of its denominators; R times M/M is the ratio variable.  A row whose
    constant is zero is stated negated, as <= 0, so that phase 1 starts it
    on its slack instead of an artificial."""
    rows = []
    for cost in table.costs.values():
        items = cost.items.get(program_id, cost.items)
        # variable -> [c, d], meaning (c + d*R) * variable
        terms = {"ratio" if v == "M" else v: [k, 0] if v == "M" else [0, k]
                 for v, k in cost.opt.get(program_id, cost.opt).items()}
        for var, k in [*cost.pays.items(), *items.items()]:
            if var != "M":
                terms.setdefault(var, [0, 0])[0] -= k
        rhs = F(items.get("M", 0))
        scale = lcm(rhs.denominator, *(F(x).denominator for cd in terms.values() for x in cd))
        sign = 1 if rhs else -1
        coeffs = {v: (sign * scale * c, sign * scale * d) for v, (c, d) in terms.items()}
        rows.append(Row.build(cost.label, coeffs, ">=" if rhs else "<=", scale * rhs))
    return rows


# every census with bound programs, in the order `bounds` prints them
_CENSUSES = (KO, SP, CLCBP[2], CLCBP[3])


def builtin_program_ids() -> list[str]:
    return [pid for census in _CENSUSES for pid in census.programs]


def builtin_program(program_id: str) -> Program:
    """The census's structural rows, the program's own rows and the cost rows."""
    census = next((c for c in _CENSUSES if program_id in c.programs), None)
    if census is None:
        raise UnknownProgram(program_id)
    own = [Row.build(*row) for row in census.programs[program_id]]
    return Program(program_id, census.variables,
                   tuple(_structural(census.rows) + own + _cost_rows(census, program_id)))


# published reference values the bounds table is checked against
REFERENCE_TARGETS = {
    "ko-case1": ("87/62", "exact"),
    "ko-case2": ("17/12", "exact"),
    "sp": ("1.751544578513", "bracket"),
    "clcbp2-case1": ("1.7320507", "approx"),
    "clcbp2-case2": ("1.717668486", "approx"),
    "clcbp3-case1": ("1.902018", "approx"),
    "clcbp3-case2": ("1.80814287", "approx"),
}


def ko_certificate_suite() -> list[Certificate]:
    """The three multiplier combinations proving the known-opt bounds, by row label."""
    mix = Row.build(
        "mix",
        {"s46": 2, "s24t1": 2, "s1t2": 2, "t2": 2, "s2t2": 2, "s1": -2,
         "s3": -1, "s2": -2, "bins7": 3, "bins3": 2, "ratio": 1},
        ">=", 4,
    )

    case1, case2 = builtin_program("ko-case1"), builtin_program("ko-case2")

    def certificate(name, program, weights, target):
        return Certificate(name, tuple((mix if label == "mix" else program.row(label), F(w))
                                       for label, w in weights), target)

    return [
        certificate("five-row-mix", case1,
                    [("items-thirds", 2), ("items-sevenths", 1), ("bins7-def", 3),
                     ("bins3-def", 2), ("cost-fourfifths", 1)], mix),
        certificate("ko-case1-bound", case1,
                    [("cost-bigfill", 2), ("cost-halves", 20), ("cost-twothirds", 5), ("mix", 10)],
                    Row.build("case1-final", {"ratio": 62, "s3": -10}, ">=", 87)),
        certificate("ko-case2-bound", case2,
                    [("cost-units", 1), ("cost-halves", 4), ("cost-twothirds", 2), ("mix", 2)],
                    Row.build("case2-final", {"ratio": 12, "s3": -2}, ">=", 17)),
    ]
