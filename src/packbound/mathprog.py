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
at each end and by `_check_monotone`'s proof that feasibility grows with R.

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
    "builtin_program",
    "builtin_program_ids",
    "solve_min_r_exact",
    "feasible_at",
    "bisect_min_r",
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


def _phase1(n, rows):
    """Phase 1 of the exact simplex over integer rows (coeff list, rhs, rel,
    factor), x >= 0, each row `factor` > 0 times its rational row.

    Minimizes the sum of the artificial columns, whose entries, like the
    slacks', are the row's factor.  Returns the final tableau, its basis, the
    number of columns before the artificials (structural then slack) and the
    cost row, all integer rows; the cost row's last entry is a positive
    multiple of minus that minimum: the rows are feasible exactly when it is 0.
    """
    # normalize rhs >= 0
    norm = []
    for coeffs, rhs, rel, factor in rows:
        if rhs < 0:
            coeffs = [-c for c in coeffs]
            rhs = -rhs
            rel = {"<=": ">=", ">=": "<=", "==": "=="}[rel]
        norm.append((coeffs, rhs, rel, factor))

    slack_cols = sum(1 for _, _, rel, _ in norm if rel in ("<=", ">="))
    art_cols = sum(1 for _, _, rel, _ in norm if rel in (">=", "=="))
    real = n + slack_cols
    tab = []
    basis = []
    s_at = n
    a_at = real
    for coeffs, rhs, rel, factor in norm:
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
        tab.append(_reduced(row))

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


def _minimize(program: Program, n: int, rows, objective):
    """After `_phase1`, drive leftover artificials out, drop the rows they
    still hold and minimize objective (n coefficients, then minus its
    constant); return the final tableau, basis and cost row, whose last
    entry is a positive multiple of minus the minimum."""
    tab, basis, real, cost = _phase1(n, rows)
    if cost[-1] != 0:
        raise Infeasible(program.program_id)
    for i in range(len(tab)):
        if basis[i] >= real:
            pivot_col = next((j for j in range(real) if tab[i][j] != 0), None)
            if pivot_col is not None:
                _pivot(tab, basis, i, pivot_col)
    keep = [i for i in range(len(tab)) if basis[i] < real]
    tab = [tab[i] for i in keep]
    basis = [basis[i] for i in keep]
    cost = [*objective[:-1], *[0] * (len(cost) - n - 1), objective[-1]]
    _price_out(cost, tab, basis)
    if _bland(tab, basis, cost, range(real)) == "unbounded":
        raise Unbounded(program.program_id)
    return tab, basis, cost


def solve_min_r_exact(program: Program) -> Fraction:
    """Exact optimum of a program that is linear in R."""
    if not program.linear_in_r:
        raise ValueError(f"{program.program_id}: linear solve requires rows with no R terms")
    n, rows = _integer_rows(program)
    tab, basis, _ = _minimize(program, n, rows, [0] * (n - 1) + [1, 0])
    # the optimum is R's value in the final basic solution
    return next((F(row[-1], row[n - 1]) for row, b in zip(tab, basis) if b == n - 1), F(0))


def feasible_at(program: Program, r0: Fraction) -> bool:
    """Exact feasibility of the row system with R fixed to r0."""
    *_, cost = _phase1(*_integer_rows(program, F(r0)))
    return cost[-1] == 0


def _check_monotone(program: Program) -> None:
    """Prove that a point meeting the rows at some R0 > 0 meets them at every
    R >= R0, or raise NonMonotoneDetected naming the first row that fails.

    A row carries R when its b is nonzero.  It must read
    sign*(f(x) + R*g(x)) >= 0, sign = +1 for >= and -1 for <=, f = a.(x, 1),
    with sign*f <= 0 wherever x >= 0 meets the rows that do not carry R (an
    LP, vacuous if none does): then R0*sign*g >= -sign*f >= 0 at the point,
    so the row holds at every R >= R0."""
    columns, lowered = program.lowered
    carries = [any(b) for _, _, b, _ in lowered]
    fixed = [(a[:-1], -a[-1], rel, s) for (s, a, _, rel), c in zip(lowered, carries) if not c]
    for row, (_, a, _, rel), c in zip(program.rows, lowered, carries):
        if not c:
            continue
        if rel != "==":
            sign = 1 if rel == ">=" else -1
            try:
                *_, cost = _minimize(program, len(columns), fixed,
                                     [-sign * x for x in a[:-1]] + [sign * a[-1]])
            except Infeasible:
                return
            except Unbounded:
                cost = [1]
            if cost[-1] <= 0:
                continue
        raise NonMonotoneDetected(
            f"{program.program_id}: could not prove row {row.label} monotone in R")


# bisect_min_r searches min R inside [R_LO, R_HI]
R_LO = F(1)
R_HI = F(3)


def bisect_min_r(program: Program, tol: Fraction = F(1, 10**9)) -> tuple[Fraction, Fraction]:
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

    def certificate(name, program_id, weights, target):
        program = builtin_program(program_id)
        return Certificate(name, tuple((mix if label == "mix" else program.row(label), F(w))
                                       for label, w in weights), target)

    return [
        certificate("five-row-mix", "ko-case1",
                    [("items-thirds", 2), ("items-sevenths", 1), ("bins7-def", 3),
                     ("bins3-def", 2), ("cost-fourfifths", 1)], mix),
        certificate("ko-case1-bound", "ko-case1",
                    [("cost-bigfill", 2), ("cost-halves", 20), ("cost-twothirds", 5), ("mix", 10)],
                    Row.build("case1-final", {"ratio": 62, "s3": -10}, ">=", 87)),
        certificate("ko-case2-bound", "ko-case2",
                    [("cost-units", 1), ("cost-halves", 4), ("cost-twothirds", 2), ("mix", 2)],
                    Row.build("case2-final", {"ratio": 12, "s3": -2}, ">=", 17)),
    ]
