"""Exact encodings of the bound programs and the solvers that settle them.

Programs minimize a ratio variable R subject to rows whose coefficients are
affine in R: a row stores one (c, d) pair per variable, meaning (c + d*R) *
var, and a (c0, d0) constant pair.  The two known-opt programs are linear in
R and solved outright by an exact rational simplex (Bland's rule); the
remaining programs carry genuine R*var products and are settled by exact
feasibility tests at fixed R inside a bisection, guarded by a monotonicity
sample of the feasibility pattern.

Hand-written multiplier certificates are replayed symbolically, so the known
closed-form bounds (87/62, 17/12) are reproduced instead of trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

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
    pass


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


@dataclass(frozen=True)
class Row:
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

    def coeff_dict(self) -> dict:
        return {v: c for v, c in self.coeffs}

    def substitute(self, r0: Fraction) -> tuple[dict, Fraction, str]:
        """Fix R = r0: returns (linear coeffs, rhs, relation)."""
        coeffs = {}
        for var, (c, d) in self.coeffs:
            value = c + d * r0
            if var == "ratio":
                # the ratio column itself becomes a constant contribution
                continue
            if value != 0:
                coeffs[var] = value
        rhs = self.const[0] + self.const[1] * r0
        for var, (c, d) in self.coeffs:
            if var == "ratio":
                rhs -= (c + d * r0) * r0
        return coeffs, rhs, self.relation

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


@dataclass(frozen=True)
class Program:
    program_id: str
    variables: tuple  # every variable is nonnegative; minimize 'ratio'
    rows: tuple

    @property
    def linear_in_r(self) -> bool:
        return all(
            d == 0 for row in self.rows for _, (_, d) in row.coeffs
        ) and all(row.const[1] == 0 for row in self.rows)

    def row(self, label: str) -> Row:
        for row in self.rows:
            if row.label == label:
                return row
        raise KeyError(label)


# -- exact two-phase simplex ------------------------------------------------


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


def _solve_lp(n, rows, minimize: Optional[list] = None):
    """min c*x s.t. rows (coeff list, rhs, rel), x >= 0.  Exact two-phase.

    Returns (status, x, value); status in {'optimal', 'infeasible', 'unbounded'}.
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
    total = n + slack_cols + art_cols
    tab = []
    basis = []
    s_at = n
    a_at = n + slack_cols
    art_index = []
    for coeffs, rhs, rel in norm:
        row = list(coeffs) + [F(0)] * (slack_cols + art_cols) + [rhs]
        if rel == "<=":
            row[s_at] = F(1)
            basis.append(s_at)
            s_at += 1
        elif rel == ">=":
            row[s_at] = F(-1)
            s_at += 1
            row[a_at] = F(1)
            basis.append(a_at)
            art_index.append(a_at)
            a_at += 1
        else:
            row[a_at] = F(1)
            basis.append(a_at)
            art_index.append(a_at)
            a_at += 1
        tab.append(row)

    # phase 1: minimize artificial sum
    if art_index:
        cost = [F(0)] * (total + 1)
        for a in art_index:
            cost[a] = F(1)
        for i, b in enumerate(basis):
            if cost[b] != 0:
                factor = cost[b]
                cost = [x - factor * y for x, y in zip(cost, tab[i])]
        status = _bland(tab, basis, cost, range(total))
        if status != "optimal":  # phase 1 is always bounded
            raise Unbounded("phase 1 of the simplex reported an unbounded ray")
        if -cost[-1] != 0:
            return "infeasible", None, None
        # drive leftover artificials out of the basis
        for i in range(len(tab)):
            if basis[i] in art_index:
                pivot_col = next(
                    (j for j in range(n + slack_cols) if tab[i][j] != 0), None
                )
                if pivot_col is not None:
                    _pivot(tab, basis, i, pivot_col)
        keep = [i for i in range(len(tab)) if basis[i] not in art_index]
        tab = [tab[i] for i in keep]
        basis = [basis[i] for i in keep]

    allowed = range(n + slack_cols)
    if minimize is None:
        x = [F(0)] * n
        for i, b in enumerate(basis):
            if b < n:
                x[b] = tab[i][-1]
        return "optimal", x, F(0)

    cost = [F(0)] * (total + 1)
    for j in range(n):
        cost[j] = minimize[j]
    for i, b in enumerate(basis):
        if cost[b] != 0:
            factor = cost[b]
            cost = [x - factor * y for x, y in zip(cost, tab[i])]
    status = _bland(tab, basis, cost, allowed)
    if status == "unbounded":
        return "unbounded", None, None
    x = [F(0)] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = tab[i][-1]
    return "optimal", x, -cost[-1]


# -- program-level operations ------------------------------------------------


def _rows_for_lp(program: Program, r0: Optional[Fraction]):
    """Rows in dense-list form; r0 fixes the ratio, None keeps it a column."""
    variables = [v for v in program.variables if r0 is None or v != "ratio"]
    index = {v: i for i, v in enumerate(variables)}
    dense = []
    for row in program.rows:
        if r0 is None:
            coeffs, rhs, rel = row.coeff_dict(), row.const[0], row.relation
            if row.const[1] != 0:
                raise ValueError(f"row {row.label}: linear solve requires an R-free constant")
            line = [F(0)] * len(variables)
            for var, (c, d) in coeffs.items():
                if d != 0:
                    raise ValueError(f"row {row.label}: linear solve requires d == 0")
                line[index[var]] = c
        else:
            coeffs, rhs, rel = row.substitute(r0)
            line = [F(0)] * len(variables)
            for var, c in coeffs.items():
                line[index[var]] = c
        dense.append((line, rhs, rel))
    return variables, dense


def solve_min_r_exact(program: Program) -> Fraction:
    """Exact optimum of a program that is linear in R."""
    if not program.linear_in_r:
        raise ValueError(f"{program.program_id} has R*variable products")
    variables, dense = _rows_for_lp(program, None)
    objective = [F(1) if v == "ratio" else F(0) for v in variables]
    status, _, value = _solve_lp(len(variables), dense, objective)
    if status == "infeasible":
        raise Infeasible(program.program_id)
    if status == "unbounded":
        raise Unbounded(program.program_id)
    return value


def feasible_at(program: Program, r0: Fraction) -> bool:
    """Exact feasibility of the row system with R fixed to r0."""
    variables, dense = _rows_for_lp(program, F(r0))
    status, _, _ = _solve_lp(len(variables), dense, None)
    return status == "optimal"


def bisect_min_r(
    program: Program,
    tol: Fraction = F(1, 10**9),
    lo: Fraction = F(1),
    hi: Fraction = F(3),
    grid: int = 32,
) -> tuple[Fraction, Fraction]:
    """Bracket (lo, hi) with hi - lo <= tol, infeasible at lo, feasible at hi.

    Feasibility must be monotone nondecreasing in R; a sample over `grid`
    evenly spaced points aborts with NonMonotoneDetected otherwise.
    """
    lo, hi, tol = F(lo), F(hi), F(tol)
    if not feasible_at(program, hi):
        raise NoUpperBound(f"{program.program_id} infeasible at R = {hi}")
    pattern = [feasible_at(program, lo + (hi - lo) * F(i, grid - 1)) for i in range(grid)]
    switched = False
    for a, b in zip(pattern, pattern[1:]):
        if a and not b:
            raise NonMonotoneDetected(program.program_id)
        switched = switched or (not a and b)
    if pattern[0]:
        # already feasible at the left end: the bracket degenerates there
        return lo, lo
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if feasible_at(program, mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


# -- certificates -------------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
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


def check_certificate(program: Program, certificate: Certificate) -> Row:
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

KO_VARIABLES = (
    "s46", "s3", "s2", "s1", "s24t1", "s1t1", "s1t2", "s2t2", "t1", "t2",
    "bins7", "bins3", "ratio",
)


def _ko_rows():
    return [
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
    ]


def _ko_case1() -> Program:
    rows = _ko_rows() + [
        Row.build("few-new-thirds", {"bins3": 1}, "<=", F(1, 2)),
        Row.build(
            "cost-twothirds",
            {"ratio": 4, "bins7": -4, "bins3": -4, "s2": 4, "s1": 4},
            ">=", 3,
        ),
    ]
    return Program("ko-case1", KO_VARIABLES, tuple(rows))


def _ko_case2() -> Program:
    rows = _ko_rows() + [
        Row.build("many-new-thirds", {"bins3": 1}, ">=", F(1, 2)),
        Row.build(
            "cost-twothirds",
            {"ratio": 2, "bins7": -2, "bins3": -1, "s2": 2, "s1": 2},
            ">=", 2,
        ),
    ]
    return Program("ko-case2", KO_VARIABLES, tuple(rows))


SP_VARIABLES = (
    "f69", "f15", "f58t1", "f14t1", "f57t2", "f4t2", "f13t2", "f56t3",
    "f34t3", "f12t3", "f5t4", "f24t4", "f1t4", "t13", "t4",
    "bins4", "bins3", "sm3", "lg3", "ratio",
)


def _sp() -> Program:
    rows = [
        Row.build("stop-mix", {"sm3": 8, "lg3": 15}, "==", 12),
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
    ]
    return Program("sp", SP_VARIABLES, tuple(rows))


CLCBP2_VARIABLES = ("e1", "e2", "tb1", "tb2", "ratio")
CLCBP3_VARIABLES = ("e1", "e2", "e3", "e_all", "tb1", "tb2", "ratio")


def _clcbp2_rows():
    return [
        Row.build("items", {"e1": 1, "e2": 2}, "==", 1),
        Row.build("skew", {"e1": 1, "e2": -2}, "<=", 0),
        Row.build("cost-tiny", {"e1": 1, "e2": 1}, "<=", (-1, 1)),
        Row.build(
            "cost-sixtenths",
            {"e2": 1, "tb1": (1, -1), "tb2": (2, -1)},
            "<=", (0, 0),
        ),
        Row.build("third-pairs", {"tb2": 1, "tb1": -1}, "<=", 0),
    ]


def _clcbp2_case1() -> Program:
    rows = _clcbp2_rows() + [
        Row.build("balance", {"e1": 1, "e2": -1}, "<=", 0),
        Row.build("t-count", {"tb1": 1, "tb2": 1, "e2": -2}, "==", 0),
        Row.build(
            "cost-twothirds",
            {"e2": (1, F(-1, 2)), "tb1": (1, F(-1, 2)), "tb2": (1, -1)},
            "<=", (0, 0),
        ),
    ]
    return Program("clcbp2-case1", CLCBP2_VARIABLES, tuple(rows))


def _clcbp2_case2() -> Program:
    rows = _clcbp2_rows() + [
        Row.build("balance", {"e2": 1, "e1": -1}, "<=", 0),
        Row.build("t-count", {"tb1": 1, "tb2": 1, "e1": -2}, "==", 0),
        Row.build(
            "cost-twothirds",
            {"e2": (1, -1), "tb1": (1, F(-1, 2)), "tb2": (1, -1),
             "e1": (0, F(1, 2))},
            "<=", (0, 0),
        ),
    ]
    return Program("clcbp2-case2", CLCBP2_VARIABLES, tuple(rows))


def _clcbp3_rows():
    return [
        Row.build("items", {"e1": 1, "e2": 2, "e3": 3}, "==", 1),
        Row.build("e-total", {"e_all": 1, "e1": -1, "e2": -1, "e3": -1}, "==", 0),
        Row.build("cost-tiny", {"e_all": 2}, "<=", (-1, 1)),
        Row.build("third-pairs", {"tb2": 1, "tb1": -1}, "<=", 0),
        Row.build(
            "cost-twothirds",
            {"e3": 1, "tb1": (1, F(-1, 2)), "tb2": (1, -1)},
            "<=", (0, 0),
        ),
        Row.build(
            "cost-sixtenths",
            {"e3": 1, "tb1": (1, -1), "tb2": (2, -1)},
            "<=", (0, 0),
        ),
    ]


def _clcbp3_case1() -> Program:
    rows = _clcbp3_rows() + [
        Row.build("stop-low", {"tb1": 1, "tb2": 1, "e3": 6}, ">=", 2),
        Row.build("stop-tie", {"tb1": 2, "tb2": 3, "e3": -6}, "==", 0),
    ]
    return Program("clcbp3-case1", CLCBP3_VARIABLES, tuple(rows))


def _clcbp3_case2() -> Program:
    rows = _clcbp3_rows() + [
        Row.build("stop-low", {"tb1": 1, "tb2": 1, "e3": 6}, "<=", 2),
        Row.build("stop-tie", {"tb1": 3, "tb2": 4}, "==", 2),
    ]
    return Program("clcbp3-case2", CLCBP3_VARIABLES, tuple(rows))


_BUILTINS = {
    "ko-case1": _ko_case1,
    "ko-case2": _ko_case2,
    "sp": _sp,
    "clcbp2-case1": _clcbp2_case1,
    "clcbp2-case2": _clcbp2_case2,
    "clcbp3-case1": _clcbp3_case1,
    "clcbp3-case2": _clcbp3_case2,
}

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


def builtin_program_ids() -> list[str]:
    return list(_BUILTINS)


def builtin_program(program_id: str) -> Program:
    try:
        return _BUILTINS[program_id]()
    except KeyError:
        raise UnknownProgram(program_id) from None


def ko_certificate_suite() -> list[Certificate]:
    """The three multiplier combinations proving the known-opt bounds."""
    case1 = builtin_program("ko-case1")
    case2 = builtin_program("ko-case2")
    mix_target = Row.build(
        "mix",
        {"s46": 2, "s24t1": 2, "s1t2": 2, "t2": 2, "s2t2": 2, "s1": -2,
         "s3": -1, "s2": -2, "bins7": 3, "bins3": 2, "ratio": 1},
        ">=", 4,
    )
    mix_rows = [
        (case1.row("items-thirds"), F(2)),
        (case1.row("items-sevenths"), F(1)),
        (case1.row("bins7-def"), F(3)),
        (case1.row("bins3-def"), F(2)),
        (case1.row("cost-fourfifths"), F(1)),
    ]
    certificates = [Certificate("five-row-mix", tuple(mix_rows), mix_target)]
    certificates.append(
        Certificate(
            "ko-case1-bound",
            (
                (case1.row("cost-bigfill"), F(2)),
                (case1.row("cost-halves"), F(20)),
                (case1.row("cost-twothirds"), F(5)),
                (mix_target, F(10)),
            ),
            Row.build("case1-final", {"ratio": 62, "s3": -10}, ">=", 87),
        )
    )
    certificates.append(
        Certificate(
            "ko-case2-bound",
            (
                (case2.row("cost-units"), F(1)),
                (case2.row("cost-halves"), F(4)),
                (case2.row("cost-twothirds"), F(2)),
                (mix_target, F(2)),
            ),
            Row.build("case2-final", {"ratio": 12, "s3": -2}, ">=", 17),
        )
    )
    return certificates
