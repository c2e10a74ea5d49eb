"""Bound programs: exact optima, certificates, bisection brackets."""

from fractions import Fraction as F

import pytest

from packbound.mathprog import (
    Certificate,
    MismatchedTarget,
    NoUpperBound,
    Row,
    SignViolation,
    UnknownProgram,
    bisect_min_r,
    builtin_program,
    builtin_program_ids,
    check_certificate,
    combine_rows,
    feasible_at,
    _rows_for_lp,
    ko_certificate_suite,
    solve_min_r_exact,
)

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


class TestStructure:
    def test_program_ids(self):
        assert set(builtin_program_ids()) == {
            "ko-case1", "ko-case2", "sp",
            "clcbp2-case1", "clcbp2-case2", "clcbp3-case1", "clcbp3-case2",
        }
        with pytest.raises(UnknownProgram):
            builtin_program("nope")

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
        assert dict(row.coeffs) == {"e1": (F(1), F(0)), "e2": (F(2), F(0)),
                                    "e3": (F(3), F(0))}
        assert row.const == (F(1), F(0)) and row.relation == "=="


    def test_unknown_relation_raises(self):
        with pytest.raises(ValueError, match="relation"):
            Row.build("bad", {"x": 1}, "<", 1)

    def test_linear_solve_rejects_r_terms(self):
        trivial = builtin_program("ko-case1")
        for row in (Row.build("c", {"ratio": 1}, ">=", (1, 1)),
                    Row.build("d", {"ratio": (1, 1)}, ">=", 1)):
            with pytest.raises(ValueError, match="linear solve"):
                _rows_for_lp(type(trivial)("r-terms", ("ratio",), (row,)), None)


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

    def test_bisection_cross_validates_simplex(self):
        for pid, exact in (("ko-case1", F(87, 62)), ("ko-case2", F(17, 12))):
            lo, hi = bisect_min_r(builtin_program(pid), TOL)
            assert lo <= exact <= hi

    def test_no_upper_bound_detected(self):
        prog = type(builtin_program("sp"))(
            "impossible", ("x", "ratio"),
            (Row.build("bad", {"x": 1}, "<=", -1),),
        )
        with pytest.raises(NoUpperBound):
            bisect_min_r(prog, TOL)


class TestCertificates:
    def test_suite_reproduces_pinned_rows(self):
        suite = ko_certificate_suite()
        assert [c.name for c in suite] == [
            "five-row-mix", "ko-case1-bound", "ko-case2-bound",
        ]
        program = builtin_program("ko-case1")
        derived = {c.name: check_certificate(program, c) for c in suite}
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
            check_certificate(program, bad)


class TestEmpiricalCensusAgainstPrograms:
    """Normalized run censuses satisfy the program rows they model."""

    @pytest.mark.parametrize("algo", ["first-fit", "next-fit", "best-fit", "harmonic-5"])
    @pytest.mark.parametrize("m", [4, 8])
    def test_ko_census_satisfies_rows(self, algo, m):
        from packbound import knownopt

        run = knownopt.run_full(algo, m, verify_oracle=False)
        c = run.census
        by_name = {sc.scenario: sc for sc in run.scenarios}
        point = {name: F(count, m) for name, count in c.category_counts().items()}
        point["bins7"] = F(c.bins7, m)
        point["bins3"] = F(c.bins3, m)
        case = "ko-case1" if 2 * c.bins3 <= m else "ko-case2"
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
