"""Acceptance suite: one test per criterion, each printing a PASS line.

Criterion 8's wave-two stop disjunction is asserted in the corrected form
(either 3*Z1 + 4*Z2 <= 2M, or 2*Z1 + 3*Z2 <= 6*X3 <= 2M): the continuation
that runs after the first trigger grows Z1 + Z2 past the trigger-time bound,
so the trigger-time inequality cannot survive to the end of the wave; the
final guarantee is the pair above.  See the project notes for the analysis.
"""

import itertools
import json
import time
from fractions import Fraction as F

import pytest

from packbound.algorithms import ONE_D_BASELINES
from packbound.cli import main as cli_main
from packbound.exact import rat
from packbound.mathprog import (
    bisect_min_r,
    builtin_program,
    check_certificate,
    ko_certificate_suite,
    solve_min_r_exact,
)
from packbound.model import Item, VariantRules, validate_packing
from packbound.optoracle import OracleInstance, min_bins
from packbound.oracle import (
    AdaptiveOracle,
    NothingToObserve,
    ObservationPending,
    OracleConfig,
)
from packbound import clcbp, knownopt, squares
from packbound.shapes import KO, SP


def report(criterion, detail, elapsed, budget):
    assert elapsed < budget, f"criterion {criterion} took {elapsed:.1f}s (budget {budget}s)"
    print(f"ACCEPTANCE {criterion}: PASS ({detail}) [{elapsed:.2f}s]")


def test_criterion_1_exact_lp_optima():
    t0 = time.time()
    assert solve_min_r_exact(builtin_program("ko-case1")) == F(87, 62)
    assert solve_min_r_exact(builtin_program("ko-case2")) == F(17, 12)
    report(1, "ko optima 87/62 and 17/12 exact", time.time() - t0, 1.0)


def test_criterion_2_certificate_reproduction():
    t0 = time.time()
    derived = {}
    for cert in ko_certificate_suite():
        derived[cert.name] = check_certificate(cert)
    mix = derived["five-row-mix"]
    assert dict(mix.coeffs) == {
        "s46": (F(2), F(0)), "s24t1": (F(2), F(0)), "s1t2": (F(2), F(0)),
        "t2": (F(2), F(0)), "s2t2": (F(2), F(0)), "s1": (F(-2), F(0)),
        "s3": (F(-1), F(0)), "s2": (F(-2), F(0)), "bins7": (F(3), F(0)),
        "bins3": (F(2), F(0)), "ratio": (F(1), F(0)),
    }
    assert mix.const == (F(4), F(0)) and mix.relation == ">="
    one = derived["ko-case1-bound"]
    assert dict(one.coeffs) == {"ratio": (F(62), F(0)), "s3": (F(-10), F(0))}
    assert one.const == (F(87), F(0))
    two = derived["ko-case2-bound"]
    assert dict(two.coeffs) == {"ratio": (F(12), F(0)), "s3": (F(-2), F(0))}
    assert two.const == (F(17), F(0))
    report(2, "mix row, 62R-10*s3>=87, 12R-2*s3>=17 reproduced", time.time() - t0, 1.0)


def test_criterion_3_bilinear_bounds():
    t0 = time.time()
    tol = F(1, 10**9)
    lo, hi = bisect_min_r(builtin_program("sp"), tol)
    assert hi - lo <= tol
    assert lo <= F("1.751544578513") <= hi
    targets = {
        "clcbp2-case1": F("1.7320507"),
        "clcbp2-case2": F("1.717668486"),
        "clcbp3-case1": F("1.902018"),
        "clcbp3-case2": F("1.80814287"),
    }
    for pid, printed in targets.items():
        lo, hi = bisect_min_r(builtin_program(pid), tol)
        assert hi - lo <= tol
        assert max(lo - printed, printed - hi, F(0)) <= F(1, 10**6), pid
    report(3, "sp bracket contains 1.751544578513; clcbp values within 1e-6",
           time.time() - t0, 30.0)


def _drive_baseline(algorithm_id, k, n):
    """Observation pattern a 1-D baseline produces on adaptive sevenths."""
    from packbound.algorithms import make_session

    oracle = AdaptiveOracle(OracleConfig(k, n))
    session = make_session(algorithm_id, VariantRules("one-d"))
    for i in range(n):
        a = oracle.next_value()
        item = Item(i, rat(F(1, 7)) + a)
        pre = session.cost
        placement = session.place(item)
        oracle.observe(placement.bin_index < pre)
    return oracle


def test_criterion_4_oracle_property_suite():
    t0 = time.time()
    combos = 0
    for k, n in itertools.product((10, 20), (8, 16)):
        oracles = []
        for pattern in ([True] * n, [False] * n, [i % 2 == 0 for i in range(n)]):
            oracle = AdaptiveOracle(OracleConfig(k, n))
            for ans in pattern:
                oracle.next_value()
                oracle.observe(ans)
            oracles.append(oracle)
        for algo in ONE_D_BASELINES:
            oracles.append(_drive_baseline(algo, k, n))
        for oracle in oracles:
            combos += 1
            bound = F(1, k**4)
            sep = oracle.separator()
            smalls = [e for e in oracle.emitted if e.small]
            larges = [e for e in oracle.emitted if not e.small]
            for e in oracle.emitted:
                assert 0 < e.value < bound
            for s, l in itertools.product(smalls, larges):
                assert l.value > s.value * (k * k)
            for s in smalls:
                assert s.value < sep.gamma
            for l in larges:
                assert l.value > sep.gamma
    # protocol discipline
    oracle = AdaptiveOracle(OracleConfig(10, 4))
    with pytest.raises(NothingToObserve):
        oracle.observe(True)
    oracle.next_value()
    with pytest.raises(ObservationPending):
        oracle.next_value()
    report(4, f"{combos} oracle runs: range, k^2 separation, strict gamma",
           time.time() - t0, 10.0)


def test_criterion_5_ko_ground_truth():
    t0 = time.time()
    for algo, m in itertools.product(ONE_D_BASELINES, (4, 8)):
        run = knownopt.run_full(algo, m)
        assert len(run.scenarios) == 5
        for sc in run.scenarios:
            assert sc.opt_packing.cost == m, (algo, m, sc.scenario)
            assert validate_packing(sc.opt_packing) == []
            items = tuple(it for b in sc.opt_packing.bins for it, _ in b)
            result = min_bins(OracleInstance(items, sc.opt_packing.rules))
            assert result.proven and result.count == m, (algo, m, sc.scenario)
    report(5, "oracle proves OPT = M for 4 baselines x M in {4,8} x 5 scenarios",
           time.time() - t0, 120.0)


def test_criterion_6_forced_cost_equalities():
    t0 = time.time()
    for algo, m in itertools.product(ONE_D_BASELINES, (4, 8)):
        run = knownopt.run_full(algo, m)
        by_name = {sc.scenario: sc for sc in run.scenarios}
        bins7, bins3 = run.census["bins7"], run.census["bins3"]
        assert by_name["big-fill"].alg_cost == bins7 + (m - -(-bins7 // 6))
        assert by_name["units"].alg_cost == bins7 + bins3 + m // 2
    for m in (10, 20):
        run = squares.run_full("shelf-first-fit", m)
        sc1 = run.scenarios[0]
        bins4 = run.census["bins4"]
        assert sc1.alg_cost == bins4 + -(-(m - bins4) // 5)
    for t, m in itertools.product((2, 3), (6, 12)):
        run = clcbp.run_full("ccff", t, m)
        sc = run.scenarios[0]
        x = sum(run.census[f"x{j}"] for j in range(1, t + 1))
        assert sc.alg_cost == x + (m - x) // t
    report(6, "forced equalities hold for every baseline at desk scale",
           time.time() - t0, 60.0)


def test_criterion_7_geometry():
    t0 = time.time()
    for m in (10, 20):
        run = squares.run_full("shelf-first-fit", m)
        c = run.census
        by_name = {sc.scenario: sc for sc in run.scenarios}
        for sc in run.scenarios:
            assert validate_packing(sc.opt_packing) == [], (m, sc.scenario)
        assert F(by_name["three-quarter-fill"].opt_upper) <= F(m, 5) - F(4 * c["bins4"], 45) + 2
        assert (F(by_name["six-tenths"].opt_upper)
                <= F(m, 9) + F(7 * c["sm3"], 27) + F(7 * c["lg3"], 27) + 3)
        assert F(by_name["short-two-thirds"].opt_upper) <= F(c["sm3"], 3) + F(c["lg3"], 4) + 2
    report(7, "layout packings validate; costs within the three formulas",
           time.time() - t0, 10.0)


def test_criterion_8_census_identities():
    t0 = time.time()
    # each run checks its census against the rows its band table implies
    runs = [(knownopt.run_full(algo, m), KO, ())
            for algo, m in itertools.product(ONE_D_BASELINES, (4, 8))]
    runs += [(squares.run_full("shelf-first-fit", m), SP, ("census-stop-sandwich",))
             for m in (10, 20)]
    for run, table, extra in runs:
        passed = {c.name: c.passed for c in run.checks}
        for name in [row.check for row in table.rows] + list(extra):
            assert passed.get(name), (run.algorithm_id, run.m, name)
    for m in (6, 12):
        run = clcbp.run_full("ccff", 3, m)
        c = run.census
        z1, z2, x3 = c["z1"], c["z2"], c["x3"]
        assert (3 * z1 + 4 * z2 <= 2 * m) or (2 * z1 + 3 * z2 <= 6 * x3 <= 2 * m)
    report(8, "ko and sp census checks, clcbp stop disjunction across matrix",
           time.time() - t0, 60.0)


def test_criterion_9_asymptotic_trend():
    t0 = time.time()
    frozen = {
        "first-fit": (F(13, 8), F(5, 3)),
        "next-fit": (F(13, 8), F(5, 3)),
        "best-fit": (F(13, 8), F(5, 3)),
        "harmonic-5": (F(7, 4), F(5, 3)),
    }
    for algo, (at8, at48) in frozen.items():
        small = max(sc.ratio for sc in
                    knownopt.run_full(algo, 8).scenarios)
        large = max(sc.ratio for sc in
                    knownopt.run_full(algo, 48).scenarios)
        assert (small, large) == (at8, at48), algo
    assert frozen["first-fit"][1] > frozen["first-fit"][0]
    assert frozen["first-fit"][1] > F(13, 10)
    report(9, "first-fit 13/8 -> 5/3 across M=8..48; regression pins hold",
           time.time() - t0, 60.0)


def test_criterion_10_determinism(capsys, tmp_path):
    t0 = time.time()
    for argv in (
        ["duel", "--variant", "ko", "--algorithm", "first-fit", "--m", "8"],
        ["duel", "--variant", "sp", "--algorithm", "shelf-first-fit", "--m", "10"],
        ["duel", "--variant", "clcbp", "--t", "2", "--algorithm", "ccff", "--m", "6"],
    ):
        assert cli_main(argv) == 0
        first = capsys.readouterr().out
        assert cli_main(argv) == 0
        second = capsys.readouterr().out
        assert first == second and first
        json.loads(first)  # well-formed
    elapsed = time.time() - t0
    with capsys.disabled():
        print(f"\nACCEPTANCE 10: PASS (duel reports byte-identical) [{elapsed:.2f}s]")
