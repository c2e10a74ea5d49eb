"""Command-line entry point: bounds | duel | verify | oracle.

Exit codes: 0 success, 2 cross-check failure, 3 invalid configuration,
4 solver failure.  Reports are deterministic byte for byte for a given
(variant, algorithm, M): the adversary is adaptive-deterministic against
deterministic opponents, so there is no seed anywhere.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import clcbp, knownopt, squares
from .algorithms import IllegalPlacement, UnknownAlgorithm, algorithm_ids
from .exact import decimal_str, fraction_str, parse_rational
from .mathprog import (
    REFERENCE_TARGETS,
    Infeasible,
    NoUpperBound,
    NonMonotoneDetected,
    Unbounded,
    bisect_min_r,
    builtin_program,
    builtin_program_ids,
    check_certificate,
    ko_certificate_suite,
    solve_min_r_exact,
)
from .model import rules_from_json, items_from_json, packing_to_json
from .optoracle import OracleInstance, min_bins
from .reports import checks_pass, report_to_json

EXIT_OK = 0
EXIT_CROSSCHECK = 2
EXIT_CONFIG = 3
EXIT_SOLVER = 4


def _fail_config(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_CONFIG


# -- bounds -------------------------------------------------------------------


def cmd_bounds(args) -> int:
    tol = parse_rational(args.tol)
    rows = []
    ok = True
    try:
        for pid in builtin_program_ids():
            program = builtin_program(pid)
            target, mode = REFERENCE_TARGETS[pid]
            if mode == "exact":
                value = solve_min_r_exact(program)
                computed = fraction_str(value)
                passed = value == parse_rational(target)
                decimal = decimal_str(value)
            else:
                lo, hi = bisect_min_r(program, tol)
                printed = Fraction(target)
                if mode == "bracket":
                    passed = lo <= printed <= hi
                else:
                    passed = max(lo - printed, printed - hi, Fraction(0)) <= Fraction(1, 10**6)
                computed = f"[{fraction_str(lo)}, {fraction_str(hi)}]"
                decimal = f"[{decimal_str(lo)}, {decimal_str(hi)}]"
            ok &= passed
            rows.append({
                "program": pid,
                "reference": target,
                "computed": computed,
                "decimal": decimal,
                "status": "OK" if passed else "MISMATCH",
            })
        for cert in ko_certificate_suite():
            program = builtin_program("ko-case1")
            try:
                derived = check_certificate(program, cert)
                rows.append({
                    "program": f"certificate:{cert.name}",
                    "reference": cert.target.render(),
                    "computed": derived.render(),
                    "decimal": "",
                    "status": "OK",
                })
            except AssertionError as exc:
                ok = False
                rows.append({
                    "program": f"certificate:{cert.name}",
                    "reference": cert.target.render(),
                    "computed": str(exc),
                    "decimal": "",
                    "status": "MISMATCH",
                })
    except (Infeasible, Unbounded, NonMonotoneDetected, NoUpperBound) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER

    if args.json:
        print(report_to_json({"bounds": rows}))
    elif args.csv:
        print("program,reference,computed,status")
        for r in rows:
            print(f"{r['program']},{r['reference']},\"{r['computed']}\",{r['status']}")
    else:
        width = max(len(r["program"]) for r in rows)
        for r in rows:
            print(f"{r['program']:{width}s}  {r['reference']:<22s}  "
                  f"{r['decimal'] or r['computed']:<32s}  {r['status']}")
    return EXIT_OK if ok else EXIT_CROSSCHECK


# -- duel ---------------------------------------------------------------------


def _ko_report(run) -> dict:
    return {
        "variant": "ko",
        "algorithm": run.algorithm_id,
        "m": run.m,
        "census": {**run.census.category_counts(),
                   "bins7": run.census.bins7, "bins3": run.census.bins3},
        "thresholds": {
            "sevenths": str(run.sevenths_threshold),
            "thirds": str(run.thirds_threshold),
        },
        "scenarios": [sc.to_json() for sc in run.scenarios],
        "crossChecks": [
            {"name": c.name, "pass": c.passed, "detail": c.detail}
            for c in run.checks
        ],
        "oracleTraces": run.traces,
    }


def _sp_report(run, include_packings=True) -> dict:
    return {
        "variant": "sp",
        "algorithm": run.algorithm_id,
        "m": run.m,
        "census": {**run.census.category_counts(),
                   "bins4": run.census.bins4, "bins3": run.census.bins3,
                   "smallThirds": run.census.sm3, "largeThirds": run.census.lg3},
        "thresholds": {
            "quarters": str(run.quarters_threshold),
            "thirds": str(run.thirds_threshold),
        },
        "scenarios": [sc.to_json(include_packings=include_packings)
                      for sc in run.scenarios],
        "crossChecks": [
            {"name": c.name, "pass": c.passed, "detail": c.detail}
            for c in run.checks
        ],
        "oracleTraces": run.traces,
    }


def _clcbp_report(run) -> dict:
    return {
        "variant": "clcbp",
        "t": run.t,
        "algorithm": run.algorithm_id,
        "m": run.m,
        "census": {
            "tinyBinsByCount": {str(j): n for j, n in run.census.per_count.items()},
            "tinyBins": run.census.tiny_bins,
            "thirdBins": run.census.z1,
            "pairedThirdBins": run.census.z2,
        },
        "closedFormBounds": {
            name: {"exact": fraction_str(v), "decimal": decimal_str(v)}
            for name, v in run.closed_form.items()
        },
        "colorLedger": run.ledger.summary() if run.ledger else None,
        "scenarios": [sc.to_json() for sc in run.scenarios],
        "crossChecks": [
            {"name": c.name, "pass": c.passed, "detail": c.detail}
            for c in run.checks
        ],
        "oracleTraces": run.traces,
    }


def cmd_duel(args) -> int:
    try:
        if args.variant == "ko":
            if args.m % 4:
                return _fail_config("ko requires M divisible by 4")
            run = knownopt.run_full(args.algorithm, args.m)
            report = _ko_report(run)
        elif args.variant == "sp":
            if args.m % 2:
                return _fail_config("sp requires even M")
            run = squares.run_full(args.algorithm, args.m)
            report = _sp_report(run)
        elif args.variant == "clcbp":
            if args.t not in (2, 3):
                return _fail_config("clcbp requires --t 2 or 3")
            if args.m % 6:
                return _fail_config("clcbp requires M divisible by 6")
            run = clcbp.run_full(args.algorithm, args.t, args.m)
            report = _clcbp_report(run)
        else:
            return _fail_config(f"unknown variant {args.variant}")
    except UnknownAlgorithm:
        return _fail_config(
            f"unknown algorithm {args.algorithm!r}; known: {', '.join(algorithm_ids())}"
        )
    except IllegalPlacement as exc:
        # the algorithm broke the packing rules: its failure, not the adversary's
        print(f"algorithm failure: {exc}", file=sys.stderr)
        return EXIT_CROSSCHECK
    except ValueError as exc:
        return _fail_config(str(exc))

    all_pass = all(c["pass"] for c in report["crossChecks"]) and all(
        c["pass"] for sc in report["scenarios"] for c in sc["crossChecks"]
    )
    text = report_to_json(report, out_path=args.out)
    if not args.out:
        print(text)
    return EXIT_OK if all_pass else EXIT_CROSSCHECK


# -- verify -------------------------------------------------------------------


def _verify_oracle_suite() -> list[dict]:
    from .oracle import AdaptiveOracle, OracleConfig

    checks = []
    for k in (10, 20):
        for n in (8, 16):
            for name, pattern in (
                ("all-small", [True] * n),
                ("all-large", [False] * n),
                ("alternating", [i % 2 == 0 for i in range(n)]),
            ):
                oracle = AdaptiveOracle(OracleConfig(k, n))
                for ans in pattern:
                    oracle.next_value()
                    oracle.observe(ans)
                sep = oracle.separator()
                good = sep.ratio_exponent >= 2 and all(
                    (e.value < sep.gamma) == bool(e.small) for e in oracle.emitted
                )
                checks.append({"name": f"oracle-k{k}-n{n}-{name}", "pass": good})
    return checks


def _verify_geometry_suite() -> list[dict]:
    out = []
    for m in (4, 10, 20):
        run = squares.run_full("shelf-first-fit", m)
        ok = checks_pass(run.checks) and all(
            checks_pass(sc.checks) for sc in run.scenarios
        )
        out.append({"name": f"sp-shelf-first-fit-m{m}", "pass": ok})
    return out


def _verify_variant_suite() -> list[dict]:
    out = []
    for algo in ("next-fit", "first-fit", "best-fit", "harmonic-5"):
        for m in (4, 8):
            run = knownopt.run_full(algo, m)
            ok = checks_pass(run.checks) and all(
                checks_pass(sc.checks) for sc in run.scenarios
            )
            out.append({"name": f"ko-{algo}-m{m}", "pass": ok})
    for t in (2, 3):
        for m in (6, 12):
            run = clcbp.run_full("ccff", t, m)
            ok = checks_pass(run.checks) and all(
                checks_pass(sc.checks) for sc in run.scenarios
            )
            out.append({"name": f"clcbp{t}-ccff-m{m}", "pass": ok})
    return out


def _verify_certificates_suite() -> list[dict]:
    out = []
    program = builtin_program("ko-case1")
    for cert in ko_certificate_suite():
        try:
            check_certificate(program, cert)
            out.append({"name": f"certificate-{cert.name}", "pass": True})
        except AssertionError:
            out.append({"name": f"certificate-{cert.name}", "pass": False})
    out.append({
        "name": "ko-optima",
        "pass": solve_min_r_exact(builtin_program("ko-case1")) == Fraction(87, 62)
        and solve_min_r_exact(builtin_program("ko-case2")) == Fraction(17, 12),
    })
    return out


def _verify_determinism_suite() -> list[dict]:
    run_a = knownopt.run_full("first-fit", 8)
    run_b = knownopt.run_full("first-fit", 8)
    return [{
        "name": "ko-first-fit-m8-byte-identical",
        "pass": report_to_json(_ko_report(run_a)) == report_to_json(_ko_report(run_b)),
    }]


VERIFY_SUITES = {
    "oracle": _verify_oracle_suite,
    "geometry": _verify_geometry_suite,
    "census": _verify_variant_suite,
    "certificates": _verify_certificates_suite,
    "determinism": _verify_determinism_suite,
}


def cmd_verify(args) -> int:
    names = [args.only] if args.only else list(VERIFY_SUITES)
    if any(n not in VERIFY_SUITES for n in names):
        return _fail_config(
            f"unknown suite; choose from {', '.join(VERIFY_SUITES)}"
        )
    suites = []
    ok = True
    for name in names:
        checks = VERIFY_SUITES[name]()
        ok &= all(c["pass"] for c in checks)
        suites.append({"suite": name, "checks": checks})
    print(report_to_json({"suites": suites, "pass": ok}))
    return EXIT_OK if ok else EXIT_CROSSCHECK


# -- oracle -------------------------------------------------------------------


def cmd_oracle(args) -> int:
    try:
        with open(args.instance) as fh:
            payload = json.load(fh)
        rules = rules_from_json(payload["rules"])
        items = tuple(item for item, _ in items_from_json(payload["items"]))
    except (OSError, KeyError, ValueError) as exc:
        return _fail_config(f"bad instance file: {exc}")
    if rules.is_geometric:
        return _fail_config("exact search covers one-dimensional variants only")
    try:
        result = min_bins(OracleInstance(items, rules, node_budget=args.budget))
    except Exception as exc:  # search-level failure
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    print(report_to_json({
        "minBins": result.count,
        "proven": result.proven,
        "nodes": result.nodes,
        "witness": packing_to_json(result.witness),
    }))
    return EXIT_OK if result.proven else EXIT_CROSSCHECK


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="packbound",
        description="Adaptive lower-bound laboratory for online bin packing variants",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="solve the built-in bound programs")
    p.add_argument("--tol", default="1/1000000000", help="bisection tolerance")
    p.add_argument("--json", action="store_true")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("duel", help="run an adversary against an algorithm")
    p.add_argument("--variant", required=True, choices=("ko", "sp", "clcbp"))
    p.add_argument("--algorithm", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--out")
    p.set_defaults(func=cmd_duel)

    p = sub.add_parser("verify", help="run the invariant suites")
    p.add_argument("--only", help="oracle|geometry|census|certificates|determinism")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="exact minimum bins for an instance file")
    p.add_argument("--instance", required=True)
    p.add_argument("--budget", type=int, default=None,
                   help="search node budget (default: PACKBOUND_NODE_BUDGET, else 2000000)")
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
