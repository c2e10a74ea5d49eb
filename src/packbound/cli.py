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
from .adversary import CensusGap
from .algorithms import IllegalPlacement, UnknownAlgorithm, algorithm_ids, feed, fork_replay
from .exact import decimal_str, fraction_str, parse_rational
from .mathprog import (
    REFERENCE_TARGETS,
    Infeasible,
    MismatchedTarget,
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
from .optoracle import DEFAULT_NODE_BUDGET, OracleInstance, min_bins
from .reports import Check, CrossCheckFailure, checks_pass, report_to_json

EXIT_OK = 0
EXIT_CROSSCHECK = 2
EXIT_CONFIG = 3
EXIT_SOLVER = 4


def _fail_config(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_CONFIG


# -- bounds -------------------------------------------------------------------


def _replayed_certificates():
    """Yield (certificate, the derived row rendered or the mismatch, whether
    it matched) for each hand multiplier certificate."""
    for cert in ko_certificate_suite():
        try:
            yield cert, check_certificate(cert).render(), True
        except MismatchedTarget as exc:
            yield cert, str(exc), False


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
        for cert, computed, passed in _replayed_certificates():
            ok &= passed
            rows.append({
                "program": f"certificate:{cert.name}",
                "reference": cert.target.render(),
                "computed": computed,
                "decimal": "",
                "status": "OK" if passed else "MISMATCH",
            })
    except (Infeasible, Unbounded, NonMonotoneDetected, NoUpperBound) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER

    if args.json:
        print(report_to_json({"bounds": rows}))
    else:
        width = max(len(r["program"]) for r in rows)
        for r in rows:
            print(f"{r['program']:{width}s}  {r['reference']:<22s}  "
                  f"{r['decimal'] or r['computed']:<32s}  {r['status']}")
    return EXIT_OK if ok else EXIT_CROSSCHECK


# -- duel ---------------------------------------------------------------------


def _ko_extras(run) -> dict:
    c = run.census
    return {
        "census": {**c.category_counts(), "bins7": c.bins7, "bins3": c.bins3},
        "thresholds": {
            "sevenths": str(run.sevenths_threshold),
            "thirds": str(run.thirds_threshold),
        },
    }


def _sp_extras(run) -> dict:
    c = run.census
    return {
        "census": {**c.category_counts(), "bins4": c.bins4, "bins3": c.bins3,
                   "smallThirds": c.sm3, "largeThirds": c.lg3},
        "thresholds": {
            "quarters": str(run.quarters_threshold),
            "thirds": str(run.thirds_threshold),
        },
    }


def _clcbp_extras(run) -> dict:
    c = run.census
    return {
        "t": run.t,
        "census": {
            "tinyBinsByCount": {str(j): n for j, n in c.per_count.items()},
            "tinyBins": c.tiny_bins,
            "thirdBins": c.z1,
            "pairedThirdBins": c.z2,
        },
        "closedFormBounds": {
            name: {"exact": fraction_str(v), "decimal": decimal_str(v)}
            for name, v in run.closed_form.items()
        },
        "colorLedger": run.ledger.summary() if run.ledger else None,
    }


# variant -> (play the duel for the parsed arguments, the variant's own
# report keys, whether the report carries the offline packings).  The lambdas
# look run_full up on its module at call time.
DUELS = {
    "ko": (lambda args: knownopt.run_full(args.algorithm, args.m), _ko_extras, False),
    "sp": (lambda args: squares.run_full(args.algorithm, args.m), _sp_extras, True),
    "clcbp": (lambda args: clcbp.run_full(args.algorithm, args.t, args.m),
              _clcbp_extras, False),
}

# what a duel raises when a run goes wrong after a valid configuration
DUEL_FAILURES = (IllegalPlacement, CrossCheckFailure, CensusGap)


def _failure_text(exc: Exception) -> str:
    # an illegal placement is the algorithm's failure, not the adversary's
    kind = "algorithm failure" if isinstance(exc, IllegalPlacement) else "cross-check failure"
    return f"{kind}: {exc}"


def _duel_report(variant: str, run) -> dict:
    _, extras, packings = DUELS[variant]
    return {
        "variant": variant,
        "algorithm": run.algorithm_id,
        "m": run.m,
        **extras(run),
        "scenarios": [sc.to_json(include_packings=packings) for sc in run.scenarios],
        "crossChecks": [c.to_json() for c in run.checks],
        "oracleTraces": run.traces,
    }


def _run_passes(run) -> bool:
    return checks_pass(run.checks) and all(checks_pass(sc.checks) for sc in run.scenarios)


def cmd_duel(args) -> int:
    play, _, _ = DUELS[args.variant]
    try:
        run = play(args)
    except UnknownAlgorithm:
        return _fail_config(
            f"unknown algorithm {args.algorithm!r}; known: {', '.join(algorithm_ids())}"
        )
    except DUEL_FAILURES as exc:
        print(_failure_text(exc), file=sys.stderr)
        return EXIT_CROSSCHECK
    except ValueError as exc:
        return _fail_config(str(exc))

    text = report_to_json(_duel_report(args.variant, run), out_path=args.out)
    if not args.out:
        print(text)
    return EXIT_OK if _run_passes(run) else EXIT_CROSSCHECK


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
        out.append({"name": f"sp-shelf-first-fit-m{m}", "pass": _run_passes(run)})
    return out


def _verify_variant_suite() -> list[dict]:
    out = []
    for algo in ("next-fit", "first-fit", "best-fit", "harmonic-5"):
        for m in (4, 8):
            run = knownopt.run_full(algo, m)
            out.append({"name": f"ko-{algo}-m{m}", "pass": _run_passes(run)})
    for t in (2, 3):
        for m in (6, 12):
            run = clcbp.run_full("ccff", t, m)
            out.append({"name": f"clcbp{t}-ccff-m{m}", "pass": _run_passes(run)})
    return out


def _verify_certificates_suite() -> list[dict]:
    out = [{"name": f"certificate-{cert.name}", "pass": passed}
           for cert, _, passed in _replayed_certificates()]
    out.append({
        "name": "ko-optima",
        "pass": solve_min_r_exact(builtin_program("ko-case1")) == Fraction(87, 62)
        and solve_min_r_exact(builtin_program("ko-case2")) == Fraction(17, 12),
    })
    return out


def _fork_matches_replay(run, scenario: str, prefix: list) -> bool:
    """Feed a scenario's items to a prefix session, then to its fork made
    before them, and to a fresh replay of prefix + items: all three must place
    every item alike, at the cost the run reported."""
    outcome = next(sc for sc in run.scenarios if sc.scenario == scenario)
    rules = outcome.opt_packing.rules
    prefix_ids = {it.ident for it in prefix}
    items = sorted((it for contents in outcome.opt_packing.bins for it, _ in contents
                    if it.ident not in prefix_ids), key=lambda it: it.ident)
    live = fork_replay(run.algorithm_id, rules, prefix)
    branch = live.fork()
    try:
        feed(live, items)
        feed(branch, items)  # a fork sharing state with `live` diverges here
    except IllegalPlacement:
        return False
    replay = fork_replay(run.algorithm_id, rules, prefix + items)
    return (live.transcript == branch.transcript == replay.transcript
            and branch.cost == outcome.alg_cost)


def _verify_determinism_suite() -> list[dict]:
    run_a = knownopt.run_full("first-fit", 8)
    run_b = knownopt.run_full("first-fit", 8)
    sp = squares.run_full("shelf-first-fit", 10)
    cl = clcbp.run_full("ccff", 2, 6)
    return [{
        "name": "ko-first-fit-m8-byte-identical",
        "pass": report_to_json(_duel_report("ko", run_a))
        == report_to_json(_duel_report("ko", run_b)),
    }, {
        "name": "fork-matches-replay",
        "pass": _fork_matches_replay(run_a, "units", run_a.sevenths + run_a.thirds)
        and _fork_matches_replay(sp, "six-tenths", sp.quarters + sp.thirds)
        and _fork_matches_replay(cl, "six-tenths", cl.tinies + cl.thirds),
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
        try:
            checks = VERIFY_SUITES[name]()
        except DUEL_FAILURES as exc:
            # a suite that cannot finish is one failed check; the others still run
            checks = [Check(f"{name}-completes", False, _failure_text(exc)).to_json()]
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
    try:
        instance = OracleInstance(items, rules, node_budget=args.budget)
    except ValueError as exc:  # a geometric variant
        return _fail_config(str(exc))
    try:
        result = min_bins(instance)
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
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("duel", help="run an adversary against an algorithm")
    p.add_argument("--variant", required=True, choices=tuple(DUELS))
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
    p.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET,
                   help=f"search node budget (default {DEFAULT_NODE_BUDGET})")
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
