"""Command-line entry point: bounds | duel | verify | oracle.

Exit codes: 0 success, 2 cross-check failure, 3 invalid configuration,
4 solver failure.  Reports are deterministic byte for byte for a given
(variant, algorithm, M): the adversary is adaptive-deterministic against
deterministic opponents, so there is no seed anywhere.  `duel` and the
`verify` duel suites start a duel alike, by its `DUELS` play.

Each command runs only the modules it needs: `oracle` the eager core
(`exact`, `model`, `algorithms`, `optoracle`, `reports`), `bounds` also
`mathprog` and `shapes`, a duel also its own adversary.  `_lazy` registers
`mathprog` and the adversaries in `sys.modules`, and a body runs when a
handler first reads one of its attributes: the benchmark's tracer looks
modules up there.  Its CPU-speed probe fires once per 5 ms of CPU time, and
each set-up child (the import and the parser) must record at least one.
Compiled from source, one records 4-8.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from fractions import Fraction

from .algorithms import (ONE_D_BASELINES, IllegalPlacement, UnknownAlgorithm, algorithm_ids, feed,
                         fork_replay)
from .exact import PrecisionError, decimal_str, fraction_str, parse_rational
from .model import rules_from_json, items_from_json, packing_to_json
from .optoracle import DEFAULT_NODE_BUDGET, OracleInstance, min_bins
from .reports import (CensusGap, Check, CrossCheckFailure, SequenceExhausted, checks_pass,
                      report_to_json)


def _lazy(name: str):
    """Submodule `name`; unless already imported, its body runs at its first attribute read."""
    full = f"{__package__}.{name}"
    if full not in sys.modules:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[full] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return sys.modules[full]


mathprog, knownopt, squares, clcbp = map(_lazy, ("mathprog", "knownopt", "squares", "clcbp"))

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
    for cert in mathprog.ko_certificate_suite():
        try:
            yield cert, mathprog.check_certificate(cert).render(), True
        except mathprog.MismatchedTarget as exc:
            yield cert, str(exc), False


def _threshold_json(threshold, printed: Fraction) -> dict:
    """The exact min R of a bisected program and, once proven, the printed
    reference minus it, to the digits `decimal_str` shows: the isolating
    interval is narrowed until both its ends give the same digits."""
    a, b = threshold.interval
    out = {"polynomial": list(threshold.polynomial),
           "interval": [fraction_str(a), fraction_str(b)], "proven": threshold.proven}
    if threshold.proven:
        for _ in range(200):
            a, b = threshold.interval
            if decimal_str(printed - a) == decimal_str(printed - b):
                break
            threshold = threshold.narrowed()
        out["reference_offset"] = decimal_str(printed - a)
    return out


# how close a whole bisected bracket must come to its printed reference value
AGREEMENT = Fraction(1, 10**6)


def cmd_bounds(args) -> int:
    try:
        tol = parse_rational(args.tol)
    except (ValueError, ZeroDivisionError):
        return _fail_config(f"--tol {args.tol!r} is not a rational number")
    if tol <= 0:
        return _fail_config(f"--tol: bisection tolerance must be positive, got {tol}")
    rows = []

    def row(program, reference, computed, decimal, passed) -> dict:
        rows.append({"program": program, "reference": reference, "computed": computed,
                     "decimal": decimal, "status": "OK" if passed else "MISMATCH"})
        return rows[-1]

    try:
        for pid in mathprog.builtin_program_ids():
            program = mathprog.builtin_program(pid)
            target, mode = mathprog.REFERENCE_TARGETS[pid]
            if mode == "exact":
                value = mathprog.solve_min_r_exact(program)
                computed = fraction_str(value)
                passed = value == parse_rational(target)
                decimal = decimal_str(value)
            else:
                lo, hi = mathprog.bisect_min_r(program, tol)
                printed = Fraction(target)
                if mode == "bracket":  # contains it and is at most AGREEMENT wide
                    passed = lo <= printed <= hi and hi - lo <= AGREEMENT
                else:  # both ends within AGREEMENT of it
                    passed = max(abs(lo - printed), abs(hi - printed)) <= AGREEMENT
                computed = f"[{fraction_str(lo)}, {fraction_str(hi)}]"
                decimal = f"[{decimal_str(lo)}, {decimal_str(hi)}]"
            program_row = row(pid, target, computed, decimal, passed)
            if args.json and mode != "exact":
                program_row["threshold"] = _threshold_json(
                    mathprog.exact_threshold(program, lo, hi), printed)
        for cert, computed, passed in _replayed_certificates():
            row(f"certificate:{cert.name}", cert.target.render(), computed, "", passed)
    except (mathprog.Infeasible, mathprog.Unbounded, mathprog.NonMonotoneDetected,
            mathprog.NoUpperBound) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER

    if args.json:
        print(report_to_json({"bounds": rows}))
    else:
        width = max(len(r["program"]) for r in rows)
        for r in rows:
            print(f"{r['program']:{width}s}  {r['reference']:<22s}  "
                  f"{r['decimal'] or r['computed']:<32s}  {r['status']}")
    return EXIT_OK if all(r["status"] == "OK" for r in rows) else EXIT_CROSSCHECK


# -- duel ---------------------------------------------------------------------


def _thresholds(run) -> dict:
    return {name: str(wave.oracle.separator().gamma) for name, wave in run.waves.items()}


def _census_extras(renames: dict):
    """The census, its variables renamed by `renames`, and the thresholds."""
    return lambda run: {"census": {renames.get(k, k): v for k, v in run.census.items()},
                        "thresholds": _thresholds(run)}


def _clcbp_extras(run) -> dict:
    c = run.census
    tinies = {str(j): c[f"x{j}"] for j in range(1, run.t + 1)}
    return {
        "t": run.t,
        "census": {
            "tinyBinsByCount": tinies,
            "tinyBins": sum(tinies.values()),
            "thirdBins": c["z1"],
            "pairedThirdBins": c["z2"],
        },
        "closedFormBounds": {
            name: {"exact": fraction_str(v), "decimal": decimal_str(v)}
            for name, v in run.closed_form.items()
        },
        "colorLedger": run.ledger,
    }


# variant -> (play the duel of (algorithm, m, t), the variant's own report
# keys, whether the report carries the offline packings).  The lambdas look
# run_full up on its module at call time.
DUELS = {
    "ko": (lambda algorithm, m, t: knownopt.run_full(algorithm, m), _census_extras({}), False),
    "sp": (lambda algorithm, m, t: squares.run_full(algorithm, m),
           _census_extras({"sm3": "smallThirds", "lg3": "largeThirds"}), True),
    "clcbp": (lambda algorithm, m, t: clcbp.run_full(algorithm, 2 if t is None else t, m),
              _clcbp_extras, False),
}

# what a duel raises when a run goes wrong after a valid configuration
DUEL_FAILURES = (IllegalPlacement, CrossCheckFailure, CensusGap, SequenceExhausted)


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
        "oracleTraces": {name: wave.oracle.trace() for name, wave in run.waves.items()},
    }


def _run_passes(run) -> bool:
    return checks_pass(run.checks) and all(checks_pass(sc.checks) for sc in run.scenarios)


def cmd_duel(args) -> int:
    if args.t is not None and args.variant != "clcbp":
        return _fail_config(f"--t applies to --variant clcbp only, not {args.variant}")
    play, _, _ = DUELS[args.variant]
    try:
        run = play(args.algorithm, args.m, args.t)
    except UnknownAlgorithm:
        return _fail_config(
            f"unknown algorithm {args.algorithm!r}; known: {', '.join(algorithm_ids())}"
        )
    except DUEL_FAILURES as exc:
        print(_failure_text(exc), file=sys.stderr)
        return EXIT_CROSSCHECK
    except ValueError as exc:
        return _fail_config(str(exc))

    print(report_to_json(_duel_report(args.variant, run)))
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


def _duel_suite(*duels):
    """The suite playing each (variant, t, algorithm, Ms) duel at every M in
    turn, each check named variant[t]-algorithm-mM."""
    return lambda: [{"name": f"{variant}{t or ''}-{algorithm}-m{m}",
                     "pass": _run_passes(DUELS[variant][0](algorithm, m, t))}
                    for variant, t, algorithm, ms in duels for m in ms]


def _verify_certificates_suite() -> list[dict]:
    out = [{"name": f"certificate-{cert.name}", "pass": passed}
           for cert, _, passed in _replayed_certificates()]
    out.append({"name": "ko-optima", "pass": all(
        mathprog.solve_min_r_exact(mathprog.builtin_program(pid))
        == Fraction(mathprog.REFERENCE_TARGETS[pid][0]) for pid in ("ko-case1", "ko-case2"))})
    return out


def _fork_matches_replay(run, scenario: str) -> bool:
    """Feed a scenario's items to a session fed every wave (the prefix), then
    to its fork made before them, and to a fresh replay of prefix + items: all
    three must place every item alike, at the cost the run reported."""
    outcome = next(sc for sc in run.scenarios if sc.scenario == scenario)
    rules = outcome.opt_packing.rules
    prefix = [it for wave in run.waves.values() for it in wave.items]
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
        "pass": _fork_matches_replay(run_a, "units")
        and _fork_matches_replay(sp, "six-tenths")
        and _fork_matches_replay(cl, "six-tenths"),
    }]


VERIFY_SUITES = {
    "oracle": _verify_oracle_suite,
    "geometry": _duel_suite(("sp", None, "shelf-first-fit", (4, 10, 20))),
    "census": _duel_suite(*[("ko", None, algorithm, (4, 8)) for algorithm in ONE_D_BASELINES],
                          ("clcbp", 2, "ccff", (6, 12)), ("clcbp", 3, "ccff", (6, 12))),
    "certificates": _verify_certificates_suite,
    "determinism": _verify_determinism_suite,
}


def cmd_verify(args) -> int:
    names = [args.only] if args.only is not None else list(VERIFY_SUITES)
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
        if not isinstance(payload, dict):
            raise ValueError(f"an instance is an object, got {payload!r}")
        rules = rules_from_json(payload["rules"])
        items = tuple(item for item, _ in items_from_json(payload["items"]))
        if any((item.color is None) == rules.colored for item in items):
            raise ValueError("items carry a color exactly when the rules are class-constrained")
    except (OSError, KeyError, ValueError, ZeroDivisionError, PrecisionError,
            RecursionError) as exc:  # RecursionError: JSON nested too deeply to parse
        return _fail_config(f"bad instance file: {exc}")
    try:
        instance = OracleInstance(items, rules, node_budget=args.budget)
    except ValueError as exc:  # a geometric variant or a node budget below 1
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
    advice = rules.advice  # known-opt: the promised optimum
    if advice is not None and (result.count < advice or result.proven and result.count != advice):
        print(f"cross-check failure: {'proven' if result.proven else 'found'} "
              f"{result.count} bins, advice {advice}", file=sys.stderr)
        return EXIT_CROSSCHECK
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
    p.add_argument("--t", type=int, help="colors per bin, clcbp only (default 2)")
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
