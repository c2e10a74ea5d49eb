#!/usr/bin/env python3
"""packbound benchmark: seeded workloads of CLI operations, checked and timed.

    python3 perfbench/run.py --workload duel-matrix --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it runs the package under ``src/``.

Untraced (``--trace 0``): a closed loop in this one process runs the
workload's operation list, one fresh ``packbound`` child at a time, pass
after pass until ``--seconds`` are spent, and reports a pass with each
operation at its median time, scaled to the reference CPU speed that
``child.py`` probes for inside every child.  Traced (``--trace 1``): one untraced pass,
then the same operations in this process through ``packbound.cli.main``
with the layer tracer installed; it reports per-layer metrics and ignores
``--seconds``.  Either way every operation's output is checked, and the
last line of stdout is the JSON result.  Details go to
``.bench_out/results/``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import select
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN = HERE / "golden.json"

CHILD = HERE / "child.py"
SETUP_SPAWNS = 16
RUN_LIMIT_S = 170  # every run ends well inside the 180 s a run may take
OP_LIMIT_S = 90


class ChildResult(NamedTuple):
    code: int
    stdout: bytes
    wall_s: float
    cpu_s: float
    rss_mb: float
    speed: float  # mean CPU speed the child's probes saw, relative to the reference


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("PACKBOUND_NODE_BUDGET", None)  # it would override --budget
    return env


def spawn(mode: str, args, env: dict, timeout_s: float) -> ChildResult:
    """Run child.py in `mode` ("op" or "setup") on `args`, timed from spawn
    to exit, with the child's rusage and probed CPU speed."""
    OUT.mkdir(exist_ok=True)
    out_path, err_path = OUT / "child.stdout", OUT / "child.stderr"
    probe_path = OUT / "child.probe"
    probe_path.unlink(missing_ok=True)
    argv = [sys.executable, str(CHILD), str(probe_path), mode, *args]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        actions = [(os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                   (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
        pidfd = os.pidfd_open(pid)
        try:
            if not select.select([pidfd], [], [], max(timeout_s, 0.0))[0]:
                os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
            wall_s = time.perf_counter() - start
        finally:
            os.close(pidfd)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        sys.stderr.write(err_path.read_text(errors="replace")[-2000:])
    return ChildResult(code, out_path.read_bytes(), wall_s,
                       usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                       probed_speed(probe_path))


def probed_speed(path: Path) -> float:
    """Mean speed of the probes child.py recorded, or NaN without any."""
    with contextlib.suppress(OSError, ValueError):
        count, total = path.read_text().split()
        if int(count):
            return float(total) / int(count)
    return math.nan


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- correctness ---------------------------------------------------------------


def planted_problem(op, stdout: bytes):
    """Why an oracle answer contradicts its planted optimum, or None."""
    try:
        answer = json.loads(stdout)
        bins = [[entry["item"] for entry in b] for b in answer["witness"]]
        min_bins, proven = answer["minBins"], answer["proven"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable oracle answer: {exc}"
    instance = op.instance
    if min_bins != instance.optimum or not proven:
        return f"minBins {min_bins} proven={proven}, planted optimum {instance.optimum}"
    if len(bins) != instance.optimum:
        return f"witness has {len(bins)} bins for minBins {min_bins}"
    if sorted(i for b in bins for i in b) != list(range(len(instance.pieces))):
        return "witness is not a partition of the items"
    # the items total exactly B, so B bins hold them only if each holds exactly 1
    for b in bins:
        if sum((instance.pieces[i].value for i in b), Fraction(0)) != 1:
            return f"witness bin {b} does not hold exactly 1"
    return None


class Checker:
    """Checks each operation's exit code, stdout digest and planted optimum."""

    def __init__(self, golden: dict):
        self.golden = golden
        self.digests = {}  # key -> digest of its first run here

    def problem(self, op, code: int, stdout: bytes):
        if code != 0:
            return f"exit code {code}"
        digest = sha256(stdout)
        want = self.golden.get(op.key) or self.digests.setdefault(op.key, digest)
        if digest != want:
            source = "golden" if op.key in self.golden else "first run"
            return f"stdout digest {digest[:12]} differs from the {source} digest {want[:12]}"
        if op.instance is not None:
            return planted_problem(op, stdout)
        return None


# -- untraced passes -------------------------------------------------------------


def measure_setup(env, count) -> list:
    """Children that import packbound.cli, build its parser and exit."""
    children = []
    for _ in range(count):
        child = spawn("setup", [], env, OP_LIMIT_S)
        if child.code != 0 or math.isnan(child.speed):
            raise SystemExit("error: importing packbound.cli failed")
        children.append(child)
    return children


def run_pass(ops, env, checker, deadline, failures) -> list:
    """One pass, a fresh child per operation; returns their ChildResults."""
    children = []
    for op in ops:
        child = spawn("op", op.argv, env, min(OP_LIMIT_S, deadline - time.perf_counter()))
        problem = checker.problem(op, child.code, child.stdout)
        if not problem and math.isnan(child.speed):
            problem = "the child recorded no CPU-speed probe"
        if problem:
            failures.append(f"{op.key}: {problem}")
        children.append(child)
    return children


def quartiles(values) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def ref_median(children, field: str) -> float:
    """Median of the children's `field` time at the reference speed; children
    without a probed speed (they failed, and count so) are left out."""
    times = [getattr(c, field) * c.speed for c in children if not math.isnan(c.speed)]
    return statistics.median(times) if times else 0.0


def untraced(ops, env, checker, seconds, deadline) -> tuple:
    measure_setup(env, 1)  # untimed: fills the bytecode cache
    # half the set-up samples before the passes and half after, so a burst of
    # load from other tenants at either end moves the median less
    setup = measure_setup(env, SETUP_SPAWNS // 2)
    failures, passes = [], []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(ops, env, checker, deadline, failures))
        spent = time.perf_counter() - start
        # stop before a pass of average length would overrun the budget
        if spent + spent / len(passes) > min(seconds, deadline - start):
            break
    setup += measure_setup(env, SETUP_SPAWNS - len(setup))
    attempted = len(ops) * len(passes)
    runs = list(zip(*passes))  # per operation, its children over the passes
    # Other tenants of a shared machine slow a child and its probes alike, so
    # each time is scaled by the child's probed speed to the reference speed.
    metrics = {
        "wall_ref_s": (sum(ref_median(r, "wall_s") for r in runs), "s"),
        "cpu_ref_s": (sum(ref_median(r, "cpu_s") for r in runs), "s"),
        "setup_s": (ref_median(setup, "wall_s"), "s"),
        "peak_rss_mb": (max(statistics.median(c.rss_mb for c in r) for r in runs), "MB"),
        "success_ratio": ((attempted - len(failures)) / attempted, "ratio"),
    }
    summary = {"pass_wall_s": quartiles([sum(c.wall_s for c in p) for p in passes]),
               "pass_cpu_s": quartiles([sum(c.cpu_s for c in p) for p in passes]),
               "setup_wall_s": quartiles([c.wall_s for c in setup]),
               "probed_speed": quartiles([c.speed for p in passes for c in p
                                          if not math.isnan(c.speed)] or [math.nan])}
    samples = {op.key: [c[2:] for c in r] for op, r in zip(ops, runs)}
    details = {"summary": summary, "failed_ratio": len(failures) / attempted,
               "samples_wall_cpu_rss_speed": samples}
    return metrics, attempted, failures, details


# -- traced run ------------------------------------------------------------------

# Per workload: metrics that must be non-zero, and prefixes that must be zero
# because the workload bypasses those layers.
EXPECTED = {
    "duel-matrix": (
        ("exact.compare.calls", "exact.add.calls", "algorithms.place.calls",
         "algorithms.replay.calls", "algorithms.replay.items", "model.add_item.calls",
         "model.validate.calls", "model.squares_disjoint.calls",
         "knownopt.run_full.self_s", "squares.run_full.self_s", "clcbp.run_full.self_s",
         "squares.layout.self_s", "oracle.emissions", "reports.bytes", "cli.self_s"),
        ("mathprog.", "optoracle."),
    ),
    "bounds-table": (
        ("mathprog.feasible_at.calls", "mathprog.solve_min_r_exact.self_s",
         "mathprog.bisect_min_r.calls", "mathprog.check_certificate.self_s", "cli.self_s"),
        ("exact.", "algorithms.", "model.", "knownopt.", "squares.", "clcbp.",
         "oracle.", "optoracle.", "reports."),
    ),
    "oracle-search": (
        ("exact.compare.calls", "exact.add.calls", "model.add_item.calls",
         "optoracle.min_bins.calls", "optoracle.nodes", "reports.bytes", "cli.self_s"),
        ("mathprog.", "algorithms.", "knownopt.", "squares.", "clcbp.", "oracle.",
         "model.squares_disjoint."),
    ),
}


def layer_metrics(t, traced_wall_s, untraced_wall_s) -> dict:
    c = t.counters
    search_s = t.total("optoracle.min_bins", 1)
    searches = t.calls("optoracle.min_bins")
    return {
        "exact.compare.calls": (t.calls("exact.compare"), "count"),
        "exact.compare.self_s": (t.total("exact.compare", 2), "s"),
        "exact.compare.path.rational": (c["exact.compare.path.rational"], "count"),
        "exact.compare.path.dominance": (c["exact.compare.path.dominance"], "count"),
        "exact.compare.path.terms": (c["exact.compare.path.terms"], "count"),
        "exact.add.calls": (t.calls("exact.add"), "count"),
        "exact.add.self_s": (t.total("exact.add", 2), "s"),
        "algorithms.place.calls": (t.calls("algorithms.place"), "count"),
        "algorithms.place.self_s": (t.total("algorithms.place", 2), "s"),
        "algorithms.replay.calls": (t.calls("algorithms.replay"), "count"),
        "algorithms.replay.total_s": (t.total("algorithms.replay", 1), "s"),
        "algorithms.replay.items": (c["algorithms.replay.items"], "count"),
        "model.add_item.calls": (t.calls("model.add_item"), "count"),
        "model.add_item.self_s": (t.total("model.add_item", 2), "s"),
        "model.validate.calls": (t.calls("model.validate"), "count"),
        "model.validate.self_s": (t.total("model.validate", 2), "s"),
        "model.squares_disjoint.calls": (t.calls("model.squares_disjoint"), "count"),
        "knownopt.run_full.self_s": (t.total("knownopt.run_full", 2), "s"),
        "squares.run_full.self_s": (t.total("squares.run_full", 2), "s"),
        "squares.layout.self_s": (t.total("squares.layout", 2), "s"),
        "clcbp.run_full.self_s": (t.total("clcbp.run_full", 2), "s"),
        "oracle.emissions": (t.calls("oracle.next_value"), "count"),
        "oracle.self_s": (t.layer_self_s("oracle"), "s"),
        "optoracle.min_bins.calls": (searches, "count"),
        "optoracle.min_bins.total_s": (search_s, "s"),
        "optoracle.nodes": (c["optoracle.nodes"], "count"),
        "optoracle.nodes_per_s": (c["optoracle.nodes"] / search_s if search_s else 0.0, "1/s"),
        "optoracle.proven_ratio": (c["optoracle.proven"] / searches if searches else 0.0,
                                   "ratio"),
        "mathprog.feasible_at.calls": (t.calls("mathprog.feasible_at"), "count"),
        "mathprog.feasible_at.self_s": (t.total("mathprog.feasible_at", 2), "s"),
        "mathprog.solve_min_r_exact.self_s": (t.total("mathprog.solve_min_r_exact", 2), "s"),
        "mathprog.bisect_min_r.calls": (t.calls("mathprog.bisect_min_r"), "count"),
        "mathprog.check_certificate.self_s": (t.total("mathprog.check_certificate", 2), "s"),
        "reports.to_json.self_s": (t.total("reports.to_json", 2), "s"),
        "reports.bytes": (c["reports.bytes"], "bytes"),
        "cli.self_s": (t.total("cli", 2), "s"),
        "trace.overhead_ratio": (traced_wall_s / untraced_wall_s, "ratio"),
        "trace.unattributed_s": (max(0.0, traced_wall_s - t.total("cli", 1)), "s"),
    }


def coverage_failures(workload, metrics) -> list:
    nonzero, zero_prefixes = EXPECTED[workload]
    out = [f"{name} is 0 on {workload}, which should exercise it"
           for name in nonzero if not metrics[name][0]]
    out += [f"{name} is {value} on {workload}, which bypasses that layer"
            for name, (value, _) in metrics.items()
            if value and name.startswith(zero_prefixes)]
    return out


def traced(workload, ops, env, checker, deadline) -> tuple:
    failures = []
    children = run_pass(ops, env, checker, deadline, failures)  # the untraced reference
    untraced_wall = sum(c.wall_s for c in children)

    os.environ.pop("PACKBOUND_NODE_BUDGET", None)  # it would override --budget
    sys.path.insert(0, str(SRC))
    import packbound.cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    problems = tracer.coverage_problems()
    traced_wall = 0.0
    try:
        for op, child in zip(ops, children):
            buffer = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
                code = packbound.cli.main(list(op.argv))
            traced_wall += time.perf_counter() - start
            stdout = buffer.getvalue().encode()
            problem = checker.problem(op, code, stdout)
            if (code, stdout) != (child.code, child.stdout):
                problem = "traced output differs from the untraced output"
            if problem:
                failures.append(f"{op.key} (traced): {problem}")
    finally:
        tracer.uninstall()

    metrics = layer_metrics(tracer, traced_wall, untraced_wall)
    problems += coverage_failures(workload, metrics)
    layers = {}
    for name, (_, _, self_ns) in tracer.stats.items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + self_ns / 1e9
    layers["unattributed"] = metrics["trace.unattributed_s"][0]
    shares = {layer: v / traced_wall for layer, v in
              sorted(layers.items(), key=lambda kv: -kv[1]) if v}
    details = {"untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
               "self_time_share": shares, "problems": problems, "trace": tracer.dump()}
    return metrics, 2 * len(ops), failures, details


# -- environment and entry point ------------------------------------------------


def environment(seed) -> dict:
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    sources = sorted(SRC.rglob("*.py"))
    src_digest = hashlib.sha256()
    for path in sources:
        src_digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "commit": git_commit(), "src_sha256": src_digest.hexdigest(), "seed": seed}


def git_commit():
    """HEAD of the checkout, read from .git without running git; None outside git."""
    head = ROOT / ".git" / "HEAD"
    with contextlib.suppress(OSError):
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "packbound" / "cli.py").is_file():
        print(f"error: no packbound sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_LIMIT_S
    env = child_env()
    golden = json.loads(GOLDEN.read_text())["digests"]
    ops = workloads.operations(args.workload, args.seed, OUT / "instances")
    checker = Checker(golden)
    if args.trace:
        metrics, attempted, failures, details = traced(args.workload, ops, env, checker,
                                                       deadline)
    else:
        metrics, attempted, failures, details = untraced(ops, env, checker, args.seconds,
                                                         deadline)

    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "environment": environment(args.seed), "operations": [op.key for op in ops],
              "failures": failures, **details,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")

    print(f"environment: {json.dumps(record['environment'])}")
    for name, stats in details.get("summary", {}).items():
        print(f"{name}: median {stats['median']:.6g}  q1 {stats['q1']:.6g}  "
              f"q3 {stats['q3']:.6g}  n={stats['n']}")
    for layer, share in details.get("self_time_share", {}).items():
        print(f"self time {layer}: {100 * share:.1f} %")
    problems = details.get("problems", [])
    for failure in failures + problems:
        print(f"FAILED {failure}")
    print(f"details: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
