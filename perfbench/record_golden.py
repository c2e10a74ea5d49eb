#!/usr/bin/env python3
"""Record golden.json: the stdout sha256 of every operation the benchmark
checks by digest.  Reports are meant to stay byte-identical, so re-record
only for a change that alters a report on purpose, and say so.

    python3 perfbench/record_golden.py
"""

import json
import sys

import run
import workloads


def main() -> int:
    env = run.child_env()
    checker = run.Checker({})
    digests, failures = {}, []
    for op in workloads.golden_operations(run.OUT / "instances"):
        child = run.spawn("op", op.argv, env, run.OP_LIMIT_S)
        problem = checker.problem(op, child.code, child.stdout)
        if problem:
            failures.append(f"{op.key}: {problem}")
        digests[op.key] = run.sha256(child.stdout)
        print(f"{child.wall_s:7.2f} s  {op.key}", flush=True)
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    run.GOLDEN.write_text(json.dumps({"digests": digests}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
