"""The benchmark's workloads: seeded operation lists of `packbound` commands.

Each operation is one CLI invocation.  Its ``key`` names the input, not the
run, so a key's stdout digest is the same on every run and can be recorded
once in ``golden.json``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from planted import Instance, draw_instances

DEFAULT_SEED = 0

# every shipped adversary x algorithm pairing: (variant, t, algorithm)
DUEL_PAIRINGS = (
    ("ko", None, "next-fit"),
    ("ko", None, "first-fit"),
    ("ko", None, "best-fit"),
    ("ko", None, "harmonic-5"),
    ("sp", None, "shelf-first-fit"),
    ("clcbp", 2, "ccff"),
    ("clcbp", 3, "ccff"),
)
# M is a multiple of 12, valid for all three variants.  84 and 108 run
# cleanly too, but a pass at 84 costs about 10 % less and one at 108 about
# 30 % more than at 96, so drawing M would make the pass cost depend on the
# seed more than on the code.  The seed orders the pairings instead.
DUEL_M = 96

ORACLE_BUDGET = 20_000  # node budget; every stratum stays far below it
ORACLE_PER_STRATUM = (2, 4, 4, 4, 4, 2)  # instances per kind from each planted.STRATA

WORKLOADS = ("duel-matrix", "bounds-table", "oracle-search")


@dataclass(frozen=True)
class Op:
    key: str
    argv: tuple  # arguments after `packbound`
    instance: Optional[Instance] = None  # oracle operations: the planted input


def duel_op(variant: str, t: Optional[int], algorithm: str, m: int) -> Op:
    argv = ("duel", "--variant", variant)
    if t is not None:
        argv += ("--t", str(t))
    argv += ("--algorithm", algorithm, "--m", str(m))
    return Op(" ".join(argv), argv)


def operations(workload: str, seed: int, instance_dir: Path) -> list[Op]:
    """The fixed operation list of one pass; oracle instances go to instance_dir."""
    if workload == "duel-matrix":
        ops = [duel_op(v, t, a, DUEL_M) for v, t, a in DUEL_PAIRINGS]
        random.Random(f"packbound-duel-matrix-{seed}").shuffle(ops)
        return ops
    if workload == "bounds-table":
        return [Op("bounds", ("bounds",))]
    if workload == "oracle-search":
        instance_dir.mkdir(parents=True, exist_ok=True)
        ops = []
        for name, instance in draw_instances(seed, ORACLE_PER_STRATUM):
            path = instance_dir / f"seed{seed}-{name}.json"
            path.write_text(json.dumps(instance.to_json()))
            ops.append(Op(f"oracle seed{seed} {name}",
                          ("oracle", "--instance", str(path), "--budget", str(ORACLE_BUDGET)),
                          instance))
        return ops
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def golden_operations(instance_dir: Path) -> list[Op]:
    """Every operation whose digest is recorded: the duels and the bounds
    table, which every seed runs, and the default seed's oracle instances."""
    return [op for workload in WORKLOADS
            for op in operations(workload, DEFAULT_SEED, instance_dir)]
