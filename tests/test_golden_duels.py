"""Duel, verify and bounds reports stay byte-identical to the recorded digests.

tests/fixtures/small_duels.json holds the stdout sha256 and exit code of
`packbound duel` for every shipped adversary x algorithm pairing at
M in {8, 12, 24, 48}, of the full `packbound verify`, and of
`packbound bounds` as a table and as JSON, at the default tolerance and at
six others from 3 to 1/10**13 (each of those exits 2 on some MISMATCH row).
At M = 8 the ko adversary also runs the exact minimum-bin check; clcbp needs
M divisible by 6, so its M = 8 entries pin the configuration error (exit 3,
empty stdout).
It also holds `packbound oracle` on the instance files in
tests/fixtures/oracle/: stdout carries the search's node count, so any change
in pruning or in the greedy seed shows.  `color-bound.json` has a color bound
above its volume bound, and the `--budget 10` runs exhaust the budget (exit 2).
Under `clcbpCase2` it holds two clcbp duels, at t = 2 and t = 3, against the
seeded random-fit strategies of tests/test_wave_reference.py whose wave two
stops in case 2: no shipped pairing reaches that case, so these pin it.

perfbench/golden.json holds the digests the benchmark checks its runs
against: `bounds` and every duel at M = 96.  They are compared here too,
read only, so a report change shows before a benchmark run.
"""

import hashlib
import json
from pathlib import Path

import pytest

import test_wave_reference  # registers the random-fit-*-test-wave strategies
from packbound.clcbp import run_full
from packbound.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
BENCHMARK = json.loads((Path(__file__).parents[1] / "perfbench" / "golden.json").read_text())
FIXTURE = json.loads((FIXTURES / "small_duels.json").read_text())
GOLDEN = FIXTURE["duels"]
ORACLE = FIXTURE["oracle"]
CASE2 = FIXTURE["clcbpCase2"]


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_duel_report_matches_recorded_digest(capsys, key):
    assert _run(capsys, key.split()) == (GOLDEN[key]["exit"], GOLDEN[key]["sha256"])


def test_verify_report_matches_recorded_digest(capsys):
    want = FIXTURE["verify"]
    assert _run(capsys, ["verify"]) == (want["exit"], want["sha256"])


@pytest.mark.parametrize("key", sorted(FIXTURE["bounds"]))
def test_bounds_report_matches_recorded_digest(capsys, key):
    want = FIXTURE["bounds"][key]
    assert _run(capsys, key.split()) == (want["exit"], want["sha256"])


@pytest.mark.parametrize("key", sorted(ORACLE))
def test_oracle_report_matches_recorded_digest(capsys, key):
    command, flag, name, *budget = key.split()
    argv = [command, flag, str(FIXTURES / "oracle" / name), *budget]
    assert _run(capsys, argv) == (ORACLE[key]["exit"], ORACLE[key]["sha256"])


@pytest.mark.parametrize("key", sorted(CASE2))
def test_clcbp_case_two_report_matches_recorded_digest(capsys, key):
    args = key.split()
    t, algorithm, m = args[args.index("--t") + 1], args[args.index("--algorithm") + 1], args[-1]
    # the hand rule's case: the run's wave two stops in case 2
    assert test_wave_reference.reference_wave(run_full(algorithm, int(t), int(m)))[3] == 2
    assert _run(capsys, args) == (CASE2[key]["exit"], CASE2[key]["sha256"])


@pytest.mark.parametrize("key", sorted(k for k in BENCHMARK["digests"]
                                       if not k.startswith("oracle")))
def test_report_matches_the_benchmark_digest(capsys, key):
    assert _run(capsys, key.split()) == (0, BENCHMARK["digests"][key])
