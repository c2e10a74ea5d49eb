"""clcbp's wave two against the hand stop rules it replaced.

`clcbp.run_full` once stopped its wave of thirds by two hand-made branches,
one per t, with finite-M offsets.  `reference_wave` below is that code
verbatim.  It replays a finished run's thirds, each small or large as the
run recorded it: both rules present the same thirds in the same order, so
the hand rule must stop exactly where the run's rows stopped it and give the
same z1, z2 and wave check.  The shipped baselines fill every wave-one bin
to t tinies and so reach only one case of each t; the seeded random-fit
strategies below reach the others.
"""

import random
from fractions import Fraction as F

import pytest

from packbound.algorithms import register_algorithm
from packbound.clcbp import run_full
from packbound.mathprog import builtin_program
from packbound.model import Placement
from packbound.reports import Check
from packbound.shapes import CLCBP

SEEDS = range(24)


def random_fit(seed: int):
    """A feasible open bin or a fresh one, drawn from integers only: the
    seed, the item's ident and the number of options.  seed % 3 leans the
    draw toward the fresh bin, which leaves more bins short of t tinies."""
    def strategy(packing, item):
        options = [b for b in range(packing.cost) if packing.fits(b, item)] + [packing.cost]
        n = len(options)
        draw = random.Random(seed * 1_000_003 + item.ident * 1009 + n)
        return Placement(options[min(draw.randrange(n * (1 + seed % 3)), n - 1)])
    return strategy


for _seed in SEEDS:
    register_algorithm(f"random-fit-{_seed}-test-wave", random_fit(_seed))


class Replay:
    """A wave that re-presents a finished run's thirds, small as they were."""

    def __init__(self, wave):
        self._small = [it.ident in wave.small_ids for it in wave.items]
        self.items: list[int] = []
        self.small_ids: set[int] = set()

    def run(self, more) -> None:
        while more(self):
            n = len(self.items)
            if n == len(self._small):
                raise AssertionError("the hand rule presents more thirds than the run did")
            if self._small[n]:
                self.small_ids.add(n)
            self.items.append(n)


# -- the hand stop rules, verbatim ------------------------------------------------


def reference_wave(run) -> tuple:
    """(z1, z2, the wave check, the case that stopped the wave) by the hand rules."""
    c, m, wave3 = run.census, run.m, Replay(run.waves["thirds"])

    def weight(w) -> int:
        return 3 * len(w.items) + len(w.small_ids)

    if run.t == 2:
        target = 2 * max(c["x1"], c["x2"])
        wave3.run(lambda w: len(w.items) < target)
        check = Check.equal("wave2-count", len(wave3.items), target)
        case = 2 if c["x1"] > c["x2"] else 1
    else:
        x3 = c["x3"]
        wave3.run(lambda w: len(w.items) + 6 * x3 < 2 * m - 1 and weight(w) < 2 * m - 7)
        case = 2
        if weight(wave3) < 2 * m - 7:
            case = 1
            wave3.run(lambda w: 2 * len(w.items) + len(w.small_ids) < 6 * x3 - 5)
        wave3.run(lambda w: len(w.items) % 2)
    z2 = len(wave3.small_ids)
    z1 = len(wave3.items) - z2
    if run.t == 3:
        stop_disjunction = (3 * z1 + 4 * z2 <= 2 * m) or (
            2 * z1 + 3 * z2 <= 6 * x3 <= 2 * m
        )
        check = Check.truth("wave2-stop-disjunction", stop_disjunction,
                            f"z1={z1} z2={z2} x3={x3}")
    return z1, z2, check, case


# -- the comparison ----------------------------------------------------------------


def _wave_check(run) -> Check:
    return next(ch for ch in run.checks
                if ch.name in ("wave2-count", "wave2-stop-disjunction"))


@pytest.mark.parametrize("t", [2, 3])
def test_the_rows_stop_the_wave_where_the_hand_rules_did(t):
    cases = set()
    for m in (12, 24, 48):
        for seed in SEEDS:
            run = run_full(f"random-fit-{seed}-test-wave", t, m)
            if "thirds" not in run.waves:  # the spread bound ends the run after wave one
                continue
            z1, z2, check, case = reference_wave(run)
            assert (run.census["z1"], run.census["z2"], _wave_check(run)) == (z1, z2, check), (
                seed, m)
            cases.add(case)
    assert cases == {1, 2}


def test_one_tie_moves_the_clcbp_duel_and_the_program_together(monkeypatch):
    run = run_full("random-fit-16-test-wave", 3, 48)
    assert reference_wave(run)[3] == 2  # case 2's tie stops its wave
    low, (label, terms, relation, _) = CLCBP[3].programs["clcbp3-case2"]
    monkeypatch.setitem(CLCBP[3].programs, "clcbp3-case2",
                        (low, (label, terms, relation, F(3, 2))))
    edited = run_full(run.algorithm_id, 3, 48)
    assert len(edited.waves["thirds"].items) < len(run.waves["thirds"].items)
    assert builtin_program("clcbp3-case2").row("stop-tie").const == (F(3, 2), 0)
