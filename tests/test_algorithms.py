"""Baseline behavior pins and session contract checks."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from packbound.algorithms import (
    ONE_D_BASELINES,
    UnknownAlgorithm,
    algorithm_ids,
    feed,
    fork_replay,
    make_session,
)
from packbound.exact import rat
from packbound.model import Item, VariantRules, validate_packing

ONED = VariantRules("one-d")

# every shipped algorithm with the rules of the variant it plays
RULES_FOR = {
    **{algo: ONED for algo in ONE_D_BASELINES},
    "ccff": VariantRules("class-constrained", t=2),
    "shelf-first-fit": VariantRules("squares"),
}

item_specs = st.lists(
    st.tuples(
        st.fractions(min_value=Fraction(1, 50), max_value=1, max_denominator=100),
        st.integers(min_value=0, max_value=3),
    ),
    max_size=12,
)


def run(algorithm_id, sizes, rules=ONED, colors=None):
    session = make_session(algorithm_id, rules)
    for i, s in enumerate(sizes):
        color = colors[i] if colors else None
        session.place(Item(i, rat(s), color=color))
    return session


def bins_as_fractions(session):
    return [
        [item.size.as_fraction() for item in session.packing.bin_items(b)]
        for b in range(session.cost)
    ]


class TestBaselines:
    def test_first_fit_reuses_earliest_bin(self):
        session = run("first-fit", ["3/5", "13/25", "33/100"])
        assert bins_as_fractions(session) == [
            [Fraction(3, 5), Fraction(33, 100)],
            [Fraction(13, 25)],
        ]

    def test_next_fit_keeps_only_last_bin_open(self):
        session = run("next-fit", ["3/5", "13/25", "33/100"])
        assert bins_as_fractions(session) == [
            [Fraction(3, 5)],
            [Fraction(13, 25), Fraction(33, 100)],
        ]

    def test_best_fit_prefers_tightest_bin(self):
        session = run("best-fit", ["3/5", "1/2", "2/5", "1/10"])
        # 2/5 completes the 3/5 bin exactly; 1/10 then goes to the 1/2 bin
        assert bins_as_fractions(session) == [
            [Fraction(3, 5), Fraction(2, 5)],
            [Fraction(1, 2), Fraction(1, 10)],
        ]

    def test_harmonic_groups_by_class(self):
        session = run("harmonic-5", ["4/5", "2/5", "2/5", "2/5", "1/7", "1/7"])
        # classes: (1/2,1] alone, (1/3,1/2] two per bin, (0,1/5] capacity-fit
        assert bins_as_fractions(session) == [
            [Fraction(4, 5)],
            [Fraction(2, 5), Fraction(2, 5)],
            [Fraction(2, 5)],
            [Fraction(1, 7), Fraction(1, 7)],
        ]

    def test_ccff_respects_color_cap(self):
        rules = VariantRules("class-constrained", t=2)
        session = run(
            "ccff",
            ["1/10", "1/10", "1/10", "1/10"],
            rules=rules,
            colors=[1, 2, 3, 1],
        )
        # third color opens a bin; fourth item reuses color 1 in bin 0
        assert [sorted(session.packing.bin_colors(b)) for b in range(session.cost)] == [
            [1, 2],
            [3],
        ]

    def test_shelf_first_fit_layout(self):
        session = run("shelf-first-fit", ["1/2", "1/4", "1/4", "1/4"],
                      rules=VariantRules("squares"))
        # shelf 1 holds 1/2 then two 1/4 squares; fourth square opens shelf 2
        packing = session.packing
        assert packing.cost == 1
        coords = [(p.x.as_fraction(), p.y.as_fraction()) for _, p in packing.bins[0]]
        assert coords == [
            (Fraction(0), Fraction(0)),
            (Fraction(1, 2), Fraction(0)),
            (Fraction(3, 4), Fraction(0)),
            (Fraction(0), Fraction(1, 2)),
        ]
        assert validate_packing(packing) == []

    def test_shelf_opens_new_bin_when_stack_full(self):
        session = run("shelf-first-fit", ["3/5", "3/5", "2/5"],
                      rules=VariantRules("squares"))
        # second 3/5 shelf does not fit above the first; 2/5 rejoins shelf 1
        assert session.cost == 2
        assert [len(b) for b in session.packing.bins] == [2, 1]


class TestSessionContract:
    def test_unknown_algorithm(self):
        with pytest.raises(UnknownAlgorithm):
            make_session("quantum-fit", ONED)

    def test_registry_contents(self):
        assert set(ONE_D_BASELINES) <= set(algorithm_ids())
        assert "shelf-first-fit" in algorithm_ids()
        assert "ccff" in algorithm_ids()

    @pytest.mark.parametrize("algo", ONE_D_BASELINES)
    @given(sizes=st.lists(
        st.fractions(min_value=Fraction(1, 50), max_value=1, max_denominator=100),
        max_size=14,
    ))
    @settings(max_examples=60, deadline=None)
    def test_baselines_always_produce_valid_packings(self, algo, sizes):
        session = run(algo, sizes)
        assert validate_packing(session.packing) == []
        assert len(session.transcript) == len(sizes)

    @pytest.mark.parametrize("algo", ONE_D_BASELINES)
    def test_replay_determinism(self, algo):
        sizes = ["3/5", "13/25", "33/100", "1/7", "1/7", "9/10", "1/3"]
        first = run(algo, sizes)
        prefix = [item for item, _ in first.transcript]
        replay = fork_replay(algo, ONED, prefix)
        assert [(i.ident, p.bin_index) for i, p in first.transcript] == [
            (i.ident, p.bin_index) for i, p in replay.transcript
        ]

    def test_replay_with_other_algorithm_differs(self):
        sizes = ["3/5", "13/25", "33/100"]
        ff = run("first-fit", sizes)
        nf = run("next-fit", sizes)
        assert bins_as_fractions(ff) != bins_as_fractions(nf)


class TestFork:
    def test_every_shipped_algorithm_is_covered(self):
        shipped = {a for a in algorithm_ids() if "test" not in a}
        assert shipped == set(RULES_FOR)

    @pytest.mark.parametrize("algo", sorted(RULES_FOR))
    @given(prefix_specs=item_specs, fork_specs=item_specs, own_specs=item_specs)
    @settings(max_examples=40, deadline=None)
    def test_fork_is_isolated(self, algo, prefix_specs, fork_specs, own_specs):
        rules = RULES_FOR[algo]

        def items(specs, start):
            return [Item(start + i, rat(size), color=color if rules.colored else None)
                    for i, (size, color) in enumerate(specs)]

        prefix = items(prefix_specs, 0)
        on_fork, on_original = items(fork_specs, 100), items(own_specs, 200)
        session = make_session(algo, rules)
        feed(session, prefix)
        bins_before = [list(b) for b in session.packing.bins]
        transcript_before = list(session.transcript)

        branch = session.fork()
        feed(branch, on_fork)
        assert branch.transcript == fork_replay(algo, rules, prefix + on_fork).transcript
        assert session.packing.bins == bins_before
        assert session.transcript == transcript_before

        branch_bins = [list(b) for b in branch.packing.bins]
        feed(session, on_original)
        assert session.transcript == fork_replay(
            algo, rules, prefix + on_original).transcript
        assert branch.packing.bins == branch_bins
        assert len(branch.transcript) == len(prefix) + len(on_fork)
