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
    register_algorithm,
)
from packbound.exact import power, rat
from packbound.model import ONE, ZERO, Item, Placement, VariantRules, validate_packing

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


class _NaiveShelfFirstFit:
    """Reference shelf-first-fit: rescans every shelf of every bin, adding
    `cursor + side` and `top_y + top_height` on each probe."""

    def __init__(self):
        self.shelves = []  # per bin: [(y, height, cursor)]

    def fork(self):
        clone = _NaiveShelfFirstFit()
        clone.shelves = [list(bin_shelves) for bin_shelves in self.shelves]
        return clone

    def __call__(self, packing, item):
        side = item.size
        for b, bin_shelves in enumerate(self.shelves):
            for j, (y, height, cursor) in enumerate(bin_shelves):
                if side <= height and cursor + side <= ONE:
                    bin_shelves[j] = (y, height, cursor + side)
                    return Placement(b, cursor, y)
            top_y, top_height, _ = bin_shelves[-1]
            used = top_y + top_height
            if used + side <= ONE:
                bin_shelves.append((used, side, side))
                return Placement(b, ZERO, used)
        self.shelves.append([(ZERO, side, side)])
        return Placement(len(self.shelves) - 1, ZERO, ZERO)


register_algorithm("naive-shelf-test-algorithms", _NaiveShelfFirstFit())

SQUARES = VariantRules("squares")

# sides in (0, 1]: simple fractions, so that shelves tie and fill exactly,
# some tilted by +-10^-e so that ties break either way
side_specs = st.lists(
    st.tuples(
        st.one_of(
            st.sampled_from([Fraction(1, k) for k in range(1, 9)]
                            + [Fraction(2, 5), Fraction(3, 5), Fraction(2, 3),
                               Fraction(3, 4)]),
            st.fractions(min_value=Fraction(1, 20), max_value=1, max_denominator=20),
        ),
        st.sampled_from((-1, 0, 0, 1)),  # tilt sign
        st.integers(min_value=2, max_value=40),  # tilt exponent
    ),
    max_size=30,
)


def _squares(specs, start):
    items = []
    for i, (side, tilt, exp) in enumerate(specs):
        if side == 1:
            tilt = min(tilt, 0)
        items.append(Item(start + i, rat(side) + tilt * power(10, exp)))
    return items


class TestShelfFirstFitMatchesNaiveScan:
    @given(prefix=side_specs, on_fork=side_specs, on_original=side_specs)
    @settings(max_examples=150, deadline=None)
    def test_same_placements_with_forks(self, prefix, on_fork, on_original):
        sessions = [make_session(algo, SQUARES)
                    for algo in ("shelf-first-fit", "naive-shelf-test-algorithms")]
        for session in sessions:
            feed(session, _squares(prefix, 0))
        forks = [session.fork() for session in sessions]
        for session in forks:
            feed(session, _squares(on_fork, 100))
        for session in sessions:
            feed(session, _squares(on_original, 200))
        for fast, naive in (sessions, forks):
            assert fast.transcript == naive.transcript
            assert validate_packing(fast.packing) == []


def _naive_first_fit(packing, item):
    """Reference first fit: asks every open bin in order."""
    for b in range(packing.cost):
        if packing.fits(b, item):
            return Placement(b)
    return Placement(packing.cost)


def _naive_best_fit(packing, item):
    """Reference best fit: asks every open bin, keeps the least room."""
    best = None
    for b in range(packing.cost):
        if packing.fits(b, item) and (best is None or packing.bin_room(b) < packing.bin_room(best)):
            best = b
    return Placement(packing.cost if best is None else best)


register_algorithm("naive-first-fit-test-algorithms", _naive_first_fit)
register_algorithm("naive-best-fit-test-algorithms", _naive_best_fit)

COLORED = VariantRules("class-constrained", t=2)

# (shipped algorithm, its naive reference, rules)
NAIVE_PAIRS = [
    ("first-fit", "naive-first-fit-test-algorithms", ONED),
    ("first-fit", "naive-first-fit-test-algorithms", VariantRules("known-opt", advice=3)),
    ("best-fit", "naive-best-fit-test-algorithms", ONED),
    ("ccff", "naive-first-fit-test-algorithms", COLORED),
]

# adds (shared rational parts, tilted by +-k^-e of either base, so that
# rooms and sizes often tie on their rational parts), packing copies,
# session forks, and peeks that fill the largest-room cache in place
placement_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"),
            st.sampled_from([Fraction(1, k) for k in range(1, 8)]
                            + [Fraction(2, 5), Fraction(3, 5), Fraction(2, 3)]),
            st.sampled_from((-1, 0, 1)),  # tilt sign
            st.sampled_from((10, 20)),  # tilt base
            st.integers(min_value=2, max_value=40),  # tilt exponent
            st.integers(min_value=0, max_value=3),  # color, under colored rules
        ),
        st.tuples(st.just("copy")),
        st.tuples(st.just("fork")),
        st.tuples(st.just("peek")),
    ),
    max_size=30,
)


def assert_largest_room(packing):
    """`largest_room()` is the max of the bins' rooms; asked on a copy, so
    the check leaves the cache as the steps left it."""
    expected = max((packing.bin_room(b) for b in range(packing.cost)), default=ZERO)
    assert packing.copy().largest_room() == expected


class TestFreshBinShortcut:
    @pytest.mark.parametrize("algo,naive,rules", NAIVE_PAIRS,
                             ids=lambda v: v if isinstance(v, str) else v.kind)
    @given(ops=placement_ops)
    @settings(max_examples=120, deadline=None)
    def test_same_placements_as_a_naive_scan(self, algo, naive, rules, ops):
        sessions = [make_session(algo, rules), make_session(naive, rules)]
        left_behind = []
        for ident, op in enumerate(ops):
            if op[0] == "add":
                _, size, tilt, base, exp, color = op
                if size == 1:
                    tilt = min(tilt, 0)
                item = Item(ident, rat(size) + tilt * power(base, exp),
                            color=color if rules.colored else None)
                for session in sessions:
                    session.place(item)
            elif op[0] == "copy":
                for session in sessions:
                    session.packing = session.packing.copy()
            elif op[0] == "fork":
                left_behind.extend(sessions)
                sessions = [session.fork() for session in sessions]
            else:
                for session in sessions:
                    session.packing.largest_room()
            fast, reference = sessions
            assert fast.transcript == reference.transcript
            assert fast.packing.bins == reference.packing.bins
            for session in sessions:
                assert_largest_room(session.packing)
        for session in left_behind:  # a fork shares no cache with its source
            assert_largest_room(session.packing)
            assert validate_packing(session.packing) == []



class _NaiveHarmonic:
    """Reference harmonic-5: counts the items in each class's open bin, and
    below the last class asks `Packing.fits` only for the color cap."""

    def __init__(self):
        self.open_bin, self.count = {}, {}

    def fork(self):
        clone = _NaiveHarmonic()
        clone.open_bin, clone.count = dict(self.open_bin), dict(self.count)
        return clone

    def __call__(self, packing, item):
        cls = next((i for i in range(1, 5) if item.size > rat(Fraction(1, i + 1))), 5)
        b = self.open_bin.get(cls)
        if b is not None:
            if cls < 5:
                ok = self.count[cls] < cls and (not packing.rules.colored or packing.fits(b, item))
            else:
                ok = packing.fits(b, item)
            if ok:
                self.count[cls] += 1
                return Placement(b)
        self.open_bin[cls], self.count[cls] = packing.cost, 1
        return Placement(packing.cost)


register_algorithm("naive-harmonic-test-algorithms", _NaiveHarmonic())

# sizes at and near the class boundaries 1/k, tilted by +-c*k^-e of either
# base, and colors under colored rules
harmonic_specs = st.lists(
    st.tuples(
        st.one_of(
            st.sampled_from([Fraction(1, k) for k in range(1, 9)]
                            + [Fraction(2, 5), Fraction(3, 5), Fraction(2, 3)]),
            st.fractions(min_value=Fraction(1, 40), max_value=1, max_denominator=40),
        ),
        st.sampled_from((-1, 0, 0, 1)),  # tilt sign
        st.integers(min_value=1, max_value=9),  # tilt coefficient
        st.sampled_from((10, 20)),  # tilt base
        st.integers(min_value=3, max_value=40),  # tilt exponent: below 1/100 of a size
        st.integers(min_value=0, max_value=3),  # color, under colored rules
    ),
    max_size=40,
)


def _harmonic_items(specs, start, rules):
    items = []
    for i, (size, tilt, coef, base, exp, color) in enumerate(specs):
        if size == 1:
            tilt = min(tilt, 0)
        items.append(Item(start + i, rat(size) + power(base, exp, tilt * coef),
                          color=color if rules.colored else None))
    return items


class TestHarmonicMatchesCount:
    @pytest.mark.parametrize("rules", [ONED, VariantRules("class-constrained", t=2)],
                             ids=lambda rules: rules.kind)
    @given(prefix=harmonic_specs, on_fork=harmonic_specs, on_original=harmonic_specs)
    @settings(max_examples=120, deadline=None)
    def test_same_placements_as_a_count(self, rules, prefix, on_fork, on_original):
        sessions = [make_session(algo, rules)
                    for algo in ("harmonic-5", "naive-harmonic-test-algorithms")]
        for session in sessions:
            feed(session, _harmonic_items(prefix, 0, rules))
        forks = [session.fork() for session in sessions]
        for session in forks:
            feed(session, _harmonic_items(on_fork, 100, rules))
        for session in sessions:
            feed(session, _harmonic_items(on_original, 200, rules))
        for fast, naive in (sessions, forks):
            assert fast.transcript == naive.transcript
