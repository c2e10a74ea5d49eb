"""`adversary.presented` against the hand counts it replaced.

Each adversary once rounded its continuations' item counts in its own code.
The nine expressions below are those counts verbatim, with the `ceil_div`
they used.  `presented` reads every count from the continuation's
`shapes.Cost` instead (its per-M `items` at the run's census, floored, or
ceiled when it `rounds_up`), so it must give the same integer for every M
and census the adversaries can reach.  A per-case form is read at its
smallest case, which must be the run's own: ko-case1 exactly when
2*bins3 <= M, clcbp2-case1 exactly when x1 <= x2.
"""

from hypothesis import given, settings, strategies as st

from packbound.adversary import per_m, presented
from packbound.shapes import CLCBP, KO, SP

# -- the hand counts, verbatim -------------------------------------------------


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def reference_ko(m: int, bins7: int, bins3: int) -> dict:
    return {
        "four-fifths": m,
        "big-fill": m - ceil_div(bins7, 6),
        "units": m // 2,
        "over-half": m,
        "short-two-thirds": m - max(m // 4, ceil_div(bins3, 2)),
    }


def reference_sp(m: int, bins4: int, sm3: int, lg3: int) -> dict:
    mprime = sm3 + lg3
    return {
        "three-quarter-fill": ceil_div(m - bins4, 5),
        "six-tenths": mprime // 3,
        "short-two-thirds": sm3 // 3,
    }


def reference_clcbp_huge(m: int, tiny_bins: int, t: int) -> int:
    return (m - tiny_bins) // t


# -- the censuses ----------------------------------------------------------------

ko_runs = st.integers(1, 60).flatmap(lambda k: st.tuples(
    st.just(4 * k), st.integers(0, 4 * k), st.integers(0, 4 * k)))
sp_runs = st.integers(1, 60).flatmap(lambda k: st.tuples(
    st.just(2 * k), st.integers(0, 2 * k), st.integers(0, 3 * k), st.integers(0, 3 * k)))
clcbp_runs = st.tuples(st.sampled_from((2, 3)), st.integers(1, 20)).flatmap(
    lambda tk: st.tuples(st.just(tk[0]), st.just(6 * tk[1]),
                         st.lists(st.integers(0, 6 * tk[1] // tk[0]),
                                  min_size=tk[0], max_size=tk[0])))


@given(ko_runs)
@settings(max_examples=300)
def test_ko_counts_equal_the_hand_counts(run):
    m, bins7, bins3 = run
    counts = {"bins7": bins7, "bins3": bins3}
    got = {name: presented(cost, counts, m) for name, cost in KO.costs.items()}
    assert got == reference_ko(m, bins7, bins3)


@given(sp_runs)
@settings(max_examples=300)
def test_sp_counts_equal_the_hand_counts(run):
    m, bins4, sm3, lg3 = run
    counts = {"bins4": bins4, "sm3": sm3, "lg3": lg3}
    got = {name: presented(cost, counts, m) for name, cost in SP.costs.items()}
    assert got == reference_sp(m, bins4, sm3, lg3)
    # the first continuation runs before the census, on bins4 alone
    assert presented(SP.costs["three-quarter-fill"], {"bins4": bins4}, m) == got[
        "three-quarter-fill"]


@given(clcbp_runs)
@settings(max_examples=300)
def test_clcbp_huge_count_equals_the_hand_count(run):
    t, m, tinies = run
    counts = {f"x{j}": n for j, n in enumerate(tinies, start=1)}
    assert presented(CLCBP[t].costs["huge"], counts, m) == reference_clcbp_huge(
        m, sum(tinies), t)


def test_only_sp_three_quarter_fill_rounds_up():
    tables = {"ko": KO, "sp": SP, "clcbp2": CLCBP[2], "clcbp3": CLCBP[3]}
    rounding_up = [(tag, name) for tag, table in tables.items()
                   for name, cost in table.costs.items() if cost.rounds_up]
    assert rounding_up == [("sp", "three-quarter-fill")]


def _smallest_case(form: dict, counts: dict, m: int) -> str:
    return min(form, key=lambda case: per_m(form[case], counts, m))


@given(ko_runs)
@settings(max_examples=200)
def test_ko_smallest_case_is_the_runs_case(run):
    m, bins7, bins3 = run
    form = KO.costs["short-two-thirds"].items
    counts = {"bins7": bins7, "bins3": bins3}
    assert (_smallest_case(form, counts, m) == "ko-case1") == (2 * bins3 <= m)


@given(st.integers(1, 20).flatmap(lambda k: st.tuples(
    st.just(6 * k), st.integers(0, 6 * k), st.integers(0, 3 * k),
    st.integers(0, 12 * k), st.integers(0, 12 * k))))
@settings(max_examples=200)
def test_clcbp2_smallest_case_is_the_runs_case(run):
    m, x1, x2, z1, z2 = run
    form = CLCBP[2].costs["short-two-thirds"].opt
    counts = {"x1": x1, "x2": x2, "z1": z1, "z2": z2}
    assert (_smallest_case(form, counts, m) == "clcbp2-case1") == (x1 <= x2)
