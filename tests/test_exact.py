"""Exact-number core: cross-validated against literal Fraction arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from packbound.exact import (
    Exact,
    PrecisionError,
    decimal_str,
    fraction_str,
    parse_rational,
    power,
    rat,
)

small_rationals = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=120
)

# exponents small enough to expand literally, so Fraction is the oracle
terms_strategy = st.lists(
    st.tuples(
        st.sampled_from([10, 20]),
        st.integers(min_value=1, max_value=300),
        small_rationals,
    ),
    max_size=6,
)


def build(rational, terms):
    value = Exact(rational)
    for base, exp, coef in terms:
        value = value + power(base, exp, coef)
    return value


def literal(rational, terms):
    return rational + sum(Fraction(c) / Fraction(b) ** e for b, e, c in terms)


class TestAgainstLiteralFractions:
    @given(small_rationals, terms_strategy)
    @settings(max_examples=300)
    def test_sign_matches_fraction(self, q, terms):
        value = build(q, terms)
        expected = literal(q, terms)
        assert value.sign() == (expected > 0) - (expected < 0)

    @given(small_rationals, terms_strategy, small_rationals, terms_strategy)
    @settings(max_examples=300)
    def test_comparisons_match_fraction(self, q1, t1, q2, t2):
        a, b = build(q1, t1), build(q2, t2)
        fa, fb = literal(q1, t1), literal(q2, t2)
        assert (a < b) == (fa < fb)
        assert (a == b) == (fa == fb)
        assert (a >= b) == (fa >= fb)

    @given(small_rationals, terms_strategy, small_rationals, terms_strategy)
    @settings(max_examples=200)
    def test_add_sub_match_fraction(self, q1, t1, q2, t2):
        a, b = build(q1, t1), build(q2, t2)
        assert (a + b).as_fraction() == literal(q1, t1) + literal(q2, t2)
        assert (a - b).as_fraction() == literal(q1, t1) - literal(q2, t2)

    @given(small_rationals, terms_strategy, small_rationals)
    @settings(max_examples=200)
    def test_scalar_mul_matches_fraction(self, q, terms, scale):
        assert (build(q, terms) * scale).as_fraction() == literal(q, terms) * scale


class TestDeepExponents:
    """Comparisons must stay exact where literal expansion is impossible."""

    def test_huge_exponents_compare_by_dominance(self):
        e = 2**50
        a = rat(Fraction(1, 7)) + power(10, e)
        b = rat(Fraction(1, 7)) + power(10, e + 2)
        assert a > b > rat(Fraction(1, 7))
        assert (a - a).sign() == 0

    def test_rational_part_dominates_any_tiny_tail(self):
        e = 2**40
        total = rat(Fraction(6, 7)) + power(10, e, -1) + rat(Fraction(1, 7)) + power(10, e + 7)
        assert total < 1
        total2 = rat(Fraction(6, 7)) + power(10, e, -1) + rat(Fraction(1, 7)) + power(10, e - 4)
        assert total2 > 1

    def test_cancellation_inside_cluster(self):
        e = 2**45
        s = power(10, e) + power(10, e + 2, Fraction(1, 2)) - power(10, e)
        assert s.sign() == 1
        assert (s - power(10, e + 2, Fraction(1, 2))).sign() == 0

    def test_cross_base_order(self):
        # base-20 term with an exponent at least as large is always smaller
        assert power(20, 100) < power(10, 100)
        assert power(20, 2**30) < power(10, 2**29)
        # literal settlement inside the ambiguous band
        assert power(20, 5) < power(10, 6)  # 20^-5 = 1/3.2e6 < 1e-6
        assert power(20, 10) > power(10, 14)

    def test_log10_of_two_bounds(self):
        # the certified bracket 30102/100000 < log10 2 < 30103/100000
        assert 10**30102 < 2**100000 < 10**30103

    def test_cross_base_order_beyond_literal_settlement(self):
        # 20^-40000 is about 10^-52041; both exponents are too deep to expand
        assert power(20, 40000) < power(10, 52000)
        assert not power(20, 40000) > power(10, 52000)
        assert power(10, 52000) > power(20, 40000)
        assert not power(10, 52000) < power(20, 40000)
        assert power(20, 40000) > power(10, 52100)
        assert power(10, 52100) < power(20, 40000)

    def test_unexpandable_fraction_raises(self):
        with pytest.raises(PrecisionError):
            (rat(1) + power(10, 2**40)).as_fraction()


class TestCanonicalForm:
    @given(st.integers(min_value=-10**6, max_value=10**6), st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=200)
    def test_rational_lowest_terms(self, num, den):
        from math import gcd

        q = rat(Fraction(num, den)).rational_part
        assert q.denominator > 0
        assert gcd(abs(q.numerator), q.denominator) == 1

    def test_zero_coefficients_dropped(self):
        v = power(10, 50) - power(10, 50)
        assert v.terms == ()
        assert v == 0

    def test_rejects_bad_terms(self):
        with pytest.raises(ValueError):
            power(2, 10)
        with pytest.raises(ValueError):
            power(10, 0)

    def test_hashable_and_equal(self):
        a = rat("1/7") + power(10, 99)
        b = rat(Fraction(1, 7)) + power(10, 99)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1


class TestFormatting:
    def test_parse_and_render_rational(self):
        assert parse_rational("87/62") == Fraction(87, 62)
        assert parse_rational("-3") == Fraction(-3)
        assert fraction_str(Fraction(87, 62)) == "87/62"
        assert fraction_str(Fraction(4)) == "4"

    @pytest.mark.parametrize(
        "value,expected",
        [
            (Fraction(87, 62), "1.40322580645"),
            (Fraction(17, 12), "1.41666666667"),
            (Fraction(1, 3), "0.333333333333"),
            (Fraction(2), "2"),
            (Fraction(-1, 8), "-0.125"),
            (Fraction(10**15), "1e+15"),
            (Fraction(1, 10**15), "1e-15"),
        ],
    )
    def test_decimal_rendering(self, value, expected):
        assert decimal_str(value) == expected

    def test_decimal_half_even(self):
        # 0.5 ulp ties round to the even digit at 12 significant places
        assert decimal_str(Fraction(123456789012_5, 10**13)) == "0.123456789012"
        assert decimal_str(Fraction(123456789011_5, 10**13)) == "0.123456789012"
        assert decimal_str(Fraction(123456789013_5, 10**13)) == "0.123456789014"

    def test_exact_string_roundtrip_info(self):
        v = rat("1/7") + power(10, 64) - power(20, 200, Fraction(3, 2))
        s = str(v)
        assert "1/7" in s and "10^-64" in s and "20^-200" in s
        j = v.to_json()
        assert j["rational"] == "1/7"
        assert {t["base"] for t in j["tiny"]} == {10, 20}


class TestBaseRule:
    """Only 10 and 20 may be perturbation bases: their powers never coincide."""

    @pytest.mark.parametrize("base", [2, 9, 11, 30, 100, 400])
    def test_other_bases_rejected(self, base):
        with pytest.raises(ValueError):
            power(base, 3)
        with pytest.raises(ValueError):
            Exact.from_terms(0, {(10, 4): Fraction(1), (base, 5): Fraction(1)})

    def test_shared_power_base_cannot_be_built(self):
        # 100**-300000 == 10**-600000 could never be ordered against it
        with pytest.raises(ValueError):
            power(100, 300000)


# mixed bases 10 and 20, small coefficients (often cancelling), exponents
# small enough that the literal Fraction is the oracle
fast_terms = st.dictionaries(
    st.tuples(st.sampled_from([10, 20]), st.integers(min_value=1, max_value=40)),
    st.sampled_from([Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(1, 2),
                     Fraction(1), Fraction(2)]),
    max_size=4,
)


def from_parts(q, terms):
    return Exact.from_terms(q, terms)


@st.composite
def compare_pairs(draw):
    """(a, b) pairs of the three kinds a comparison distinguishes."""
    kind = draw(st.sampled_from(["rational", "dominance", "terms"]))
    q1 = draw(small_rationals)
    if kind == "rational":
        shared = draw(fast_terms)  # equal tails: the rationals decide
        return from_parts(q1, shared), from_parts(draw(small_rationals), shared)
    if kind == "dominance":
        q2 = draw(small_rationals.filter(lambda q: q != q1))
        return from_parts(q1, draw(fast_terms)), from_parts(q2, draw(fast_terms))
    t1 = draw(fast_terms)
    # b reuses some of a's terms, with equal or opposite coefficients
    t2 = {key: draw(st.sampled_from([c, -c])) for key, c in t1.items() if draw(st.booleans())}
    t2.update(draw(fast_terms))
    return from_parts(q1, t1), from_parts(q1, t2)


def assert_order_matches(a, b, s):
    assert (a < b) == (s < 0)
    assert (a <= b) == (s <= 0)
    assert (a > b) == (s > 0)
    assert (a >= b) == (s >= 0)


class TestComparisonFastPaths:
    @given(compare_pairs())
    @settings(max_examples=400)
    def test_order_agrees_with_difference_sign_and_literal(self, pair):
        a, b = pair
        s = (a - b).sign()
        assert_order_matches(a, b, s)
        fa, fb = a.as_fraction(), b.as_fraction()
        assert s == (fa > fb) - (fa < fb)

    @given(compare_pairs(), st.integers(min_value=1, max_value=3))
    @settings(max_examples=200)
    def test_rational_operands_on_either_side(self, pair, n):
        a, _ = pair
        q = a.rational_part + Fraction(1, n)
        assert_order_matches(a, q, (a - q).sign())
        assert_order_matches(rat(q), a, (rat(q) - a).sign())
        assert (q > a) == (a < q)

    @given(small_rationals, small_rationals, fast_terms, fast_terms,
           st.integers(min_value=0, max_value=2**60))
    @settings(max_examples=200)
    def test_deep_exponents_agree_with_difference_sign(self, q1, q2, t1, t2, shift):
        deep = lambda terms: {(b, e + shift): c for (b, e), c in terms.items()}
        a, b = from_parts(q1, deep(t1)), from_parts(q2, deep(t2))
        try:
            s = (a - b).sign()
        except PrecisionError:
            return  # a tie no certificate can settle; never a wrong answer
        assert_order_matches(a, b, s)
        if q1 != q2 and shift >= 60:  # tails below 10**-60: the rationals decide
            assert s == (q1 > q2) - (q1 < q2)

    def test_dominance_needs_both_tails(self):
        # each tail alone is beaten by the rational gap; together they tie it
        gap = Fraction(2, 10**5)
        a = rat(gap) + power(10, 5, -1)
        b = rat(0) + power(10, 5)
        assert (a - b).sign() == 0
        assert not a < b and not a > b and a <= b and a >= b


class TestMergeAddition:
    @given(small_rationals, fast_terms, small_rationals, fast_terms)
    @settings(max_examples=300)
    def test_sum_terms_equal_canonical_dict_sum(self, q1, t1, q2, t2):
        total = dict(t1)
        for key, c in t2.items():
            total[key] = total.get(key, Fraction(0)) + c
        expected = Exact.from_terms(q1 + q2, total)
        got = from_parts(q1, t1) + from_parts(q2, t2)
        assert got.terms == expected.terms
        assert got.rational_part == q1 + q2
        assert (from_parts(q1, t1) - from_parts(q2, t2)).as_fraction() == (
            from_parts(q1, t1).as_fraction() - from_parts(q2, t2).as_fraction()
        )

    def test_cancellation_drops_terms(self):
        a = power(10, 7) + power(20, 3, 2) + power(10, 9)
        assert (a - power(20, 3, 2)).terms == (power(10, 7) + power(10, 9)).terms
        assert (a - a).terms == ()


class TestCachedTailIsInvisible:
    @given(small_rationals, fast_terms, small_rationals)
    @settings(max_examples=200)
    def test_cache_never_shows(self, q, terms, other):
        fresh = from_parts(q, terms)
        used = from_parts(q, terms)
        _ = used < other, used >= rat(other) + power(10, 3)  # fills the cache
        assert used == fresh and hash(used) == hash(fresh)
        assert str(used) == str(fresh) and repr(used) == repr(fresh)
        assert used.to_json() == fresh.to_json()
        assert len({used, fresh}) == 1
