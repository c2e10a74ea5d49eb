"""Exact-number core: cross-validated against literal Fraction arithmetic."""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from packbound import exact
from packbound.exact import (
    Exact,
    PrecisionError,
    decimal_str,
    fraction_str,
    parse_rational,
    _CLUSTER_GAP,
    _EXPAND_CAP,
    _exceeds,
    _expand,
    _log10_bounds,
    _mag_lt,
    _sign_of_terms,
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
        fa, fb = literal(q1, t1), literal(q2, t2)
        assert (a + b).as_fraction() == fa + fb
        assert (a - b).as_fraction() == fa - fb
        assert (a - b).sign() == (fa > fb) - (fa < fb)

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


@st.composite
def rewritten_pairs(draw):
    """(a, b) of one value in two forms: some of a's terms moved into the
    rational part, and 20**-e written as 2**-e * 10**-e; b sometimes nudged
    by 10**-50."""
    q, terms = draw(small_rationals), draw(fast_terms)
    moved, kept = Fraction(0), {}
    for (base, e), c in terms.items():
        if draw(st.booleans()):
            moved += c / Fraction(base) ** e
        elif base == 20:
            kept[10, e] = kept.get((10, e), 0) + c / 2**e
        else:
            kept[base, e] = kept.get((base, e), 0) + c
    b = from_parts(q + moved, {k: c for k, c in kept.items() if c})
    return from_parts(q, terms), b + power(10, 50, draw(st.sampled_from([0, 1, -1])))


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

    @given(st.one_of(compare_pairs(), rewritten_pairs()))
    @settings(max_examples=400)
    def test_equal_exactly_when_neither_is_smaller_and_equal_values_hash_alike(self, pair):
        a, b = pair
        assert (a == b) == (not a < b and not a > b)
        assert (a != b) == (a < b or a > b)
        if a == b:
            assert hash(a) == hash(b)

    def test_equal_values_of_different_forms(self):
        assert power(10, 2) == rat("1/100") and hash(power(10, 2)) == hash(rat("1/100"))
        assert power(20, 1) == power(10, 2, 5) and len({power(20, 1), power(10, 2, 5)}) == 1
        assert power(10, 2) == Fraction(1, 100) and power(10, 2) != Fraction(1, 99)

    def test_unequal_values_too_deep_to_order(self):
        # 20**-10**6 lies within a factor 10 of 10**-1301030: no certificate orders them
        a, b = power(20, 10**6), power(10, 1301030)
        with pytest.raises(PrecisionError):
            a < b
        assert a != b and not a == b

    def test_dominance_needs_both_tails(self):
        # each tail alone is beaten by the rational gap; together they tie it
        gap = Fraction(2, 10**5)
        a = rat(gap) + power(10, 5, -1)
        b = rat(0) + power(10, 5)
        assert (a - b).sign() == 0
        assert not a < b and not a > b and a <= b and a >= b

    def test_equal_rationals_compare_without_a_difference(self, monkeypatch):
        half, under = rat("1/2"), rat("1/2") - power(10, 30)

        def refuse(*args):
            raise AssertionError("comparison built a new Exact")

        # equal rational parts: the sign comes from the terms alone
        for name in ("__add__", "__sub__", "__neg__"):
            monkeypatch.setattr(Exact, name, refuse)
        assert under < half and under <= half and not under > half and not under >= half
        assert half > under and half >= under and not half < under and not half <= under


coefs = st.sampled_from([Fraction(-3), Fraction(-1), Fraction(-1, 2), Fraction(1, 3),
                         Fraction(1), Fraction(2)])


def band_terms(anchor):
    """Terms of both bases, small enough to expand.  Base-10 exponents often
    lie where 10**-e and 20**-anchor have overlapping log10 bounds, the band
    in which the two bases are ordered only by settling literally."""
    lo, hi = _log10_bounds(20, anchor)
    keys = st.lists(st.one_of(
        st.tuples(st.just(20), st.integers(min_value=1, max_value=80)),
        st.tuples(st.just(10), st.integers(min_value=1, max_value=100)),
        st.tuples(st.just(20), st.just(anchor)),
        st.tuples(st.just(10), st.integers(min_value=max(1, lo - 1), max_value=hi + 1)),
    ), max_size=4, unique=True)
    return keys.flatmap(lambda ks: st.fixed_dictionaries({k: coefs for k in ks}))


@st.composite
def equal_rational_pairs(draw):
    """(a, b) with equal rational parts: free terms, one side purely
    rational, or the same lead with a different coefficient."""
    q = draw(small_rationals)
    anchor = draw(st.integers(min_value=1, max_value=80))
    t1 = draw(band_terms(anchor))
    kind = draw(st.sampled_from(["free", "rational", "same-lead"]))
    if kind == "rational":
        t2 = {}
    elif kind == "same-lead" and t1:
        base, exp, c = Exact.from_terms(0, t1).terms[0]
        t2 = {key: c2 for key, c2 in draw(band_terms(anchor)).items()
              if _mag_lt(*key, base, exp)}  # smaller than the shared lead
        t2[base, exp] = draw(coefs.filter(lambda c2: c2 != c))
    else:
        t2 = draw(band_terms(anchor))
    a, b = Exact.from_terms(q, t1), Exact.from_terms(q, t2)
    return (b, a) if draw(st.booleans()) else (a, b)


def literal_sign(f):
    return (f > 0) - (f < 0)


Q = rat("1/7")


class TestEqualRationalParts:
    @given(equal_rational_pairs())
    @settings(max_examples=500)
    # 20**-10 is about 9.77 * 10**-14: the lead's magnitude bound must be
    # its upper one, 10**-14
    @example((Q + power(20, 10), Q + power(10, 14, Fraction(49, 5))))
    @example((Q + power(20, 10), Q + power(10, 14, Fraction(39, 4))))
    # the lead's own later terms outweigh it: 10**-5 - 2 * 20**-4 < 0
    @example((Q + power(10, 5) - power(20, 4, 2), Q + power(10, 7)))
    def test_order_and_sign_agree_with_literal(self, pair):
        a, b = pair
        fa, fb = a.as_fraction(), b.as_fraction()
        s = literal_sign(fa - fb)
        assert_order_matches(a, b, s)
        assert_order_matches(b, a, -s)
        assert a.sign() == literal_sign(fa) and b.sign() == literal_sign(fb)
        assert (a - b).sign() == s
        assert_order_matches(a, b, s)  # again, with every cache filled

    def test_a_leading_term_decides_without_merging(self, monkeypatch):
        a_exp, b_exp = 639 * 10**27, 634 * 10**27
        a = Q + power(10, a_exp)
        b = Q - power(10, b_exp) - power(10, b_exp + 10**27)

        def refuse(*args):
            raise AssertionError("comparison fell back to the term path")

        monkeypatch.setattr(exact, "_merge_terms", refuse)
        monkeypatch.setattr(exact, "_sign_of_terms", refuse)
        assert a > b and a >= b and not a < b and not a <= b
        assert b < a and b <= a and not b > a and not b >= a
        # other lead coefficients, the lead on either side, a base-20 lead
        assert Q - power(10, b_exp, 2) < Q + power(20, a_exp, 5)
        assert Q + power(20, a_exp) < Q + power(10, b_exp, Fraction(1, 9))
        assert Q + power(20, b_exp, 3) > Q - power(10, 2 * b_exp)


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


class TestOneTermOrder:
    @given(small_rationals, fast_terms)
    @settings(max_examples=200)
    def test_from_terms_orders_terms_by_magnitude(self, q, terms):
        built = Exact.from_terms(q, terms).terms
        assert sorted((b, e, c) for b, e, c in built) == sorted(
            (b, e, c) for (b, e), c in terms.items() if c)
        assert all(_mag_lt(b2, e2, b1, e1) for (b1, e1, _), (b2, e2, _) in zip(built, built[1:]))

    def test_power_checks_then_drops_a_zero_coefficient(self):
        assert power(10, 3, 0) == rat(0) and power(10, 3, 0).terms == ()
        assert power(20, 5, Fraction(1, 2)).terms == ((20, 5, Fraction(1, 2)),)
        with pytest.raises(ValueError, match="exponents must be >= 1"):
            power(10, 0)
        with pytest.raises(ValueError):
            power(7, 3, 0)


class TestExceeds:
    """`_exceeds(num, den, base, e)` certifies num/den > base**-e."""

    @given(st.integers(min_value=0, max_value=2**300), st.integers(min_value=1, max_value=2**300),
           st.sampled_from([10, 20]), st.integers(min_value=-3, max_value=80))
    @settings(max_examples=1000)
    @example(1, 10**80, 10, 80)
    @example(10**80 + 1, 10**160, 10, 80)
    @example(1, 20**64, 20, 64)
    @example(2, 20**64, 20, 64)
    def test_never_wrong_and_decided_up_to_64(self, num, den, base, e):
        verdict = _exceeds(num, den, base, e)
        if verdict is not None:
            truth = num * base**e > den if e >= 0 else num > den * base**-e
            assert verdict == truth
        if 1 <= e <= 64:
            assert verdict is not None
        if e <= 0 and num > 0:
            assert verdict is None

    @pytest.mark.parametrize("base", [10, 20])
    def test_bit_lengths_decide_beyond_64(self, base):
        e = 1000
        assert _exceeds(1, base**(2 * e), base, e) is False
        assert _exceeds(base**e, base**e // 7, base, e) is True
        assert _exceeds(7, 7 * base**e, base, e) is None  # exactly base**-e: undecided


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


# -- Exact.sign with its own rational-part certificate, verbatim ---------------


def reference_sign(self) -> int:
    q = self.rational_part
    if not self._terms:
        return (q > 0) - (q < 0)
    if q != 0:
        # |q| > (n/d) * 10**-e_min certifies that q decides the sign
        e_min, n, d = self._tail_bound()
        r_num, r_den = abs(q.numerator) * d, q.denominator * n
        g = math.gcd(r_num, r_den)
        verdict = _exceeds(r_num // g, r_den // g, 10, e_min)
        if verdict:
            return 1 if q > 0 else -1
        if verdict is None and e_min > _EXPAND_CAP:
            raise PrecisionError("rational-vs-perturbation tie too deep to expand")
        # no certificate (or the perturbation bound beats q): expand exactly
        total = q + _expand(self._terms)
        return (total > 0) - (total < 0)
    return _sign_of_terms(self._terms)


@st.composite
def rational_and_terms(draw):
    """A value with a nonzero rational part and terms with exponents up to
    `_EXPAND_CAP`: leads of either base, terms within `_CLUSTER_GAP` of each
    other, and rational parts that cancel some of the terms exactly."""
    anchor = draw(st.integers(min_value=1, max_value=_EXPAND_CAP - _CLUSTER_GAP))
    exps = st.one_of(st.integers(min_value=1, max_value=60),
                     st.integers(min_value=anchor, max_value=anchor + _CLUSTER_GAP),
                     st.integers(min_value=1, max_value=_EXPAND_CAP))
    terms = draw(st.dictionaries(st.tuples(st.sampled_from([10, 20]), exps), coefs,
                                 min_size=1, max_size=4))
    value = Exact.from_terms(0, terms)
    cancelled = value.terms[:draw(st.integers(min_value=0, max_value=len(value.terms)))]
    q = -sum((c / Fraction(b) ** e for b, e, c in cancelled), Fraction(0))
    q += draw(st.one_of(st.just(Fraction(0)), small_rationals,
                        st.integers(1, 60).map(lambda e: Fraction(1, 10**e))))
    return value + (q or Fraction(1, 3))


class TestSignWeighsTheRationalPartAsATerm:
    @given(rational_and_terms())
    @settings(max_examples=150, deadline=None)
    @example(rat(Fraction(1, 10**5)) + power(10, 5, -1))  # an exact cancellation
    @example(rat(Fraction(1, 10**5)) + power(10, 5, -1) + power(20, _EXPAND_CAP))
    @example(rat(Fraction(-1, 20)) + power(20, 1) + power(10, 600, 3))
    def test_same_sign_as_its_own_certificate(self, value):
        assert value.rational_part != 0 and value.terms
        assert value.sign() == reference_sign(value)


P = sys.hash_info.modulus


class TestHashWhenPDividesADenominator:
    @given(small_rationals, fast_terms)
    def test_a_form_without_p_hashes_as_its_literal_value(self, q, terms):
        value = q + sum(c * Fraction(1, b**e) for (b, e), c in terms.items())
        assert hash(from_parts(q, terms)) == hash(value)

    def test_a_form_dividing_by_p_hashes_as_its_value(self):
        a = rat(Fraction(1, P)) + power(10, 2, Fraction(-100, P))
        assert a == rat(0) and hash(a) == hash(rat(0)) == 0

    def test_a_value_dividing_by_p_hashes_inf_in_every_form(self):
        a, b = rat(Fraction(1, P)), rat(Fraction(1, P) - Fraction(1, 100)) + power(10, 2)
        assert a == b and hash(a) == hash(b) == sys.hash_info.inf
        assert hash(a) == hash(Fraction(1, P))

    @given(small_rationals, fast_terms, st.sampled_from([0, 1]), st.integers(1, 3),
           st.integers(-3, 3).filter(bool), st.data())
    @settings(max_examples=200)
    def test_equal_values_hash_alike(self, q, terms, over_p, j, k, data):
        """b is a with k / P**j moved from one of its parts (the rational
        part as (10, 0)) to another; over_p puts 1 / P into the value."""
        q += Fraction(over_p, P)
        parts = [(10, 0), *terms, (10, 7), (20, 3)]
        src, dst = data.draw(st.lists(st.sampled_from(parts), min_size=2, max_size=2,
                                      unique=True))
        moved, shifted = Fraction(k, P**j), dict(terms)
        shifted[src] = shifted.get(src, 0) - moved * src[0] ** src[1]
        shifted[dst] = shifted.get(dst, 0) + moved * dst[0] ** dst[1]
        a = from_parts(q, terms)
        rational = q + shifted.pop((10, 0), 0)
        b = from_parts(rational, {key: c for key, c in shifted.items() if c})
        assert a == b and hash(a) == hash(b)
        assert (abs(hash(a)) == sys.hash_info.inf) == bool(over_p)


class TestHashAsFractionAndInt:
    @given(st.one_of(st.integers(-2 * P, 2 * P), small_rationals,
                     st.builds(lambda n, d: Fraction(n, d * P), st.integers(-9, 9),
                               st.integers(1, 9))),
           st.sampled_from([10, 20]), st.integers(1, 40), coefs)
    @example(-1, 10, 1, Fraction(1))  # hash(-1) is -2
    @example(Fraction(-1, P), 20, 3, Fraction(-3))  # -inf
    @example(-P, 10, 2, Fraction(2))  # 0
    def test_rat_and_a_termed_form_hash_as_the_value(self, x, base, exp, coef):
        """`Exact` equals Fractions and ints of either sign, so it hashes alike."""
        termed = rat(x - coef / Fraction(base) ** exp) + power(base, exp, coef)
        assert termed.terms and rat(x) == x == termed
        assert hash(rat(x)) == hash(termed) == hash(x) == hash(Fraction(x))


# rational values, and termed values whose exponents (at most 64) keep
# `as_fraction` cheap, so Fraction arithmetic on the literal values is the oracle
pair_values = st.builds(
    from_parts,
    st.fractions(min_value=Fraction(-6), max_value=Fraction(6), max_denominator=10**4),
    st.one_of(st.just({}), st.dictionaries(
        st.tuples(st.sampled_from([10, 20]), st.integers(min_value=1, max_value=64)),
        coefs, max_size=3)),
)


def assert_lowest_terms(value):
    q = value.rational_part
    assert q.denominator > 0 and (value._n, value._d) == (q.numerator, q.denominator)
    for b, e, n, d in value._terms:  # each coefficient too, and never zero
        assert n != 0 and d > 0 and math.gcd(n, d) == 1
    assert value.terms == tuple((b, e, Fraction(n, d)) for b, e, n, d in value._terms)


class TestRationalPartAsTwoInts:
    @given(pair_values, pair_values, st.one_of(small_rationals, st.integers(-5, 5)))
    @settings(max_examples=300, deadline=None)
    @example(rat(Fraction(1, 2)), rat(Fraction(1, 2)), 0)  # 2/2 must reduce
    @example(rat(Fraction(1, 6)), rat(Fraction(1, 3)), Fraction(1, 2))
    def test_arithmetic_order_and_hash_agree_with_fraction(self, a, b, x):
        fa, fb = a.as_fraction(), b.as_fraction()
        for got, want in ((a + b, fa + fb), (a - b, fa - fb), (-a, -fa), (a + x, fa + x),
                          (a - x, fa - x), (x - a, x - fa), (x + a, x + fa)):
            assert_lowest_terms(got)
            assert got.as_fraction() == want and got == want and got == rat(want)
            assert hash(got) == hash(want) == hash(rat(want))
        for other, literal in ((b, fb), (x, x)):
            s = (fa > literal) - (fa < literal)
            assert_order_matches(a, other, s)
            assert (a == other) == (s == 0) and (a != other) == (s != 0)
        assert hash(rat(fa)) == hash(fa)

    def test_rational_arithmetic_builds_no_fraction(self, monkeypatch):
        a, b = rat(Fraction(5, 12)), rat(Fraction(-1, 3))
        made = []
        original = Fraction.__new__

        def counting(cls, *args, **kwargs):
            made.append(args)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting)
        results = [a + b, a - b, a <= b, b <= a, a == b, a == a + 0, a + 1, 1 - a, a <= 1]
        assert made == []
        assert results[2:6] == [False, True, False, True]

    def test_termed_arithmetic_and_comparison_build_no_fraction(self, monkeypatch):
        # built first: `power` takes its coefficient as a Fraction
        a = rat(Fraction(5, 12)) + power(10, 30, Fraction(-3, 4)) + power(20, 9, 2)
        b = rat(Fraction(-1, 3)) + power(10, 30, Fraction(1, 6)) - power(10, 80, Fraction(7, 9))
        c = rat(Fraction(5, 12)) - power(10, 5)  # a's rational part, a larger lead
        q, low = Fraction(5, 12), Fraction(-7, 12)
        made = []
        original = Fraction.__new__

        def counting(cls, *args, **kwargs):
            made.append(args)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting)
        sums = [a + b, a - b, b - a, -a, -b, a + 1, 1 - b, a - q]
        order = [a <= b, b < a, a > c, c < a, a >= a + 0, a == b, a == -(-a), b.sign(),
                 (a - a).sign(), a > low]
        assert made == []
        assert order == [False, True, True, True, True, False, True, -1, 0, True]
        assert (a + b)._terms == ((20, 9, 2, 1), (10, 30, -7, 12), (10, 80, -7, 9))
        assert (-b)._terms == ((10, 30, -1, 6), (10, 80, 7, 9)) and sums[3] == -a


def bit_verdict(a, b):
    """The sign of a - b that tier 1's bit-length test certifies, or None."""
    num = a._n * b._d - b._n * a._d
    ks = [v._bits() for v in (a, b) if v._terms]
    if num and ks and num.bit_length() - (a._d * b._d).bit_length() + min(ks) >= 2:
        return 1 if num > 0 else -1
    return None


# exponents down to 1 and coefficient sums up to thousands: tails that
# often outweigh a small rational gap, so the bit test gives up and the
# certificate or the term-by-term sign decides.  Coefficients 2**m - 1 and
# gaps 2**i / (2**j - 1) sit just below a power of two, where the bit test's
# margin is thinnest.
heavy_terms = st.dictionaries(
    st.tuples(st.sampled_from([10, 20]), st.integers(min_value=1, max_value=12)),
    st.one_of(st.fractions(min_value=-5000, max_value=5000, max_denominator=30).filter(bool),
              st.builds(lambda m, s: s * (2**m - 1), st.integers(1, 12), st.sampled_from([1, -1]))),
    max_size=4)
near_rationals = st.one_of(
    st.builds(lambda q, n: q + Fraction(n, 10**6), small_rationals, st.integers(-3, 3)),
    st.builds(lambda i, j, s: s * Fraction(2**i, 2**j - 1), st.integers(0, 9),
              st.integers(1, 9), st.sampled_from([1, -1])))


class TestTierOneBitTest:
    @given(near_rationals, heavy_terms, near_rationals, heavy_terms)
    @settings(max_examples=400)
    @example(Fraction(1, 10), {(10, 1): Fraction(2)}, Fraction(0), {})  # 1/10 + 2/10 > 0
    @example(Fraction(1, 10), {(10, 1): Fraction(-1)}, Fraction(0), {})  # exactly 0
    @example(Fraction(1, 3), {(10, 3): Fraction(-300)}, Fraction(0), {(20, 2): Fraction(1)})
    # a gap of 32/31 against a tail of -3/2, and of 64/31 against two tails
    # summing to -3: the bit test must leave both to the fallback
    @example(Fraction(32, 31), {(10, 1): Fraction(-15)}, Fraction(0), {})
    @example(Fraction(64, 31), {(10, 1): Fraction(-15)}, Fraction(0), {(10, 1): Fraction(15)})
    def test_agrees_with_the_literal_sign(self, q1, t1, q2, t2):
        a, b = from_parts(q1, t1), from_parts(q2, t2)
        fa, fb = a.as_fraction(), b.as_fraction()
        s = literal_sign(fa - fb)
        assert_order_matches(a, b, s)
        assert_order_matches(b, a, -s)
        verdict = bit_verdict(a, b)
        assert verdict is None or verdict == s
        for v in (a, b):  # the cached exponent bounds the tail: |terms| < 2**-k
            if v._terms:
                assert abs(_expand(v._terms)) < Fraction(2) ** -v._bits()

    def test_an_undecided_bit_test_falls_back_to_the_certificate_and_the_terms(self):
        # 1/10**5 against 10**-6: the bit lengths leave too little room, the
        # integer certificate decides
        a, b = rat(Fraction(1, 10**5)) + power(10, 6), rat(0) + power(10, 7)
        assert bit_verdict(a, b) is None and a > b and b < a
        # a gap of 1/10 against a tail of -1/10: only the terms can tell (a tie)
        a, b = rat(Fraction(1, 10)) + power(10, 1, -1), rat(0)
        assert bit_verdict(a, b) is None and a == b and a <= b and not a < b
