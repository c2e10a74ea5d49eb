"""`decimal_str` against the hand-rounded rendering it replaced.

`reference_decimal_str` below is that rendering verbatim: a leading-digit
estimate, integer half-even rounding at DECIMAL_DIGITS significant digits, a
fix-up when rounding overflows into one more digit, and three format
branches.  `decimal_str`, one correctly rounded `decimal` division, must
print the same string for every Fraction, including the cases where the
hand rules are easiest to get wrong: exact ties at the 13th digit, values
such as 9.99...95 that round up to the next power of ten, the two format
thresholds (1e-6 and 1e12), negatives, zero and exponents of about +-3000.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from packbound.exact import DECIMAL_DIGITS, decimal_str

F = Fraction


# -- the hand rounding, verbatim -----------------------------------------------


def reference_decimal_str(q: Fraction) -> str:
    """Display-only decimal rendering, DECIMAL_DIGITS significant digits, half-even."""
    if q == 0:
        return "0"
    sign = "-" if q < 0 else ""
    p, d = abs(q.numerator), q.denominator
    # exponent of the leading digit
    exp = len(str(p)) - len(str(d))
    if p * 10 ** max(0, -exp) < d * 10 ** max(0, exp):
        exp -= 1
    shift = DECIMAL_DIGITS - 1 - exp
    scaled = p * 10**shift if shift >= 0 else p
    divisor = d if shift >= 0 else d * 10**-shift
    digits, rem = divmod(scaled, divisor)
    # round half to even
    twice = 2 * rem
    if twice > divisor or (twice == divisor and digits % 2 == 1):
        digits += 1
    text = str(digits)
    if len(text) > DECIMAL_DIGITS:  # rounding overflowed into one more digit
        text = text[:DECIMAL_DIGITS]
        exp += 1
    if 0 <= exp < DECIMAL_DIGITS:
        intpart = text[: exp + 1]
        frac = text[exp + 1 :].rstrip("0")
        return sign + intpart + ("." + frac if frac else "")
    if -6 < exp < 0:
        frac = ("0" * (-exp - 1) + text).rstrip("0")
        return sign + "0." + frac
    frac = text[1:].rstrip("0")
    mantissa = text[0] + ("." + frac if frac else "")
    return f"{sign}{mantissa}e{exp:+d}"


# -- values ------------------------------------------------------------------

SIGNS = st.sampled_from([1, -1])
EXPONENTS = st.integers(-3000, 3000)
# exponents around both format thresholds, 1e-6 and 1e12
NEAR_THRESHOLDS = st.integers(-9, -4) | st.integers(9, 14)


@st.composite
def ties(draw, exponents=EXPONENTS):
    """m + 1/2 for a 12-digit m, times a power of ten: an exact tie at the
    13th significant digit, half of them on an odd 12th digit."""
    m = draw(st.integers(10 ** (DECIMAL_DIGITS - 1), 10**DECIMAL_DIGITS - 1))
    return draw(SIGNS) * F(2 * m + 1, 2) * F(10) ** draw(exponents)


@st.composite
def just_below_powers(draw, exponents=EXPONENTS):
    """10 - 5e-12, the tie that rounds 9.99...9|5 up to 10, nudged by a few
    units far below it (or not at all), times a power of ten."""
    nudge = F(draw(st.integers(-50, 50)), 10 ** draw(st.integers(12, 30)))
    return draw(SIGNS) * (F(10**13 - 5, 10**12) + nudge) * F(10) ** draw(exponents)


@st.composite
def ratios(draw, exponents=EXPONENTS):
    """A plain ratio of two integers, times a power of ten."""
    p = draw(st.integers(1, 10**40))
    d = draw(st.integers(1, 10**40))
    return draw(SIGNS) * F(p, d) * F(10) ** draw(exponents)


@st.composite
def near_one(draw, exponents):
    """1 plus or minus a tiny offset, times a power of ten: the values that
    cross a format threshold when they round."""
    offset = F(draw(st.integers(-10, 10)), 10 ** draw(st.integers(1, 20)))
    return draw(SIGNS) * (1 + offset) * F(10) ** draw(exponents)


def agrees(q):
    assert decimal_str(q) == reference_decimal_str(q), q


class TestAgainstHandRounding:
    @settings(max_examples=400, deadline=None)
    @given(ties() | ties(NEAR_THRESHOLDS))
    def test_exact_ties(self, q):
        agrees(q)

    @settings(max_examples=400, deadline=None)
    @given(just_below_powers() | just_below_powers(NEAR_THRESHOLDS))
    def test_round_up_to_the_next_power(self, q):
        agrees(q)

    @settings(max_examples=400, deadline=None)
    @given(near_one(NEAR_THRESHOLDS) | ratios(NEAR_THRESHOLDS))
    def test_format_thresholds(self, q):
        agrees(q)

    @settings(max_examples=400, deadline=None)
    @given(ratios() | st.fractions(max_denominator=10**6))
    def test_any_value(self, q):
        agrees(q)

    def test_pinned_edges(self):
        for q in (F(0), F(1, 10**6), F(-1, 10**6), F(999999999999, 10**18), F(10**12),
                  F(999999999999), F(2 * 999999999999 + 1, 2), F(10**13 - 5, 10**12),
                  F(-(10**13 - 5), 10**12), F(1, 3 * 10**3000), F(7 * 10**3000, 9)):
            agrees(q)
