"""Integer polynomials: evaluation, gcd, square-free parts, Sturm counts and
the replay of an isolated root, against polynomials with known roots.

`reference_sturm`, `reference_poly_gcd` and `reference_squarefree` below are
the division over `Fraction` that the integer pseudo-division replaced,
verbatim: every remainder a rational polynomial, scaled back to integers by
`reference_integral`.  The integer versions must return the same tuples.
"""

from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from packbound.algebra import (_derivative, _trim, check_threshold, count_roots, integral,
                               poly_gcd, primitive, sign_at, squarefree, sturm, value)


def product(*factors) -> tuple:
    """The product of polynomials, highest power first."""
    out = (1,)
    for f in factors:
        res = [0] * (len(out) + len(f) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(f):
                res[i + j] += x * y
        out = tuple(res)
    return out


def linear(root: F) -> tuple:
    """den*R - num, whose root is root."""
    return (root.denominator, -root.numerator)


ROOTS = st.fractions(min_value=-4, max_value=4, max_denominator=12)


# -- the division over Fraction, verbatim ----------------------------------------


def reference_integral(poly) -> tuple:
    """The positive multiple of poly (rational coefficients) whose integer
    coefficients have gcd 1; () for zero."""
    poly = _trim(poly)
    if not poly:
        return ()
    poly = [F(c) for c in poly]
    scale = lcm(*(c.denominator for c in poly))
    ints = [c.numerator * (scale // c.denominator) for c in poly]
    g = gcd(*ints)
    return tuple(c // g for c in ints)


def reference_primitive(poly) -> tuple:
    """poly scaled to integer coefficients with gcd 1 and a positive leading one."""
    out = reference_integral(poly)
    return tuple(-c for c in out) if out and out[0] < 0 else out


def reference_divmod(a, b) -> tuple[list, list]:
    """The quotient and the remainder of a divided by b (b nonzero), over Fraction."""
    a = [F(c) for c in _trim(a)]
    b = _trim(b)
    quotient = []
    while len(a) >= len(b):
        k = a[0] / b[0]
        quotient.append(k)
        a = [x - k * y for x, y in zip(a, [*b, *[0] * (len(a) - len(b))])][1:]
    return quotient, _trim(a)


def reference_poly_gcd(a, b) -> tuple:
    """The greatest common divisor of a and b, `primitive`; () when both are zero."""
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, reference_divmod(a, b)[1]
    return reference_primitive(a)


def reference_squarefree(poly) -> tuple:
    """The product of poly's distinct irreducible factors, `primitive`."""
    poly = _trim(poly)
    if len(poly) <= 1:
        return reference_primitive(poly)
    return reference_primitive(reference_divmod(poly, reference_poly_gcd(poly, _derivative(poly)))[0])


def reference_sturm(poly) -> tuple:
    """The Sturm sequence of poly (nonzero): poly, poly', then minus each
    remainder, each element a positive multiple kept in integers."""
    seq = [reference_integral(poly), reference_integral(_derivative(_trim(poly)))]
    while seq[-1]:
        seq.append(reference_integral([-c for c in reference_divmod(seq[-2], seq[-1])[1]]))
    return tuple(seq[:-1])


# factors with small rational roots, repeated roots and complex roots
FACTORS = st.one_of(ROOTS.map(linear), st.sampled_from([(1, 0, 1), (2, -2, 5), (-3, 1, 1)]))


def at_most_sixth(factors) -> list:
    """The longest prefix of factors whose product has degree <= 6."""
    out, degree = [], 0
    for f in factors:
        degree += len(f) - 1
        if degree > 6:
            break
        out.append(f)
    return out


@st.composite
def integer_polys(draw, shared=()) -> tuple:
    """A nonzero integer polynomial of degree <= 6 with a leading coefficient
    of either sign: random coefficients, sparse ones (whose remainders skip
    degrees, so a division takes an odd number of steps), or shared times
    other factors, some of them repeated."""
    scale = (draw(st.integers(-6, 6).filter(bool)),)
    if not shared and draw(st.booleans()):
        coeffs = draw(st.sampled_from([st.integers(-50, 50), st.sampled_from([-1, 0, 0, 1, 2])]))
        return (draw(st.integers(-50, 50).filter(bool)), *draw(st.lists(coeffs, max_size=6)))
    factors = [*shared, *draw(st.lists(FACTORS, max_size=3))]
    factors += draw(st.lists(st.sampled_from(factors), max_size=2)) if factors else []
    return product(*at_most_sixth(factors), scale)


class TestEvaluation:
    def test_homogenized_value(self):
        # 256R^3 + 9264R^2 + 78669R - 167589 at 7/4, times 4^3
        poly = (256, 9264, 78669, -167589)
        assert value(poly, 7, 4) == 64 * (256 * F(7, 4) ** 3 + 9264 * F(7, 4) ** 2
                                          + 78669 * F(7, 4) - 167589)

    def test_sign_at_a_root_is_zero(self):
        assert sign_at((1, 0, -4), F(2)) == 0
        assert sign_at((1, 0, -4), F(-3, 2)) == -1

    def test_integral_keeps_the_sign_and_primitive_makes_it_positive(self):
        assert integral((0, -2, 4)) == (-1, 2)
        assert primitive((0, -2, 4)) == (1, -2)
        assert integral((0, 0)) == ()


class TestAgainstTheFractionDivision:
    @settings(max_examples=300, deadline=None)
    @given(integer_polys())
    @example((1, 0, 0, 1, 0))  # the remainder -3x/4 skips a degree and leads negative
    def test_same_sturm_sequence_and_squarefree_part(self, poly):
        assert sturm(poly) == reference_sturm(poly)
        assert squarefree(poly) == reference_squarefree(poly)

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.lists(FACTORS, max_size=2))
    def test_same_gcd(self, data, shared):
        u, w = data.draw(integer_polys(shared)), data.draw(integer_polys(shared))
        assert poly_gcd(u, w) == reference_poly_gcd(u, w)


class TestGcd:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(ROOTS, min_size=1, max_size=4), st.lists(ROOTS, max_size=3),
           st.lists(ROOTS, max_size=3))
    def test_gcd_of_shared_factors(self, shared, left, right):
        left = [r for r in left if r not in right and r not in shared]
        right = [r for r in right if r not in left and r not in shared]
        u = product(*map(linear, shared + left), (1, 0, 1))
        w = product(*map(linear, shared + right), (2, 0, 3))
        assert poly_gcd(u, w) == primitive(product(*map(linear, shared)))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(ROOTS, min_size=1, max_size=5))
    def test_squarefree_drops_repeats(self, roots):
        poly = product(*map(linear, roots), (-3, 0, -1))
        assert squarefree(poly) == primitive(product(*map(linear, sorted(set(roots))), (3, 0, 1)))


class TestSturm:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(ROOTS, min_size=1, max_size=5), ROOTS, ROOTS)
    def test_counts_the_distinct_roots_between(self, roots, a, b):
        if a > b:
            a, b = b, a
        poly = product(*map(linear, roots), (1, -2, 5))  # (R - 1)^2 + 4 has no real root
        if a == b or not sign_at(poly, a) or not sign_at(poly, b):
            return
        assert count_roots(sturm(poly), a, b) == len({r for r in roots if a < r < b})

    def test_sp_threshold_polynomial_has_one_real_root(self):
        poly = (256, 9264, 78669, -167589)
        assert count_roots(sturm(poly), F(-100), F(100)) == 1
        assert count_roots(sturm(poly), F(175, 100), F(176, 100)) == 1

    def test_sympy_agrees_on_the_threshold_polynomials(self):
        sympy = pytest.importorskip("sympy")
        r = sympy.Symbol("r")
        for poly in [(256, 9264, 78669, -167589), (1, 0, -3), (4, -9, -1, 8), (6, -3, -16),
                     (3, -1, -8)]:
            expr = sum(c * r ** (len(poly) - 1 - i) for i, c in enumerate(poly))
            for a, b in [(1, 3), (F(7, 4), F(19, 10)), (-10, 10)]:
                real = sympy.Poly(expr, r).count_roots(a, b)
                assert count_roots(sturm(poly), F(a), F(b)) == real


class TestReplay:
    def test_accepts_an_isolated_root(self):
        assert check_threshold([1, 0, -3], ["1732/1000", "1733/1000"])

    @pytest.mark.parametrize("polynomial,interval", [
        ((1, 0, -3), (F(1733, 1000), F(1732, 1000))),  # ends reversed
        ((1, 0, -3), (F(1), F(3, 2))),  # no sign change
        ((1, -2), (F(2), F(3))),  # zero at an end
        ((5,), (F(0), F(1))),  # no root at all
        # a sign change across three roots: the Sturm count is 3
        (product((1, -1), (1, -2), (1, -3)), (F(1, 2), F(7, 2))),
        # the sp polynomial read back with a coefficient that is not an int
        ((256.0, 9264, 78669, -167589), ("175/100", "176/100")),
        (("256", 9264, 78669, -167589), ("175/100", "176/100")),
    ])
    def test_rejects(self, polynomial, interval):
        assert not check_threshold(polynomial, interval)
