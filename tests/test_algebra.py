"""Integer polynomials: evaluation, gcd, square-free parts, Sturm counts and
the replay of an isolated root, against polynomials with known roots."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from packbound.algebra import (check_threshold, count_roots, integral, poly_gcd, primitive,
                               sign_at, squarefree, sturm, value)


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
        assert integral((F(-2, 3), F(4, 3))) == (-1, 2)
        assert primitive((F(-2, 3), F(4, 3))) == (1, -2)
        assert integral((0, 0)) == ()


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
    ])
    def test_rejects(self, polynomial, interval):
        assert not check_threshold(polynomial, interval)
