"""Univariate polynomials with integer coefficients, highest power first:
exact evaluation at a rational point, gcd and square-free part, Sturm
sequences and the replay of an isolated root, all in integers.

`value` evaluates the homogenized polynomial, q^deg * P(p/q), by Horner's
rule; for q > 0 it has the sign of P(p/q).  Division is integer pseudo-
division (Knuth, TAOCP vol. 2, 4.6.1), whose quotient and remainder are
positive multiples of the rational ones, which changes no sign.  `Fraction`
holds only evaluation points and intervals.  This module imports only
`fractions` and `math`, and nothing from the package.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

__all__ = ["value", "sign", "integral", "primitive", "poly_gcd", "squarefree", "sturm",
           "sign_at", "count_roots", "check_threshold"]


def value(poly, p: int, q: int = 1) -> int:
    """q^deg * poly(p/q), deg = len(poly) - 1."""
    total, qk = poly[0], 1
    for c in poly[1:]:
        qk *= q
        total = total * p + c * qk
    return total


def sign(x) -> int:
    return (x > 0) - (x < 0)


def sign_at(poly, x: Fraction) -> int:
    """The sign of poly at the rational x."""
    return sign(value(poly, x.numerator, x.denominator))


def _trim(poly) -> list:
    """poly without leading zeros; [] is the zero polynomial."""
    k = next((i for i, c in enumerate(poly) if c), len(poly))
    return list(poly[k:])


def integral(poly) -> tuple:
    """poly (integers) without leading zeros, divided by the gcd of its
    coefficients, a positive factor; () for zero."""
    poly = _trim(poly)
    g = gcd(*poly)
    return tuple(c // g for c in poly) if g > 1 else tuple(poly)


def primitive(poly) -> tuple:
    """`integral` with a positive leading coefficient."""
    out = integral(poly)
    return tuple(-c for c in out) if out and out[0] < 0 else out


def _divmod(a, b) -> tuple[list, list]:
    """The quotient and the remainder of a divided by b (b nonzero), each
    scaled by |b[0]| at every step: positive multiples of the rational ones."""
    a, b = _trim(a), _trim(b)
    lead, s = abs(b[0]), sign(b[0])
    quotient = []
    while len(a) >= len(b):
        k = s * a[0]
        quotient = [lead * c for c in quotient] + [k]
        a = [lead * x - k * y for x, y in zip(a, [*b, *[0] * (len(a) - len(b))])][1:]
    return quotient, _trim(a)


def _derivative(poly) -> list:
    d = len(poly) - 1
    return [c * (d - i) for i, c in enumerate(poly[:-1])]


def poly_gcd(a, b) -> tuple:
    """The greatest common divisor of a and b, `primitive`; () when both are zero."""
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, integral(_divmod(a, b)[1])
    return primitive(a)


def squarefree(poly) -> tuple:
    """The product of poly's distinct irreducible factors, `primitive`."""
    poly = _trim(poly)
    if len(poly) <= 1:
        return primitive(poly)
    return primitive(_divmod(poly, poly_gcd(poly, _derivative(poly)))[0])


def sturm(poly) -> tuple:
    """The Sturm sequence of poly (nonzero): poly, poly', then minus each
    remainder, each element a positive multiple kept in integers."""
    seq = [integral(poly), integral(_derivative(_trim(poly)))]
    while seq[-1]:
        seq.append(integral([-c for c in _divmod(seq[-2], seq[-1])[1]]))
    return tuple(seq[:-1])


def _variations(seq, x: Fraction) -> int:
    signs = [s for s in (sign_at(poly, x) for poly in seq) if s]
    return sum(1 for u, v in zip(signs, signs[1:]) if u != v)


def count_roots(seq, a: Fraction, b: Fraction) -> int:
    """The distinct real roots in (a, b) of the polynomial whose Sturm
    sequence is seq, provided it is nonzero at a and at b, a < b."""
    return _variations(seq, a) - _variations(seq, b)


def check_threshold(polynomial, interval) -> bool:
    """Replay an isolated root without trusting any solver: polynomial
    (integers, highest power first) has opposite signs at the interval's
    ends (a < b) and, by its Sturm sequence, exactly one root between them.
    A coefficient that is not an int (256.0, "256") fails the replay."""
    a, b = (Fraction(x) for x in interval)
    poly = _trim(polynomial)
    if (not all(isinstance(c, int) for c in poly) or len(poly) < 2 or not a < b
            or sign_at(poly, a) * sign_at(poly, b) >= 0):
        return False
    return count_roots(sturm(poly), a, b) == 1
