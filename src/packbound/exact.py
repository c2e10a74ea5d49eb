"""Exact arithmetic for sizes of the form q + sum(c * k**-e).

Adversarial inputs perturb plain rationals by powers k**-e whose exponents
come out of doubly-exponential search windows.  Expanding such a power into a
literal numerator/denominator is hopeless for large runs (the denominator of
10**-(2**50) would need a petabyte), so ``Exact`` keeps the perturbations in
factored form and decides comparisons by exact dominance arguments:

* the only perturbation bases are 10 and 20 (``check_base``), the two the
  constructions use.  So any term is at most 10**-e in magnitude,
  and no power of one base equals a power of the other: distinct
  ``(base, exp)`` pairs have distinct magnitudes, a strict total order that
  canonical term tuples are sorted by (largest first).  Any other base
  raises ``ValueError``;
* distinct exponents of one base are compared directly;
* a leading term (or a materialized cluster of nearby terms) outweighs the
  remaining tail whenever an exact integer inequality certifies it.

Comparisons run in two tiers.  First an integer dominance certificate: when
the rational parts differ, their cross-multiplied difference is tested
against a bound on both perturbation tails, ``sum|coef| * 10**-e_min``, which
every value caches for itself; this builds no ``Exact`` and no ``Fraction``.
Only when that cannot decide (equal rational parts, or a difference too
small to beat the tails) is the difference formed and its sign certified
term by term.  Sums merge the two canonical term tuples in one linear pass.

Every code path is exact.  When a shortcut test cannot certify an answer the
term group is expanded into a literal ``Fraction`` (cheap for the moderate
exponents where that can happen); if even that would be astronomically large,
``PrecisionError`` is raised rather than ever guessing.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, Union

__all__ = [
    "Exact",
    "PrecisionError",
    "check_base",
    "rat",
    "power",
    "parse_rational",
    "fraction_str",
    "decimal_str",
]

RationalLike = Union[int, Fraction]

# Expanding k**e into a literal integer is allowed up to this exponent
# (about 260k digits for base 10); beyond it dominance tests must decide.
_EXPAND_CAP = 200_000

# Same-base terms whose exponents differ by at most this much are summed
# literally before dominance is applied (guards against cancellation).
_CLUSTER_GAP = 512

# Significant digits of every decimal rendering in the reports.
DECIMAL_DIGITS = 12


class PrecisionError(ArithmeticError):
    """A comparison could not be certified without an astronomical expansion."""


def check_base(base: int) -> None:
    """Raise ValueError unless `base` may carry a perturbation: 10 or 20."""
    if base not in (10, 20):
        raise ValueError(f"perturbation base must be 10 or 20, got {base}")


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"expected int or Fraction, got {type(v).__name__}")


def parse_rational(text: str) -> Fraction:
    """Parse 'num/den' or 'num' into a Fraction (exact, no floats)."""
    s = text.strip()
    if "/" in s:
        num, den = s.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def fraction_str(q: Fraction) -> str:
    """Serialize a Fraction as 'num/den' ('num' when integral)."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def decimal_str(q: Fraction) -> str:
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


def _pow_exceeds(num: int, den: int, base_exp: int) -> bool | None:
    """Certify num/den > 10**-base_exp (True), < (False), or unknown (None).

    Uses 2**(3e) < 10**e < 2**(4e); exact, never expands the power.
    """
    if num <= 0:
        return False
    # num/den > 10**-e  <=>  num * 10**e > den
    if num.bit_length() + 3 * base_exp >= den.bit_length() + 1:
        return True
    if num.bit_length() + 4 * base_exp <= den.bit_length() - 1:
        return False
    return None


def _ratio_certified(s_num: int, s_den: int, base: int, gap: int) -> bool | None:
    """Certify s_num/s_den < base**gap (True/False/None), without expanding."""
    if gap <= 0:
        return None
    # base >= 2 so base**gap >= 2**gap
    if s_num.bit_length() - s_den.bit_length() + 1 <= gap:
        return True
    if gap <= 64:  # tiny power: settle literally
        return s_num < s_den * base**gap
    return None


def _log10_bounds(base: int, exp: int) -> tuple[int, int]:
    """Integers (lo, hi) with 10**lo <= base**exp <= 10**hi, certified."""
    if base == 10:
        return exp, exp
    # base 20: 20**e = 10**e * 2**e, with 30102/100000 < log10 2 < 30103/100000
    # (10**30102 < 2**100000 < 10**30103, checked in the tests)
    return exp + exp * 30102 // 100000, exp - (-exp * 30103 // 100000)


def _mag_lt(a_base: int, a_exp: int, b_base: int, b_exp: int) -> bool:
    """Is a_base**-a_exp < b_base**-b_exp, certified exactly.

    Distinct (base, exp) pairs never produce equal values (10 and 20 share
    no common power), so strict order is total.
    """
    if a_base == b_base:
        return a_exp > b_exp
    if a_base < b_base:
        return not _mag_lt(b_base, b_exp, a_base, a_exp)
    # a_base > b_base
    if a_exp >= b_exp:
        return True  # a**-ea <= a**-eb < b**-eb
    a_lo, a_hi = _log10_bounds(a_base, a_exp)
    b_lo, b_hi = _log10_bounds(b_base, b_exp)
    if a_lo > b_hi:
        return True
    if b_lo > a_hi:
        return False
    # ambiguous band: settle literally when affordable
    if max(a_exp, b_exp) <= 50_000:
        return a_base**a_exp > b_base**b_exp
    raise PrecisionError(
        f"cannot order {a_base}^-{a_exp} against {b_base}^-{b_exp}"
    )


def _canonical(terms: dict[tuple[int, int], Fraction]) -> tuple:
    kept = [(b, e, c) for (b, e), c in terms.items() if c != 0]
    for b, e, _ in kept:
        check_base(b)
        if e < 1:
            raise ValueError("perturbation exponents must be >= 1")

    def descending(t1, t2):
        if (t1[0], t1[1]) == (t2[0], t2[1]):
            return 0
        return -1 if _mag_lt(t2[0], t2[1], t1[0], t1[1]) else 1

    kept.sort(key=functools.cmp_to_key(descending))
    return tuple(kept)


def _expand(terms: Iterable[tuple[int, int, Fraction]]) -> Fraction:
    total = Fraction(0)
    for base, exp, coef in terms:
        if exp > _EXPAND_CAP:
            raise PrecisionError(f"refusing to expand {base}^-{exp}")
        total += coef / Fraction(base) ** exp
    return total


def _add_ratios(n1: int, d1: int, n2: int, d2: int) -> tuple[int, int]:
    """n1/d1 + n2/d2 for nonnegative ratios in lowest terms, in lowest terms."""
    if d1 == d2:
        n, d = n1 + n2, d1
    else:
        n, d = n1 * d2 + n2 * d1, d1 * d2
    g = math.gcd(n, d)
    return n // g, d // g


def _abs_coef_sum(terms: tuple) -> tuple[int, int]:
    """sum(|coef|) over `terms` as (numerator, denominator) in lowest terms."""
    n, d = 0, 1
    for _, _, c in terms:
        n, d = _add_ratios(n, d, abs(c.numerator), c.denominator)
    return n, d


def _sign_of_terms(terms: tuple) -> int:
    """Exact sign of sum(c * b**-e) over canonical terms."""
    while terms:
        lead_base, lead_exp, _ = terms[0]
        # cluster: same-base terms within _CLUSTER_GAP of the previous one
        cut = 1
        prev_exp = lead_exp
        while (
            cut < len(terms)
            and terms[cut][0] == lead_base
            and terms[cut][1] - prev_exp <= _CLUSTER_GAP
        ):
            prev_exp = terms[cut][1]
            cut += 1
        cluster, tail = terms[:cut], terms[cut:]
        value = cluster[0][2]  # cluster scaled by lead_base**lead_exp
        for _, e, c in cluster[1:]:
            value += c / Fraction(lead_base) ** (e - lead_exp)
        if value == 0:
            terms = tail
            continue
        if not tail:
            return 1 if value > 0 else -1
        # the tail is at most sum|c| times its leading magnitude; certify
        # |value| / sum|c| * (lead/tail magnitude ratio) > 1, with
        # s_num/s_den = sum|c| / |value| in lowest terms
        t_base, t_exp, _ = tail[0]
        n, d = _abs_coef_sum(tail)
        s_num, s_den = value.denominator * n, abs(value.numerator) * d
        g = math.gcd(s_num, s_den)
        s_num, s_den = s_num // g, s_den // g
        if t_base == lead_base:
            ok = _ratio_certified(s_num, s_den, lead_base, t_exp - lead_exp)
        else:
            # tail magnitude <= 10**-tail_lo; cluster >= |value| * 10**-lead_hi
            tail_lo, _ = _log10_bounds(t_base, t_exp)
            _, lead_hi = _log10_bounds(lead_base, lead_exp)
            ok = _ratio_certified(s_num, s_den, 10, tail_lo - lead_hi)
        if ok:
            return 1 if value > 0 else -1
        # could not certify: expand everything (small exponents) or give up
        if lead_exp > _EXPAND_CAP:
            raise PrecisionError("uncertifiable tail under an unexpandable lead term")
        total = value / Fraction(lead_base) ** lead_exp + _expand(tail)
        if total > 0:
            return 1
        return -1 if total < 0 else 0
    return 0


def _sum_tails(t1: tuple, t2: tuple) -> tuple[int, int, int]:
    """Tail bound (see Exact._tail_bound) of two tails taken together."""
    return (min(t1[0], t2[0]),) + _add_ratios(t1[1], t1[2], t2[1], t2[2])


def _merge_terms(xs: tuple, ys: tuple) -> tuple:
    """Canonical sum of two canonical term tuples, in one merge pass."""
    out = []
    i = j = 0
    while i < len(xs) and j < len(ys):
        x, y = xs[i], ys[j]
        if x[0] == y[0] and x[1] == y[1]:
            c = x[2] + y[2]
            if c:
                out.append((x[0], x[1], c))
            i += 1
            j += 1
        elif _mag_lt(y[0], y[1], x[0], x[1]):
            out.append(x)
            i += 1
        else:
            out.append(y)
            j += 1
    out.extend(xs[i:])
    out.extend(ys[j:])
    return tuple(out)


class Exact:
    """Immutable exact number ``rational + sum(coef * base**-exp)``."""

    __slots__ = ("_rat", "_terms", "_hash", "_tail")

    def __init__(self, rational: RationalLike | Fraction = 0, _terms: tuple = (), _tail=None):
        self._rat = _as_fraction(rational)
        self._terms = _terms
        self._hash = None
        self._tail = _tail  # see _tail_bound; a cache, never part of the value

    # -- construction -------------------------------------------------

    @staticmethod
    def from_terms(rational, terms: dict[tuple[int, int], Fraction]) -> "Exact":
        return Exact(_as_fraction(rational), _canonical(terms))

    @property
    def rational_part(self) -> Fraction:
        return self._rat

    @property
    def terms(self) -> tuple:
        return self._terms

    @property
    def is_rational(self) -> bool:
        return not self._terms

    def _tail_bound(self) -> tuple[int, int, int]:
        """(e_min, n, d) with |sum of terms| <= (n/d) * 10**-e_min; needs terms.

        Every base is >= 10, so each term is at most |coef| * 10**-e_min;
        n/d is exactly sum(|coef|), in lowest terms.
        """
        if self._tail is None:
            n, d = _abs_coef_sum(self._terms)
            self._tail = (min(e for _, e, _ in self._terms), n, d)
        return self._tail

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other) -> "Exact":
        if isinstance(other, Exact):
            if not other._terms:
                terms, tail = self._terms, self._tail
            elif not self._terms:
                terms, tail = other._terms, other._tail
            else:
                terms, tail = _merge_terms(self._terms, other._terms), None
                if len(terms) == len(self._terms) + len(other._terms):
                    # no shared (base, exp): the coefficient sums just add
                    tail = _sum_tails(self._tail_bound(), other._tail_bound())
            return Exact(self._rat + other._rat, terms, tail)
        if isinstance(other, (int, Fraction)):
            return Exact(self._rat + other, self._terms, self._tail)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> "Exact":
        return Exact(-self._rat, tuple((b, e, -c) for b, e, c in self._terms), self._tail)

    def __sub__(self, other) -> "Exact":
        if isinstance(other, (int, Fraction)):
            return Exact(self._rat - other, self._terms, self._tail)
        if isinstance(other, Exact):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other) -> "Exact":
        return (-self) + other

    def __mul__(self, other) -> "Exact":
        if isinstance(other, (int, Fraction)):
            q = _as_fraction(other)
            if q == 0:
                return Exact(0)
            return Exact(self._rat * q, tuple((b, e, c * q) for b, e, c in self._terms))
        if isinstance(other, Exact) and other.is_rational:
            return self * other._rat
        if isinstance(other, Exact) and self.is_rational:
            return other * self._rat
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Exact":
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / _as_fraction(other))
        if isinstance(other, Exact) and other.is_rational:
            return self * (Fraction(1) / other._rat)
        return NotImplemented

    # -- comparison ----------------------------------------------------

    def sign(self) -> int:
        q = self._rat
        if not self._terms:
            return (q > 0) - (q < 0)
        if q != 0:
            # |q| > (n/d) * 10**-e_min certifies that q decides the sign
            e_min, n, d = self._tail_bound()
            r_num, r_den = abs(q.numerator) * d, q.denominator * n
            g = math.gcd(r_num, r_den)
            verdict = _pow_exceeds(r_num // g, r_den // g, e_min)
            if verdict:
                return 1 if q > 0 else -1
            if verdict is None and e_min > _EXPAND_CAP:
                raise PrecisionError("rational-vs-perturbation tie too deep to expand")
            # no certificate (or the perturbation bound beats q): expand exactly
            total = q + _expand(self._terms)
            return (total > 0) - (total < 0)
        return _sign_of_terms(self._terms)

    def _cmp(self, other) -> int:
        if isinstance(other, Exact):
            o_rat, o_terms = other._rat, other._terms
        elif isinstance(other, (int, Fraction)):
            o_rat, o_terms = other, ()
        else:
            return NotImplemented
        q, terms = self._rat, self._terms
        # numerator of q - o_rat over the denominator q.den * o_rat.den
        num = q.numerator * o_rat.denominator - o_rat.numerator * q.denominator
        if terms is o_terms or terms == o_terms:
            return (num > 0) - (num < 0)
        if num:
            # tier 1: the rational difference beats both tails together
            if not terms:
                e, n, d = other._tail_bound()
            elif not o_terms:
                e, n, d = self._tail_bound()
            else:
                e, n, d = _sum_tails(self._tail_bound(), other._tail_bound())
            if _pow_exceeds(abs(num) * d, q.denominator * o_rat.denominator * n, e):
                return 1 if num > 0 else -1
        # tier 2: certify the sign of the difference term by term
        return (self - other).sign()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Exact(other)
        if not isinstance(other, Exact):
            return NotImplemented
        return self._rat == other._rat and self._terms == other._terms

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c >= 0

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self._rat, self._terms))
        return self._hash

    def __bool__(self):
        return self.sign() != 0

    # -- conversion ----------------------------------------------------

    def as_fraction(self) -> Fraction:
        """Expand into a literal Fraction; PrecisionError if astronomically big."""
        if not self._terms:
            return self._rat
        return self._rat + _expand(self._terms)

    def __str__(self):
        parts = [fraction_str(self._rat)] if (self._rat != 0 or not self._terms) else []
        for b, e, c in self._terms:
            if c == 1:
                parts.append(f"+ {b}^-{e}")
            elif c == -1:
                parts.append(f"- {b}^-{e}")
            elif c > 0:
                parts.append(f"+ ({fraction_str(c)})*{b}^-{e}")
            else:
                parts.append(f"- ({fraction_str(-c)})*{b}^-{e}")
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else text

    def __repr__(self):
        return f"Exact({self})"

    def to_json(self):
        """JSON-friendly exact form: plain string for rationals, object otherwise."""
        if not self._terms:
            return fraction_str(self._rat)
        return {
            "rational": fraction_str(self._rat),
            "tiny": [
                {"base": b, "exp": e, "coef": fraction_str(c)}
                for b, e, c in self._terms
            ],
        }


def rat(v) -> Exact:
    """Exact from an int, Fraction, or 'num/den' string."""
    if isinstance(v, Exact):
        return v
    if isinstance(v, str):
        return Exact(parse_rational(v))
    return Exact(_as_fraction(v))


def power(base: int, exp: int, coef=1) -> Exact:
    """The exact value coef * base**-exp kept in factored form."""
    return Exact.from_terms(0, {(base, exp): _as_fraction(coef)})
