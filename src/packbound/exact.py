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

The rational part is two ints in lowest terms, ``_n / _d`` with ``_d > 0``,
and so is every term's coefficient: a term is ``(base, exp, cn, cd)`` with
``cn != 0`` and ``cd > 0``.  Sums cross-multiply them and take one gcd, and a
``Fraction`` is built only at the edges (``rational_part``, ``terms``,
``as_fraction``, ``*``, ``/``, the inputs of ``power``) and where tier 3
sums a cluster of terms or expands them literally.

Comparisons run in three tiers.  First, when the rational parts differ, the
sign of their cross-multiplied difference decides once its bit length beats
the perturbation tails.  Every value caches a bound on its tail,
``sum|coef| * 10**-e_min``, and a bit exponent ``k`` with ``|tail| < 2**-k``
(``_bits``), so one subtraction of bit lengths settles almost every case;
when it cannot, an integer dominance certificate tests the difference against
both tail bounds (two bounds over one denominator add without a gcd).  This
builds no ``Exact`` and no ``Fraction``.  Second, for equal rational
parts, a leading-term certificate weighs the larger of the two leading terms
against the cached bounds on everything else (the other operand's whole tail
and this operand's terms after its lead); against a purely rational operand
the sign of the other's terms decides.  Only when neither can decide (or the
rational difference is too small to beat the tails, which then weighs in as a
leading term 10**0) are the terms of the difference merged and its sign
certified term by term.  `sign()` is the comparison with 0.  Sums merge the
two canonical term tuples in one linear pass.  The hash is `Fraction`'s for
every sign (`_hash_of`).

Every code path is exact.  When a shortcut test cannot certify an answer the
term group is expanded into a literal ``Fraction`` (cheap for the moderate
exponents where that can happen); if even that would be astronomically large,
``PrecisionError`` is raised rather than ever guessing.
"""

from __future__ import annotations

import math
import sys
from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal
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

# Significant digits of every decimal rendering in the reports, which
# `decimal` rounds half-even in one correctly rounded division.
DECIMAL_DIGITS = 12
_DECIMALS = Context(prec=DECIMAL_DIGITS, rounding=ROUND_HALF_EVEN, Emax=MAX_EMAX, Emin=MIN_EMIN)

_P = sys.hash_info.modulus  # the modulus of `Fraction`'s hash, which `Exact` hashes by


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
    return str(q)


def decimal_str(q: Fraction) -> str:
    """Display-only decimal rendering, DECIMAL_DIGITS significant digits, half-even."""
    d = _DECIMALS.divide(Decimal(q.numerator), q.denominator).normalize(_DECIMALS)
    return format(d, "f" if -6 < d.adjusted() < DECIMAL_DIGITS else "e")


def _exceeds(num: int, den: int, base: int, e: int) -> bool | None:
    """Certify num/den > base**-e, that is num * base**e > den, for den > 0:
    True, False, or None when unknown.  With b the bit length of base,
    2**((b - 1) e) <= base**e < 2**(b e); the power is expanded only for e <= 64."""
    if num <= 0:
        return False
    if e <= 0:
        return None
    b = base.bit_length()
    if num.bit_length() + (b - 1) * e >= den.bit_length() + 1:
        return True
    if num.bit_length() + b * e <= den.bit_length() - 1:
        return False
    if e <= 64:  # tiny power: settle literally
        return num * base**e > den
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


def _expand(terms: Iterable[tuple[int, int, int, int]]) -> Fraction:
    total = Fraction(0)
    for base, exp, cn, cd in terms:
        if exp > _EXPAND_CAP:
            raise PrecisionError(f"refusing to expand {base}^-{exp}")
        total += Fraction(cn, cd * base**exp)
    return total


def _add_ratios(n1: int, d1: int, n2: int, d2: int) -> tuple[int, int]:
    """n1/d1 + n2/d2 for nonnegative ratios, in lowest terms."""
    if d1 == d2:
        n, d = n1 + n2, d1
    else:
        n, d = n1 * d2 + n2 * d1, d1 * d2
    g = math.gcd(n, d)
    return n // g, d // g


def _bound(terms: tuple) -> tuple[int, int, int]:
    """(e_min, n, d) with |sum(c * b**-e)| <= (n/d) * 10**-e_min over `terms`,
    at least one.  Every base is >= 10, so each term is at most
    |c| * 10**-e_min; n/d is exactly sum(|c|), in lowest terms."""
    n, d = 0, 1
    for _, _, cn, cd in terms:
        n, d = _add_ratios(n, d, abs(cn), cd)
    return min(term[1] for term in terms), n, d


def _sign_of_terms(terms: tuple) -> int:
    """Exact sign of sum(c * b**-e) over canonical terms, exponents >= 0."""
    while terms:
        lead_base, lead_exp, _, _ = terms[0]
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
        # vn/vd: the cluster scaled by lead_base**lead_exp, in lowest terms;
        # a one-term cluster is its stored coefficient
        vn, vd = cluster[0][2], cluster[0][3]
        if cut > 1:
            value = Fraction(vn, vd)
            for _, e, cn, cd in cluster[1:]:
                value += Fraction(cn, cd * lead_base ** (e - lead_exp))
            if value == 0:
                terms = tail
                continue
            vn, vd = value.numerator, value.denominator
        sign = 1 if vn > 0 else -1
        if not tail:
            return sign
        # the tail is at most sum|c| times its leading magnitude; certify
        # v_num/v_den > (tail/lead magnitude ratio), with
        # v_num/v_den = |value| / sum|c| in lowest terms
        t_base, t_exp, _, _ = tail[0]
        _, n, d = _bound(tail)
        v_num, v_den = abs(vn) * d, vd * n
        g = math.gcd(v_num, v_den)
        v_num, v_den = v_num // g, v_den // g
        if t_base == lead_base:
            ok = _exceeds(v_num, v_den, lead_base, t_exp - lead_exp)
        else:
            # tail magnitude <= 10**-tail_lo; cluster >= |value| * 10**-lead_hi
            tail_lo, _ = _log10_bounds(t_base, t_exp)
            _, lead_hi = _log10_bounds(lead_base, lead_exp)
            ok = _exceeds(v_num, v_den, 10, tail_lo - lead_hi)
        if ok:
            return sign
        # could not certify: expand everything (small exponents) or give up
        if lead_exp > _EXPAND_CAP:
            raise PrecisionError("uncertifiable tail under an unexpandable lead term")
        total = Fraction(vn, vd * lead_base**lead_exp) + _expand(tail)
        return (total > 0) - (total < 0)
    return 0


def _sum_tails(t1: tuple, t2: tuple) -> tuple[int, int, int]:
    """Tail bound (see Exact._tail_bound) of two tails, unreduced over one denominator."""
    (e1, n1, d1), (e2, n2, d2) = t1, t2
    return (min(e1, e2),) + ((n1 + n2, d1) if d1 == d2 else _add_ratios(n1, d1, n2, d2))


def _lead_sign(a: "Exact", b: "Exact") -> int:
    """Sign of a - b for equal rational parts, both with terms, when the
    larger of the two leads outweighs every other term of both; else 0.

    With lead c * base**-exp and the rest bounded by (n/d) * 10**-e_min
    (its own operand's terms after it, plus the other operand's tail), the
    lead decides once d|c|/n > 10**-(e_min - hi), where base**exp <= 10**hi.
    """
    (a_base, a_exp, _, _), (b_base, b_exp, _, _) = a._terms[0], b._terms[0]
    if a_base == b_base and a_exp == b_exp:
        return 0
    if (a_exp < b_exp) if a_base == b_base else _mag_lt(b_base, b_exp, a_base, a_exp):
        sign, lead, other = 1, a, b
    else:
        sign, lead, other = -1, b, a
    base, exp, cn, cd = lead._terms[0]
    bound = other._tail_bound()
    if len(lead._terms) > 1:
        bound = _sum_tails(lead._rest_bound(), bound)
    e_min, n, d = bound
    _, hi = _log10_bounds(base, exp)
    if _exceeds(d * abs(cn), n * cd, 10, e_min - hi):
        return sign if cn > 0 else -sign
    return 0


def _hash_of(num: int, den: int, terms: tuple, sign: int) -> int:
    """`Fraction`'s hash of the value v = num/den + sum(c * b**-e) of sign `sign`,
    which every form of v hashes to: sign times the hash of |v|, -1 read as
    -2.  With P = sys.hash_info.modulus and P**k the largest power of P
    dividing a denominator (k = 0 unless P divides one), |v| times P**k is s
    modulo P**(k + 1); |v| hashes to s / P**k modulo P when P**k divides s,
    else P divides v's own denominator and |v| hashes to `sys.hash_info.inf`."""
    parts = ((num, den, 10, 0), *((cn, cd, b, e) for b, e, cn, cd in terms))
    pk = 1
    for _, d, _, _ in parts:
        while d % (pk * _P) == 0:
            pk *= _P
    mod = pk * _P
    s = 0
    for n, d, b, e in parts:
        n *= pk
        g = math.gcd(n, d)  # d // g is prime to P
        s += n // g * pow(d // g, -1, mod) * pow(b, -e, mod)
    s = sign * s % mod
    h = sign * (s // pk if s % pk == 0 else sys.hash_info.inf)
    return -2 if h == -1 else h


def _merge_terms(xs: tuple, ys: tuple, sign: int = 1) -> tuple:
    """Canonical xs + sign * ys, sign 1 or -1, of canonical term tuples in one pass.
    Equal (base, exp) pairs cross-multiply their coefficients and take one gcd;
    same-base terms are ordered by exponent alone."""
    out = []
    i = j = 0
    while i < len(xs) and j < len(ys):
        x, y = xs[i], ys[j]
        xb, xe, xn, xd = x
        yb, ye, yn, yd = y
        if xb == yb and xe == ye:
            yn *= sign
            n, d = (xn + yn, xd) if xd == yd else (xn * yd + yn * xd, xd * yd)
            if n:
                g = math.gcd(n, d)
                out.append((xb, xe, n // g, d // g))
            i += 1
            j += 1
        elif (ye > xe) if xb == yb else _mag_lt(yb, ye, xb, xe):
            out.append(x)
            i += 1
        else:
            out.append(y if sign > 0 else (yb, ye, -yn, yd))
            j += 1
    out.extend(xs[i:])
    out.extend(ys[j:] if sign > 0 else ((b, e, -n, d) for b, e, n, d in ys[j:]))
    return tuple(out)


def _exact(n: int, d: int, terms: tuple = (), tail=None) -> "Exact":
    """The Exact n/d + terms, for n/d in lowest terms with d > 0."""
    x = object.__new__(Exact)
    # _tail, _rest and _k cache facts about the terms alone, never part of the value
    x._n, x._d, x._terms, x._hash, x._tail, x._rest, x._k = n, d, terms, None, tail, None, None
    return x


def _term(base: int, exp: int, coef: Fraction) -> tuple[int, int, int, int]:
    """The stored term coef * base**-exp, coef nonzero."""
    return base, exp, coef.numerator, coef.denominator


def _ratio_str(n: int, d: int) -> str:
    """`fraction_str` of n/d in lowest terms, d > 0."""
    return str(n) if d == 1 else f"{n}/{d}"


class Exact:
    """Immutable exact number ``rational + sum(coef * base**-exp)``."""

    __slots__ = ("_n", "_d", "_terms", "_hash", "_tail", "_rest", "_k")

    def __new__(cls, rational: RationalLike = 0):
        q = _as_fraction(rational)
        return _exact(q.numerator, q.denominator)

    # -- construction -------------------------------------------------

    @staticmethod
    def from_terms(rational, terms: dict[tuple[int, int], Fraction]) -> "Exact":
        """rational + sum(c * base**-exp) over `terms`, keyed (base, exp)."""
        return sum((power(b, e, c) for (b, e), c in terms.items()), Exact(rational))

    @property
    def rational_part(self) -> Fraction:
        return Fraction(self._n, self._d)

    @property
    def terms(self) -> tuple:
        """The terms as (base, exp, coef) triples, coef a `Fraction`."""
        return tuple((b, e, Fraction(n, d)) for b, e, n, d in self._terms)

    def _tail_bound(self) -> tuple[int, int, int]:
        """`_bound` of the terms; needs terms."""
        if self._tail is None:
            self._tail = _bound(self._terms)
        return self._tail

    def _bits(self) -> int:
        """k = 3 e_min - bitlen(n) + bitlen(d) - 1 from `_tail_bound` (e_min, n, d),
        so |terms| < 2**-k: 10**-e_min <= 2**(-3 e_min), and n/d < 2**(bitlen(n) -
        bitlen(d) + 1).  Needs terms."""
        if self._k is None:
            e, n, d = self._tail_bound()
            self._k = 3 * e - n.bit_length() + d.bit_length() - 1
        return self._k

    def _rest_bound(self) -> tuple[int, int, int]:
        """Like `_tail_bound`, for the terms after the lead; needs two terms."""
        if self._rest is None:
            self._rest = _bound(self._terms[1:])
        return self._rest

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other, sign: int = 1) -> "Exact":
        """self + sign * other; `__sub__` passes -1, which the merge applies term by term."""
        if isinstance(other, Exact):
            if not other._terms:
                terms, tail = self._terms, self._tail
            elif not self._terms:
                terms, tail = (other if sign > 0 else -other)._terms, other._tail
            else:
                terms, tail = _merge_terms(self._terms, other._terms, sign), None
                if len(terms) == len(self._terms) + len(other._terms):
                    # no shared (base, exp): the coefficient sums just add
                    tail = _sum_tails(self._tail_bound(), other._tail_bound())
            on, od = sign * other._n, other._d
        elif isinstance(other, (int, Fraction)):
            terms, tail, on, od = self._terms, self._tail, sign * other.numerator, other.denominator
        else:
            return NotImplemented
        n, d = (self._n + on, od) if self._d == od else (self._n * od + on * self._d, self._d * od)
        g = math.gcd(n, d)
        return _exact(n // g, d // g, terms, tail)

    __radd__ = __add__

    def __neg__(self) -> "Exact":
        return _exact(-self._n, self._d, tuple((b, e, -n, d) for b, e, n, d in self._terms),
                      self._tail)

    def __sub__(self, other) -> "Exact":
        return self.__add__(other, -1)

    def __rsub__(self, other) -> "Exact":
        return (-self) + other

    def __mul__(self, other) -> "Exact":
        if isinstance(other, (int, Fraction)):
            if not other:
                return Exact(0)
            q = self.rational_part * other
            return _exact(q.numerator, q.denominator,
                          tuple(_term(b, e, Fraction(n, d) * other) for b, e, n, d in self._terms))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Exact":
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / _as_fraction(other))
        return NotImplemented

    # -- comparison ----------------------------------------------------

    def sign(self) -> int:
        """-1, 0 or 1: the comparison with 0."""
        return self._cmp(0)

    def _cmp(self, other) -> int:
        if isinstance(other, Exact):
            on, od, o_terms = other._n, other._d, other._terms
        elif isinstance(other, (int, Fraction)):
            on, od, o_terms = other.numerator, other.denominator, ()
        else:
            return NotImplemented
        d, terms = self._d, self._terms
        # numerator of the rational parts' difference over the denominator d * od
        num = self._n * od - on * d
        if terms is o_terms or terms == o_terms:
            return (num > 0) - (num < 0)
        if num:
            # tier 1: the rational difference beats both tails together.  It is
            # at least 2**(bitlen(num) - bitlen(d od) - 1) and the tails are
            # below 2 * 2**-min(k1, k2) (`_bits`), so bit lengths decide first
            dod = d * od
            if not terms:
                k = other._k if other._k is not None else other._bits()
            else:
                k = self._k if self._k is not None else self._bits()
                if o_terms:
                    k2 = other._k if other._k is not None else other._bits()
                    if k2 < k:
                        k = k2
            if num.bit_length() - dod.bit_length() + k >= 2:
                return 1 if num > 0 else -1
            if not terms:
                e, tn, td = other._tail_bound()
            elif not o_terms:
                e, tn, td = self._tail_bound()
            else:
                e, tn, td = _sum_tails(self._tail_bound(), other._tail_bound())
            if _exceeds(abs(num) * td, dod * tn, 10, e):
                return 1 if num > 0 else -1
        else:
            # tier 2: one operand's terms alone, or a lead that outweighs the rest
            if not o_terms:
                return _sign_of_terms(terms)
            if not terms:
                return -_sign_of_terms(o_terms)
            verdict = _lead_sign(self, other)
            if verdict:
                return verdict
        # tier 3: certify the sign of the difference term by term; a rational
        # difference weighs in as a leading term 10**0, which outweighs every
        # term, since exponents are >= 1
        if num:
            g = math.gcd(num, dod)
            lead = ((10, 0, num // g, dod // g),)
        else:
            lead = ()
        return _sign_of_terms(lead + _merge_terms(terms, o_terms, -1))

    def __eq__(self, other):
        """Value equality, 10**-2 == 1/100; different hashes prove it false unordered."""
        if isinstance(other, Exact):
            if self._terms == other._terms:
                return self._n == other._n and self._d == other._d
            if hash(self) != hash(other):
                return False
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c == 0

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
        """The hash of the value as a `Fraction` or an int; see `_hash_of`."""
        if self._hash is None:
            self._hash = _hash_of(self._n, self._d, self._terms, self.sign())
        return self._hash

    def __bool__(self):
        return self.sign() != 0

    # -- conversion ----------------------------------------------------

    def as_fraction(self) -> Fraction:
        """Expand into a literal Fraction; PrecisionError if astronomically big."""
        q = self.rational_part
        return q + _expand(self._terms) if self._terms else q

    def __str__(self):
        parts = [_ratio_str(self._n, self._d)] if (self._n or not self._terms) else []
        for b, e, n, d in self._terms:
            if d == 1 and abs(n) == 1:
                parts.append(f"{'+' if n > 0 else '-'} {b}^-{e}")
            else:
                parts.append(f"{'+' if n > 0 else '-'} ({_ratio_str(abs(n), d)})*{b}^-{e}")
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else text

    def __repr__(self):
        return f"Exact({self})"

    def to_json(self):
        """JSON-friendly exact form: plain string for rationals, object otherwise."""
        if not self._terms:
            return _ratio_str(self._n, self._d)
        return {
            "rational": _ratio_str(self._n, self._d),
            "tiny": [
                {"base": b, "exp": e, "coef": _ratio_str(n, d)}
                for b, e, n, d in self._terms
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
    check_base(base)
    if exp < 1:
        raise ValueError("perturbation exponents must be >= 1")
    coef = _as_fraction(coef)
    return _exact(0, 1, (_term(base, exp, coef),)) if coef else _exact(0, 1)
