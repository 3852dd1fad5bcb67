"""Exact-arithmetic helpers: rational square roots, parsing, Q(sqrt 2).

Routines here keep Fraction inputs exact wherever the result is rational and
fall back to float otherwise, so closed-form checkpoints can be verified with
zero tolerance.
"""
from __future__ import annotations

import math
from fractions import Fraction

Number = float | Fraction | int


def is_exact(x) -> bool:
    return isinstance(x, (Fraction, int))


def sqrt_exact(x: Number):
    """Square root, exact for perfect-square rationals.

    Returns a Fraction when ``x`` is a Fraction/int with perfect-square
    numerator and denominator, else a float.  Negative input raises.
    """
    if x < 0:
        raise ValueError(f"sqrt of negative value {x}")
    if isinstance(x, (Fraction, int)):
        f = Fraction(x)
        rn = math.isqrt(f.numerator)
        rd = math.isqrt(f.denominator)
        if rn * rn == f.numerator and rd * rd == f.denominator:
            return Fraction(rn, rd)
        return math.sqrt(float(f))
    return math.sqrt(x)


def parse_number(text: str) -> Number:
    """Parse 'p/q' into an exact Fraction, anything else into a float.

    Exact inputs are routed through the toolkit's rational code paths.
    Malformed text and a zero denominator raise ValueError.
    """
    s = text.strip()
    if "/" in s:
        try:
            return Fraction(s)
        except ZeroDivisionError as exc:
            raise ValueError(f"zero denominator in {text!r}") from exc
    try:
        return int(s)
    except ValueError:
        return float(s)


class Sqrt2:
    """Element (p + q*sqrt(2))/d of the real quadratic field Q(sqrt(2)).

    Enough field arithmetic for the exact normal-form coefficients at the
    generalized Hopf point, where the linearization frequency is 3*sqrt(2)/128.
    The element is kept as integers with d > 0 and gcd(p, q, d) = 1, so each
    result costs one gcd and equal values have equal (p, q, d).  The
    coordinates a + b*sqrt(2) are read as Fractions through ``a`` and ``b``.
    """

    __slots__ = ("p", "q", "d")

    def __init__(self, a=0, b=0):
        a, b = Fraction(a), Fraction(b)
        da, db = a.denominator, b.denominator
        d = da * db // math.gcd(da, db)
        # over the lcm of two reduced denominators, gcd(p, q, d) is already 1
        self.p = a.numerator * (d // da)
        self.q = b.numerator * (d // db)
        self.d = d

    @property
    def a(self) -> Fraction:
        return Fraction(self.p, self.d)

    @property
    def b(self) -> Fraction:
        return Fraction(self.q, self.d)

    @staticmethod
    def coerce(x) -> "Sqrt2":
        if isinstance(x, Sqrt2):
            return x
        return Sqrt2(Fraction(x), 0)

    def __add__(self, o):
        o = Sqrt2.coerce(o)
        d1, d2 = self.d, o.d
        return _sqrt2(self.p * d2 + o.p * d1, self.q * d2 + o.q * d1, d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        return _sqrt2(-self.p, -self.q, self.d)

    def __sub__(self, o):
        return self + (-Sqrt2.coerce(o))

    def __rsub__(self, o):
        return Sqrt2.coerce(o) + (-self)

    def __mul__(self, o):
        o = Sqrt2.coerce(o)
        p1, q1, p2, q2 = self.p, self.q, o.p, o.q
        return _sqrt2(p1 * p2 + 2 * q1 * q2, p1 * q2 + q1 * p2, self.d * o.d)

    __rmul__ = __mul__

    def inverse(self) -> "Sqrt2":
        # d / (p + q sqrt 2) = d (p - q sqrt 2) / (p^2 - 2 q^2)
        p, q, d = self.p, self.q, self.d
        n = p * p - 2 * q * q
        if n == 0:
            raise ZeroDivisionError("zero element of Q(sqrt 2)")
        if n < 0:
            return _sqrt2(-d * p, d * q, -n)
        return _sqrt2(d * p, -d * q, n)

    def __truediv__(self, o):
        return self * Sqrt2.coerce(o).inverse()

    def __rtruediv__(self, o):
        return Sqrt2.coerce(o) * self.inverse()

    def __eq__(self, o):
        o = Sqrt2.coerce(o)
        return self.p == o.p and self.q == o.q and self.d == o.d

    def __hash__(self):
        return hash((self.p, self.q, self.d))

    def is_zero(self) -> bool:
        return self.p == 0 and self.q == 0

    def sign(self) -> int:
        """Exact sign of p + q*sqrt(2), without rounding."""
        p, q = self.p, self.q
        sp = (p > 0) - (p < 0)
        sq = (q > 0) - (q < 0)
        if sp == sq or sq == 0:
            return sp
        if sp == 0:
            return sq
        # opposite signs: the term of larger square wins
        return sp if p * p > 2 * q * q else sq

    def __float__(self):
        return self.p / self.d + self.q / self.d * math.sqrt(2.0)

    def __repr__(self):
        return f"Sqrt2({self.a}, {self.b})"


def _sqrt2(p: int, q: int, d: int) -> Sqrt2:
    """(p + q*sqrt(2))/d for d > 0, reduced by the common gcd."""
    g = math.gcd(p, q, d)
    if g != 1:
        p, q, d = p // g, q // g, d // g
    x = object.__new__(Sqrt2)
    x.p, x.q, x.d = p, q, d
    return x


class FieldComplex:
    """Complex number over an exact real field (re + im*i).

    Mirrors the small part of the ``complex`` interface that the
    normal-form projections and coefficients need, so they run identically
    over floats and over Q(sqrt(2)).
    """

    __slots__ = ("re", "im")

    def __init__(self, re, im=None):
        self.re = Sqrt2.coerce(re)
        self.im = Sqrt2.coerce(im if im is not None else 0)

    @staticmethod
    def coerce(x) -> "FieldComplex":
        if isinstance(x, FieldComplex):
            return x
        return FieldComplex(x)

    def __add__(self, o):
        o = FieldComplex.coerce(o)
        return FieldComplex(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return FieldComplex(-self.re, -self.im)

    def __sub__(self, o):
        return self + (-FieldComplex.coerce(o))

    def __rsub__(self, o):
        return FieldComplex.coerce(o) + (-self)

    def __mul__(self, o):
        o = FieldComplex.coerce(o)
        return FieldComplex(self.re * o.re - self.im * o.im,
                            self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def conjugate(self) -> "FieldComplex":
        return FieldComplex(self.re, -self.im)

    def __truediv__(self, o):
        o = FieldComplex.coerce(o)
        n = o.re * o.re + o.im * o.im
        inv = n.inverse()
        num = self * o.conjugate()
        return FieldComplex(num.re * inv, num.im * inv)

    def __eq__(self, o):
        o = FieldComplex.coerce(o)
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"FieldComplex({self.re!r}, {self.im!r})"
