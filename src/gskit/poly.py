"""Exact polynomial arithmetic: univariate integer/rational polynomials, the
resultant against a linear polynomial, and rational roots.

The resultant convention is fixed and documented: the determinant of the
Sylvester matrix with the first polynomial's coefficient rows on top, so
Res(x - a, x - b) = a - b.  gskit only eliminates through a relation linear
in x, where that determinant has Poisson's closed form (see resultant);
the general Sylvester route is the oracle in the tests.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .errors import ZeroPolynomial


class IntPoly:
    """Dense univariate polynomial with exact coefficients.

    coeffs[i] is the coefficient of x**i; trailing zeros are stripped.  The
    zero polynomial has coeffs == ().  Coefficients may be ints, Fractions,
    or IntPoly themselves (polynomials over a polynomial ring), which is how
    the bivariate localization system is represented.
    """

    __slots__ = ("coeffs", "var")

    def __init__(self, coeffs, var: str = "x"):
        cs = list(coeffs)
        while cs and _is_zero(cs[-1]):
            cs.pop()
        self.coeffs = tuple(cs)
        self.var = var

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = IntPoly((other,))
        if isinstance(other, IntPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    # ---- ring operations -------------------------------------------------
    def __add__(self, other):
        other = _coerce(other, self.var)
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly([self[i] + other[i] for i in range(n)], self.var)

    __radd__ = __add__

    def __neg__(self):
        return IntPoly([-c for c in self.coeffs], self.var)

    def __sub__(self, other):
        return self + (-_coerce(other, self.var))

    def __rsub__(self, other):
        return _coerce(other, self.var) + (-self)

    def __mul__(self, other):
        other = _coerce(other, self.var)
        if self.is_zero() or other.is_zero():
            return IntPoly((), self.var)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if _is_zero(a):
                continue
            for j, b in enumerate(other.coeffs):
                if not _is_zero(b):
                    out[i + j] = out[i + j] + a * b
        return IntPoly(out, self.var)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        out = IntPoly((1,), self.var)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self):
        if self.is_zero():
            return "IntPoly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if not _is_zero(c):
                terms.append(f"({c})*{self.var}^{i}" if i else f"({c})")
        return "IntPoly(" + " + ".join(terms) + ")"


def _is_zero(x) -> bool:
    if isinstance(x, IntPoly):
        return x.is_zero()
    return x == 0


def _coerce(x, var) -> IntPoly:
    if isinstance(x, IntPoly):
        return x
    return IntPoly((x,), var)


def resultant(p: IntPoly, q: IntPoly):
    """Res_x(p, q) for q = b1 x + b0, with p's Sylvester rows on top.

    Poisson's formula: with m = deg p, Res = sum_i p_i b0^i (-b1)^(m-i),
    which is (-b1)^m p(-b0/b1) without the division, summed here by a
    homogeneous Horner pass.  Coefficients may be scalars or polynomials in
    another variable; the result is then a polynomial in that variable.
    Res(x - a, x - b) = a - b.  Raises ValueError unless deg q = 1.
    """
    if p.is_zero() or q.is_zero():
        raise ZeroPolynomial("resultant of the zero polynomial")
    if q.degree != 1:
        raise ValueError(f"resultant needs a linear second polynomial, got degree {q.degree}")
    b0, b1 = q.coeffs
    acc, scale = 0, 1
    for c in reversed(p.coeffs):
        acc = acc * b0 + c * scale
        scale = scale * -b1
    return acc


def rational_roots_with_multiplicity(p: IntPoly) -> list:
    """All rational roots of an integer/rational polynomial with their
    multiplicities, by candidate testing and synthetic division."""
    if p.is_zero():
        raise ZeroPolynomial("zero polynomial has every root")
    # clear denominators
    den = math.lcm(*(Fraction(c).denominator for c in p.coeffs))
    cs = [int(Fraction(c) * den) for c in p.coeffs]
    # strip the x^shift factor
    shift = 0
    while cs[shift] == 0:
        shift += 1
    cs = cs[shift:]
    roots = [(Fraction(0), shift)] if shift else []
    cands = set()
    for pn in _divisors(abs(cs[0])):
        for qd in _divisors(abs(cs[-1])):
            cands.add(Fraction(pn, qd))
            cands.add(Fraction(-pn, qd))
    for r in sorted(cands):
        mult = 0
        while len(cs) > 1:
            quot, rem = _deflate(cs, r)
            if rem:
                break
            cs = quot
            mult += 1
        if mult:
            roots.append((r, mult))
    return roots


def _deflate(cs: list, r) -> tuple:
    """Synthetic division of sum cs[i] x^i by x - r in one Horner pass:
    (quotient coefficients, remainder p(r))."""
    acc = 0
    quot = []
    for c in reversed(cs):
        acc = acc * r + c
        quot.append(acc)
    rem = quot.pop()
    return quot[::-1], rem


def _divisors(n: int) -> list:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return out
