"""Exact polynomial arithmetic: univariate integer/rational polynomials and
Sylvester resultants computed fraction-free.

The resultant convention is fixed and documented: the determinant of the
Sylvester matrix with the first polynomial's coefficient rows on top, so
Res(x - a, x - b) = a - b.
"""
from __future__ import annotations

from fractions import Fraction

from .errors import ZeroPolynomial


class IntPoly:
    """Dense univariate polynomial with exact coefficients.

    coeffs[i] is the coefficient of x**i; trailing zeros are stripped.  The
    zero polynomial has coeffs == ().  Coefficients may be ints, Fractions,
    or IntPoly themselves (polynomials over a polynomial ring), which is how
    the bivariate Sylvester matrix entries are represented.
    """

    __slots__ = ("coeffs", "var")

    def __init__(self, coeffs, var: str = "x"):
        cs = list(coeffs)
        while cs and _is_zero(cs[-1]):
            cs.pop()
        self.coeffs = tuple(cs)
        self.var = var

    # ---- constructors -------------------------------------------------
    @staticmethod
    def zero(var="x"):
        return IntPoly((), var)

    @staticmethod
    def const(c, var="x"):
        return IntPoly((c,), var)

    # ---- basic queries -------------------------------------------------
    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self):
        if self.is_zero():
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __eq__(self, other):
        if isinstance(other, IntPoly):
            return self.coeffs == other.coeffs
        if _is_scalar(other):
            return self.coeffs == (IntPoly.const(other).coeffs)
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
            return IntPoly.zero(self.var)
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
        out = IntPoly.const(1, self.var)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def divmod_exact_ring(self, other: "IntPoly"):
        """Long division where every coefficient quotient must be exact.

        Valid inside Bareiss elimination (divisions are guaranteed exact in
        an integral domain) and for factor extraction; raises ValueError on
        inexact division.
        """
        other = _coerce(other, self.var)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        lead = other.leading()
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return IntPoly.zero(self.var), IntPoly(rem, self.var)
        quot = [0] * (dq + 1)
        for i in range(dq, -1, -1):
            top = rem[i + other.degree]
            c = _exact_divide(top, lead)
            quot[i] = c
            if not _is_zero(c):
                for j, b in enumerate(other.coeffs):
                    rem[i + j] = rem[i + j] - c * b
        return IntPoly(quot, self.var), IntPoly(rem, self.var)

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def map_coeffs(self, fn) -> "IntPoly":
        return IntPoly([fn(c) for c in self.coeffs], self.var)

    def __repr__(self):
        if self.is_zero():
            return "IntPoly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if not _is_zero(c):
                terms.append(f"({c})*{self.var}^{i}" if i else f"({c})")
        return "IntPoly(" + " + ".join(terms) + ")"


def _is_scalar(x) -> bool:
    return isinstance(x, (int, Fraction))


def _is_zero(x) -> bool:
    if isinstance(x, IntPoly):
        return x.is_zero()
    return x == 0


def _coerce(x, var) -> IntPoly:
    if isinstance(x, IntPoly):
        return x
    return IntPoly.const(x, var)


def _exact_divide(a, b):
    if isinstance(a, IntPoly) or isinstance(b, IntPoly):
        ap = a if isinstance(a, IntPoly) else IntPoly.const(a)
        bp = b if isinstance(b, IntPoly) else IntPoly.const(b, ap.var)
        q, r = ap.divmod_exact_ring(bp)
        if not r.is_zero():
            raise ValueError("inexact polynomial division")
        return q
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        if r:
            raise ValueError(f"inexact integer division {a}/{b}")
        return q
    return Fraction(a) / Fraction(b)


def sylvester_matrix(p: IntPoly, q: IntPoly) -> list:
    """Sylvester matrix with p's shifted coefficient rows first."""
    if p.is_zero() or q.is_zero():
        raise ZeroPolynomial("resultant of the zero polynomial")
    m, n = p.degree, q.degree
    size = m + n
    rows = []
    pc = list(reversed(p.coeffs))  # leading first
    qc = list(reversed(q.coeffs))
    for i in range(n):
        rows.append([0] * i + pc + [0] * (size - m - 1 - i))
    for i in range(m):
        rows.append([0] * i + qc + [0] * (size - n - 1 - i))
    return rows


def det_bareiss(rows: list):
    """Fraction-free determinant over an integral domain (ints, Fractions,
    or IntPoly entries)."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if _is_zero(m[k][k]):
            for i in range(k + 1, n):
                if not _is_zero(m[i][k]):
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0 * m[0][0] if isinstance(m[0][0], IntPoly) else 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = _exact_divide(num, prev) if not _is_one(prev) else num
            m[i][k] = 0
        prev = m[k][k]
    out = m[n - 1][n - 1]
    return -out if sign < 0 else out


def _is_one(x) -> bool:
    if isinstance(x, IntPoly):
        return x.coeffs == (1,)
    return x == 1


def resultant(p: IntPoly, q: IntPoly):
    """Resultant of p and q as the Sylvester determinant, p's rows first.

    Entries may be scalars or polynomials in another variable; the result is
    then a polynomial in that variable.  Res(x - a, x - b) = a - b under
    this orientation.
    """
    return det_bareiss(sylvester_matrix(p, q))


def rational_roots_with_multiplicity(p: IntPoly) -> list:
    """All rational roots of an integer/rational polynomial with their
    multiplicities, by candidate testing and repeated exact division."""
    if p.is_zero():
        raise ZeroPolynomial("zero polynomial has every root")
    # clear denominators
    den = 1
    for c in p.coeffs:
        if isinstance(c, Fraction):
            den = den * c.denominator // _gcd(den, c.denominator)
    work = p.map_coeffs(lambda c: int(Fraction(c) * den))
    # strip x^m factor
    shift = 0
    cs = list(work.coeffs)
    while cs and cs[0] == 0:
        cs.pop(0)
        shift += 1
    work = IntPoly(cs, p.var)
    roots = []
    if shift:
        roots.append((Fraction(0), shift))
    if work.degree < 1:
        return roots
    a0, an = work.coeffs[0], work.leading()
    cands = set()
    for pn in _divisors(abs(a0)):
        for qd in _divisors(abs(an)):
            cands.add(Fraction(pn, qd))
            cands.add(Fraction(-pn, qd))
    for r in sorted(cands):
        mult = 0
        while not work.is_zero() and work.degree >= 1 and work(r) == 0:
            quot, rem = work.map_coeffs(Fraction).divmod_exact_ring(
                IntPoly((-r, Fraction(1)), p.var))
            assert rem.is_zero()
            work = quot
            mult += 1
        if mult:
            roots.append((r, mult))
    return roots


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def _divisors(n: int) -> list:
    if n == 0:
        return [1]
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)
