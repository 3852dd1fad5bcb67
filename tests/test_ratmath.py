"""Property tests for Sqrt2 against plain Fraction formulas.

An element a + b*sqrt(2) is modelled by the Fraction pair (a, b); the
oracle below is the field arithmetic written out on those pairs.
"""
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gskit.ratmath import Sqrt2

fractions = st.fractions(min_value=-10**6, max_value=10**6,
                         max_denominator=10**6)
pairs = st.tuples(fractions, fractions)

# rational bounds on sqrt(2) to 60 digits, for an independent sign oracle
_SCALE = 10**60
_LO = Fraction(math.isqrt(2 * _SCALE * _SCALE), _SCALE)
_HI = _LO + Fraction(1, _SCALE)


def _add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def _mul(x, y):
    return (x[0] * y[0] + 2 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _inverse(x):
    n = x[0] * x[0] - 2 * x[1] * x[1]
    return (x[0] / n, -x[1] / n)


def _sign(x):
    a, b = x
    lo = a + b * (_LO if b > 0 else _HI)
    hi = a + b * (_HI if b > 0 else _LO)
    if lo > 0:
        return 1
    if hi < 0:
        return -1
    assert a == 0 and b == 0, "bounds on sqrt(2) too loose for this input"
    return 0


def _same(z, x):
    assert (z.a, z.b) == x
    assert type(z.a) is Fraction and type(z.b) is Fraction


def _normalised(z):
    return z.d > 0 and math.gcd(z.p, z.q, z.d) == 1


@settings(deadline=None)
@given(pairs, pairs)
def test_field_operations_match_fraction_formulas(x, y):
    zx, zy = Sqrt2(*x), Sqrt2(*y)
    _same(zx, x)
    _same(zx + zy, _add(x, y))
    _same(zx - zy, _sub(x, y))
    _same(zx * zy, _mul(x, y))
    _same(-zx, (-x[0], -x[1]))
    if y == (0, 0):
        with pytest.raises(ZeroDivisionError):
            zy.inverse()
        with pytest.raises(ZeroDivisionError):
            zx / zy
    else:
        _same(zy.inverse(), _inverse(y))
        _same(zx / zy, _mul(x, _inverse(y)))
    for z in (zx, zx + zy, zx - zy, zx * zy):
        assert _normalised(z)


@settings(deadline=None)
@given(pairs, fractions)
def test_mixed_operands_coerce(x, c):
    zx = Sqrt2(*x)
    _same(zx + c, (x[0] + c, x[1]))
    _same(c + zx, (x[0] + c, x[1]))
    _same(zx - c, (x[0] - c, x[1]))
    _same(c - zx, (c - x[0], -x[1]))
    _same(zx * c, (x[0] * c, x[1] * c))
    _same(c * zx, (x[0] * c, x[1] * c))
    if c != 0:
        _same(zx / c, (x[0] / c, x[1] / c))
    if x != (0, 0):
        _same(c / zx, _mul((c, Fraction(0)), _inverse(x)))
    assert Sqrt2.coerce(c) == Sqrt2(c, 0)
    assert Sqrt2.coerce(zx) is zx


@settings(deadline=None)
@given(pairs, pairs)
def test_predicates_float_and_repr(x, y):
    zx = Sqrt2(*x)
    assert (zx == Sqrt2(*y)) == (x == y)
    assert zx.is_zero() == (x == (0, 0))
    assert zx.sign() == _sign(x)
    assert float(zx) == float(x[0]) + float(x[1]) * math.sqrt(2.0)
    assert repr(zx) == f"Sqrt2({x[0]}, {x[1]})"


@settings(deadline=None)
@given(pairs, pairs)
def test_equal_values_reached_by_different_routes(x, y):
    zx, zy = Sqrt2(*x), Sqrt2(*y)
    routes = [(zx + zy) - zy, zy + (zx - zy), zx * 1]
    if y != (0, 0):
        routes += [(zx * zy) / zy, (zx / zy) * zy, zx * (zy * zy.inverse())]
    for z in routes:
        assert _normalised(z)
        assert (z.p, z.q, z.d) == (zx.p, zx.q, zx.d)
        assert z == zx and hash(z) == hash(zx)


def test_sign_is_exact_where_float_cancels():
    # a Pell pair, a^2 - 2 b^2 = 1: a - b*sqrt(2) = 1/(a + b*sqrt(2)) is
    # about 2e-21, which float(a) - float(b)*sqrt(2) rounds to 0.0
    a, b = 233806732499933208099, 165326326037771920630
    assert a * a - 2 * b * b == 1
    assert float(Sqrt2(a, -b)) == 0.0
    assert Sqrt2(a, -b).sign() == 1
    assert Sqrt2(-a, b).sign() == -1
    assert Sqrt2(0, 0).sign() == 0
