from fractions import Fraction as Fr

import pytest

from gskit.errors import ZeroPolynomial
from gskit.poly import (IntPoly, rational_roots_with_multiplicity, resultant,
                        sylvester_matrix)
from reference import BiPoly


def test_intpoly_arithmetic():
    p = IntPoly((1, 0, -2))       # 1 - 2x^2
    q = IntPoly((0, 1))           # x
    assert (p * q).coeffs == (0, 1, 0, -2)
    assert (p + q).coeffs == (1, 1, -2)
    assert (p - p).is_zero()
    assert (q ** 5).coeffs == (0, 0, 0, 0, 0, 1)
    assert p(Fr(1, 2)) == Fr(1, 2)


def test_exact_division():
    p = IntPoly((-1, 0, 1))       # x^2 - 1
    d = IntPoly((1, 1))           # x + 1
    q, r = p.divmod_exact_ring(d)
    assert r.is_zero() and q.coeffs == (-1, 1)


def test_resultant_common_root():
    assert resultant(IntPoly((-1, 0, 1)), IntPoly((-1, 1))) == 0


def test_resultant_orientation():
    # Res(x - a, x - b) = a - b with the first polynomial's rows on top
    a, b = Fr(3), Fr(7)
    assert resultant(IntPoly((-a, 1)), IntPoly((-b, 1))) == a - b
    assert resultant(IntPoly((-b, 1)), IntPoly((-a, 1))) == b - a


def test_resultant_classic_identity():
    # Res(p, q) for p = x^2+1, q = x^2-1 equals prod of q over roots of p: 4
    p = IntPoly((1, 0, 1))
    q = IntPoly((-1, 0, 1))
    assert resultant(p, q) == 4


def test_sylvester_shape():
    p = IntPoly((1, 2, 3))
    q = IntPoly((4, 5))
    m = sylvester_matrix(p, q)
    assert len(m) == 3 and all(len(r) == 3 for r in m)
    assert m[0] == [3, 2, 1]
    assert m[1] == [5, 4, 0]
    assert m[2] == [0, 5, 4]


def test_zero_polynomial_rejected():
    with pytest.raises(ZeroPolynomial):
        resultant(IntPoly(()), IntPoly((1, 1)))


def test_polynomial_coefficient_resultant():
    # entries polynomials in y: Res_x(x - y, x + y) = -2y... sign per rows
    y = IntPoly((0, 1), "y")
    p = IntPoly([-y, IntPoly((1,), "y")], "x")
    q = IntPoly([y, IntPoly((1,), "y")], "x")
    res = resultant(p, q)
    assert res == IntPoly((0, 2), "y") or res == IntPoly((0, -2), "y")
    # direct: Res(x-a, x-b) = a-b -> a = y, b = -y -> 2y
    assert res == IntPoly((0, 2), "y")


def test_rational_roots_with_multiplicity():
    # 2 (y-1)^2 (2y-1) y^3
    y = IntPoly((0, 1), "y")
    p = 2 * (y - 1) ** 2 * (2 * y - 1) * y ** 3
    roots = dict(rational_roots_with_multiplicity(p))
    assert roots == {Fr(0): 3, Fr(1, 2): 1, Fr(1): 2}


def test_bipoly_reduction():
    x, y = BiPoly.x(), BiPoly.y()
    # y^2 folds to 1 - 4x
    assert y * y == BiPoly.const(1) - 4 * x
    # (y^2)^2 folds consistently
    assert (y ** 4) == (BiPoly.const(1) - 4 * x) ** 2
    z = (x + y) * (x - y)
    assert z == x * x - (BiPoly.const(1) - 4 * x)


def test_bipoly_evaluate_exact_and_float():
    x, y = BiPoly.x(), BiPoly.y()
    p = x ** 2 * y - 3 * y + Fr(1, 2)
    assert p.evaluate(Fr(3, 16), Fr(1, 2)) == (Fr(9, 256) * Fr(1, 2)
                                               - Fr(3, 2) + Fr(1, 2))
    assert p.evaluate(0.25, 0.5) == pytest.approx(0.25 ** 2 * 0.5 - 1.5 + 0.5)


def test_bipoly_y_split():
    x, y = BiPoly.x(), BiPoly.y()
    p = 2 * x + 3 * x * y + Fr(5)
    p0, p1 = p.y_split()
    assert p0.coeffs == (5, 2)
    assert p1.coeffs == (0, 3)
