import random
from fractions import Fraction as Fr

import pytest

from gskit.bautin import q1_poly, q2_poly
from gskit.errors import ZeroPolynomial
from gskit.poly import IntPoly, rational_roots_with_multiplicity, resultant
from reference import (BiPoly, divmod_exact, roots_by_division,
                       sylvester_matrix, sylvester_resultant)


def test_intpoly_arithmetic():
    p = IntPoly((1, 0, -2))       # 1 - 2x^2
    q = IntPoly((0, 1))           # x
    assert (p * q).coeffs == (0, 1, 0, -2)
    assert (p + q).coeffs == (1, 1, -2)
    assert (p - p).is_zero()
    assert (q ** 5).coeffs == (0, 0, 0, 0, 0, 1)
    assert p(Fr(1, 2)) == Fr(1, 2)


def test_exact_division():
    # the oracle's long division
    p = IntPoly((-1, 0, 1))       # x^2 - 1
    d = IntPoly((1, 1))           # x + 1
    q, r = divmod_exact(p, d)
    assert r.is_zero() and q.coeffs == (-1, 1)


def test_resultant_common_root():
    assert resultant(IntPoly((-1, 0, 1)), IntPoly((-1, 1))) == 0


def test_resultant_orientation():
    # Res(x - a, x - b) = a - b with the first polynomial's rows on top
    a, b = Fr(3), Fr(7)
    assert resultant(IntPoly((-a, 1)), IntPoly((-b, 1))) == a - b
    assert resultant(IntPoly((-b, 1)), IntPoly((-a, 1))) == b - a


def test_resultant_classic_identity():
    # the oracle at general degree: Res(p, q) for p = x^2+1, q = x^2-1
    # equals the product of q over the roots of p: 4
    p = IntPoly((1, 0, 1))
    q = IntPoly((-1, 0, 1))
    assert sylvester_resultant(p, q) == 4


def test_resultant_rejects_nonlinear_second_polynomial():
    p = IntPoly((1, 0, 1))
    for q in (IntPoly((3,)), IntPoly((-1, 0, 1)), IntPoly((0, 0, 0, 2))):
        with pytest.raises(ValueError):
            resultant(p, q)


def _random_poly(rnd, degree, ring):
    # coefficients in Z, or in Z[y] of degree <= 2; nonzero leading one
    def coeff():
        if ring == "int":
            return rnd.randint(-9, 9)
        return IntPoly([rnd.randint(-5, 5) for _ in range(rnd.randint(1, 3))], "y")

    cs = [coeff() for _ in range(degree)]
    lead = coeff()
    while lead == 0:
        lead = coeff()
    return IntPoly(cs + [lead], "x")


def test_resultant_equals_sylvester_oracle():
    # Poisson's linear-case formula against the general Sylvester
    # determinant, exactly: the localization pair and seeded random pairs
    assert resultant(q1_poly(), q2_poly()) == sylvester_resultant(q1_poly(), q2_poly())
    rnd = random.Random(20171)
    for n in range(40):
        ring = ("int", "poly")[n // 20]
        p = _random_poly(rnd, n % 10, ring)
        q = _random_poly(rnd, 1, ring)
        assert resultant(p, q) == sylvester_resultant(p, q), (p, q)


def test_rational_roots_match_division_oracle():
    # seeded products of rational linear factors, with repeated roots
    rnd = random.Random(17)
    for _ in range(25):
        roots = [Fr(rnd.randint(-12, 12), rnd.randint(1, 6))
                 for _ in range(rnd.randint(1, 7))]
        roots += rnd.sample(roots, rnd.randint(0, len(roots)))
        p = IntPoly((Fr(rnd.choice((-3, -1, 1, 2, 5)), rnd.randint(1, 4)),))
        for r in roots:
            p = p * IntPoly((-r, 1))
        got = rational_roots_with_multiplicity(p)
        assert dict(got) == roots_by_division(p, set(roots)), roots


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
