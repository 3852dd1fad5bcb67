import math
import random
from fractions import Fraction as Fr

import numpy as np
import pytest

from gskit.bautin import (GH_PARAMS, clw_bracket, expected_resultant,
                          gh_locate, l1_clw, l1_kuz, l2_gh_exact, l2_kuz, mu,
                          param_map_transversality, q1_poly, q2_poly)
from gskit.core import Params, jacobian, trace_det
from gskit.equilibria import equilibria, hopf_F
from gskit.errors import NotOnHopfCurve
from gskit.poly import IntPoly, resultant
from gskit.ratmath import Sqrt2
from reference import (BiPoly, bautin_polar_census, clw_bracket_generic,
                       field_partials, param_map_jacobian)


def restricted_l1_bracket() -> tuple:
    """Exact on-curve restriction of the bracket in (x, y) coordinates.

    Returns (numerator, prefactor, beta2) as BiPoly elements: on the Hopf
    curve l1_clw = prefactor * numerator / (4 * beta2) with
    prefactor = b = -x(1-y) and beta2 = x^2 y (1-y)^2 / 4, both sign-definite
    for 0 < k < 1/16, so the zero set of l1 is the zero set of `numerator`.
    """
    x, y = BiPoly.x(), BiPoly.y()
    one = BiPoly.const(1)
    u = (one - y) * Fr(1, 2)
    v = x
    F = x * (one - 2 * x - y) * Fr(1, 2)
    fk = x * (one - y) * Fr(1, 2)       # F + k on the curve
    b_ = -2 * u * v
    c_ = v * v
    d_ = fk
    beta2 = (v * v - F) * fk
    p = {
        "fxx": BiPoly.const(0), "fxy": -2 * v, "fyy": -2 * u,
        "gxx": BiPoly.const(0), "gxy": 2 * v, "gyy": 2 * u,
        "fxxx": BiPoly.const(0), "fxxy": BiPoly.const(0),
        "fxyy": BiPoly.const(-2), "fyyy": BiPoly.const(0),
        "gxxx": BiPoly.const(0), "gxxy": BiPoly.const(0),
        "gxyy": BiPoly.const(2), "gyyy": BiPoly.const(0),
    }
    return clw_bracket_generic(b_, c_, d_, beta2, p), b_, beta2


def test_l1_requires_hopf_curve():
    with pytest.raises(NotOnHopfCurve):
        l1_clw(Params(0.03, 0.02))
    with pytest.raises(NotOnHopfCurve):
        l1_kuz(Params(0.03, 0.02))


def test_l1_clw_exact_rational_values():
    # rational points of the Hopf curve: x = sqrt(k) and y = sqrt(1-4x)
    # both rational at k = 25/1296 (y = 2/3) and k = 4/81 (y = 1/3)
    assert l1_clw(Params(Fr(25, 1296), Fr(5, 1296))) == Fr(-125, 559872)
    assert l1_clw(Params(Fr(4, 81), Fr(2, 81))) == Fr(8, 2187)
    assert l1_clw(GH_PARAMS) == 0


def test_l1_signs_along_curve():
    for k, sign in ((0.02, -1), (0.03, -1), (0.05, 1), (0.06, 1)):
        a = Params(k, float(hopf_F(k)))
        assert math.copysign(1, l1_clw(a)) == sign
        assert math.copysign(1, l1_kuz(a)) == sign


def test_l1_routes_agree_in_sign_at_20_samples():
    for k in np.linspace(0.011, 0.0624, 20):
        a = Params(float(k), float(hopf_F(float(k))))
        v1, v2 = l1_clw(a), l1_kuz(a)
        assert (v1 < 0) == (v2 < 0), (k, v1, v2)
        # they are the same quantity up to the positive factor omega
        from gskit.equilibria import p_mp_trace_det_disc
        _, det, _ = p_mp_trace_det_disc(float(k), float(hopf_F(float(k))))
        assert v1 == pytest.approx(v2 * math.sqrt(det), rel=1e-7)


def test_restricted_bracket_exact_factorization():
    bracket, prefactor, beta2 = restricted_l1_bracket()
    x, y = BiPoly.x(), BiPoly.y()
    one = BiPoly.const(1)
    expected = (x ** 3) * ((one - y) ** 3) * (one + y) * (2 * y - 1) * Fr(1, 8)
    assert bracket == expected
    assert prefactor == -(x * (one - y))
    assert beta2 == (x * x) * y * ((one - y) ** 2) * Fr(1, 4)


def test_restricted_bracket_matches_l1_at_rational_points():
    bracket, prefactor, beta2 = restricted_l1_bracket()
    for x, y, k, F in ((Fr(5, 36), Fr(2, 3), Fr(25, 1296), Fr(5, 1296)),
                       (Fr(3, 16), Fr(1, 2), Fr(9, 256), Fr(3, 256)),
                       (Fr(2, 9), Fr(1, 3), Fr(4, 81), Fr(2, 81))):
        val = (prefactor.evaluate(x, y) * bracket.evaluate(x, y)
               / (4 * beta2.evaluate(x, y)))
        assert val == l1_clw(Params(k, F))


def test_q1_transcription_vanishes_at_gh():
    q1 = q1_poly()
    val = q1(Fr(3, 16))          # coefficients in y, evaluate x then y
    assert val(Fr(1, 2)) == 0


def test_resultant_exact_factorization():
    res = resultant(q1_poly(), q2_poly())
    assert res == expected_resultant()
    # re-expansion reproduces every coefficient
    y = IntPoly((0, 1), "y")
    assert res == 2 * (y - 1) ** 16 * (2 * y - 1)


def test_gh_locate_full_chain():
    loc = gh_locate()
    assert loc["matches_expected"] and loc["sign"] == 1
    assert dict(loc["roots"]) == {Fr(1, 2): 1, Fr(1): 16}
    gh = loc["gh"]
    assert gh["k"] == Fr(9, 256) and gh["F"] == Fr(3, 256)
    assert gh["point"].u == Fr(1, 4) and gh["point"].v == Fr(3, 16)


def test_gh_locate_rejects_degenerate_boundary_root():
    # y = 1 maps to sqrt(1 - 4 sqrt(k)) = 1, i.e. k = 0: not in (0, 1)
    # open-interval filtering is what keeps it out
    loc = gh_locate()
    assert all(r != 1 or m == 16 for r, m in loc["roots"])
    assert [r for r, _ in loc["roots"] if 0 < r < 1] == [Fr(1, 2)]


def test_q1_on_curve_matches_resultant_up_to_leading_power():
    # Res(Q1, Q2, x) = (-4)^8 Q1((1 - y^2)/4, y): restrict both to the curve
    x, y = BiPoly.x(), BiPoly.y()
    q1 = q1_poly()
    on_curve = BiPoly.const(0)
    for i, cy in enumerate(q1.coeffs):
        cy_b = BiPoly.const(cy[0]) + BiPoly.const(cy[1] if cy.degree >= 1 else 0) * y
        on_curve = on_curve + cy_b * x ** i
    res = expected_resultant()
    res_b = BiPoly.const(0)
    for i, c in enumerate(res.coeffs):
        res_b = res_b + BiPoly.const(c) * y ** i
    assert on_curve * Fr(65536) == res_b


def test_q1_sign_matches_l1_up_to_global_constant():
    # one global positive constant relates sign(-Q1 on curve) to sign(l1)
    vals = []
    for k in (0.02, 0.05):
        x = math.sqrt(k)
        y = math.sqrt(1 - 4 * x)
        q1v = q1_poly()(x)(y)
        l1 = l1_clw(Params(k, float(hopf_F(k))))
        vals.append((q1v, l1))
    assert all((q > 0) == (l < 0) for q, l in vals)


def test_l2_exact_at_gh():
    c1, c2 = l2_gh_exact()
    assert c1.re.is_zero()
    assert c2.re == Sqrt2(Fr(81, 524288), 0)
    assert c2.re.sign() > 0
    assert repr(c1) == "FieldComplex(Sqrt2(0, 0), Sqrt2(0, -81/16384))"
    assert repr(c2) == ("FieldComplex(Sqrt2(81/524288, 0), "
                        "Sqrt2(0, -7857/8388608))")


def test_l2_float_matches_exact():
    c1, c2 = l2_gh_exact()
    om = 3 * math.sqrt(2) / 128
    assert l2_kuz(Params(9 / 256, 3 / 256)) == pytest.approx(
        float(c2.re) / om, rel=1e-13)


def test_mu_sign_below_hopf_curve():
    assert abs(mu(Params(9 / 256, 3 / 256))) < 1e-15
    assert mu(Params(9 / 256, 3 / 256 - 1e-5)) > 0
    assert mu(Params(9 / 256, 3 / 256 + 1e-5)) < 0


def test_clw_bracket_equals_generic_oracle():
    # the specialized bracket against the generic one in the 14 partials,
    # exactly: on seeded random rationals and at rational Hopf points
    rng = random.Random(18)

    def rational():
        return Fr(rng.randint(-60, 60), rng.randint(1, 60))

    for _ in range(200):
        b, c, d, beta2, u, v = (rational() for _ in range(6))
        assert clw_bracket(b, c, d, beta2, u, v) == clw_bracket_generic(
            b, c, d, beta2, field_partials(u, v))
    for k, F in ((Fr(25, 1296), Fr(5, 1296)), (Fr(9, 256), Fr(3, 256)),
                 (Fr(4, 81), Fr(2, 81))):
        a = Params(k, F)
        pt = equilibria(a).p_mp
        jac = jacobian(pt, a)
        b, c, d, beta2 = jac[0][1], jac[1][0], jac[1][1], trace_det(jac)[1]
        assert clw_bracket(b, c, d, beta2, pt.u, pt.v) == clw_bracket_generic(
            b, c, d, beta2, field_partials(pt.u, pt.v))


def test_param_map_determinant_stable_under_step_halving():
    exact = param_map_transversality()
    assert exact == Sqrt2(0, Fr(9, 2))
    # the central-difference oracle agrees with itself at two steps and
    # with the exact value
    d1 = _det(param_map_jacobian(h=1e-6))
    d2 = _det(param_map_jacobian(h=1e-7))
    assert abs(d1 - d2) <= 0.05 * max(abs(d1), abs(d2))
    for d in (d1, d2):
        assert d == pytest.approx(float(exact), rel=1e-5)


def _det(j):
    return j[0] * j[3] - j[1] * j[2]


def test_polar_census_examples():
    census = bautin_polar_census(3, -4)
    assert len(census) == 2
    (r1, s1), (r2, s2) = census
    assert r1 == pytest.approx(1.0) and s1 == "stable"
    assert r2 == pytest.approx(math.sqrt(3)) and s2 == "unstable"
    assert bautin_polar_census(1, 1) == []
    on_t = bautin_polar_census(1, -2)
    assert len(on_t) == 1 and on_t[0][1] == "fold"


def test_polar_census_changes_by_two_across_t():
    # crossing T = {beta2^2 = 4 beta1, beta2 < 0} changes the census by 2
    b2 = -2.0
    for b1 in (0.9, 1.1):
        n = len(bautin_polar_census(b1, b2))
        assert n == (2 if b1 < 1.0 else 0)
