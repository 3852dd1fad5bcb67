"""Generalized Hopf (Bautin) point: Lyapunov coefficients, exact resultant
localization, and transversality of the parameter map.

Two independent routes compute the first Lyapunov coefficient:

* ``l1_clw``: a direct rational bracket in the field's partial derivatives
  with the trace-free linear part left as is (no eigenbasis), the style of
  formula classically used for planar systems.  It equals Re(c1) of the
  complex normal form and is polynomial in the state and parameters, which
  is what makes the exact curve restriction below possible.
* ``l1_kuz``: the complex-eigenvector route (projections of the multilinear
  forms onto the critical eigenspace), which extends smoothly off the Hopf
  curve and also powers the second coefficient via the order-5 reduction.

On the Hopf curve both are exactly proportional by the positive factor
omega, so signs and zero sets coincide; cycle simulations in the test suite
pin the overall orientation (negative = attracting newborn cycles).

The curve restriction uses x = sqrt(k), y = sqrt(1 - 4 sqrt(k)): every
on-curve quantity is polynomial in (x, y) modulo y^2 = 1 - 4x, and the
bracket numerator factors exactly as x^3 (1-y)^3 (1+y) (2y-1) / 8, with the
sign switch at y = 1/2, i.e. (k, F) = (9/256, 3/256)."""
from __future__ import annotations

import math
from fractions import Fraction

from .core import Params, State, jacobian, jet
from .equilibria import equilibria, hopf_F
from .errors import DomainError, NotOnHopfCurve
from .normalform import poincare_normal_form
from .poly import IntPoly, rational_roots_with_multiplicity, resultant
from .ratmath import FieldComplex, Sqrt2

GH_PARAMS = Params(Fraction(9, 256), Fraction(3, 256))


def mu(a: Params) -> float:
    """Real part of the critical eigenvalue pair at the focus-type point."""
    eq = equilibria(a)
    if eq.p_mp is None:
        raise DomainError(f"no focus-type equilibrium at {a}")
    jac = jacobian(eq.p_mp, a)
    return float(jac[0][0] + jac[1][1]) / 2.0


def hopf_point(a: Params) -> State:
    """The focus-type point at a, on the Hopf curve; raises NotOnHopfCurve
    unless its trace is within 1e-10 of zero and its determinant positive."""
    eq = equilibria(a)
    if eq.p_mp is None:
        raise NotOnHopfCurve(f"no focus-type equilibrium at {a}")
    jac = jacobian(eq.p_mp, a)
    tr = jac[0][0] + jac[1][1]
    det = jac[0][0] * jac[1][1] - jac[0][1] * jac[1][0]
    if abs(float(tr)) > 1e-10 or not det > 0:
        raise NotOnHopfCurve(f"trace {tr}, det {det} at {a}")
    return eq.p_mp


# ---------------------------------------------------------------------------
# First Lyapunov coefficient, direct rational bracket
# ---------------------------------------------------------------------------

def _partials(point, a: Params):
    j = jet(point, a)
    b_, c_ = j.b_tensor, j.c_tensor
    return {
        "fxx": b_[0][0][0], "fxy": b_[0][0][1], "fyy": b_[0][1][1],
        "gxx": b_[1][0][0], "gxy": b_[1][0][1], "gyy": b_[1][1][1],
        "fxxx": c_[0][0][0][0], "fxxy": c_[0][0][0][1],
        "fxyy": c_[0][0][1][1], "fyyy": c_[0][1][1][1],
        "gxxx": c_[1][0][0][0], "gxxy": c_[1][0][0][1],
        "gxyy": c_[1][0][1][1], "gyyy": c_[1][1][1][1],
    }


def clw_bracket(b, c, d, beta2, p: dict):
    """The trace-free-linear-part first-focal-value bracket.

    Generic over the arithmetic: floats, Fractions, or any ring elements.
    l1 = b * bracket / (4 * beta2) equals Re(c1) of the complex reduction.
    """
    return (beta2 * (b * (p["fxxx"] + p["gxxy"]) + 2 * d * (p["fxxy"] + p["gxyy"])
                     - c * (p["fxyy"] + p["gyyy"]))
            - b * d * (p["fxx"] * p["fxx"] - p["fxx"] * p["gxy"]
                       - p["fxy"] * p["gxx"] - p["gxx"] * p["gyy"]
                       - 2 * p["gxy"] * p["gxy"])
            - c * d * (p["gyy"] * p["gyy"] - p["gyy"] * p["fxy"]
                       - p["gxy"] * p["fyy"] - p["fyy"] * p["fxx"]
                       - 2 * p["fxy"] * p["fxy"])
            + b * b * (p["fxx"] * p["gxx"] + p["gxx"] * p["gxy"])
            - c * c * (p["fyy"] * p["gyy"] + p["fxy"] * p["fyy"])
            - (beta2 + 3 * d * d) * (p["fxx"] * p["fxy"] - p["gxy"] * p["gyy"]))


def l1_clw(a: Params):
    """First Lyapunov coefficient on the Hopf curve, rational bracket form.

    Negative means the Hopf bifurcation sheds attracting cycles.  Exact
    (Fraction) inputs on the curve give exact output."""
    pt = hopf_point(a)
    jac = jacobian(pt, a)
    b_, c_, d_ = jac[0][1], jac[1][0], jac[1][1]
    beta2 = jac[0][0] * jac[1][1] - jac[0][1] * jac[1][0]
    s = clw_bracket(b_, c_, d_, beta2, _partials(pt, a))
    return b_ * s / (4 * beta2)


# ---------------------------------------------------------------------------
# Complex-eigenvector route and the order-5 reduction
# ---------------------------------------------------------------------------

def _eigendata(a: Params):
    """Critical-pair eigen data at the focus-type point: lam, q, p with
    <p, q> = 1, plus the multilinear closures."""
    eq = equilibria(a)
    if eq.p_mp is None:
        raise DomainError(f"no focus-type equilibrium at {a}")
    pt = eq.p_mp
    jac = jacobian(pt, a)
    a11, a12 = float(jac[0][0]), float(jac[0][1])
    a21, a22 = float(jac[1][0]), float(jac[1][1])
    tr = a11 + a22
    det = a11 * a22 - a12 * a21
    disc = tr * tr - 4 * det
    if disc >= 0:
        raise NotOnHopfCurve(f"real eigenvalues at {a}")
    om = math.sqrt(-disc) / 2.0
    lam = complex(tr / 2.0, om)
    q = (complex(a12), lam - a11)
    p = (complex(a21), lam.conjugate() - a11)
    sigma = p[0].conjugate() * q[0] + p[1].conjugate() * q[1]
    p = (p[0] / sigma.conjugate(), p[1] / sigma.conjugate())
    jt = jet(pt, a)

    def proj_b(x, y):
        bx = jt.B((x[0], x[1]), (y[0], y[1]))
        return p[0].conjugate() * bx[0] + p[1].conjugate() * bx[1]

    def proj_c(x, y, z):
        cx = jt.C((x[0], x[1]), (y[0], y[1]), (z[0], z[1]))
        return p[0].conjugate() * cx[0] + p[1].conjugate() * cx[1]

    return lam, om, q, proj_b, proj_c


def _g_coeffs(a: Params):
    lam, om, q, proj_b, proj_c = _eigendata(a)
    qb = (q[0].conjugate(), q[1].conjugate())
    g20 = proj_b(q, q)
    g11 = proj_b(q, qb)
    g02 = proj_b(qb, qb)
    g21 = proj_c(q, q, qb)
    return lam, om, g20, g11, g02, g21


def _l1_extended(a: Params) -> float:
    """Re(c1)/omega from the lambda-dependent resonant coefficient; defined
    in a neighborhood of the Hopf curve (complex eigenvalues required)."""
    lam, om, g20, g11, g02, g21 = _g_coeffs(a)
    c1 = (g20 * g11 * (2 * lam + lam.conjugate()) / (2 * abs(lam) ** 2)
          + abs(g11) ** 2 / lam + abs(g02) ** 2 / (2 * (2 * lam - lam.conjugate()))
          + g21 / 2)
    return c1.real / om


def l1_kuz(a: Params) -> float:
    """First Lyapunov coefficient via the complex eigenvector projection,
    normalized as Re(c1)/omega."""
    hopf_point(a)
    return _l1_extended(a)


def _monomial_coeffs(a: Params):
    """Monomial coefficients a_jk of the complex scalar equation."""
    _, om, q, proj_b, proj_c = _eigendata(a)
    qb = (q[0].conjugate(), q[1].conjugate())
    return om, {
        (2, 0): proj_b(q, q) / 2,
        (1, 1): proj_b(q, qb),
        (0, 2): proj_b(qb, qb) / 2,
        (3, 0): proj_c(q, q, q) / 6,
        (2, 1): proj_c(q, q, qb) / 2,
        (1, 2): proj_c(q, qb, qb) / 2,
        (0, 3): proj_c(qb, qb, qb) / 6,
    }


def l2_kuz(a: Params) -> float:
    """Second Lyapunov coefficient Re(c2)/omega via the order-5 reduction.

    Well defined (independent of reduction choices) where Re(c1) = 0; away
    from that locus it is the standard fifth-order resonant coefficient of
    this reduction."""
    hopf_point(a)
    om, coeffs = _monomial_coeffs(a)
    scale = max(abs(c) for c in coeffs.values())
    c1, c2, _ = poincare_normal_form(
        coeffs, complex(0.0, om), complex(1.0),
        lambda c: abs(c) < 1e-14 * max(1.0, scale))
    return c2.real / om


def l2_gh_exact() -> tuple:
    """Exact (c1, c2) at the generalized Hopf point over Q(sqrt 2, i).

    At (9/256, 3/256) the equilibrium and Jacobian are rational and the
    frequency is 3*sqrt(2)/128, so the whole order-5 reduction closes in
    the quadratic field; Re(c1) vanishes identically and sign(Re c2) is
    certified without rounding."""
    aP = GH_PARAMS
    eqs = equilibria(aP)
    pt = eqs.p_mp
    jac = jacobian(pt, aP)
    a11, a12 = Fraction(jac[0][0]), Fraction(jac[0][1])
    a21 = Fraction(jac[1][0])
    om = Sqrt2(0, Fraction(3, 128))          # sqrt(det) = 3*sqrt(2)/128
    assert om * om == Sqrt2(Fraction(jac[0][0] * jac[1][1] - a12 * a21), 0)
    lam = FieldComplex(0, om)
    one = FieldComplex(1)
    q = (FieldComplex(a12), lam - FieldComplex(a11))
    p = (FieldComplex(a21), lam.conjugate() - FieldComplex(a11))
    sigma = p[0].conjugate() * q[0] + p[1].conjugate() * q[1]
    p = (p[0] / sigma.conjugate(), p[1] / sigma.conjugate())
    jt = jet(pt, aP)

    def lift(t):
        return FieldComplex(Fraction(t))

    def proj_b(x, y):
        s = x[0] * y[1] + x[1] * y[0]
        b1 = lift(jt.b_tensor[0][0][1]) * s + lift(jt.b_tensor[0][1][1]) * x[1] * y[1]
        b2 = lift(jt.b_tensor[1][0][1]) * s + lift(jt.b_tensor[1][1][1]) * x[1] * y[1]
        return p[0].conjugate() * b1 + p[1].conjugate() * b2

    def proj_c(x, y, z):
        s = x[0] * y[1] * z[1] + x[1] * y[0] * z[1] + x[1] * y[1] * z[0]
        c1v = lift(jt.c_tensor[0][0][1][1]) * s
        c2v = lift(jt.c_tensor[1][0][1][1]) * s
        return p[0].conjugate() * c1v + p[1].conjugate() * c2v

    qb = (q[0].conjugate(), q[1].conjugate())
    half = FieldComplex(Fraction(1, 2))
    sixth = FieldComplex(Fraction(1, 6))
    coeffs = {
        (2, 0): proj_b(q, q) * half,
        (1, 1): proj_b(q, qb),
        (0, 2): proj_b(qb, qb) * half,
        (3, 0): proj_c(q, q, q) * sixth,
        (2, 1): proj_c(q, q, qb) * half,
        (1, 2): proj_c(q, qb, qb) * half,
        (0, 3): proj_c(qb, qb, qb) * sixth,
    }
    c1, c2, _ = poincare_normal_form(
        coeffs, FieldComplex(0, om), one, lambda c: c.is_zero())
    return c1, c2


# ---------------------------------------------------------------------------
# Exact localization: the polynomial system and its resultant
# ---------------------------------------------------------------------------

def q1_poly() -> IntPoly:
    """Degree-8 polynomial in x with integer-linear coefficients in y whose
    zero set on y^2 = 1 - 4x is the zero set of l1 on the Hopf curve."""
    y = IntPoly((0, 1), "y")

    def cy(c0, c1):
        return IntPoly((c0, c1), "y")

    coeffs = [
        3 * (y - 1),                 # x^0
        cy(52, -46),                 # x^1
        cy(-372, 286),               # x^2
        cy(1416, -924),              # x^3
        cy(-28 * 110, 15 * 110),     # x^4
        cy(3816, -1596),             # x^5
        cy(-2520, 756),              # x^6: 252*(3y - 10)
        cy(8 * 94, -8 * 17),         # x^7
        cy(-66, 4),                  # x^8
    ]
    return IntPoly(coeffs, "x")


def q2_poly() -> IntPoly:
    """The radical-clearing relation -4x - y^2 + 1 as a polynomial in x."""
    y = IntPoly((0, 1), "y")
    return IntPoly([1 - y * y, IntPoly((-4,), "y")], "x")


def expected_resultant() -> IntPoly:
    """2 (y-1)^16 (2y-1) expanded over the integers."""
    y = IntPoly((0, 1), "y")
    return 2 * (y - 1) ** 16 * (2 * y - 1)


def gh_locate() -> dict:
    """Locate the generalized Hopf point by exact elimination.

    Builds the polynomial pair, takes the resultant in x, checks it equals
    +/- 2 (y-1)^16 (2y-1) coefficient-exact, extracts the rational roots,
    rejects the degenerate boundary root y = 1 (k = 0) and maps y = 1/2
    back through x = sqrt(k) to (9/256, 3/256) with equilibrium (1/4, 3/16).
    """
    res = resultant(q1_poly(), q2_poly())
    exp = expected_resultant()
    sign = 0
    if res == exp:
        sign = 1
    elif res == -exp:
        sign = -1
    roots = rational_roots_with_multiplicity(res)
    gh = None
    rejected = []
    for r, mult in roots:
        if not (0 < r < 1):
            rejected.append((r, mult, "outside (0,1)"))
            continue
        x = (1 - r * r) / 4            # x = sqrt(k) from the relation
        k = x * x
        F = hopf_F(k)
        eq = equilibria(Params(k, F))
        gh = {
            "y": r, "k": k, "F": F, "point": eq.p_mp,
            "multiplicity": mult,
        }
    return {
        "resultant": res,
        "matches_expected": sign != 0,
        "sign": sign,
        "roots": roots,
        "rejected": rejected,
        "gh": gh,
    }


# ---------------------------------------------------------------------------
# Parameter-map transversality at GH
# ---------------------------------------------------------------------------

def param_map_jacobian(h: float = 1e-6):
    """Central-difference Jacobian of (k, F) -> (mu, l1) at the generalized
    Hopf point, with step h."""
    k0, F0 = float(GH_PARAMS.k), float(GH_PARAMS.F)

    def both(k, F):
        a = Params(k, F)
        return mu(a), _l1_extended(a)

    mk1, lk1 = both(k0 + h, F0)
    mk0, lk0 = both(k0 - h, F0)
    mF1, lF1 = both(k0, F0 + h)
    mF0, lF0 = both(k0, F0 - h)
    return ((mk1 - mk0) / (2 * h), (mF1 - mF0) / (2 * h),
            (lk1 - lk0) / (2 * h), (lF1 - lF0) / (2 * h))


def param_map_transversality() -> float:
    """Determinant of the (mu, l1) parameter map at the generalized Hopf
    point, at steps 1e-6 and 5e-7, which must agree within 5% (relative)."""
    d1 = _det4(param_map_jacobian(1e-6))
    d2 = _det4(param_map_jacobian(1e-6 / 2))
    if abs(d1 - d2) > 0.05 * max(abs(d1), abs(d2)):
        raise DomainError(f"finite-difference determinant unstable: {d1} vs {d2}")
    return d2


def _det4(j):
    return j[0] * j[3] - j[1] * j[2]
