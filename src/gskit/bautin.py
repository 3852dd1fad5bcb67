"""Generalized Hopf (Bautin) point: Lyapunov coefficients, exact
localization by elimination, and exact transversality of the parameter map.

Two independent routes compute the first Lyapunov coefficient:

* ``l1_clw``: a direct rational bracket in the field's partial derivatives
  with the trace-free linear part left as is (no eigenbasis), the style of
  formula classically used for planar systems.  It equals Re(c1) of the
  complex normal form and is polynomial in the state and parameters, which
  is what makes the exact curve restriction below possible.
* ``l1_kuz``: the complex-eigenvector route (projections of the multilinear
  forms onto the critical eigenspace), which extends smoothly off the Hopf
  curve and also feeds the closed-form second coefficient (normalform).

On the Hopf curve both are exactly proportional by the positive factor
omega, so signs and zero sets coincide; cycle simulations in the test suite
pin the overall orientation (negative = attracting newborn cycles).

The curve restriction uses x = sqrt(k), y = sqrt(1 - 4 sqrt(k)): every
on-curve quantity is polynomial in (x, y) modulo y^2 = 1 - 4x, and the
bracket numerator factors exactly as x^3 (1-y)^3 (1+y) (2y-1) / 8, with the
sign switch at y = 1/2, i.e. (k, F) = (9/256, 3/256).  gh_locate finds that
point without the factorization: the relation y^2 = 1 - 4x is linear in x,
so eliminating x from the degree-8 polynomial q1 is q1 evaluated at
x = (1 - y^2)/4, scaled by 4^8 (poly.resultant).  The three Bautin facts
(Kuznetsov, section 8.3) are exact: l1 = 0, l2 > 0 (l2_gh_exact) and the
parameter-map determinant 9 sqrt(2)/2 (param_map_transversality)."""
from __future__ import annotations

import math
from fractions import Fraction

from .core import (Params, State, extended_jacobian, jacobian, second_form,
                   trace_det)
from .equilibria import equilibria, hopf_F
from .errors import DomainError, NotOnHopfCurve
from .normalform import poincare_normal_form
from .poly import IntPoly, _deflate, rational_roots_with_multiplicity, resultant
from .ratmath import FieldComplex, Sqrt2

GH_PARAMS = Params(Fraction(9, 256), Fraction(3, 256))
_GH_OMEGA = Sqrt2(0, Fraction(3, 128))        # sqrt(det) at GH_PARAMS


def mu(a: Params) -> float:
    """Real part of the critical eigenvalue pair at the focus-type point."""
    eq = equilibria(a)
    if eq.p_mp is None:
        raise DomainError(f"no focus-type equilibrium at {a}")
    return float(trace_det(jacobian(eq.p_mp, a))[0]) / 2.0


def hopf_point(a: Params) -> State:
    """The focus-type point at a, on the Hopf curve; raises NotOnHopfCurve
    unless its trace is within 1e-10 of zero and its determinant positive."""
    eq = equilibria(a)
    if eq.p_mp is None:
        raise NotOnHopfCurve(f"no focus-type equilibrium at {a}")
    tr, det = trace_det(jacobian(eq.p_mp, a))
    if abs(float(tr)) > 1e-10 or not det > 0:
        raise NotOnHopfCurve(f"trace {tr}, det {det} at {a}")
    return eq.p_mp


# ---------------------------------------------------------------------------
# First Lyapunov coefficient, direct rational bracket
# ---------------------------------------------------------------------------

def clw_bracket(b, c, d, beta2, u, v):
    """First-focal-value bracket at a Hopf point (u, v) with Jacobian
    ((-d, b), (c, d)) of determinant beta2: the generic planar bracket
    (tests/reference.py) at f_uv = -2v, f_vv = -2u, f_uvv = -2, g = -f.
    Generic over the arithmetic; b * bracket / (4 * beta2) is Re(c1)."""
    return (2 * beta2 * (2 * d + c) + 8 * b * d * v * v
            - 4 * c * d * (u * u + 2 * u * v - 2 * v * v)
            + 4 * c * c * u * (u - v) + 4 * u * v * (beta2 + 3 * d * d))


def l1_clw(a: Params):
    """First Lyapunov coefficient on the Hopf curve, rational bracket form.

    Negative means the Hopf bifurcation sheds attracting cycles.  Exact
    (Fraction) inputs on the curve give exact output."""
    pt = hopf_point(a)
    jac = jacobian(pt, a)
    b_, c_, d_ = jac[0][1], jac[1][0], jac[1][1]
    beta2 = trace_det(jac)[1]
    s = clw_bracket(b_, c_, d_, beta2, pt.u, pt.v)
    return b_ * s / (4 * beta2)


# ---------------------------------------------------------------------------
# Complex-eigenvector route and the fifth-order normal form
# ---------------------------------------------------------------------------

def _g_coeffs(lift, lam, jac, u, v) -> dict:
    """Projections g_jk of the field's second and third derivative forms on
    the critical eigenspace (Kuznetsov, Elements of Applied Bifurcation
    Theory, sections 3.5 and 8.3): g20 = <p, B(q, q)>, g11 = <p, B(q, qbar)>,
    g21 = <p, C(q, q, qbar)> and so on, with A q = lam q,
    A^T p = conj(lam) p and <p, q> = 1.

    jac is the Jacobian at the point (u, v).  Generic over the arithmetic:
    lift is complex, or FieldComplex for exact work over Q(sqrt 2, i).  B and
    C are summed term by term in tensor index order and projected as
    conj(p1) f + conj(p2) (-f); the floats of the l1 and l2 routes depend on
    that order (factoring out conj(p1) - conj(p2) moves their last bits).
    """
    (a11, a12), (a21, _) = jac
    q = (lift(a12), lam - a11)
    p = (lift(a21), lam.conjugate() - a11)
    sigma = p[0].conjugate() * q[0] + p[1].conjugate() * q[1]
    pb0 = (p[0] / sigma.conjugate()).conjugate()
    pb1 = (p[1] / sigma.conjugate()).conjugate()

    def proj_b(x, y):
        b = second_form(u, v, x, y)
        return pb0 * b + pb1 * -b

    def proj_c(x, y, z):
        # f_uvv = -2
        c = -2 * x[0] * y[1] * z[1] + -2 * x[1] * y[0] * z[1] + -2 * x[1] * y[1] * z[0]
        return pb0 * c + pb1 * -c

    qb = (q[0].conjugate(), q[1].conjugate())
    return {(2, 0): proj_b(q, q), (1, 1): proj_b(q, qb), (0, 2): proj_b(qb, qb),
            (3, 0): proj_c(q, q, q), (2, 1): proj_c(q, q, qb),
            (1, 2): proj_c(q, qb, qb), (0, 3): proj_c(qb, qb, qb)}


def _eigendata(pt: State, a: Params):
    """Critical pair lam = mu + i*omega at the focus-type point pt of a,
    omega and the projections g_jk there, in floats."""
    (a11, a12), (a21, a22) = jacobian(pt, a)
    jac = ((float(a11), float(a12)), (float(a21), float(a22)))
    tr, det = trace_det(jac)
    disc = tr * tr - 4 * det
    if disc >= 0:
        raise NotOnHopfCurve(f"real eigenvalues at {a}")
    om = math.sqrt(-disc) / 2.0
    lam = complex(tr / 2.0, om)
    return lam, om, _g_coeffs(complex, lam, jac, pt.u, pt.v)


def _l1_extended(pt: State, a: Params) -> float:
    """Re(c1)/omega at the focus-type point pt of a, from the
    lambda-dependent resonant coefficient; defined in a neighborhood of the
    Hopf curve (complex eigenvalues required)."""
    lam, om, g = _eigendata(pt, a)
    g20, g11, g02, g21 = g[2, 0], g[1, 1], g[0, 2], g[2, 1]
    c1 = (g20 * g11 * (2 * lam + lam.conjugate()) / (2 * abs(lam) ** 2)
          + abs(g11) ** 2 / lam + abs(g02) ** 2 / (2 * (2 * lam - lam.conjugate()))
          + g21 / 2)
    return c1.real / om


def l1_kuz(a: Params) -> float:
    """First Lyapunov coefficient via the complex eigenvector projection,
    normalized as Re(c1)/omega."""
    return _l1_extended(hopf_point(a), a)


def l2_kuz(a: Params) -> float:
    """Second Lyapunov coefficient Re(c2)/omega of the fifth-order normal form.

    Well defined (independent of reduction choices) where Re(c1) = 0; away
    from that locus it is the resonant coefficient of the reduction that
    normalform describes."""
    _, om, g = _eigendata(hopf_point(a), a)
    return poincare_normal_form(g, complex(0.0, om))[1].real / om


def l2_gh_exact() -> tuple:
    """Exact (c1, c2) at the generalized Hopf point over Q(sqrt 2, i).

    At (9/256, 3/256) the equilibrium and Jacobian are rational and the
    frequency is 3*sqrt(2)/128, so the projections g_jk and the closed-form
    c1 and c2 stay in the quadratic field; Re(c1) vanishes identically and
    sign(Re c2) is certified without rounding."""
    pt = equilibria(GH_PARAMS).p_mp
    jac = jacobian(pt, GH_PARAMS)
    assert _GH_OMEGA * _GH_OMEGA == Sqrt2(trace_det(jac)[1], 0)
    lam = FieldComplex(0, _GH_OMEGA)
    return poincare_normal_form(_g_coeffs(FieldComplex, lam, jac, pt.u, pt.v), lam)


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

    Eliminates x from the polynomial pair: q2 is linear in x, so the
    resultant is Poisson's sum_i q1_i(y) (1 - y^2)^i 4^(8-i).  Checks it
    equals +/- 2 (y-1)^16 (2y-1) coefficient-exact, extracts the rational
    roots by synthetic division, rejects the degenerate boundary root
    y = 1 (k = 0) and maps y = 1/2 back through x = sqrt(k) to
    (9/256, 3/256) with equilibrium (1/4, 3/16).  Returns matches_expected,
    sign, roots [(root, multiplicity)] and gh ({k, F, point}, or None).
    """
    res = resultant(q1_poly(), q2_poly())
    exp = expected_resultant()
    sign = 1 if res == exp else -1 if res == -exp else 0
    roots = rational_roots_with_multiplicity(res)
    gh = None
    for r, _ in roots:
        if 0 < r < 1:
            x = (1 - r * r) / 4            # x = sqrt(k) from the relation
            k = x * x
            F = hopf_F(k)
            gh = {"k": k, "F": F, "point": equilibria(Params(k, F)).p_mp}
    return {"matches_expected": sign != 0, "sign": sign, "roots": roots,
            "gh": gh}


# ---------------------------------------------------------------------------
# Parameter-map transversality at GH
# ---------------------------------------------------------------------------

def param_map_transversality() -> Sqrt2:
    """Determinant 9*sqrt(2)/2 of (k, F) -> (mu, l1) at the generalized Hopf
    point, rows (mu, l1), columns (k, F), exactly.  mu vanishes on the Hopf
    curve, so it is -mu_F * dl1/dk there.  With the focus point's u as curve
    parameter (v = u (1 - u), k = v^2, F + k = u v), l1_clw's bracket S is an
    integer polynomial; deflating it by u - 1/4 gives S(1/4) = 0 and S'(1/4),
    so dl1_clw/du = b S' / (4 beta2) there, and l1 = l1_clw / omega.  mu_F is
    the implicit derivative of the focus point's half-trace."""
    u = IntPoly((0, 1), "u")
    v = u * (1 - u)
    d = u * v                                  # F + k; F = u d
    b, c, beta2 = -2 * d, v * v, (v * v - u * d) * d
    r = Fraction(1, 4)
    quot, rem = _deflate(list(clw_bracket(b, c, d, beta2, u, v).coeffs), r)
    assert rem == 0
    dl1_clw_dk = (b(r) * IntPoly(quot)(r) / (4 * beta2(r))
                  / (2 * v(r) * (1 - 2 * r)))
    # (u_F, v_F) = -J^-1 (f1_F, f2_F) with J the (u, v) Jacobian
    _, rows = extended_jacobian(r, v(r), GH_PARAMS.k, GH_PARAMS.F)
    (f1u, f1v, _, f1F), (f2u, f2v, _, f2F), (tu, tv, _, tF) = rows[:3]
    det = f1u * f2v - f1v * f2u
    mu_F = (tF + tu * (f1v * f2F - f2v * f1F) / det
            + tv * (f2u * f1F - f1u * f2F) / det) / 2
    return -mu_F * Sqrt2(dl1_clw_dk) / _GH_OMEGA
