"""Planar Poincare normal form near a focus: c1 and c2 in closed form.

At a Hopf point the field is the complex scalar equation
z' = i*omega*z + sum g_jk z^j zbar^k / (j! k!), 2 <= j + k <= 3.  Near-identity
substitutions without resonant terms remove every nonresonant term up to
order five (Kuznetsov, Elements of Applied Bifurcation Theory, section 8.3),
leaving z' = i*omega*z + c1 z|z|^2 + c2 z|z|^4 + O(|z|^6).  For a cubic field
c1 and c2 are fixed polynomials in the g_jk and their conjugates and in
1/(i*omega), with rational coefficients; they are written out below.  Where
Re c1 = 0, Re c2 does not depend on the choice of substitutions.
"""
from __future__ import annotations


def poincare_normal_form(g: dict, i_omega) -> tuple:
    """Resonant coefficients (c1, c2) of z' = i_omega z + sum g_jk z^j zbar^k / (j! k!).

    g maps (j, k), 2 <= j + k <= 3, to g_jk; i_omega is i*omega with omega
    real and nonzero.  Generic over the arithmetic: anything with + - * /
    and .conjugate(), such as complex, ratmath.FieldComplex or sympy
    expressions.  Each power of 1/i_omega has integer coefficients over one
    denominator, and c2 is summed in 1/i_omega by Horner's rule.
    """
    g20, g11, g02, g30, g21, g12, g03 = (
        g[m] for m in ((2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3)))
    h20, h11, h02, h30, h21, h12, h03 = (
        x.conjugate() for x in (g20, g11, g02, g30, g21, g12, g03))
    c1 = g21 / 2 + (g02 * h02 - 3 * g11 * g20 + 6 * g11 * h11) / (6 * i_omega)
    p1 = (g03 * h03 - 4 * g12 * g30 + 12 * g12 * h12) / 48
    p2 = (-31 * g02 * g11 * h03 + 4 * g02 * g20 * g30 - 12 * g02 * g20 * h12
          - 12 * g02 * g21 * h02 - 32 * g02 * g30 * h11 + 8 * g02 * h02 * h21
          - g02 * h03 * h20 + 72 * g02 * h11 * h12 - 3 * g03 * g20 * h02
          + 27 * g03 * h02 * h11 + 48 * g11 * g11 * g30 - 144 * g11 * g11 * h12
          - 108 * g11 * g12 * h02 + 36 * g11 * g20 * h21 - 144 * g11 * g21 * h11
          + 12 * g11 * g30 * h20 + 12 * g11 * h02 * h30 + 72 * g11 * h11 * h21
          - 36 * g12 * g20 * h11 + 144 * g12 * h11 * h11 - 72 * g21 * h11 * h20) / 144
    p3 = (-8 * g02 * g02 * h02 * h02 + 81 * g02 * g11 * g20 * h02
          - 525 * g02 * g11 * h02 * h11 + 36 * g02 * g20 * g20 * h11
          - 9 * g02 * g20 * h02 * h20 - 216 * g02 * g20 * h11 * h11
          - 3 * g02 * h02 * h11 * h20 + 288 * g02 * h11 * h11 * h11
          - 108 * g11 * g11 * h02 * h20 - 432 * g11 * g11 * h11 * h11
          + 432 * g11 * g11 * g11 * h02 + 216 * g11 * g20 * h11 * h20
          - 216 * g11 * h11 * h11 * h20) / 432
    c2 = ((p3 / i_omega + p2) / i_omega + p1) / i_omega
    return c1, c2
