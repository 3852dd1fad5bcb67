"""Double-zero (Takens-Bogdanov) point verification in exact arithmetic.

The organizing point sits at (k, F) = (1/16, 1/16) with equilibrium
(1/2, 1/4).  This module builds the Jordan frame of the nilpotent
linearization, the quadratic normal-form coefficient family, the sign s
deciding the local portrait, and the 4x4 transversality determinant, all
over Fractions so the checkpoint values carry zero rounding error.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import Params, State, extended_jacobian
from .errors import SingularParameter
from .poly import det_bareiss

BT_PARAMS = Params(Fraction(1, 16), Fraction(1, 16))
BT_POINT = State(Fraction(1, 2), Fraction(1, 4))

A0 = ((Fraction(-1, 8), Fraction(-1, 4)),
      (Fraction(1, 16), Fraction(1, 8)))


@dataclass(frozen=True)
class BTFrame:
    """Jordan basis of the nilpotent part: A0 v0 = 0, A0 v1 = v0,
    A0^T w1 = 0, A0^T w0 = w1, with <v0,w0> = <v1,w1> = 1 and
    <v1,w0> = <v0,w1> = 0."""

    v0: tuple
    v1: tuple
    w0: tuple
    w1: tuple

    def check(self) -> dict:
        """Exact residuals of the six frame equations (all must be zero)."""
        mv = _matvec
        dot = _dot
        a0t = _transpose(A0)
        return {
            "A0 v0": mv(A0, self.v0),
            "A0 v1 - v0": _sub(mv(A0, self.v1), self.v0),
            "A0^T w1": mv(a0t, self.w1),
            "A0^T w0 - w1": _sub(mv(a0t, self.w0), self.w1),
            "<v0,w0> - 1": dot(self.v0, self.w0) - 1,
            "<v1,w1> - 1": dot(self.v1, self.w1) - 1,
            "<v1,w0>": dot(self.v1, self.w0),
            "<v0,w1>": dot(self.v0, self.w1),
        }


@dataclass(frozen=True)
class BTReport:
    """Checkpoint data; s = sign(b20 (a20 + b11)), the reduction invariant
    (frame-independent; with b11 = 0 in the reference frame it coincides
    with sign(b20 a20 + b11))."""

    a20: Fraction
    b20: Fraction
    b11: Fraction
    s: int
    transversality_det: Fraction
    frame: BTFrame
    params: Params = BT_PARAMS
    point: State = BT_POINT


def _matvec(m, x):
    return (m[0][0] * x[0] + m[0][1] * x[1], m[1][0] * x[0] + m[1][1] * x[1])


def _dot(x, y):
    return x[0] * y[0] + x[1] * y[1]


def _sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def _transpose(m):
    return ((m[0][0], m[1][0]), (m[0][1], m[1][1]))


def jordan_basis(c=Fraction(1), shear=Fraction(0)) -> BTFrame:
    """Jordan frame for A0; c=1, shear=0 gives the reference basis
    v0=(-2,1), v1=(0,8), w0=(-1/2,0), w1=(1/16,1/8).

    Any admissible frame is v0' = c v0, v1' = c v1 + shear v0 with the dual
    vectors recomputed from the defining equations; used to test that the
    sign s is frame-independent.
    """
    if c == 0:
        raise ValueError("basis scale must be nonzero")
    c = Fraction(c)
    shear = Fraction(shear)
    v0 = (-2 * c, c)
    v1 = (-2 * shear, 8 * c + shear)
    # w1 spans ker(A0^T) = span (1/16, 1/8); scale for <v1, w1> = 1
    w1_dir = (Fraction(1, 16), Fraction(1, 8))
    s1 = _dot(v1, w1_dir)
    w1 = (w1_dir[0] / s1, w1_dir[1] / s1)
    # particular solution of A0^T w0 = w1, then shift along w1 for <v1,w0>=0
    w0p = _solve_particular_adjoint(w1)
    t = -_dot(v1, w0p)
    w0 = (w0p[0] + t * w1[0], w0p[1] + t * w1[1])
    frame = BTFrame(v0=v0, v1=v1, w0=w0, w1=w1)
    residuals = frame.check()
    assert all(_all_zero(r) for r in residuals.values()), residuals
    return frame


def _solve_particular_adjoint(rhs):
    # A0^T w = rhs with A0^T = ((-1/8, 1/16), (-1/4, 1/8)); singular, rank 1.
    # Rows are proportional (row2 = 2*row1); solve row1 with w2 = 0.
    a11 = Fraction(-1, 8)
    if rhs[1] != 2 * rhs[0]:
        raise ValueError("rhs not in the range of A0^T")
    return (rhs[0] / a11, Fraction(0))


def _all_zero(r):
    if isinstance(r, tuple):
        return all(x == 0 for x in r)
    return r == 0


def _guard(a1, a2):
    if 8 * a2 + 8 * a1 + 1 == 0:
        raise SingularParameter("parameter offsets hit 8*a2 + 8*a1 + 1 = 0")


def bt_coefficients(alpha):
    """Quadratic coefficients (a20, b20, b11) of the projected expansion.

    a20 and b11 follow the closed forms of the moving-point expansion;
    b20 = a20 / 8 (the projected second components are proportional).  Each
    equals the second partial at y = 0 of <f(base + y1 v0 + y2 v1), w>.
    """
    a1, a2 = alpha
    _guard(a1, a2)
    den = 8 * a2 + 8 * a1 + 1
    a20 = -(24 * a2 - 8 * a1 + 1) / (2 * den)
    b20 = -(24 * a2 - 8 * a1 + 1) / (16 * den)
    b11 = 4 * (a1 - a2) / den
    return a20, b20, b11


def bt_nondegeneracy() -> BTReport:
    """Checkpoint report at the double-zero point, fully exact.

    The quadratic coefficients evaluate to a20 = -1/2, b20 = -1/16, b11 = 0,
    so s = sign(b20 (a20 + b11)) = +1 and the Hopf branch emanating from the
    point sheds repelling cycles; the transversality determinant, of the
    Jacobian of (f1, f2, trace, det) in (u, v, k, F), is -1/512.  The report
    carries the reference Jordan frame.
    """
    zero = (Fraction(0), Fraction(0))
    a20, b20, b11 = bt_coefficients(zero)
    quantity = b20 * (a20 + b11)
    s = 1 if quantity > 0 else (-1 if quantity < 0 else 0)
    det = det_bareiss(extended_jacobian(
        BT_POINT.u, BT_POINT.v, BT_PARAMS.k, BT_PARAMS.F)[1])
    return BTReport(a20=a20, b20=b20, b11=b11, s=s,
                    transversality_det=det, frame=jordan_basis())
