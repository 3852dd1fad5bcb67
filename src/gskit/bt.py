"""Double-zero (Takens-Bogdanov) point verification in exact arithmetic.

The organizing point sits at (k, F) = (1/16, 1/16) with equilibrium
(1/2, 1/4), where the linearization is nilpotent.  This module projects the
field's second-derivative form onto a fixed Jordan chain of that
linearization for the quadratic normal-form coefficients (Kuznetsov,
Elements of Applied Bifurcation Theory, section 8.4), and computes the sign
s deciding the local portrait and the 4x4 transversality determinant, all
over Fractions so the checkpoint values carry zero rounding error.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import Params, State, extended_jacobian, jacobian, second_form
from .errors import GSKitError

BT_PARAMS = Params(Fraction(1, 16), Fraction(1, 16))
BT_POINT = State(Fraction(1, 2), Fraction(1, 4))


def _dot(x, y):
    return x[0] * y[0] + x[1] * y[1]


@dataclass(frozen=True)
class BTFrame:
    """Jordan chain of the nilpotent Jacobian A0 at the point: A0 v0 = 0,
    A0 v1 = v0, A0^T w1 = 0, A0^T w0 = w1, with <v0,w0> = <v1,w1> = 1 and
    <v1,w0> = <v0,w1> = 0."""

    v0: tuple
    v1: tuple
    w0: tuple
    w1: tuple

    def check(self) -> dict:
        """Exact residuals of the eight chain equations, A0 being
        core.jacobian at the point (all must be zero)."""
        (a11, a12), (a21, a22) = jacobian(BT_POINT, BT_PARAMS)

        def a0(x):
            return (a11 * x[0] + a12 * x[1], a21 * x[0] + a22 * x[1])

        def a0t(x):
            return (a11 * x[0] + a21 * x[1], a12 * x[0] + a22 * x[1])

        def sub(x, y):
            return (x[0] - y[0], x[1] - y[1])

        return {
            "A0 v0": a0(self.v0),
            "A0 v1 - v0": sub(a0(self.v1), self.v0),
            "A0^T w1": a0t(self.w1),
            "A0^T w0 - w1": sub(a0t(self.w0), self.w1),
            "<v0,w0> - 1": _dot(self.v0, self.w0) - 1,
            "<v1,w1> - 1": _dot(self.v1, self.w1) - 1,
            "<v1,w0>": _dot(self.v1, self.w0),
            "<v0,w1>": _dot(self.v0, self.w1),
        }


# the reference chain: v0 spans ker A0, w1 spans ker A0^T
FRAME = BTFrame(v0=(Fraction(-2), Fraction(1)), v1=(Fraction(0), Fraction(8)),
                w0=(Fraction(-1, 2), Fraction(0)),
                w1=(Fraction(1, 16), Fraction(1, 8)))


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


def _project(w, x, y):
    """<w, B(x, y)>, B the field's second-derivative form at the point."""
    b = second_form(BT_POINT.u, BT_POINT.v, x, y)
    return w[0] * b + w[1] * -b


def _det(rows) -> Fraction:
    """Determinant of a square matrix of ints or Fractions by Gaussian
    elimination over the Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for i in range(len(m)):
        p = next((j for j in range(i, len(m)) if m[j][i]), None)
        if p is None:
            return Fraction(0)
        if p != i:
            m[i], m[p] = m[p], m[i]
            det = -det
        det *= m[i][i]
        for row in m[i + 1:]:
            factor = row[i] / m[i][i]
            row[i:] = [x - factor * y for x, y in zip(row[i:], m[i][i:])]
    return det


def bt_nondegeneracy() -> BTReport:
    """Checkpoint report at the double-zero point, fully exact.

    On FRAME, a20 = <w0, B(v0, v0)> = -1/2, b20 = <w1, B(v0, v0)> = -1/16
    and b11 = <w1, B(v0, v1)> = 0, so s = sign(b20 (a20 + b11)) = +1 and the
    Hopf branch emanating from the point sheds repelling cycles; the
    transversality determinant, of the Jacobian of (f1, f2, trace, det) in
    (u, v, k, F), is -1/512.  Raises GSKitError, naming the nonzero
    residuals, when FRAME is not a Jordan chain at the point.
    """
    bad = {name: r for name, r in FRAME.check().items() if r not in (0, (0, 0))}
    if bad:
        raise GSKitError(f"FRAME is not a Jordan chain at the point: {bad}")
    v0, v1, w0, w1 = FRAME.v0, FRAME.v1, FRAME.w0, FRAME.w1
    a20 = _project(w0, v0, v0)
    b20 = _project(w1, v0, v0)
    b11 = _project(w1, v0, v1)
    quantity = b20 * (a20 + b11)
    s = 1 if quantity > 0 else (-1 if quantity < 0 else 0)
    det = _det(extended_jacobian(
        BT_POINT.u, BT_POINT.v, BT_PARAMS.k, BT_PARAMS.F)[1])
    return BTReport(a20=a20, b20=b20, b11=b11, s=s, transversality_det=det)
