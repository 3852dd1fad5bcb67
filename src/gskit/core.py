"""Gray-Scott kinetic vector field and its exact derivatives.

The field is a fixed cubic polynomial in the concentrations, so its
derivatives are written out analytically: the Jacobian in the state, the
Jacobian of (f, trace, det) in state and parameters that continuation and
the double-zero checkpoint share, and the second-derivative form that the
double-zero and Hopf normal forms project.  All routines accept floats or
Fractions and preserve exactness.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError

Number = float | Fraction | int


@dataclass(frozen=True)
class Params:
    """Kinetic parameters: removal rate k and feed rate F, both positive."""

    k: Number
    F: Number

    def __post_init__(self):
        if not (self.k > 0 and self.F > 0):
            raise DomainError(f"parameters must be positive, got k={self.k}, F={self.F}")

    @property
    def gamma(self) -> Number:
        return (self.F + self.k) / self.F

    def is_exact(self) -> bool:
        return isinstance(self.k, (Fraction, int)) and isinstance(self.F, (Fraction, int))


@dataclass(frozen=True)
class State:
    """Phase point (u, v).  The closed first quadrant is flow-invariant."""

    u: Number
    v: Number

    def in_first_quadrant(self, tol: float = 0.0) -> bool:
        return self.u >= -tol and self.v >= -tol


def _unpack(p) -> tuple:
    if isinstance(p, State):
        return p.u, p.v
    u, v = p
    return u, v


def vector_field(p, a: Params):
    """Right-hand side (u', v') of the kinetics at p.

    Points outside the first quadrant are accepted (compactified charts need
    them); use State.in_first_quadrant to flag them.
    """
    u, v = _unpack(p)
    return _field(u, v, a.k, a.F)


def jacobian(p, a: Params):
    u, v = _unpack(p)
    return uv_jacobian(u, v, a.k, a.F)


# The field and its (u, v) Jacobian at plain coordinates: continuation probes
# k, F <= 0, where no Params exists.  Int literals keep Fraction inputs exact.

def _field(u, v, k, F):
    uvv = u * v * v
    return -uvv + F * (1 - u), uvv - (F + k) * v


def uv_jacobian(u, v, k, F):
    return ((-(F + v * v), -2 * u * v),
            (v * v, -(F + k) + 2 * u * v))


def extended_jacobian(u, v, k, F):
    """Values and Jacobian of (f1, f2, trace, det) in (u, v, k, F).

    Returns ((f1, f2, tr, det), rows), rows[i][j] the partial of component i
    in coordinate j.  The fold curve is {f = 0, det = 0} (rows 0, 1, 3), the
    Hopf curve {f = 0, tr = 0} (rows 0, 1, 2), and the determinant of all
    four rows is the transversality determinant of the double-zero point.
    """
    jac = uv_jacobian(u, v, k, F)
    (a11, a12), (a21, a22) = jac
    return ((*_field(u, v, k, F), *trace_det(jac)),
            ((a11, a12, 0, 1 - u),
             (a21, a22, -v, -v),
             (2 * v, 2 * u - 2 * v, -1, -2),
             (-2 * v * F, 2 * v * (F + k) - 2 * u * F, F + v * v,
              2 * F + k + v * v - 2 * u * v)))


def second_form(u, v, x, y):
    """f1's component of the field's second-derivative form B(x, y) at
    (u, v), summed term by term in tensor index order; f2's component is its
    negative, since u v^2 is the only nonlinear term (f_uv = -2v,
    f_vv = -2u)."""
    return -2 * v * x[0] * y[1] + -2 * v * x[1] * y[0] + -2 * u * x[1] * y[1]


def trace_det(jac) -> tuple:
    (a11, a12), (a21, a22) = jac
    return a11 + a22, a11 * a22 - a12 * a21
