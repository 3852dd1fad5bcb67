"""Gray-Scott kinetic vector field and its exact derivative tensors.

The field is a fixed cubic polynomial in the concentrations, so every jet is
written out analytically: the Jacobian, the symmetric bilinear form of second
derivatives and the (state-independent) trilinear form of third derivatives.
All routines accept floats or Fractions and preserve exactness.
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
    uvv = u * v * v
    return (-uvv + a.F * (1 - u), uvv - (a.F + a.k) * v)


def jacobian(p, a: Params):
    u, v = _unpack(p)
    return ((-(a.F + v * v), -2 * u * v),
            (v * v, -(a.F + a.k) + 2 * u * v))


@dataclass(frozen=True)
class Jet:
    """Value, Jacobian and multilinear derivative forms at a point.

    b_tensor[i][j][l] is the second partial of component i with respect to
    coordinates j, l; c_tensor adds one more index.  The field is cubic, so
    c_tensor is the same at every point.
    """

    value: tuple
    jacobian: tuple
    b_tensor: tuple
    c_tensor: tuple

    def B(self, x, y):
        """Bilinear form: vector with components sum_jl b[i][j][l] x_j y_l."""
        x0, x1 = x
        y0, y1 = y
        out = []
        for bi in self.b_tensor:
            out.append(bi[0][0] * x0 * y0 + bi[0][1] * x0 * y1
                       + bi[1][0] * x1 * y0 + bi[1][1] * x1 * y1)
        return tuple(out)

    def C(self, x, y, z):
        """Trilinear form of third derivatives applied to x, y, z."""
        out = []
        for ci in self.c_tensor:
            acc = 0
            for j in range(2):
                for l in range(2):
                    for m in range(2):
                        coef = ci[j][l][m]
                        if coef:
                            acc += coef * x[j] * y[l] * z[m]
            out.append(acc)
        return tuple(out)


def jet(p, a: Params) -> Jet:
    """Full third-order jet of the field at p (exact for exact inputs)."""
    u, v = _unpack(p)
    # second partials: f1_uv = -2v, f1_vv = -2u; f2 negates f1 throughout
    b1 = ((0, -2 * v), (-2 * v, -2 * u))
    b2 = ((0, 2 * v), (2 * v, 2 * u))
    # third partials: only f_uvv (and permutations) survive, f1_uvv = -2
    c1 = (((0, 0), (0, -2)), ((0, -2), (-2, 0)))
    c2 = (((0, 0), (0, 2)), ((0, 2), (2, 0)))
    return Jet(value=vector_field(p, a),
               jacobian=jacobian(p, a),
               b_tensor=(b1, b2),
               c_tensor=(c1, c2))


def trace_det(jac) -> tuple:
    (a11, a12), (a21, a22) = jac
    return a11 + a22, a11 * a22 - a12 * a21
