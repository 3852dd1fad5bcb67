"""Reference implementations that the tests compare against, kept apart
from the test modules.  The file name does not match test_*.py, so pytest
imports it from the tests that use it and collects nothing here.

- BiPoly: exact polynomials in (x, y) on the Hopf curve in the coordinates
  x = sqrt(k), y = sqrt(1 - 4 sqrt(k)) (test_poly, test_bautin);
- bautin_polar_census: the cycle census of the truncated polar normal form
  at the generalized Hopf point (test_bautin, test_dynamics);
- the generic planar first-focal-value bracket in the field's 14 second
  and third partials (field_partials, clw_bracket_generic), which
  gskit.bautin.clw_bracket specializes to the Gray-Scott field
  (test_bautin, test_oracles);
- the central-difference Jacobian of the parameter map (k, F) -> (mu, l1)
  at the generalized Hopf point (param_map_jacobian), against which
  gskit.bautin's exact determinant is checked (test_bautin);
- the order-5 Poincare normal-form engine (Series, poincare_normal_form):
  the general series reduction that gskit.normalform's closed-form c1 and
  c2 are checked against (test_normalform);
- the general Sylvester resultant (sylvester_matrix, det_bareiss_ring,
  sylvester_resultant) over ints, Fractions or polynomial entries, with
  the exact polynomial long division it needs (divmod_exact), and rational
  roots found by that division (roots_by_division): what gskit.poly's
  linear-case resultant and synthetic division, and gskit.bt's
  determinant, are checked against (test_poly, test_bautin, test_bt);
- probe_frame_objects: gskit._pure._probe_frame and _escape_sum through
  the object route they replaced (equilibria, jacobian, trace_det and
  State), which the float cell must match bit for bit (test_dynamics);
- probe_region_route: the map cell's label through the Python route that
  gskit._pure.probe_cell and its C twin replaced (probe_frame_objects,
  kernels.ray_crossings probes, the decision tree), which both backends'
  probe_region must match (test_dynamics);
- section_frame_objects: gskit.dynamics.section_frame through the object
  route it replaced (equilibria, jacobian, numpy's eig, vector_field),
  which the shared frame routine must match bit for bit (test_dynamics);
- the double-zero oracles (A0, jordan_basis, bt_coefficients): the typed-in
  linearization at the point, the Jordan chains v0' = c v0,
  v1' = c v1 + shear v0 built from it, and the closed-form coefficient
  family in the parameter offsets, which gskit.bt's FRAME and its
  coefficients projected from the field are checked against (test_bt).
"""
import math
from fractions import Fraction

import numpy as np

from gskit import bautin, kernels
from gskit.bt import BTFrame
from gskit.core import Params, State, jacobian, trace_det, vector_field
from gskit.equilibria import equilibria
from gskit.errors import DomainError, ZeroPolynomial
from gskit.poly import IntPoly


class BiPoly:
    """Polynomial in (x, y) over Fractions, reduced modulo y^2 = 1 - 4x.

    Elements represent rational functions restricted to the curve
    y = sqrt(1 - 4x); after every product the y-degree is folded back below
    2, so an element is P0(x) + P1(x)*y with exact coefficients.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for (i, j), c in terms.items():
                c = Fraction(c)
                if c:
                    self.terms[(i, j)] = self.terms.get((i, j), Fraction(0)) + c
            self._reduce()

    @staticmethod
    def const(c):
        return BiPoly({(0, 0): Fraction(c)})

    @staticmethod
    def x():
        return BiPoly({(1, 0): Fraction(1)})

    @staticmethod
    def y():
        return BiPoly({(0, 1): Fraction(1)})

    def _reduce(self):
        # fold y^2 -> 1 - 4x until y-degree <= 1
        changed = True
        while changed:
            changed = False
            for (i, j), c in list(self.terms.items()):
                if j >= 2 and c:
                    del self.terms[(i, j)]
                    self._add_term(i, j - 2, c)
                    self._add_term(i + 1, j - 2, -4 * c)
                    changed = True
        self.terms = {m: c for m, c in self.terms.items() if c}

    def _add_term(self, i, j, c):
        self.terms[(i, j)] = self.terms.get((i, j), Fraction(0)) + c

    def __add__(self, other):
        other = BiPoly._coerce(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return BiPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return BiPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-BiPoly._coerce(other))

    def __rsub__(self, other):
        return BiPoly._coerce(other) + (-self)

    def __mul__(self, other):
        other = BiPoly._coerce(other)
        out = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                m = (i1 + i2, j1 + j2)
                out[m] = out.get(m, Fraction(0)) + c1 * c2
        return BiPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        out = BiPoly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    @staticmethod
    def _coerce(other):
        if isinstance(other, BiPoly):
            return other
        return BiPoly.const(other)

    def __eq__(self, other):
        return self.terms == BiPoly._coerce(other).terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    def evaluate(self, x, y):
        acc = Fraction(0) if isinstance(x, (int, Fraction)) else 0.0
        for (i, j), c in self.terms.items():
            acc = acc + c * x ** i * y ** j
        return acc

    def y_split(self) -> tuple:
        """Return (P0, P1) with self = P0(x) + P1(x)*y as IntPoly in x."""
        deg = max((i for (i, _j) in self.terms), default=0)
        p0 = [Fraction(0)] * (deg + 1)
        p1 = [Fraction(0)] * (deg + 1)
        for (i, j), c in self.terms.items():
            (p0 if j == 0 else p1)[i] = c
        return IntPoly(p0, "x"), IntPoly(p1, "x")

    def __repr__(self):
        if not self.terms:
            return "BiPoly(0)"
        bits = [f"({c})*x^{i}*y^{j}" for (i, j), c in sorted(self.terms.items())]
        return "BiPoly(" + " + ".join(bits) + ")"


def divmod_exact(p: IntPoly, d: IntPoly) -> tuple:
    """Long division p = quot * d + rem where every coefficient quotient
    must be exact (ints, Fractions, or IntPoly over an integral domain);
    raises ValueError on an inexact one."""
    if d.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p.coeffs)
    lead = d.coeffs[-1]
    quot = [0] * max(len(rem) - len(d.coeffs) + 1, 0)
    for i in range(len(quot) - 1, -1, -1):
        c = _exact_divide(rem[i + d.degree], lead)
        quot[i] = c
        for j, b in enumerate(d.coeffs):
            rem[i + j] = rem[i + j] - c * b
    return IntPoly(quot, p.var), IntPoly(rem, p.var)


def _exact_divide(a, b):
    if isinstance(a, IntPoly) or isinstance(b, IntPoly):
        ap = a if isinstance(a, IntPoly) else IntPoly((a,))
        bp = b if isinstance(b, IntPoly) else IntPoly((b,), ap.var)
        q, r = divmod_exact(ap, bp)
        if not r.is_zero():
            raise ValueError("inexact polynomial division")
        return q
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        if r:
            raise ValueError(f"inexact integer division {a}/{b}")
        return q
    return Fraction(a) / Fraction(b)


def _is_zero(x) -> bool:
    return x.is_zero() if isinstance(x, IntPoly) else x == 0


def sylvester_matrix(p: IntPoly, q: IntPoly) -> list:
    """Sylvester matrix with p's shifted coefficient rows first."""
    if p.is_zero() or q.is_zero():
        raise ZeroPolynomial("resultant of the zero polynomial")
    m, n = p.degree, q.degree
    size = m + n
    pc = list(reversed(p.coeffs))  # leading first
    qc = list(reversed(q.coeffs))
    return ([[0] * i + pc + [0] * (size - m - 1 - i) for i in range(n)]
            + [[0] * i + qc + [0] * (size - n - 1 - i) for i in range(m)])


def det_bareiss_ring(rows: list):
    """Fraction-free determinant over an integral domain: ints, Fractions
    or IntPoly entries."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if _is_zero(m[k][k]):
            for i in range(k + 1, n):
                if not _is_zero(m[i][k]):
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = _exact_divide(m[i][j] * m[k][k] - m[i][k] * m[k][j], prev)
        prev = m[k][k]
    out = m[n - 1][n - 1]
    return -out if sign < 0 else out


def sylvester_resultant(p: IntPoly, q: IntPoly):
    """Res(p, q) of any degrees as the Sylvester determinant, p's rows
    first, so Res(x - a, x - b) = a - b."""
    return det_bareiss_ring(sylvester_matrix(p, q))


def roots_by_division(p: IntPoly, candidates) -> dict:
    """{r: multiplicity} over the candidates r that are roots of p, each
    multiplicity counted by dividing by x - r until the remainder is
    nonzero."""
    out = {}
    for r in candidates:
        work, mult = IntPoly([Fraction(c) for c in p.coeffs], p.var), 0
        while work.degree >= 1:
            quot, rem = divmod_exact(work, IntPoly((-Fraction(r), Fraction(1)), p.var))
            if not rem.is_zero():
                break
            work, mult = quot, mult + 1
        if mult:
            out[Fraction(r)] = mult
    return out


def field_partials(u, v) -> dict:
    """The 14 second and third partials of the Gray-Scott field (f, g) at
    (u, v), keyed "fxy", "gxyy" and so on (x for u, y for v): the only
    nonzero ones are f_uv = -2v, f_vv = -2u and f_uvv = -2, and g = -f."""
    f = {"fxx": 0, "fxy": -2 * v, "fyy": -2 * u,
         "fxxx": 0, "fxxy": 0, "fxyy": -2, "fyyy": 0}
    return {**f, **{"g" + key[1:]: -val for key, val in f.items()}}


def clw_bracket_generic(b, c, d, beta2, p: dict):
    """The trace-free-linear-part first-focal-value bracket of a planar
    field with Jacobian ((-d, b), (c, d)), beta2 its determinant, in the
    field's partials p.  Generic over the arithmetic; l1 = b * bracket /
    (4 * beta2) equals Re(c1) of the complex reduction."""
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


def param_map_jacobian(h: float) -> tuple:
    """Central-difference Jacobian (mu_k, mu_F, l1_k, l1_F) of
    (k, F) -> (mu, l1) at the generalized Hopf point, with step h: mu is
    half the trace at the focus-type point and l1 the extended first
    Lyapunov coefficient there, from one equilibrium solve per point."""
    k0, F0 = float(bautin.GH_PARAMS.k), float(bautin.GH_PARAMS.F)

    def both(k, F):
        a = Params(k, F)
        pt = equilibria(a).p_mp
        return trace_det(jacobian(pt, a))[0] / 2.0, bautin._l1_extended(pt, a)

    mk1, lk1 = both(k0 + h, F0)
    mk0, lk0 = both(k0 - h, F0)
    mF1, lF1 = both(k0, F0 + h)
    mF0, lF0 = both(k0, F0 - h)
    return ((mk1 - mk0) / (2 * h), (mF1 - mF0) / (2 * h),
            (lk1 - lk0) / (2 * h), (lF1 - lF0) / (2 * h))


def probe_frame_objects(k: float, F: float) -> tuple:
    """(frame, S_ray) at (k, F) through the object route: frame is None
    where the equilibrium set is not a pair, else (unstable, cu, cv, d0,
    d1, orient, r_max) of the ray built from the equilibrium set and its
    Jacobian, with the closed-form eigenvector of gskit._pure._probe_frame,
    normalized by sqrt(w0^2 + w1^2) as there; S_ray = max(1, S(c), S(c +
    r_max d))."""
    a = Params(k, F)
    eq = equilibria(a)
    if eq.kind != "pair":
        return None, None
    jac = jacobian(eq.p_mp, a)
    unstable = trace_det(jac)[0] > 0
    c = State(float(eq.p_mp.u), float(eq.p_mp.v))
    (j11, j12), (j21, j22) = (map(float, row) for row in jac)
    disc = (j11 - j22) * (j11 - j22) + 4 * j12 * j21
    if disc >= 0:
        w0, w1 = j12, (j11 + j22 + math.sqrt(disc)) / 2 - j11
    else:
        re = (j22 - j11) / 2
        m2 = re * re - disc / 4
        w0, w1 = (j12, re) if j12 * j12 >= m2 else (j12 * re, m2)
    n = math.sqrt(w0 * w0 + w1 * w1)
    d0, d1 = -w1 / n, w0 / n
    if d0 * (c.u - float(eq.p_pm.u)) + d1 * (c.v - float(eq.p_pm.v)) < 0:
        d0, d1 = -d0, -d1
    f = vector_field((c.u + 1e-6 * d0, c.v + 1e-6 * d1), a)
    orient = 1 if (d0 * f[1] - d1 * f[0]) > 0 else -1
    r_cap = 2.5
    for comp, dcomp in ((c.u, d0), (c.v, d1)):
        if dcomp < 0:
            r_cap = min(r_cap, -comp / dcomp)
    s_ray = max(1.0, c.u + c.v, (c.u + r_cap * d0) + (c.v + r_cap * d1))
    return (unstable, c.u, c.v, d0, d1, orient, r_cap), s_ray


def _attractor_kind(radii, r_cap, settled):
    """Classify a radius sequence as the map cell's probes did in Python:
    ('cycle', r), ('focus', 0.0) or ('escape', r)."""
    if settled:
        r = radii[-1]
        return ("focus", 0.0) if r < kernels.SETTLE_TOL else ("cycle", r)
    if len(radii) < 3:
        return "escape", 0.0
    tail = radii[-1]
    if tail > 0.9 * r_cap:
        return "escape", tail
    if abs(radii[-1] - radii[-2]) < 1e-5 * max(1.0, radii[-1]):
        return "cycle", radii[-1]
    if radii[-1] < 1e-6:
        return "focus", 0.0
    return "escape", tail


def probe_region_route(k: float, F: float) -> str:
    """The map label at (k, F) from the Python cell route that
    gskit._pure.probe_cell and its C twin replaced: the frame of
    probe_frame_objects, one or two probes through kernels.ray_crossings on
    the active backend (400 crossings, 2e5 time units, rel/abs tolerances
    1e-8/1e-11, the escape sum on reversed probes), and the decision tree
    on their radii."""
    frame, s_ray = probe_frame_objects(k, F)
    if frame is None:
        return "outside"
    unstable, cu, cv, d0, d1, orient, r_max = frame

    def probe(r0, time_sign):
        status, hits = kernels.ray_crossings(
            cu + r0 * d0, cv + r0 * d1, k, F, cu, cv, d0, d1,
            orient if time_sign > 0 else -orient, 400, 2e5, 1e-8, 1e-11,
            1e-9, time_sign, s_ray if time_sign < 0 else 0.0)
        return _attractor_kind([h[1] for h in hits], r_max,
                               status == kernels.SETTLED)

    scale = max(1e-4, 0.02 * r_max)
    if unstable:
        kind, r_star = probe(scale, 1.0)
        if kind == "escape":
            return "1"
        if kind == "cycle":
            kind2, _ = probe(min(r_star * 1.25, r_max * 0.9), -1.0)
            return "3" if kind2 == "cycle" else "5"
        return "x"
    kind, _ = probe(scale, -1.0)
    return {"cycle": "2", "escape": "4"}.get(kind, "x")


def section_frame_objects(a: Params) -> tuple:
    """gskit.dynamics.section_frame's tuple (unstable, cu, cv, d0, d1,
    orient, r_max) at a through the object route: the float focus-type
    point of the equilibrium set, its Jacobian, numpy's eig and
    np.linalg.norm, and vector_field; unstable from trace_det.  Raises
    DomainError where there is no focus-type point."""
    eq = equilibria(a)
    if eq.p_mp is None:
        raise DomainError(f"no focus-type equilibrium at {a}")
    c = State(float(eq.p_mp.u), float(eq.p_mp.v))
    jac = jacobian(c, a)
    unstable = trace_det(jac)[0] > 0
    w, vecs = np.linalg.eig(np.array(jac, dtype=float))
    lead = int(np.argmax(w.real))
    wr = np.real(vecs[:, lead])
    d = np.array([-wr[1], wr[0]])
    n = np.linalg.norm(d)
    if n == 0:
        d = np.array([1.0, 0.0])
    else:
        d /= n
    d0, d1 = float(d[0]), float(d[1])
    # point away from the saddle
    if eq.kind == "pair":
        if d0 * (c.u - float(eq.p_pm.u)) + d1 * (c.v - float(eq.p_pm.v)) < 0:
            d0, d1 = -d0, -d1
    elif d0 < 0:
        d0, d1 = -d0, -d1
    # rotation direction of the flow just off the section
    f = vector_field((c.u + 1e-6 * d0, c.v + 1e-6 * d1), a)
    orient = 1 if (d0 * f[1] - d1 * f[0]) > 0 else -1
    # cap the ray at the quadrant boundary / sanity window
    r_cap = 2.5
    for comp, dcomp in ((c.u, d0), (c.v, d1)):
        if dcomp < 0:
            r_cap = min(r_cap, -comp / dcomp)
    return unstable, c.u, c.v, d0, d1, orient, r_cap


# The double-zero point's linearization at (1/2, 1/4), typed in: the matrix
# jordan_basis builds its chains for, and test_bt checks it against the field
A0 = ((Fraction(-1, 8), Fraction(-1, 4)),
      (Fraction(1, 16), Fraction(1, 8)))


def jordan_basis(c=Fraction(1), shear=Fraction(0)) -> BTFrame:
    """Jordan chain for A0; c=1, shear=0 gives the reference chain
    v0=(-2,1), v1=(0,8), w0=(-1/2,0), w1=(1/16,1/8).

    Any admissible chain is v0' = c v0, v1' = c v1 + shear v0 with the dual
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
    s1 = v1[0] * w1_dir[0] + v1[1] * w1_dir[1]
    w1 = (w1_dir[0] / s1, w1_dir[1] / s1)
    # A0^T w0 = w1: A0^T is singular with row 2 = 2 row 1, so solve row 1
    # with second component 0, then shift along w1 for <v1, w0> = 0
    assert w1[1] == 2 * w1[0]
    w0p = (w1[0] / A0[0][0], Fraction(0))
    t = -(v1[0] * w0p[0] + v1[1] * w0p[1])
    w0 = (w0p[0] + t * w1[0], w0p[1] + t * w1[1])
    frame = BTFrame(v0=v0, v1=v1, w0=w0, w1=w1)
    residuals = frame.check()
    assert all(r in (0, (0, 0)) for r in residuals.values()), residuals
    return frame


def bt_coefficients(alpha):
    """Quadratic coefficients (a20, b20, b11) of the field expanded around
    the moving base point (1/2, k/(2(F+k))) and projected onto the reference
    chain, as closed forms in the parameter offsets alpha = (F - 1/16,
    k - 1/16); b20 = a20 / 8 (the projected second components are
    proportional).  At alpha = 0 they are gskit.bt's coefficients."""
    a1, a2 = alpha
    den = 8 * a2 + 8 * a1 + 1
    a20 = -(24 * a2 - 8 * a1 + 1) / (2 * den)
    b20 = -(24 * a2 - 8 * a1 + 1) / (16 * den)
    b11 = 4 * (a1 - a2) / den
    return a20, b20, b11


def bautin_polar_census(beta1: float, beta2: float) -> list:
    """Positive cycle radii of rho' = rho (beta1 + beta2 rho^2 + rho^4) with
    stability from the sign of the radial derivative at the root."""
    disc = beta2 * beta2 - 4 * beta1
    out = []
    if disc < 0:
        return out
    sq = math.sqrt(disc)
    for s in ((-beta2 - sq) / 2, (-beta2 + sq) / 2):
        if s > 0:
            rho = math.sqrt(s)
            deriv = beta1 + 3 * beta2 * s + 5 * s * s
            stability = "stable" if deriv < 0 else ("unstable" if deriv > 0 else "fold")
            out.append((rho, stability))
        elif s == 0:
            out.append((0.0, "fold"))
    seen = []
    for rho, st in sorted(out):
        if not seen or abs(rho - seen[-1][0]) > 0:
            seen.append((rho, st))
        else:
            seen[-1] = (rho, "fold")
    return seen


# Planar Poincare normal form near a focus, to fifth order.
#
# The field at a Hopf point is rewritten as a complex scalar equation
# z' = i*omega*z + sum a_jk z^j zbar^k and reduced order by order with
# near-identity substitutions, leaving only the resonant terms c1 z|z|^2 and
# c2 z|z|^4.  The engine is generic over the coefficient arithmetic: Python
# complex numbers for floating work, or FieldComplex for exact work over
# Q(sqrt 2, i).  gskit.normalform gives its c1 and c2 in closed form.

ORDER = 5


def _conj(x):
    return x.conjugate()


class Series:
    """Truncated polynomial in (z, zbar): dict[(j, k)] -> coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = dict(terms) if terms else {}

    def add(self, other) -> "Series":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out[m] + c if m in out else c
        return Series(out)

    def scale(self, s) -> "Series":
        return Series({m: c * s for m, c in self.terms.items()})

    def mul(self, other) -> "Series":
        out = {}
        for (j1, k1), c1 in self.terms.items():
            for (j2, k2), c2 in other.terms.items():
                j, k = j1 + j2, k1 + k2
                if j + k <= ORDER:
                    m = (j, k)
                    p = c1 * c2
                    out[m] = out[m] + p if m in out else p
        return Series(out)

    def conj(self) -> "Series":
        return Series({(k, j): _conj(c) for (j, k), c in self.terms.items()})

    def get(self, j, k, zero):
        return self.terms.get((j, k), zero)

    def drop(self, j, k) -> "Series":
        out = dict(self.terms)
        out.pop((j, k), None)
        return Series(out)

    def prune(self, is_negligible) -> "Series":
        return Series({m: c for m, c in self.terms.items() if not is_negligible(c)})


def _compose(rhs: Series, transform: Series, one) -> Series:
    """rhs(T(xi), conj(T)(xi)) truncated at ORDER."""
    tb = transform.conj()
    pow_t = [Series({(0, 0): one})]
    pow_tb = [Series({(0, 0): one})]
    for _ in range(ORDER):
        pow_t.append(pow_t[-1].mul(transform))
        pow_tb.append(pow_tb[-1].mul(tb))
    out = Series()
    for (j, k), c in rhs.terms.items():
        out = out.add(pow_t[j].mul(pow_tb[k]).scale(c))
    return out


def _geometric_inverse(den: Series, one) -> Series:
    """(1 + N)^-1 as a truncated geometric series."""
    n_terms = {m: c for m, c in den.terms.items() if m != (0, 0)}
    n = Series(n_terms)
    out = Series({(0, 0): one})
    term = Series({(0, 0): one})
    for _ in range(ORDER):
        term = term.mul(n).scale(-one)
        out = out.add(term)
    return out


def poincare_normal_form(quad_cubic: dict, i_omega, one, is_negligible):
    """Reduce z' = i*omega*z + nonlinear terms to resonant form.

    quad_cubic maps (j, k) -> coefficient of z^j zbar^k (monomial
    coefficients, not factorial-scaled).  i_omega is the linear coefficient
    in the working arithmetic; `one` its multiplicative unit;
    is_negligible(c) decides when a removed coefficient is numerically zero.
    Returns (c1, c2, residual_series): the z|z|^2 and z|z|^4 coefficients.
    """
    rhs = Series({(1, 0): i_omega})
    rhs = rhs.add(Series(dict(quad_cubic)))
    zero = i_omega - i_omega
    for m in range(2, ORDER + 1):
        for j in range(m, -1, -1):
            k = m - j
            if j - k == 1:
                continue
            coeff = rhs.get(j, k, zero)
            if is_negligible(coeff):
                continue
            h = coeff / (i_omega * (j - k - 1))
            transform = Series({(1, 0): one, (j, k): h})
            target = _compose(rhs, transform, one)
            den = Series({(0, 0): one})
            if j >= 1:
                den = den.add(Series({(j - 1, k): h * j}))
            den_inv = _geometric_inverse(den, one)
            correction = Series({(j, k - 1): h * k}) if k >= 1 else Series()
            new = target.mul(den_inv)
            for _ in range(ORDER + 2):
                prev = new
                new = target.add(correction.mul(new.conj()).scale(-one)).mul(den_inv)
                # each iterate is a function of the previous one alone, so a
                # repeat is the value every later pass would return as well
                if new.terms == prev.terms:
                    break
            rhs = new.drop(j, k).prune(is_negligible)
    c1 = rhs.get(2, 1, zero)
    c2 = rhs.get(3, 2, zero)
    return c1, c2, rhs
