"""Closed-form equilibria, stability classification and bifurcation curves.

Everything here is algebra on the kinetics: the discriminant that counts
nontrivial equilibria, their coordinates, the saddle-node / Hopf / neutral
saddle curve parameterizations, and the Jacobian discriminant curve.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import Number, Params, State, jacobian, trace_det, vector_field
from .errors import DomainError, NotAnEquilibrium
from .ratmath import is_exact, sqrt_exact


@dataclass(frozen=True)
class Discriminants:
    """gamma = (F+k)/F and Delta = 1 - 4*F*gamma^2.

    sign(Delta) counts nontrivial equilibria: two for Delta > 0, one
    (degenerate) on Delta = 0, none for Delta < 0.
    """

    gamma: Number
    delta: Number


@dataclass(frozen=True)
class EquilibriumSet:
    """All equilibria at one parameter point.

    kind is 'pair', 'degenerate' or 'none'; p_mp is the focus-type point
    (u-, v+), p_pm the saddle-type point (u+, v-).  For the degenerate case
    both collapse onto (1/2, 1/(2*gamma)).
    """

    p0: State
    kind: str
    p_mp: State | None
    p_pm: State | None

    def nontrivial(self) -> tuple:
        if self.kind == "pair":
            return (self.p_mp, self.p_pm)
        if self.kind == "degenerate":
            return (self.p_mp,)
        return ()

    def all_points(self) -> tuple:
        return (self.p0,) + self.nontrivial()


@dataclass(frozen=True)
class StabilityReport:
    trace: Number
    det: Number
    disc: Number
    eigenvalues: tuple
    label: str


def discriminants(a: Params) -> Discriminants:
    g = a.gamma
    return Discriminants(gamma=g, delta=1 - 4 * a.F * g * g)


def equilibria(a: Params) -> EquilibriumSet:
    """Equilibrium set; exact Fractions whenever Delta is a rational square."""
    d = discriminants(a)
    p0 = State(_one_like(a), _zero_like(a))
    if d.delta < 0:
        return EquilibriumSet(p0=p0, kind="none", p_mp=None, p_pm=None)
    g = d.gamma
    if d.delta == 0:
        half = Fraction(1, 2) if is_exact(g) else 0.5
        pt = State(half, 1 / (2 * g))
        return EquilibriumSet(p0=p0, kind="degenerate", p_mp=pt, p_pm=pt)
    s = sqrt_exact(d.delta)
    if isinstance(s, float) and is_exact(g):
        g = float(g)
    p_mp = State((1 - s) / 2, (1 + s) / (2 * g))
    p_pm = State((1 + s) / 2, (1 - s) / (2 * g))
    return EquilibriumSet(p0=p0, kind="pair", p_mp=p_mp, p_pm=p_pm)


def _one_like(a: Params):
    return Fraction(1) if a.is_exact() else 1.0


def _zero_like(a: Params):
    return Fraction(0) if a.is_exact() else 0.0


def classify(p: State, a: Params) -> StabilityReport:
    """Stability report for an equilibrium p of the kinetics at a.

    Raises NotAnEquilibrium when the field residual at p exceeds 1e-10.
    A determinant, then a trace, within 1e-11 of zero tags the point
    nonhyperbolic; exact zeros tag regardless of tolerance.
    """
    f = vector_field(p, a)
    if max(abs(float(f[0])), abs(float(f[1]))) > 1e-10:
        raise NotAnEquilibrium(f"residual {f} at {p} exceeds 1e-10")
    tr, det = trace_det(jacobian(p, a))
    disc = tr * tr - 4 * det
    trf, detf, discf = float(tr), float(det), float(disc)
    if discf >= 0:
        r = math.sqrt(discf)
        eigs = ((trf - r) / 2, (trf + r) / 2)
    else:
        r = math.sqrt(-discf)
        eigs = (complex(trf / 2, -r / 2), complex(trf / 2, r / 2))
    if abs(detf) <= 1e-11:
        label = "nonhyperbolic(fold)"
    elif detf < 0:
        label = "saddle"
    elif abs(trf) <= 1e-11:
        label = "nonhyperbolic(hopf)"
    elif discf < 0:
        label = "stable-spiral" if trf < 0 else "unstable-spiral"
    else:
        label = "stable-node" if trf < 0 else "unstable-node"
    return StabilityReport(trace=tr, det=det, disc=disc, eigenvalues=eigs, label=label)


def saddle_node_F(k: Number) -> tuple:
    """Both F branches of the fold curve 4(F+k)^2 = F, for 0 < k <= 1/16.

    Returns (upper, lower); the branches meet at k = 1/16 where F = 1/16.
    """
    _require_curve_domain(k, strict_upper=False)
    r = sqrt_exact(1 - 16 * k)
    kk = _match(k, r)
    return ((1 - 8 * kk) + r) / 8, ((1 - 8 * kk) - r) / 8


def hopf_F(k: Number) -> Number:
    """F on the Hopf curve (trace of the focus-type point vanishes)."""
    _require_curve_domain(k, strict_upper=False)
    sk = sqrt_exact(k)
    inner = sqrt_exact(k - 4 * k * sk)
    kk = _match(k, sk if isinstance(sk, float) else inner)
    sk = _match(sk, inner)
    return (sk - 2 * kk - inner) / 2


def neutral_saddle_F(k: Number) -> Number:
    """F on the neutral-saddle curve (trace at the saddle vanishes)."""
    _require_curve_domain(k, strict_upper=False)
    sk = sqrt_exact(k)
    inner = sqrt_exact(k - 4 * k * sk)
    kk = _match(k, sk if isinstance(sk, float) else inner)
    sk = _match(sk, inner)
    return (sk - 2 * kk + inner) / 2


def _require_curve_domain(k, *, strict_upper: bool):
    hi = Fraction(1, 16)
    if not (0 < k and (k < hi if strict_upper else k <= hi)):
        raise DomainError(f"k={k} outside (0, 1/16{')' if strict_upper else ']'}")


def _match(x, other):
    """Demote exact x to float when a companion quantity went inexact."""
    if isinstance(other, float) and not isinstance(x, float):
        return float(x)
    return x


def p_mp_trace_det_disc(k: float, F: float) -> tuple:
    """(trace, det, disc) of the Jacobian at the focus-type point."""
    a = Params(k, F)
    eq = equilibria(a)
    if eq.p_mp is None:
        raise DomainError(f"no nontrivial equilibria at k={k}, F={F}")
    v = eq.p_mp.v
    tr = k - v * v
    det = (v * v - F) * (F + k)
    return tr, det, tr * tr - 4 * det


def disc_curve_F(k: float) -> list:
    """Roots in F of disc(Df(p_mp)) = 0 between the lower fold branch and
    the Hopf curve, by a 512-cell scan and bisection to 1e-11.  Empty list
    when no sign change."""
    _require_curve_domain(k, strict_upper=True)
    k = float(k)
    lo = float(saddle_node_F(k)[1])
    hi = float(hopf_F(k))
    if hi <= lo:
        return []
    def disc(F):
        return p_mp_trace_det_disc(k, F)[2]
    roots = []
    span = hi - lo
    prev_F = lo + span * 1e-9
    prev = disc(prev_F)
    for i in range(1, 513):
        cur_F = lo + span * (i / 512) if i < 512 else hi - span * 1e-9
        cur = disc(cur_F)
        if prev == 0.0:
            roots.append(prev_F)
        elif prev * cur < 0:
            a_, b_ = prev_F, cur_F
            fa = prev
            while b_ - a_ > 1e-11:
                m = 0.5 * (a_ + b_)
                fm = disc(m)
                if fm == 0.0:
                    a_ = b_ = m
                    break
                if fa * fm < 0:
                    b_ = m
                else:
                    a_, fa = m, fm
            roots.append(0.5 * (a_ + b_))
        prev_F, prev = cur_F, cur
    return roots
