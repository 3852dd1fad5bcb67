"""Trajectories, Poincare return maps, limit-cycle census, parameter-region
classification, the manifold from infinity and phase portraits.

The Poincare section used throughout is section_frame's ray, anchored at
the focus-type equilibrium, directed away from the saddle and perpendicular
to the real part of the leading eigenvector; every closed orbit around the
focus meets it transversally.  The census, the fold of cycles and the
homoclinic curve's separatrix splitting all measure their radii on it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .core import Params, State, _field, jacobian, trace_det, uv_jacobian
from .equilibria import classify, discriminants, equilibria
from .errors import DomainError, NoReturn, StepUnderflow

TRIVIAL_POINT = State(1.0, 0.0)


@dataclass(frozen=True)
class IntegratorSettings:
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise DomainError("tolerances must be positive")


DEFAULT_SETTINGS = IntegratorSettings()
# render_portrait's trajectories and census, at the tolerances of the map
# probes (gskit._pure._section_radii)
_PROBE_SETTINGS = IntegratorSettings(rel_tol=1e-8, abs_tol=1e-11)
# classify_region's census and render_portrait's cycle overlay
_CENSUS_SETTINGS = IntegratorSettings(rel_tol=1e-10, abs_tol=1e-13)


@dataclass
class Trajectory:
    t: np.ndarray
    u: np.ndarray
    v: np.ndarray
    status: int

    @property
    def final(self) -> State:
        return State(float(self.u[-1]), float(self.v[-1]))


@dataclass(frozen=True)
class CycleRepr:
    """Periodic orbit: section point, period, nontrivial Floquet multiplier,
    section ray direction, and the radius along the ray."""

    section_point: State
    period: float
    nontrivial_multiplier: float
    section_normal: tuple
    radius: float

    @property
    def stable(self) -> bool:
        return 0.0 < self.nontrivial_multiplier < 1.0


def integrate(p0: State, a: Params, t_end: float,
              settings: IntegratorSettings = DEFAULT_SETTINGS, *,
              record: bool = True, fixed_step: float = 0.0) -> Trajectory:
    """Adaptive trajectory of the kinetics from p0, a first-quadrant state,
    over [0, t_end]."""
    if not p0.in_first_quadrant(settings.abs_tol):
        raise DomainError(f"initial state {p0} outside the first quadrant")
    status, t, x, y, ts, xs, ys = kernels.integrate(
        kernels.FIELD_PLANE, p0.u, p0.v, a.k, a.F, t_end, settings.rel_tol,
        settings.abs_tol, kernels.STEP_LIMIT, record, fixed_step)
    if status == kernels.UNDERFLOW:
        raise StepUnderflow(f"step size underflow at t={t}")
    if not record:
        ts, xs, ys = [0.0, t], [p0.u, x], [p0.v, y]
    return Trajectory(t=np.asarray(ts), u=np.asarray(xs), v=np.asarray(ys),
                      status=status)


# ---------------------------------------------------------------------------
# Poincare section machinery
# ---------------------------------------------------------------------------

def section_frame(a: Params) -> tuple:
    """(unstable, cu, cv, d0, d1, orient, r_max): the section ray at a from
    the focus-type point (cu, cv) of equilibria (exact where Delta is a
    rational square), the saddle being (su, sv); DomainError unless
    Delta > 0.  unstable: the trace of the Jacobian J there is positive;
    (d0, d1) is perpendicular to the real part of J's leading eigenvector,
    by numpy's eig and np.linalg.norm, turned away from the saddle; orient:
    the sign of d x f just off the ray; r_max: where the ray leaves the
    quadrant, at most 2.5.  J and the field are core's uv_jacobian and
    _field, on a.k and a.F as given (floats or Fractions).  LAPACK makes
    the largest component of the eigenvector real, so its real part, and
    the norm, are nonzero.

    The census, the LPC residual, cycle_at_radius and the separatrix
    splitting (read only by its sign) build their frame here, and the
    others depend on its last bits, so it keeps numpy's eig and
    np.linalg.norm.  Normalizing the same eigenvector by math.sqrt moves
    the third LPC point of the cycles benchmark (lpc_up/0) by 3e-4
    relative, far outside the 1e-6 tolerance of perfbench/reference.json:
    the LPC residual's g' is a finite difference limited by round-off.
    The map cell's closed-form frame (gskit._pure._probe_frame) moves the
    radius pinned in test_census_pinned by 8 ulp and both LPC runs of that
    benchmark.
    """
    eq = equilibria(a)
    if eq.kind != "pair":
        raise DomainError(f"no pair of nontrivial equilibria at {a}")
    k, F = a.k, a.F
    cu, cv = float(eq.p_mp.u), float(eq.p_mp.v)
    su, sv = float(eq.p_pm.u), float(eq.p_pm.v)
    (j11, j12), (j21, j22) = uv_jacobian(cu, cv, k, F)
    w, vecs = np.linalg.eig(np.array([[j11, j12], [j21, j22]]))
    wr = np.real(vecs[:, int(np.argmax(w.real))])
    d = np.array([-wr[1], wr[0]])
    d /= np.linalg.norm(d)
    d0, d1 = float(d[0]), float(d[1])
    # point away from the saddle
    if d0 * (cu - su) + d1 * (cv - sv) < 0:
        d0, d1 = -d0, -d1
    # rotation direction of the flow just off the section
    f0, f1 = _field(cu + 1e-6 * d0, cv + 1e-6 * d1, k, F)
    orient = 1 if (d0 * f1 - d1 * f0) > 0 else -1
    # cap the ray at the quadrant boundary / sanity window
    r_max = 2.5
    if d0 < 0:
        r_max = min(r_max, -cu / d0)
    if d1 < 0:
        r_max = min(r_max, -cv / d1)
    return j11 + j22 > 0, cu, cv, d0, d1, orient, r_max


def return_map(a: Params, r: float, frame: tuple,
               settings: IntegratorSettings = DEFAULT_SETTINGS) -> tuple:
    """Return radius and time after one full revolution from radius r.

    Raises NoReturn when the trajectory does not cross the section again
    before t = 2e5.
    """
    _, cu, cv, d0, d1, orient, _ = frame
    status, hits = kernels.ray_crossings(
        cu + r * d0, cv + r * d1, a.k, a.F, cu, cv, d0, d1, orient, 1, 2e5,
        settings.rel_tol, settings.abs_tol, 1e-9, 1.0)
    if not hits:
        raise NoReturn(f"no return from r={r} at {a} (status {status})")
    t, s, _, _ = hits[0]
    return s, t


# ---------------------------------------------------------------------------
# Limit-cycle census
# ---------------------------------------------------------------------------

def _refine_root(g, lo, hi, glo, ghi, tol=1e-12, max_iter=80):
    """Brent-style bisection/secant hybrid on a bracketed root."""
    a_, b_, fa, fb = lo, hi, glo, ghi
    for _ in range(max_iter):
        if b_ - a_ < tol * max(1.0, abs(b_)):
            break
        # secant candidate, guarded to the bracket interior
        if fb != fa:
            m = b_ - fb * (b_ - a_) / (fb - fa)
            if not (a_ + 0.1 * (b_ - a_) < m < b_ - 0.1 * (b_ - a_)):
                m = 0.5 * (a_ + b_)
        else:
            m = 0.5 * (a_ + b_)
        fm = g(m)
        if fm == 0.0:
            return m
        if (fa < 0) == (fm < 0):
            a_, fa = m, fm
        else:
            b_, fb = m, fm
    return 0.5 * (a_ + b_)


def cycle_at_radius(a: Params, r: float, frame: tuple,
                    settings: IntegratorSettings = DEFAULT_SETTINGS) -> CycleRepr:
    """Package the cycle through radius r: period and Floquet data.

    The nontrivial multiplier is det of the monodromy matrix over one
    period (the trivial multiplier along the flow is exactly 1).
    """
    _, cu, cv, d0, d1, _, _ = frame
    _, period = return_map(a, r, frame, settings)
    x0, y0 = cu + r * d0, cv + r * d1
    status, _, _, m11, m12, m21, m22 = kernels.monodromy(
        x0, y0, a.k, a.F, period, settings.rel_tol, settings.abs_tol)
    if status != kernels.OK:
        raise StepUnderflow("variational integration failed")
    mult = m11 * m22 - m12 * m21
    return CycleRepr(section_point=State(x0, y0), period=period,
                     nontrivial_multiplier=float(mult),
                     section_normal=(d0, d1), radius=float(r))


def limit_cycle_census(a: Params,
                       settings: IntegratorSettings = DEFAULT_SETTINGS, *,
                       n_scan: int = 400) -> list:
    """All limit cycles around the focus-type point, ordered by amplitude.

    Scans the return-map displacement along the section ray, brackets sign
    changes (rescanning finer near non-crossing minima so near-tangent cycle
    pairs are resolved), refines each root and attaches Floquet data.
    Returns an empty list when no nontrivial equilibria exist.
    """
    d = discriminants(a)
    if d.delta <= 0:
        return []
    frame = section_frame(a)
    cap = frame[6] * 0.98
    r_lo = max(cap * 1e-4, 1e-8)

    def g(r):
        return return_map(a, r, frame, settings)[0] - r

    rs = np.linspace(r_lo, cap, n_scan)
    vals = np.full(n_scan, np.nan)
    fail_at = None
    for i, r in enumerate(rs):
        try:
            vals[i] = g(r)
        except NoReturn:
            fail_at = i
            break
    n_ok = fail_at if fail_at is not None else n_scan
    roots = []
    for i in range(1, n_ok):
        a_, b_ = rs[i - 1], rs[i]
        fa, fb = vals[i - 1], vals[i]
        if fa == 0.0:
            roots.append(a_)
        elif fa * fb < 0:
            roots.append(_refine_root(g, a_, b_, fa, fb))
    # near-tangent pair hiding between grid points: rescan around interior
    # minima of |g| that do not change sign
    if n_ok >= 3:
        absv = np.abs(vals[:n_ok])
        for i in range(1, n_ok - 1):
            if (absv[i] < absv[i - 1] and absv[i] < absv[i + 1]
                    and vals[i - 1] * vals[i] > 0 and vals[i] * vals[i + 1] > 0):
                sub = np.linspace(rs[i - 1], rs[i + 1], 33)
                prev_r, prev_v = sub[0], g(sub[0])
                for r in sub[1:]:
                    try:
                        cur = g(r)
                    except NoReturn:
                        break
                    if prev_v * cur < 0:
                        roots.append(_refine_root(g, prev_r, r, prev_v, cur))
                    prev_r, prev_v = r, cur
    roots.sort()
    dedup = []
    for r in roots:
        if not dedup or abs(r - dedup[-1]) > 1e-6 * max(1.0, r):
            dedup.append(r)
    return [cycle_at_radius(a, r, frame, settings) for r in dedup]


# ---------------------------------------------------------------------------
# Region classification
# ---------------------------------------------------------------------------

REGION_SIGNATURES = {
    # (focus-type point unstable?, cycle stability letters in->out): label
    (True, ""): "1",
    (False, "u"): "2",
    (True, "su"): "3",
    (False, ""): "4",
    (True, "s"): "5",
}


@dataclass(frozen=True)
class RegionLabel:
    id: str                      # 'outside', 'SN-degenerate', '1'..'5', or 'x'


def classify_region(a: Params) -> RegionLabel:
    """Label the parameter point by equilibria, focus stability and census.

    The signature table is REGION_SIGNATURES: regions 1-5 are
    (unstable, no cycle), (stable, one repelling cycle), (unstable, stable
    inner + repelling outer), (stable, no cycle), (unstable, one stable
    cycle).  The census scans 120 radii at rel/abs tolerances 1e-10/1e-13.
    Where |Delta| is at most 1e-10 the point is on the fold: 'outside' below
    zero, else 'SN-degenerate'.
    """
    d = discriminants(a)
    if abs(float(d.delta)) <= 1e-10:
        return RegionLabel(id="outside" if d.delta < 0 else "SN-degenerate")
    if d.delta < 0:
        return RegionLabel(id="outside")
    eq = equilibria(a)
    unstable = trace_det(jacobian(eq.p_mp, a))[0] > 0
    cycles = limit_cycle_census(a, _CENSUS_SETTINGS, n_scan=120)
    stability = "".join("s" if c.stable else "u" for c in cycles)
    return RegionLabel(id=REGION_SIGNATURES.get((unstable, stability), "x"))


# probe_region's results, one per kernels.probe_cell code: RegionLabel is
# frozen, so every cell shares them
_PROBE_LABELS = tuple(RegionLabel(id=i) for i in kernels.CELL_LABELS)


def probe_region(k: float, F: float) -> RegionLabel:
    """Fast decision-tree classifier used by the parameter-plane map, at
    positive floats k and F.

    Replaces the full census with one or two attractor probes (forward from
    the focus side, backward across a detected cycle), each at most 400
    section crossings or 2e5 time units; validated against classify_region
    on sampled cells.  The whole cell is one kernel call,
    kernels.probe_cell (see gskit._pure.probe_cell), and builds no
    parameter, equilibrium, state or frame object; the labels are shared
    constants.
    """
    return _PROBE_LABELS[kernels.probe_cell(k, F)]


# ---------------------------------------------------------------------------
# Poincare compactification
# ---------------------------------------------------------------------------

def from_chart_v(q: float, w: float) -> tuple:
    return q / w, 1.0 / w


def manifold_from_infinity(a: Params) -> tuple:
    """Follow the center-unstable branch of the degenerate saddle at
    (u=0, v=+inf) into the finite plane.

    Returns (entry_state, attractor_tag); the attractor tag names the finite
    limit set reached ('p0', 'p_mp', or 'none').

    The branch leaves the fixed point along the center eigendirection (a
    point (0, 1e-6) relaxes onto it immediately, the transverse eigenvalue
    being -1), but between w = 1e-6 and w ~ 1e-2 the drift w' ~ (F+k) w^3
    makes the chart system impossibly stiff for an explicit scheme.  The
    flow is monotone in w on that stretch, so integration starts on the
    same branch at w = 0.02 using the manifold expansion
    q = F w^3 - F (3F + 2k) w^5 + O(w^7) (relative truncation ~ w^4, and the
    transverse direction contracts it further).  The chart run lasts at
    most 1e6 time units, and the plane run from where it leaves the chart
    5e4."""
    k, F = float(a.k), float(a.F)
    w0 = 0.02
    q0 = F * w0 ** 3 - F * (3 * F + 2 * k) * w0 ** 5
    status, t, q, w, *_ = kernels.integrate(
        kernels.FIELD_CHART_V, q0, w0, k, F, 1e6, DEFAULT_SETTINGS.rel_tol,
        DEFAULT_SETTINGS.abs_tol, 50_000_000, False, 0.0, 0.75)
    if status != kernels.BOX_EXIT:
        return None, "none"
    u, v = from_chart_v(q, w)
    entry = State(float(u), float(v))
    traj = integrate(entry, a, 5e4, record=False)
    end = traj.final
    eq = equilibria(a)
    cands = [("p0", TRIVIAL_POINT)]
    if eq.p_mp is not None:
        cands.append(("p_mp", eq.p_mp))
    for name, pt in cands:
        if math.hypot(end.u - float(pt.u), end.v - float(pt.v)) < 1e-3:
            return entry, name
    return entry, "none"


# ---------------------------------------------------------------------------
# Portrait rendering
# ---------------------------------------------------------------------------

# the portrait layout: canvas px, data window, a grid of _SEEDS_PER_SIDE ** 2
# seeds run to _T_END, each thinned by a stride to at most _MAX_SAMPLES
_CANVAS_PX = 1000, 1000
_WINDOW = (0.0, 0.0), (1.05, 0.65)
_SEEDS_PER_SIDE = 5
_T_END = 3000.0
_MAX_SAMPLES = 4000

# numpy's scalar repr around a float's repr: "np.float64(" and ")" under
# numpy 2, empty under numpy 1.  Portrait CSV fields keep this spelling
# because the benchmark reference pins the CSV's digest; writing bare floats
# waits for a benchmark change that records that digest again.
_NP_REPR_PRE, _NP_REPR_POST = repr(np.float64(0.5)).split("0.5")

EQ_COLORS = {
    "saddle": "#cc0000",
    "stable-node": "#2e7d32",
    "stable-spiral": "#2e7d32",
    "unstable-node": "#e69500",
    "unstable-spiral": "#e69500",
}


def render_portrait(a: Params) -> tuple:
    """Deterministic phase portrait: (svg_text, csv_text, metadata).

    Fixed seed grid, arrowheads at a fixed arc fraction, equilibria colored
    by class (the saddle as a red dot), detected cycles overlaid as closed
    curves.  Identical inputs give byte-identical output.  Each CSV field
    is numpy's scalar repr of the sample (np.float64(0.1) under numpy 2),
    the spelling the benchmark reference's CSV digest pins.
    """
    from .svgplot import SvgCanvas

    (x0, y0), (x1, y1) = _WINDOW
    canvas = SvgCanvas(*_CANVAS_PX, _WINDOW)
    csv_lines = ["trajectory,t,u,v"]
    n = _SEEDS_PER_SIDE
    seeds = []
    for i in range(n):
        for j in range(n):
            seeds.append(State(x0 + (x1 - x0) * (i + 0.5) / n,
                               y0 + (y1 - y0) * (j + 0.5) / n))
    pre, post = _NP_REPR_PRE, _NP_REPR_POST
    for idx, s0 in enumerate(seeds):
        traj = integrate(s0, a, _T_END, _PROBE_SETTINGS, record=True)
        u, v, t = traj.u, traj.v, traj.t
        if len(u) > _MAX_SAMPLES:
            step = len(u) // _MAX_SAMPLES + 1
            u, v, t = u[::step], v[::step], t[::step]
        canvas.polyline(u, v, color="#9bbcd9", width=0.8)
        # per-sample arithmetic and repr run on Python floats, several times
        # faster than on numpy scalars
        u, v, t = u.tolist(), v.tolist(), t.tolist()
        mid = len(u) // 3
        if mid + 1 < len(u):
            canvas.arrow(u[mid], v[mid], u[mid + 1] - u[mid],
                         v[mid + 1] - v[mid], color="#9bbcd9")
        csv_lines.extend(f"{idx},{pre}{tt!r}{post},{pre}{uu!r}{post},"
                         f"{pre}{vv!r}{post}" for tt, uu, vv in zip(t, u, v))
    try:
        cycles = limit_cycle_census(a, _PROBE_SETTINGS)
    except (DomainError, NoReturn, StepUnderflow):
        cycles = []
    for c in cycles:
        traj = integrate(c.section_point, a, c.period, _CENSUS_SETTINGS,
                         record=True)
        color = "#1a5fb4" if c.stable else "#a51d2d"
        canvas.polyline(traj.u, traj.v, color=color, width=2.0, closed=True)
    eq = equilibria(a)
    meta_eq = []
    for pt in eq.all_points():
        rep = classify(pt, a)
        color = EQ_COLORS.get(rep.label, "#555555")
        canvas.circle(float(pt.u), float(pt.v), 5.0, color)
        meta_eq.append({"u": float(pt.u), "v": float(pt.v), "class": rep.label})
    meta = {
        "schema": 1,
        "k": float(a.k),
        "F": float(a.F),
        "equilibria": meta_eq,
        "cycles": [{"radius": c.radius, "period": c.period,
                    "multiplier": c.nontrivial_multiplier,
                    "stable": c.stable} for c in cycles],
        "window": [[x0, y0], [x1, y1]],
    }
    return canvas.render(), "\n".join(csv_lines) + "\n", meta
