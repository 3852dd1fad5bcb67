"""Predictor-corrector continuation of bifurcation curves, cycle shooting,
the fold-of-cycles curve, and the homoclinic curve via separatrix splitting.

Equilibrium curves (fold, Hopf/neutral-saddle) live in the extended space
(u, v, k, F) with pseudo-arclength steps: secant predictor after two points,
Newton corrector orthogonal to the tangent, adaptive step control, and test
functions located by on-curve bisection (determinant -> double-zero point,
first Lyapunov coefficient -> generalized Hopf).

Cycles are continued through their Poincare return map: a fold of cycles is
the pair {displacement = 0, radial derivative = 0} in (radius, k, F).  The
homoclinic curve is computed by bisecting the signed separatrix-splitting
gap in F at fixed k, which is robust in a planar phase space.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bautin, dynamics, kernels
from .core import Params, jacobian, vector_field
from .equilibria import equilibria, hopf_F, saddle_node_F
from .errors import (BracketNotFound, NewtonDiverged, SaddleMissing,
                     SectionMiss, SeedInvalid)

CycleRepr = dynamics.CycleRepr


@dataclass(frozen=True)
class ContinuationSettings:
    ds0: float = 2e-3
    ds_min: float = 1e-10
    ds_max: float = 5e-3
    corrector_tol: float = 1e-10
    newton_max: int = 8
    max_points: int = 4000
    grow: float = 1.4
    shrink: float = 0.4
    fd_step: float = 1e-7
    seed_residual_max: float = 1e-6


@dataclass(frozen=True)
class CurvePoint:
    params: Params
    aux: dict
    tangent: tuple
    arc_step: float


@dataclass(frozen=True)
class CurveEvent:
    name: str
    params: Params
    aux: dict
    terminal: bool


@dataclass
class CurveResult:
    kind: str
    points: list
    events: list
    status: str

    def k_values(self) -> np.ndarray:
        return np.array([float(p.params.k) for p in self.points])

    def F_values(self) -> np.ndarray:
        return np.array([float(p.params.F) for p in self.points])


# ---------------------------------------------------------------------------
# Generic pseudo-arclength engine on R(z) = 0, z in R^n, R in R^{n-1}
# ---------------------------------------------------------------------------

def _fd_jacobian(res, z, f0, eps):
    n = z.size
    m = f0.size
    J = np.empty((m, n))
    for j in range(n):
        h = eps * max(1.0, abs(z[j]))
        zp = z.copy()
        zp[j] += h
        J[:, j] = (res(zp) - f0) / h
    return J


def _tangent(res, z, eps, prev=None):
    f0 = res(z)
    J = _fd_jacobian(res, z, f0, eps)
    _, _, vt = np.linalg.svd(J)
    t = vt[-1]
    if prev is not None and float(t @ prev) < 0:
        t = -t
    return t / np.linalg.norm(t)


def _correct(res, z_pred, t, settings: ContinuationSettings):
    """Newton on [R(z); t.(z - z_pred)] = 0.  Returns (z, iterations) or None."""
    z = z_pred.copy()
    for it in range(settings.newton_max):
        f = res(z)
        g = np.append(f, t @ (z - z_pred))
        if np.max(np.abs(f)) < settings.corrector_tol and abs(g[-1]) < 1e-12:
            return z, it
        J = _fd_jacobian(res, z, f, settings.fd_step)
        Ja = np.vstack([J, t])
        try:
            dz = np.linalg.solve(Ja, -g)
        except np.linalg.LinAlgError:
            return None
        z = z + dz
        if not np.all(np.isfinite(z)):
            return None
    f = res(z)
    if np.max(np.abs(f)) < settings.corrector_tol:
        return z, settings.newton_max
    return None


def _bisect_event(res, fn, za, zb, settings, *, param_idx=(2, 3),
                  tol=1e-9, max_iter=80):
    """Refine a test-function sign change between on-curve points za, zb."""
    fa = fn(za)
    for _ in range(max_iter):
        gap = max(abs(za[i] - zb[i]) for i in param_idx)
        if gap < tol:
            break
        zm_pred = 0.5 * (za + zb)
        t = zb - za
        n = np.linalg.norm(t)
        if n == 0:
            break
        t = t / n
        sol = _correct(res, zm_pred, t, settings)
        if sol is None:
            break
        zm = sol[0]
        fm = fn(zm)
        if fm is None or not np.isfinite(fm):
            break
        if (fa < 0) == (fm < 0):
            za, fa = zm, fm
        else:
            zb = zm
    return 0.5 * (za + zb)


def _run_engine(kind, res, z0, settings, make_point, test_functions,
                domain_ok, direction=1.0):
    f0 = res(z0)
    if np.max(np.abs(f0)) > settings.seed_residual_max:
        raise SeedInvalid(f"seed residual {np.max(np.abs(f0)):.2e} for {kind}")
    sol = _correct(res, z0.copy(), _tangent(res, z0, settings.fd_step), settings)
    if sol is None:
        raise SeedInvalid(f"seed failed to correct for {kind}")
    z = sol[0]
    t = _tangent(res, z, settings.fd_step)
    t = t * direction
    points = [make_point(z, t, 0.0)]
    events = []
    zs = [z]
    ds = settings.ds0
    tests = {name: fn(z) for name, fn, _terminal in test_functions}
    status = "max_points"
    while len(points) < settings.max_points:
        accepted = None
        while True:
            z_pred = z + ds * t
            sol = _correct(res, z_pred, t, settings)
            if sol is not None:
                accepted = sol
                break
            ds *= settings.shrink
            if ds < settings.ds_min:
                status = "step_underflow"
                break
        if accepted is None:
            break
        z_new, iters = accepted
        # test functions: bisect sign changes before committing
        stop = False
        for name, fn, terminal in test_functions:
            old = tests.get(name)
            new = fn(z_new)
            if (old is not None and new is not None
                    and np.isfinite(old) and np.isfinite(new)
                    and (old < 0) != (new < 0)):
                z_ev = _bisect_event(res, fn, z.copy(), z_new.copy(), settings)
                pt = make_point(z_ev, t, ds)
                events.append(CurveEvent(name=name, params=pt.params,
                                         aux=pt.aux, terminal=terminal))
                if terminal:
                    points.append(pt)
                    stop = True
            tests[name] = new
        if stop:
            status = "event"
            break
        if not domain_ok(z_new):
            status = "domain_exit"
            break
        if len(zs) >= 2:
            t_new = z_new - z
            t_new = t_new / np.linalg.norm(t_new)
        else:
            t_new = _tangent(res, z_new, settings.fd_step, prev=t)
        points.append(make_point(z_new, t_new, ds))
        zs.append(z_new)
        z, t = z_new, t_new
        if iters <= 3:
            ds = min(ds * settings.grow, settings.ds_max)
    else:
        status = "max_points"
    return CurveResult(kind=kind, points=points, events=events, status=status)


# ---------------------------------------------------------------------------
# Equilibrium curve problems
# ---------------------------------------------------------------------------

def _field_z(z):
    # raw kinetics, no Params validation: correction steps may probe k,F <= 0
    u, v, k, F = z
    uvv = u * v * v
    return -uvv + F * (1.0 - u), uvv - (F + k) * v


def _trace_det_z(z):
    u, v, k, F = z
    jac = ((-(F + v * v), -2 * u * v), (v * v, -(F + k) + 2 * u * v))
    tr = jac[0][0] + jac[1][1]
    det = jac[0][0] * jac[1][1] - jac[0][1] * jac[1][0]
    return tr, det


def _fold_res(z):
    f1, f2 = _field_z(z)
    _, det = _trace_det_z(z)
    return np.array([f1, f2, det])


def _hopf_res(z):
    f1, f2 = _field_z(z)
    tr, _ = _trace_det_z(z)
    return np.array([f1, f2, tr])


def _equilibrium_point(z, t, ds) -> CurvePoint:
    u, v, k, F = z
    return CurvePoint(params=Params(float(k), float(F)),
                      aux={"u": float(u), "v": float(v)},
                      tangent=tuple(float(x) for x in t), arc_step=float(ds))


def hopf_seed(k0: float) -> np.ndarray:
    F0 = float(hopf_F(k0))
    eq = equilibria(Params(k0, F0))
    return np.array([float(eq.p_mp.u), float(eq.p_mp.v), float(k0), F0])


def neutral_saddle_seed(k0: float) -> np.ndarray:
    from .equilibria import neutral_saddle_F
    F0 = float(neutral_saddle_F(k0))
    eq = equilibria(Params(k0, F0))
    return np.array([float(eq.p_pm.u), float(eq.p_pm.v), float(k0), F0])


def fold_seed(k0: float, branch: str = "lower") -> np.ndarray:
    up, lo = saddle_node_F(k0)
    F0 = float(up if branch == "upper" else lo)
    a = Params(k0, F0)
    g = float(a.gamma)
    return np.array([0.5, 1.0 / (2.0 * g), float(k0), F0])


def _l1_test(z):
    u, v, k, F = z
    if k <= 0 or F <= 0:
        return None
    tr, det = _trace_det_z(z)
    if det <= 1e-12 or tr * tr - 4 * det >= 0:
        return None
    try:
        return bautin._l1_extended(Params(k, F))
    except Exception:
        return None


def _det_test(z):
    return _trace_det_z(z)[1]


def continue_curve(kind: str, seed, settings: ContinuationSettings | None = None,
                   *, direction: float = 1.0, k_floor: float = 1e-4,
                   detect_events: bool = True, **kwargs) -> CurveResult:
    """Continue one of the bifurcation curves.

    kind 'fold' or 'hopf': seed is the extended vector (u, v, k, F) (see
    hopf_seed / fold_seed).  The Hopf run monitors det (double-zero point,
    terminal) and the first Lyapunov coefficient (generalized Hopf,
    recorded); both are located by on-curve bisection.  kind 'lpc' and
    'homoclinic' delegate to lpc_curve / homoclinic_curve.
    """
    settings = settings or ContinuationSettings()
    if kind == "fold":
        tests = [("bt_trace", lambda z: _trace_det_z(z)[0], True)] if detect_events else []
        return _run_engine("fold", _fold_res, np.asarray(seed, float), settings,
                           _equilibrium_point, tests,
                           lambda z: z[2] > k_floor and z[3] > 1e-6 and z[1] > 0,
                           direction)
    if kind == "hopf":
        tests = ([("bt_det", _det_test, True), ("gh_l1", _l1_test, False)]
                 if detect_events else [])
        return _run_engine("hopf", _hopf_res, np.asarray(seed, float), settings,
                           _equilibrium_point, tests,
                           lambda z: z[2] > k_floor and z[3] > 1e-7,
                           direction)
    if kind == "lpc":
        return lpc_curve(seed, settings=settings, **kwargs)
    if kind == "homoclinic":
        return homoclinic_curve(seed, **kwargs)
    raise ValueError(f"unknown curve kind {kind!r}")


# ---------------------------------------------------------------------------
# Cycle shooting
# ---------------------------------------------------------------------------

def shoot_cycle(a: Params, guess: CycleRepr | float, *,
                settings: dynamics.IntegratorSettings = dynamics.DEFAULT_SETTINGS,
                tol: float = 1e-10, max_iter: int = 30) -> CycleRepr:
    """Newton on the return-map displacement, seeded from a CycleRepr or a
    plain section radius; return time is solved by event location inside the
    kernels.  The result carries the period and the nontrivial Floquet
    multiplier from variational integration over one period."""
    frame = dynamics.section_frame(a)
    if isinstance(guess, CycleRepr):
        r = guess.radius
    else:
        r = float(guess)

    def g(rr):
        return dynamics.return_map(a, rr, frame, settings)[0] - rr

    fr = g(r)
    for _ in range(max_iter):
        if abs(fr) < tol:
            break
        dr = 1e-6 * max(abs(r), 1e-3)
        slope = (g(r + dr) - fr) / dr
        if slope == 0:
            raise NewtonDiverged("flat return map")
        step = -fr / slope
        cap = 0.2 * max(abs(r), 1e-2)
        if abs(step) > cap:
            step = math.copysign(cap, step)
        r_new = r + step
        if r_new <= 0 or r_new >= frame.r_max:
            raise NewtonDiverged(f"left the section ray at r={r_new}")
        fr_new = g(r_new)
        r, fr = r_new, fr_new
    else:
        raise NewtonDiverged(f"no convergence, residual {fr:.2e}")
    return dynamics.cycle_at_radius(a, r, frame, settings)


# ---------------------------------------------------------------------------
# Fold-of-cycles (limit point of cycles) curve
# ---------------------------------------------------------------------------

def _lpc_residual_factory(settings):
    cache = {}

    def res(z):
        r, k, F = z
        a = Params(float(k), float(F))
        key = (round(float(k), 14), round(float(F), 14))
        frame = cache.get(key)
        if frame is None:
            frame = dynamics.section_frame(a)
            cache[key] = frame
        def g(rr):
            return dynamics.return_map(a, rr, frame, settings)[0] - rr
        dr = 1e-6 * max(abs(r), 1e-3)
        g0 = g(r)
        gp = (g(r + dr) - g(r - dr)) / (2 * dr)
        return np.array([g0, gp])

    return res


def lpc_seed_from_region3(a: Params, *,
                          settings: dynamics.IntegratorSettings | None = None
                          ) -> np.ndarray:
    """Seed (r, k, F) for the fold-of-cycles system from a two-cycle point."""
    settings = settings or dynamics.DEFAULT_SETTINGS
    cycles = dynamics.limit_cycle_census(a, settings)
    if len(cycles) < 2:
        raise SeedInvalid(f"census found {len(cycles)} cycles at {a}; need 2")
    return np.array([0.5 * (cycles[0].radius + cycles[1].radius),
                     float(a.k), float(a.F)])


def lpc_curve(seed, *, settings: ContinuationSettings | None = None,
              integrator: dynamics.IntegratorSettings | None = None,
              max_points: int = 120, k_bounds: tuple = (5e-3, 9 / 256),
              direction: float = 1.0) -> CurveResult:
    """Continue the fold-of-cycles curve {return displacement = 0,
    radial derivative = 0} in (radius, k, F) from a region-3 seed."""
    settings = settings or ContinuationSettings(
        ds0=2e-4, ds_max=2e-3, corrector_tol=5e-9, fd_step=1e-6,
        max_points=max_points, seed_residual_max=0.05)
    integrator = integrator or dynamics.IntegratorSettings(rel_tol=1e-11,
                                                           abs_tol=1e-14)
    res = _lpc_residual_factory(integrator)

    def make_point(z, t, ds):
        r, k, F = z
        return CurvePoint(params=Params(float(k), float(F)),
                          aux={"radius": float(r)},
                          tangent=tuple(float(x) for x in t),
                          arc_step=float(ds))

    return _run_engine("lpc", res, np.asarray(seed, float), settings,
                       make_point, [],
                       lambda z: (z[0] > 1e-7 and k_bounds[0] < z[1] < k_bounds[1]
                                  and z[2] > 1e-7),
                       direction=direction)


# ---------------------------------------------------------------------------
# Separatrix splitting and the homoclinic curve
# ---------------------------------------------------------------------------

def _saddle_eigenframe(a: Params):
    eq = equilibria(a)
    if eq.kind != "pair":
        raise SaddleMissing(f"no saddle at {a}")
    ps = eq.p_pm
    jac = np.array(jacobian(ps, a), float)
    w, vecs = np.linalg.eig(jac)
    w = np.real(w)
    iu, is_ = int(np.argmax(w)), int(np.argmin(w))
    if not (w[iu] > 0 > w[is_]):
        raise SaddleMissing(f"eigenvalues {w} at {a} are not of saddle type")
    eu = np.real(vecs[:, iu])
    es = np.real(vecs[:, is_])
    return eq, ps, w[iu], w[is_], eu / np.linalg.norm(eu), es / np.linalg.norm(es)


def separatrix_splitting(a: Params, *, eps: float = 1e-7,
                         settings: dynamics.IntegratorSettings | None = None,
                         richardson_tol: float = 1e-6,
                         validate: bool = False) -> float:
    """Signed gap between the saddle separatrices on the section ray.

    The unstable branch is launched eps along its eigenvector toward the
    focus side and integrated forward to the ray anchored at the focus-type
    point (directed away from the saddle); the stable branch is integrated
    backward.  The difference of the hit radii vanishes exactly on a
    homoclinic loop and changes sign across it.  With validate=True the
    offset is halved and the two gaps must agree to richardson_tol.
    """
    gap = _splitting_once(a, eps, settings)
    if validate:
        gap2 = _splitting_once(a, eps / 2, settings)
        if abs(gap - gap2) > richardson_tol:
            raise SectionMiss(
                f"offset-halving check failed: {gap} vs {gap2} at {a}")
        return gap2
    return gap


def _splitting_once(a: Params, eps: float, settings) -> float:
    settings = settings or dynamics.IntegratorSettings(rel_tol=1e-11,
                                                       abs_tol=1e-14)
    eq, ps, lu, ls, eu, es = _saddle_eigenframe(a)
    c = np.array([float(eq.p_mp.u), float(eq.p_mp.v)])
    pvec = np.array([float(ps.u), float(ps.v)])
    d = c - pvec
    d = d / np.linalg.norm(d)
    probe = c + 1e-6 * d
    f = vector_field((probe[0], probe[1]), a)
    orient = 1 if (d[0] * f[1] - d[1] * f[0]) > 0 else -1
    t_cap = min(5e6, 400.0 + 60.0 * abs(math.log(eps)) / min(lu, -ls))

    def hit(vec, sign_dir, time_sign):
        x0 = pvec + sign_dir * eps * vec
        want = orient if time_sign > 0 else -orient
        status, hits = kernels.ray_crossings(
            x0[0], x0[1], a.k, a.F, c[0], c[1], d[0], d[1],
            want, 1, t_cap, settings.rel_tol, settings.abs_tol,
            settings.max_step, 1e-12, 0.0, time_sign, time_sign > 0)
        if not hits:
            return None
        return hits[0][1]

    toward = 1.0 if float(eu @ d) >= 0 else -1.0
    s_u = hit(eu, toward, 1.0)
    if s_u is None:
        s_u = hit(eu, -toward, 1.0)
    if s_u is None:
        raise SectionMiss(f"unstable separatrix never met the section at {a}")
    toward_s = 1.0 if float(es @ d) >= 0 else -1.0
    s_s = hit(es, toward_s, -1.0)
    if s_s is None:
        s_s = hit(es, -toward_s, -1.0)
    if s_s is None:
        raise SectionMiss(f"stable separatrix never met the section at {a}")
    return s_u - s_s


def homoclinic_F(k: float, *, f_tol: float = 1e-8,
                 settings: dynamics.IntegratorSettings | None = None,
                 bracket_fracs: tuple = (0.005, 0.02, 0.05, 0.1, 0.2, 0.35, 0.55),
                 eps: float = 1e-7) -> tuple:
    """Bisect the splitting gap in F at fixed k.  Returns (F, bracket_width).

    The search starts just above the Hopf curve (the newborn cycle side) and
    expands toward the upper fold branch until the gap changes sign.
    """
    Fh = float(hopf_F(k))
    Fu = float(saddle_node_F(k)[0])
    span = Fu - Fh

    def gap(F):
        return separatrix_splitting(Params(k, F), eps=eps, settings=settings)

    lo = Fh + 1e-4 * span
    glo = gap(lo)
    hi = None
    prev, gprev = lo, glo
    for frac in bracket_fracs:
        Fp = Fh + frac * span
        gp = gap(Fp)
        if (gprev < 0) != (gp < 0):
            lo, glo, hi, ghi = prev, gprev, Fp, gp
            break
        prev, gprev = Fp, gp
    if hi is None:
        raise BracketNotFound(f"splitting gap has one sign over the scan at k={k}")
    while hi - lo > f_tol:
        mid = 0.5 * (lo + hi)
        gm = gap(mid)
        if (glo < 0) == (gm < 0):
            lo, glo = mid, gm
        else:
            hi, ghi = mid, gm
    return 0.5 * (lo + hi), hi - lo


def homoclinic_curve(k_values, *, f_tol: float = 1e-8,
                     settings: dynamics.IntegratorSettings | None = None
                     ) -> CurveResult:
    """Homoclinic curve over a grid of k values by per-k bisection.

    Bracket exhaustion at some k terminates the curve there (recorded in the
    result status, not fatal)."""
    pts = []
    status = "ok"
    for k in k_values:
        try:
            F, width = homoclinic_F(float(k), f_tol=f_tol, settings=settings)
        except (BracketNotFound, SaddleMissing, SectionMiss) as exc:
            status = f"terminated at k={float(k)}: {type(exc).__name__}"
            break
        pts.append(CurvePoint(params=Params(float(k), F),
                              aux={"bracket_width": width},
                              tangent=(), arc_step=0.0))
    return CurveResult(kind="homoclinic", points=pts, events=[], status=status)


# ---------------------------------------------------------------------------
# Double-zero point by Newton on the extended regular system
# ---------------------------------------------------------------------------

def newton_bt(start: tuple = (0.05, 0.05), *, tol: float = 1e-12,
              max_iter: int = 60) -> tuple:
    """Newton on {trace = 0, det = 0} over the focus-branch graph.

    The nontrivial equilibrium set is the graph (u, v) -> (k, F) =
    (u v (1-u-v)/(1-u), u v^2/(1-u)), on which det = u v^3 (1-2u)/(1-u).
    Newton runs on {trace, det} with the determinant deflated by its
    positive on-branch factor u v^3/(1-u): that removes the spurious
    boundary continuum at v = 0 and leaves the double-zero point as the
    unique interior root, with a nonsingular Jacobian (quadratic
    convergence).  Returns (u, v, k, F)."""
    k0, F0 = start
    eq = equilibria(Params(k0, F0))
    if eq.p_mp is None:
        raise SeedInvalid(f"no focus-type equilibrium at {start}")

    def params_of(u, v):
        return u * v * (1 - u - v) / (1 - u), u * v * v / (1 - u)

    def residual(z):
        u, v = z
        k, _F = params_of(u, v)
        return np.array([k - v * v, 1.0 - 2.0 * u])

    z = np.array([float(eq.p_mp.u), float(eq.p_mp.v)])
    g = residual(z)
    for _ in range(max_iter):
        if np.max(np.abs(g)) < tol:
            break
        J = np.empty((2, 2))
        h = 1e-8
        for j in range(2):
            zp = z.copy()
            zp[j] += h
            J[:, j] = (residual(zp) - g) / h
        dz = np.linalg.solve(J, -g)
        lam = 1.0
        while lam > 1e-8:
            cand = z + lam * dz
            if 0 < cand[0] < 1 and cand[1] > 0:
                gc = residual(cand)
                if np.linalg.norm(gc) <= np.linalg.norm(g):
                    z, g = cand, gc
                    break
            lam *= 0.5
        else:
            raise NewtonDiverged("line search stalled")
    else:
        raise NewtonDiverged("double-zero Newton did not converge")
    k, F = params_of(z[0], z[1])
    return float(z[0]), float(z[1]), float(k), float(F)
