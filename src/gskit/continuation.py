"""Predictor-corrector continuation of bifurcation curves,
the fold-of-cycles curve, and the homoclinic curve via separatrix splitting.

Equilibrium curves (fold, Hopf/neutral-saddle) live in the extended space
(u, v, k, F) with pseudo-arclength steps: secant predictor after two points,
Newton corrector orthogonal to the tangent on the closed-form Jacobian,
adaptive step control, and test functions located by on-curve bisection
that ends at the secant root of the last bracket (determinant -> double-zero
point, first Lyapunov coefficient -> generalized Hopf).

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
from .core import (Params, State, extended_jacobian, jacobian, trace_det,
                   uv_jacobian)
from .equilibria import bisect_sign, equilibria, hopf_F, saddle_node_F
from .errors import (BracketNotFound, NewtonDiverged, NoReturn,
                     SaddleMissing, SectionMiss, SeedInvalid)


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
#
# A problem is one callable, problem(z) -> (R(z), jac), where jac() returns
# the Jacobian dR/dz at z.  The Jacobian is deferred so that a Newton
# iteration that has already converged does not pay for it.
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


def _tangent(jac, prev=None):
    _, _, vt = np.linalg.svd(jac)
    t = vt[-1]
    if prev is not None and float(t @ prev) < 0:
        t = -t
    return t / np.linalg.norm(t)


@dataclass(frozen=True)
class _Engine:
    """Step control of one continuation problem; run() traces its curve.

    Every problem takes at most 8 Newton corrections per step, shrinks a
    failed step by 0.4 down to 1e-10, and grows the step by 1.4 after a
    correction of at most 3 iterations.  direction=+1 starts the curve the
    way coordinate z[rising] increases."""

    ds0: float
    ds_max: float
    corrector_tol: float
    max_points: int
    seed_residual_max: float
    rising: int

    def correct(self, problem, z_pred, t, known=None):
        """Newton on [R(z); t.(z - z_pred)] = 0, starting from known =
        problem(z_pred) when the caller has it.  Returns (z, iterations,
        jac), jac the Jacobian thunk of problem(z), or None."""
        n = z_pred.size
        A = np.empty((n, n))
        A[-1] = t
        g = np.empty(n)
        z = z_pred.copy()
        for it in range(8):
            f, jac = known or problem(z)
            known = None
            g[:-1] = f
            g[-1] = t @ (z - z_pred)
            if np.max(np.abs(f)) < self.corrector_tol and abs(g[-1]) < 1e-12:
                return z, it, jac
            A[:-1] = jac()
            try:
                dz = np.linalg.solve(A, -g)
            except np.linalg.LinAlgError:
                return None
            z = z + dz
            if not np.all(np.isfinite(z)):
                return None
        f, jac = problem(z)
        if np.max(np.abs(f)) < self.corrector_tol:
            return z, 8, jac
        return None

    def bisect_event(self, problem, fn, za, fa, zb, fb):
        """Refine a sign change of the test function fn between on-curve
        points za, zb (values fa, fb) until their (k, F) coordinates agree
        to 1e-9 (at most 80 halvings).  The event is the secant root of the
        last bracket."""
        for _ in range(80):
            gap = max(abs(za[i] - zb[i]) for i in (2, 3))
            if gap < 1e-9:
                break
            zm_pred = 0.5 * (za + zb)
            t = zb - za
            n = np.linalg.norm(t)
            if n == 0:
                break
            t = t / n
            sol = self.correct(problem, zm_pred, t)
            if sol is None:
                break
            zm = sol[0]
            fm = fn(zm)
            if fm is None or not np.isfinite(fm):
                break
            if (fa < 0) == (fm < 0):
                za, fa = zm, fm
            else:
                zb, fb = zm, fm
        return za + fa / (fa - fb) * (zb - za)

    def run(self, kind, problem, z0, make_point, test_functions, domain_ok,
            direction=1.0):
        # the seed's residual and Jacobian serve its check, its tangent and
        # Newton's first iteration; a corrected point's serve its tangent
        f0, jac0 = problem(z0)
        if np.max(np.abs(f0)) > self.seed_residual_max:
            raise SeedInvalid(f"seed residual {np.max(np.abs(f0)):.2e} for {kind}")
        J0 = jac0()
        sol = self.correct(problem, z0.copy(), _tangent(J0), known=(f0, lambda: J0))
        if sol is None:
            raise SeedInvalid(f"seed failed to correct for {kind}")
        z, _, jac = sol
        t = _tangent(jac())
        if t[self.rising] < 0:
            t = -t
        t = t * direction
        points = [make_point(z, t, 0.0)]
        events = []
        ds = self.ds0
        tests = {name: fn(z) for name, fn, _terminal in test_functions}
        status = "max_points"
        while len(points) < self.max_points:
            accepted = None
            while True:
                z_pred = z + ds * t
                sol = self.correct(problem, z_pred, t)
                if sol is not None:
                    accepted = sol
                    break
                ds *= 0.4
                if ds < 1e-10:
                    status = "step_underflow"
                    break
            if accepted is None:
                break
            z_new, iters, jac_new = accepted
            # leave the domain before looking for events: the fold's trace
            # vanishes where the curve meets the origin k = F = 0, and an
            # event located there has no valid Params
            if not domain_ok(z_new):
                status = "domain_exit"
                break
            # test functions: bisect sign changes before committing
            stop = False
            for name, fn, terminal in test_functions:
                old = tests.get(name)
                new = fn(z_new)
                if (old is not None and new is not None
                        and np.isfinite(old) and np.isfinite(new)
                        and (old < 0) != (new < 0)):
                    z_ev = self.bisect_event(problem, fn, z.copy(), old,
                                             z_new.copy(), new)
                    pt = make_point(z_ev, t, ds)
                    events.append(CurveEvent(name=name, params=pt.params))
                    if terminal:
                        points.append(pt)
                        stop = True
                tests[name] = new
            if stop:
                status = "event"
                break
            if len(points) >= 2:
                t_new = z_new - z
                t_new = t_new / np.linalg.norm(t_new)
            else:
                t_new = _tangent(jac_new(), prev=t)
            points.append(make_point(z_new, t_new, ds))
            z, t = z_new, t_new
            if iters <= 3:
                ds = min(ds * 1.4, self.ds_max)
        else:
            status = "max_points"
        return CurveResult(kind=kind, points=points, events=events, status=status)


# Fold and Hopf curves of equilibria in (u, v, k, F): direction=+1 raises F
_EQUILIBRIUM_ENGINE = _Engine(ds0=2e-3, ds_max=5e-3, corrector_tol=1e-10,
                              max_points=4000, seed_residual_max=1e-6, rising=3)


# ---------------------------------------------------------------------------
# Equilibrium curve problems
# ---------------------------------------------------------------------------

# Each problem unpacks z into Python floats once (numpy scalar arithmetic
# costs several times more at this size) and returns its residual with
# rows of core.extended_jacobian.  Correction steps may probe k, F <= 0, so
# nothing here builds a Params.

def _fold_problem(z):
    """Fold curve {f = 0, det = 0}; det = (F + v^2)(F + k) - 2uvF."""
    (f1, f2, _, det), (g1, g2, _, g_det) = extended_jacobian(*z.tolist())
    return np.array([f1, f2, det]), lambda: np.array([g1, g2, g_det])


def _hopf_problem(z):
    """Hopf curve {f = 0, trace = 0}; trace = 2uv - v^2 - 2F - k."""
    (f1, f2, tr, _), (g1, g2, g_tr, _) = extended_jacobian(*z.tolist())
    return np.array([f1, f2, tr]), lambda: np.array([g1, g2, g_tr])


def _equilibrium_point(z, t, ds) -> CurvePoint:
    u, v, k, F = z.tolist()
    return CurvePoint(params=Params(k, F), aux={"u": u, "v": v},
                      tangent=tuple(t.tolist()), arc_step=float(ds))


def hopf_seed(k0: float) -> np.ndarray:
    F0 = float(hopf_F(k0))
    eq = equilibria(Params(k0, F0))
    return np.array([float(eq.p_mp.u), float(eq.p_mp.v), float(k0), F0])


def fold_seed(k0: float, branch: str = "lower") -> np.ndarray:
    up, lo = saddle_node_F(k0)
    F0 = float(up if branch == "upper" else lo)
    a = Params(k0, F0)
    g = float(a.gamma)
    return np.array([0.5, 1.0 / (2.0 * g), float(k0), F0])


def _l1_test(z):
    u, v, k, F = z.tolist()
    if k <= 0 or F <= 0:
        return None
    tr, det = trace_det(uv_jacobian(u, v, k, F))
    if det <= 1e-12 or tr * tr - 4 * det >= 0:
        return None
    # the screens above are Params' and bautin._eigendata's own tests, on the
    # same floats, so _l1_extended raises nothing here
    return bautin._l1_extended(State(u, v), Params(k, F))


def _det_test(z):
    return trace_det(uv_jacobian(*z.tolist()))[1]


def _trace_test(z):
    return trace_det(uv_jacobian(*z.tolist()))[0]


def continue_curve(kind: str, seed, *, direction: float = 1.0,
                   detect_events: bool = True) -> CurveResult:
    """Continue the fold or the Hopf curve of equilibria.

    kind 'fold' or 'hopf': seed is the extended vector (u, v, k, F) (see
    hopf_seed / fold_seed).  The Hopf run monitors det (double-zero point,
    terminal) and the first Lyapunov coefficient (generalized Hopf,
    recorded); both are located by on-curve bisection.  direction=+1
    starts toward increasing F.  Both curves stop at k = 1e-4.  Cycle
    curves have their own entry points, lpc_curve and homoclinic_curve.
    """
    if kind == "fold":
        tests = [("bt_trace", _trace_test, True)] if detect_events else []
        return _EQUILIBRIUM_ENGINE.run(
            "fold", _fold_problem, np.asarray(seed, float), _equilibrium_point, tests,
            lambda z: z[2] > 1e-4 and z[3] > 1e-6 and z[1] > 0, direction)
    if kind == "hopf":
        tests = ([("bt_det", _det_test, True), ("gh_l1", _l1_test, False)]
                 if detect_events else [])
        return _EQUILIBRIUM_ENGINE.run(
            "hopf", _hopf_problem, np.asarray(seed, float), _equilibrium_point, tests,
            lambda z: z[2] > 1e-4 and z[3] > 1e-7, direction)
    raise ValueError(f"unknown curve kind {kind!r}")


# ---------------------------------------------------------------------------
# Fold-of-cycles (limit point of cycles) curve
# ---------------------------------------------------------------------------

# Integrator tolerances of the fold-of-cycles and homoclinic curves
_CYCLE_CURVE_SETTINGS = dynamics.IntegratorSettings(rel_tol=1e-11, abs_tol=1e-14)


def _lpc_problem():
    """Residual (g, g') of the return-map displacement g(r) = P(r) - r, with
    a forward-difference Jacobian in (r, k, F)."""
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
            return dynamics.return_map(a, rr, frame, _CYCLE_CURVE_SETTINGS)[0] - rr
        dr = 1e-6 * max(abs(r), 1e-3)
        g0 = g(r)
        gp = (g(r + dr) - g(r - dr)) / (2 * dr)
        return np.array([g0, gp])

    def problem(z):
        f = res(z)
        return f, lambda: _fd_jacobian(res, z, f, 1e-6)

    return problem


def lpc_bracket(k: float) -> tuple:
    """(F_below, F_two_cycles, F_hopf) bracketing the fold-of-cycles curve
    at k, below the Hopf curve: the census (n_scan 200) finds two cycles at
    F_two_cycles and not two at F_below.  The lower edge of the two-cycle
    band is stepped out from F_hopf - 2e-6 and then bisected 20 times;
    F_two_cycles lies halfway from F_hopf to the deepest two-cycle F found.

    Raises BracketNotFound when the band shows no lower edge within 3e-4
    below the Hopf curve, or when the census does not find two cycles at
    F_two_cycles (where F_hopf - 2e-6 already lies below the band, as at
    k = 0.03)."""
    Fh = float(hopf_F(k))

    def ncycles(F):
        try:
            return len(dynamics.limit_cycle_census(Params(k, F), n_scan=200))
        except NoReturn:
            return -1

    lo_off, hi_off = None, 1e-6
    off = 2e-6
    while off < 3e-4:
        if ncycles(Fh - off) != 2:
            lo_off = off
            break
        hi_off = off
        off *= 1.7
    if lo_off is None:
        raise BracketNotFound(f"no lower edge of the two-cycle band found at k={k}")
    for _ in range(20):
        mid = 0.5 * (lo_off + hi_off)
        if ncycles(Fh - mid) == 2:
            hi_off = mid
        else:
            lo_off = mid
    F_two = Fh - 0.5 * hi_off
    if ncycles(F_two) != 2:
        raise BracketNotFound(f"the census finds no two cycles at F={F_two} "
                              f"below the Hopf curve at k={k}")
    return Fh - lo_off, F_two, Fh


def lpc_seed_from_region3(a: Params) -> np.ndarray:
    """Seed (r, k, F) for the fold-of-cycles system from a two-cycle point."""
    cycles = dynamics.limit_cycle_census(a)
    if len(cycles) < 2:
        raise SeedInvalid(f"census found {len(cycles)} cycles at {a}; need 2")
    return np.array([0.5 * (cycles[0].radius + cycles[1].radius),
                     float(a.k), float(a.F)])


def lpc_curve(seed, *, max_points: int = 120, k_bounds: tuple = (5e-3, 9 / 256),
              direction: float = 1.0) -> CurveResult:
    """Continue the fold-of-cycles curve {return displacement = 0,
    radial derivative = 0} in (radius, k, F) from a region-3 seed;
    direction=+1 starts toward a larger radius."""
    engine = _Engine(ds0=2e-4, ds_max=2e-3, corrector_tol=5e-9,
                     max_points=max_points, seed_residual_max=0.05, rising=0)

    def make_point(z, t, ds):
        r, k, F = z
        return CurvePoint(params=Params(float(k), float(F)),
                          aux={"radius": float(r)},
                          tangent=tuple(float(x) for x in t),
                          arc_step=float(ds))

    return engine.run("lpc", _lpc_problem(), np.asarray(seed, float),
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
    w, vecs = np.linalg.eig(np.array(jacobian(ps, a), float))
    w = w.real
    iu, is_ = (0, 1) if w[0] >= w[1] else (1, 0)
    if not (w[iu] > 0 > w[is_]):
        raise SaddleMissing(f"eigenvalues {w} at {a} are not of saddle type")
    eu = vecs[:, iu].real
    es = vecs[:, is_].real
    return ps, w[iu], w[is_], eu / np.linalg.norm(eu), es / np.linalg.norm(es)


def separatrix_splitting(a: Params) -> float:
    """Signed gap between the saddle separatrices on dynamics.section_frame's
    ray, the Poincare section of the census and the fold of cycles.

    The unstable branch is launched 1e-7 along its eigenvector toward the
    focus side and integrated forward to the ray; the stable branch is
    integrated backward.  The difference of the hit radii vanishes exactly
    on a homoclinic loop and changes sign across it.
    """
    return _splitting_once(a, 1e-7)


def _splitting_once(a: Params, eps: float) -> float:
    # the saddle first: a point without one raises SaddleMissing, which
    # homoclinic_curve reads, before section_frame's DomainError
    ps, lu, ls, eu, es = _saddle_eigenframe(a)
    _, cu, cv, d0, d1, orient, _ = dynamics.section_frame(a)
    pu, pv = float(ps.u), float(ps.v)
    t_cap = min(5e6, 400.0 + 60.0 * abs(math.log(eps)) / min(lu, -ls))

    def hit(vec, time_sign):
        # each branch starts toward the focus side; launching along the ray
        # instead takes half again as many kernel calls per homoclinic_F
        e0, e1 = vec.tolist()
        toward = 1.0 if e0 * (cu - pu) + e1 * (cv - pv) >= 0 else -1.0
        want = orient if time_sign > 0 else -orient
        for sign_dir in (toward, -toward):
            status, hits = kernels.ray_crossings(
                pu + sign_dir * eps * e0, pv + sign_dir * eps * e1, a.k, a.F,
                cu, cv, d0, d1, want, 1, t_cap, _CYCLE_CURVE_SETTINGS.rel_tol,
                _CYCLE_CURVE_SETTINGS.abs_tol, 0.0, time_sign)
            if hits:
                return hits[0][1]
        return None

    s_u = hit(eu, 1.0)
    if s_u is None:
        raise SectionMiss(f"unstable separatrix never met the section at {a}")
    s_s = hit(es, -1.0)
    if s_s is None:
        raise SectionMiss(f"stable separatrix never met the section at {a}")
    return s_u - s_s


def homoclinic_F(k: float, *, f_tol: float = 1e-8) -> tuple:
    """Bisect the splitting gap in F at fixed k.  Returns (F, bracket_width).

    The search starts just above the Hopf curve (the newborn cycle side) and
    expands toward the upper fold branch, through the fractions 0.005-0.55
    of the Hopf-to-fold span, until the gap changes sign.
    """
    Fh = float(hopf_F(k))
    Fu = float(saddle_node_F(k)[0])
    span = Fu - Fh

    def gap(F):
        return separatrix_splitting(Params(k, F))

    lo = Fh + 1e-4 * span
    glo = gap(lo)
    hi = None
    prev, gprev = lo, glo
    for frac in (0.005, 0.02, 0.05, 0.1, 0.2, 0.35, 0.55):
        Fp = Fh + frac * span
        gp = gap(Fp)
        if (gprev < 0) != (gp < 0):
            lo, glo, hi = prev, gprev, Fp
            break
        prev, gprev = Fp, gp
    if hi is None:
        raise BracketNotFound(f"splitting gap has one sign over the scan at k={k}")
    lo, hi = bisect_sign(gap, lo, hi, glo, f_tol)
    return 0.5 * (lo + hi), hi - lo


def homoclinic_curve(k_values) -> CurveResult:
    """Homoclinic curve over a grid of k values by per-k bisection, each to
    an F bracket of 1e-8 (homoclinic_F's default).

    Bracket exhaustion at some k terminates the curve there (recorded in the
    result status, not fatal)."""
    pts = []
    status = "ok"
    for k in k_values:
        try:
            F, width = homoclinic_F(float(k))
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

def newton_bt(start: tuple = (0.05, 0.05)) -> tuple:
    """Newton on {trace = 0, det = 0} over the focus-branch graph.

    The nontrivial equilibrium set is the graph (u, v) -> (k, F) =
    (u v (1-u-v)/(1-u), u v^2/(1-u)), on which det = u v^3 (1-2u)/(1-u).
    Newton runs on {trace, det} with the determinant deflated by its
    positive on-branch factor u v^3/(1-u): that removes the spurious
    boundary continuum at v = 0 and leaves the double-zero point as the
    unique interior root, with a nonsingular Jacobian (quadratic
    convergence), to a residual below 1e-12 within 60 steps.  Returns
    (u, v, k, F)."""
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
    for _ in range(60):
        if np.max(np.abs(g)) < 1e-12:
            break
        dz = np.linalg.solve(_bt_jacobian(*z), -g)
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


def _bt_jacobian(u, v):
    """Jacobian of newton_bt's residual (k(u, v) - v^2, 1 - 2u) in (u, v)."""
    k_u = v * ((1 - u) ** 2 - v) / (1 - u) ** 2
    return np.array([[k_u, u * (1 - u - 2 * v) / (1 - u) - 2 * v], [-2.0, 0.0]])
