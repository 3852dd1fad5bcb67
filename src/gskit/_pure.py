"""Pure-Python integration kernels (reference implementation).

Dormand-Prince 5(4) with FSAL, Hairer's quartic dense output, a first-quadrant
step guard, ray-crossing event location and variational (monodromy)
propagation, specialized to the Gray-Scott kinetics and its compactification
chart at v = +inf.  One step rule, _Controller, picks every step of
integrate, ray_crossings and monodromy; max_steps counts accepted steps.
Steps are not capped in size: the error control alone sets them.  The
first-quadrant guard is on exactly when the plane field runs forward in
time; ray_crossings and monodromy integrate the plane field, the latter
forward only, as does integrate.  probe_cell is the whole parameter-plane
map cell in one call: the section ray at (k, F) in closed form, one or two
ray_crossings probes from it, and the decision tree that reads their
radii, returning a label code (below).  solve is the Newton step of the
continuation engine, an LU solve rounded as OpenBLAS's dgesv rounds it.
gskit/_kernel.c is their C twin, statement for statement, and returns the
same bits; gskit.kernels selects these only when that twin could not be
built or loaded (or GSKIT_BACKEND=pure), and calls them with arguments
already converted to float, int and bool, so the loops below run in
Python float arithmetic.  gskit.kernels has checked that the field id is
FIELD_PLANE or FIELD_CHART_V, and its callers pass rtol, atol > 0, so no
error scale is zero.  Python floats raise OverflowError on
``**`` where C's pow returns inf; every error norm maps it to inf, so an
overflowing trial step is rejected just the same, and the chart fields map
it to the signed inf of C.  A change here needs its mirror in _kernel.c:
the backend-parity tests compare the two by equality.

Shared status codes:

- 0 ``OK``: reached t_end (integrate), or found the requested crossings
  (ray_crossings);
- 1 ``MAX_STEPS``: max_steps accepted steps (STEP_LIMIT for ray_crossings
  and monodromy) were taken, or for ray_crossings t_max was reached;
- 2 ``UNDERFLOW``: the step size fell below 1e-15 * max(1, |t|), or is nan
  (a first-step estimate from a non-finite field);
- 4 ``BOX_EXIT``: integrate with box > 0: the state left the stop box
  {x <= box, y <= box}; ray_crossings with escape_sum > 0: the state left
  the region {x >= 0, x + y <= escape_sum};
- 8 ``CAPTURED``: ray_crossings only; the state entered a forward-invariant
  box around the trivial node (1, 0) that the ray misses;
- 16 ``SETTLED``: ray_crossings only; the newest three section radii
  settled within SETTLE_TOL.

probe_cell's label codes (CELL_LABELS[code] is the map label):

- 0 ``CELL_OUTSIDE``: no pair of nontrivial equilibria;
- 1-5: regions 1-5;
- 6 ``CELL_X``: the probes decided no region.
"""
from __future__ import annotations

import math

BACKEND_NAME = "pure"

OK = 0
MAX_STEPS = 1
UNDERFLOW = 2
BOX_EXIT = 4
CAPTURED = 8
SETTLED = 16

# ray_crossings keeps only crossings farther than this along its ray
S_MIN = 1e-12
# ray_crossings and monodromy stop with MAX_STEPS after this many steps
STEP_LIMIT = 20_000_000

# ray_crossings ends with SETTLED once three successive section radii agree to
# this relative tolerance, or the newest falls below it.
SETTLE_TOL = 1e-7

# Node capture (ray_crossings): half-width in w = 1 - u of the invariant box
# around (1, 0), and the share by which the box is grown for the ray test and
# shrunk for the capture test.
_CAPTURE_EPS = 0.5
_CAPTURE_MARGIN = 0.1

# Dormand-Prince 5(4) tableau
_A21 = 0.2
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
_A61, _A62, _A63, _A64, _A65 = (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0,
                                49.0 / 176.0, -5103.0 / 18656.0)
_B1, _B3, _B4, _B5, _B6 = 35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0
_E1, _E3, _E4, _E5, _E6, _E7 = (71.0 / 57600.0, -71.0 / 16695.0, 71.0 / 1920.0,
                                -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0)
# dense-output weights (Hairer, Norsett, Wanner DOPRI5)
_D1 = -12715105075.0 / 11282082432.0
_D3 = 87487479700.0 / 32700410799.0
_D4 = -10690763975.0 / 1880347072.0
_D5 = 701980252875.0 / 199316789632.0
_D6 = -1453857185.0 / 822651844.0
_D7 = 69997945.0 / 29380423.0

FIELD_PLANE = 0
FIELD_CHART_V = 2   # u = q/w, v = 1/w; state (q, w), time rescaled by w^2


def field_eval(fid: int, sgn: float, x: float, y: float, k: float, F: float):
    if fid == FIELD_PLANE:
        uvv = x * y * y
        return sgn * (F * (1.0 - x) - uvv), sgn * (uvv - (F + k) * y)
    q, w = x, y
    return (sgn * (k * q * w * w - q * (1.0 + q) + F * _pow(w, 3)),
            sgn * ((F + k) * _pow(w, 3) - q * w))


def _pow(w, n):
    """w ** n for an integer n > 0; where ** raises OverflowError, the
    signed inf that C's pow returns."""
    try:
        return w ** n
    except OverflowError:
        return -math.inf if w < 0 and n % 2 else math.inf


def _rms(a, b):
    """sqrt((a^2 + b^2) / 2), inf where a square overflows."""
    try:
        return math.sqrt(0.5 * (a ** 2 + b ** 2))
    except OverflowError:
        return math.inf


class _Controller:
    """The DP54 step controller (Hairer, Norsett & Wanner, Solving ODEs I,
    section II.4).  A subclass's _trial(h) runs the stages and error norm
    of one step, asks _judge() whether it is accepted, and if so makes it
    the current state; `steps` counts accepted steps."""

    __slots__ = ("rtol", "atol", "fixed_step", "t", "h", "steps", "rejected")

    def _start(self, x0, y0, fx, fy, rtol, atol, fixed_step):
        """Start at t = 0 from (x0, y0), where the field is (fx, fy)."""
        self.rtol, self.atol = rtol, atol
        self.fixed_step = fixed_step
        self.t, self.steps = 0.0, 0
        if fixed_step > 0.0:
            self.h = fixed_step
        else:
            sc_x = atol + rtol * abs(x0)
            sc_y = atol + rtol * abs(y0)
            d0 = _rms(x0 / sc_x, y0 / sc_y)
            d1 = _rms(fx / sc_x, fy / sc_y)
            self.h = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1

    def advance(self, t_limit: float) -> int:
        """Take one accepted step, not passing t_limit.  Returns status."""
        self.rejected = False
        while True:
            h = self.h
            if self.t + h >= t_limit:
                h = t_limit - self.t
            # `not >` also stops a nan step, which every trial would reject
            if not h > 1e-15 * max(1.0, abs(self.t)):
                return UNDERFLOW
            if self._trial(h):
                self.t += h
                self.steps += 1
                return OK

    def _judge(self, h, err, guard_bad):
        """True when the step of size h is accepted; sets the next size."""
        if self.fixed_step > 0.0:
            return True
        if err <= 1.0 and not guard_bad:
            fac = 0.9 * err ** -0.2 if err > 1e-30 else 5.0
            if self.rejected:
                fac = min(fac, 1.0)
            self.h = h * min(5.0, max(0.2, fac))
            return True
        self.rejected = True
        fac = 0.9 * err ** -0.2 if err > 1e-30 else 0.5
        if guard_bad:
            fac = min(fac, 0.5)
        self.h = h * min(0.9, max(0.1, fac))
        return False


class _Stepper(_Controller):
    """One DP54 integration of a 2-D field; exposes dense output for the
    last step."""

    __slots__ = ("fid", "sgn", "k", "F", "guard", "x", "y", "k1x", "k1y",
                 "hold", "told", "r1x", "r2x", "r3x", "r4x", "r5x", "r1y",
                 "r2y", "r3y", "r4y", "r5y")

    def __init__(self, fid, sgn, x0, y0, k, F, rtol, atol, fixed_step=0.0):
        self.fid, self.sgn, self.k, self.F = fid, sgn, k, F
        # the first-quadrant guard: the plane field, forward in time
        self.guard = fid == FIELD_PLANE and sgn > 0
        self.x, self.y = x0, y0
        self.hold = self.told = 0.0
        self.k1x, self.k1y = field_eval(fid, sgn, x0, y0, k, F)
        self._start(x0, y0, self.k1x, self.k1y, rtol, atol, fixed_step)

    def _trial(self, h):
        """One step of size h, 2-component error norm; True when accepted."""
        fid, sgn, k, F = self.fid, self.sgn, self.k, self.F
        rtol, atol = self.rtol, self.atol
        x, y, k1x, k1y = self.x, self.y, self.k1x, self.k1y
        k2x, k2y = field_eval(fid, sgn, x + h * _A21 * k1x, y + h * _A21 * k1y, k, F)
        k3x, k3y = field_eval(fid, sgn, x + h * (_A31 * k1x + _A32 * k2x),
                              y + h * (_A31 * k1y + _A32 * k2y), k, F)
        k4x, k4y = field_eval(fid, sgn, x + h * (_A41 * k1x + _A42 * k2x + _A43 * k3x),
                              y + h * (_A41 * k1y + _A42 * k2y + _A43 * k3y), k, F)
        k5x, k5y = field_eval(fid, sgn,
                              x + h * (_A51 * k1x + _A52 * k2x + _A53 * k3x + _A54 * k4x),
                              y + h * (_A51 * k1y + _A52 * k2y + _A53 * k3y + _A54 * k4y),
                              k, F)
        k6x, k6y = field_eval(fid, sgn,
                              x + h * (_A61 * k1x + _A62 * k2x + _A63 * k3x
                                       + _A64 * k4x + _A65 * k5x),
                              y + h * (_A61 * k1y + _A62 * k2y + _A63 * k3y
                                       + _A64 * k4y + _A65 * k5y), k, F)
        xn = x + h * (_B1 * k1x + _B3 * k3x + _B4 * k4x + _B5 * k5x + _B6 * k6x)
        yn = y + h * (_B1 * k1y + _B3 * k3y + _B4 * k4y + _B5 * k5y + _B6 * k6y)
        k7x, k7y = field_eval(fid, sgn, xn, yn, k, F)
        if self.fixed_step > 0.0:
            err = 0.0
        else:
            ex = h * (_E1 * k1x + _E3 * k3x + _E4 * k4x + _E5 * k5x + _E6 * k6x + _E7 * k7x)
            ey = h * (_E1 * k1y + _E3 * k3y + _E4 * k4y + _E5 * k5y + _E6 * k6y + _E7 * k7y)
            sx = atol + rtol * max(abs(x), abs(xn))
            sy = atol + rtol * max(abs(y), abs(yn))
            err = _rms(ex / sx, ey / sy)
        guard_bad = self.guard and (xn < -atol or yn < -atol)
        if not self._judge(h, err, guard_bad):
            return False
        if self.guard:
            # snap within-tolerance undershoot onto the invariant axes
            snapped = False
            if -atol <= xn < 0.0:
                xn, snapped = 0.0, True
            if -atol <= yn < 0.0:
                yn, snapped = 0.0, True
            if snapped:
                k7x, k7y = field_eval(fid, sgn, xn, yn, k, F)
        # dense-output coefficients for this step
        dx = xn - x
        bsx = h * k1x - dx
        self.r1x, self.r2x, self.r3x = x, dx, bsx
        self.r4x = dx - h * k7x - bsx
        self.r5x = h * (_D1 * k1x + _D3 * k3x + _D4 * k4x + _D5 * k5x
                        + _D6 * k6x + _D7 * k7x)
        dy = yn - y
        bsy = h * k1y - dy
        self.r1y, self.r2y, self.r3y = y, dy, bsy
        self.r4y = dy - h * k7y - bsy
        self.r5y = h * (_D1 * k1y + _D3 * k3y + _D4 * k4y + _D5 * k5y
                        + _D6 * k6y + _D7 * k7y)
        self.told = self.t
        self.hold = h
        self.x, self.y = xn, yn
        self.k1x, self.k1y = k7x, k7y
        return True

    def dense(self, theta: float):
        """State at told + theta*hold inside the last accepted step."""
        th1 = 1.0 - theta
        x = self.r1x + theta * (self.r2x + th1 * (self.r3x + theta * (self.r4x + th1 * self.r5x)))
        y = self.r1y + theta * (self.r2y + th1 * (self.r3y + theta * (self.r4y + th1 * self.r5y)))
        return x, y


def integrate(fid, x0, y0, k, F, t_end, rtol, atol, max_steps,
              record, fixed_step=0.0, box=0.0):
    """Integrate forward to t_end (> 0).

    Returns (status, t_reached, x, y, ts, xs, ys); the sample lists are
    populated only when record is true.
    """
    st = _Stepper(fid, 1.0, x0, y0, k, F, rtol, atol, fixed_step)
    ts, xs, ys = ([0.0], [x0], [y0]) if record else ([], [], [])
    while st.t < t_end:
        status = st.advance(t_end)
        if status != OK:
            return status, st.t, st.x, st.y, ts, xs, ys
        if record:
            ts.append(st.t)
            xs.append(st.x)
            ys.append(st.y)
        if box > 0.0 and (st.x > box or st.y > box):
            return BOX_EXIT, st.t, st.x, st.y, ts, xs, ys
        if st.steps >= max_steps:
            return MAX_STEPS, st.t, st.x, st.y, ts, xs, ys
    return OK, st.t, st.x, st.y, ts, xs, ys


def _node_box(k, F):
    """Half-widths (eps, delta) of the box B = {|1-u| <= eps, 0 <= v <= delta}
    around the trivial node; needs F > 0 and F + k > 0.

    With w = 1 - u the plane field reads v' = v (u v - F - k) and
    w' = u v^2 - F w.  On the face v = delta, u v <= (1 + eps) delta < F + k
    gives v' < 0; on w = eps, u v^2 <= (1 - eps) delta^2 < F eps gives
    w' < 0; on w = -eps, w' = u v^2 + F eps > 0; v = 0 is invariant.  So B is
    forward-invariant, and delta takes 0.9 of the largest admissible value.
    """
    eps = _CAPTURE_EPS
    delta = 0.9 * min((F + k) / (1.0 + eps), math.sqrt(F * eps / (1.0 - eps)))
    return eps, delta


def _ray_misses_box(cx, cy, dx, dy, xlo, xhi, ylo, yhi):
    """Slab test: True when {(cx,cy) + s (dx,dy) : s > S_MIN} misses the box."""
    lo, hi = S_MIN, math.inf
    for c, d, blo, bhi in ((cx, dx, xlo, xhi), (cy, dy, ylo, yhi)):
        if d == 0.0:
            if not blo <= c <= bhi:
                return True
            continue
        s1, s2 = (blo - c) / d, (bhi - c) / d
        lo = max(lo, min(s1, s2))
        hi = min(hi, max(s1, s2))
        if lo > hi:
            return True
    return False


def ray_crossings(x0, y0, k, F, cx, cy, dx, dy, orient, max_crossings,
                  t_max, rtol, atol, t_min, time_sign, escape_sum=0.0):
    """Crossings of the ray {(cx,cy) + s (dx,dy) : s > S_MIN}.

    Integrates the plane field (reversed when time_sign=-1) and locates sign
    changes of g = dx*(y-cy) - dy*(x-cx) with the dense interpolant.  orient
    keeps the crossings of one direction: +1 where g increases, -1 where it
    decreases.  Returns (status, hits) with hits a list of (t, s, x, y);
    status OK means max_crossings were found.

    Three early stops end the integration once the outcome is decided:

    - Escape region (escape_sum > 0): BOX_EXIT once the state leaves
      R = {x >= 0, x + y <= escape_sum} after a step.  It serves reversed
      time with F, k >= 0 and v >= 0 (v = 0 is invariant), where the
      complement of R is invariant: u < 0 gives u' = u v^2 + F (u - 1) < 0,
      so u stays negative; and S = u + v obeys S' = F (S - 1) + k v >=
      F (S - 1), so once S > escape_sum >= 1, S never falls again.  S is
      linear along the ray and u >= 0 on its first-quadrant segment
      s <= r_max, so with escape_sum = max(1, S(c), S(c + r_max d)) R holds
      that segment, and after leaving R the orbit meets the ray only beyond
      r_max: the hits with s <= r_max are those of a run without the stop,
      but crossings with s > r_max that such a run records after the exit
      are dropped.  A list that ended on one of those would read as
      'escape' in _attractor_kind (its last radius exceeds
      0.9 r_max); the truncated list is read from its own last radii
      instead.  The 200x200 criterion-10 map keeps every label with this
      stop.  A stop on S alone is not enough: the reversed blow-up runs
      off with u -> -inf and v -> +inf while u + v stays bounded.
    - Node capture (time_sign > 0, automatic): CAPTURED once the state lies
      in the forward-invariant box B around (1, 0) of _node_box, shrunk by
      _CAPTURE_MARGIN, provided the ray misses B grown by the same share.
      The orbit then stays in B and never meets the ray again, so the hits
      are exactly those of a run without the stop.
    - Settled sequence (always on): SETTLED once the newest three radii
      r0, r1, r2 satisfy r2 < SETTLE_TOL, or |r2 - r1| < SETTLE_TOL *
      max(1, r2) and |r1 - r0| < SETTLE_TOL * max(1, r1).  The test runs on
      every new hit before the max_crossings test, so SETTLED ends the list
      at its first settled triple and any other status means no triple of
      the list settled; the hits are a prefix of those without the stop.
      Callers that ask for fewer than three crossings never see it.
    """
    st = _Stepper(FIELD_PLANE, time_sign, x0, y0, k, F, rtol, atol)
    hits = []
    capture = False
    if time_sign > 0 and F > 0.0 and F + k > 0.0:
        eps, delta = _node_box(k, F)
        grow = 1.0 + _CAPTURE_MARGIN
        capture = _ray_misses_box(cx, cy, dx, dy,
                                  1.0 - grow * eps, 1.0 + grow * eps,
                                  -_CAPTURE_MARGIN * delta, grow * delta)
        eps_in = (1.0 - _CAPTURE_MARGIN) * eps
        delta_in = (1.0 - _CAPTURE_MARGIN) * delta

    def g_of(x, y):
        return dx * (y - cy) - dy * (x - cx)

    g_prev = g_of(x0, y0)
    while st.t < t_max:
        status = st.advance(t_max)
        if status != OK:
            return status, hits
        g_now = g_of(st.x, st.y)
        if (g_prev < 0.0 <= g_now) or (g_prev > 0.0 >= g_now) or g_prev == 0.0:
            # subdivide the step; the interpolant may hold several roots
            nsub = 16
            th_prev = 0.0
            gp = g_prev
            for i in range(1, nsub + 1):
                th = i / nsub
                xx, yy = st.dense(th)
                gn = g_of(xx, yy)
                if (gp < 0.0 <= gn) or (gp > 0.0 >= gn):
                    lo, hi, glo = th_prev, th, gp
                    for _ in range(60):
                        mid = 0.5 * (lo + hi)
                        xm, ym = st.dense(mid)
                        gm = g_of(xm, ym)
                        if (glo < 0.0) == (gm < 0.0):
                            lo, glo = mid, gm
                        else:
                            hi = mid
                    thr = 0.5 * (lo + hi)
                    xh, yh = st.dense(thr)
                    th_t = st.told + thr * st.hold
                    s = (xh - cx) * dx + (yh - cy) * dy
                    fx, fy = field_eval(FIELD_PLANE, st.sgn, xh, yh, k, F)
                    gdot = dx * fy - dy * fx
                    if (s > S_MIN and th_t >= t_min
                            and (gdot > 0) == (orient > 0)):
                        hits.append((th_t, s, xh, yh))
                        if len(hits) >= 3:
                            r0, r1 = hits[-3][1], hits[-2][1]
                            if s < SETTLE_TOL or (
                                    abs(s - r1) < SETTLE_TOL * max(1.0, s)
                                    and abs(r1 - r0) < SETTLE_TOL * max(1.0, r1)):
                                return SETTLED, hits
                        if len(hits) >= max_crossings:
                            return OK, hits
                th_prev, gp = th, gn
        g_prev = g_now
        if escape_sum > 0.0 and (st.x < 0.0 or st.x + st.y > escape_sum):
            return BOX_EXIT, hits
        if capture and abs(1.0 - st.x) <= eps_in and 0.0 <= st.y <= delta_in:
            return CAPTURED, hits
        if st.steps >= STEP_LIMIT:
            return MAX_STEPS, hits
    return MAX_STEPS, hits


class _Variational(_Controller):
    """One DP54 integration of the plane field and its 2x2 variational
    matrix, s = (x, y, m11, m12, m21, m22), with the error norm over all
    six: at a rest point the state's error estimate is 0."""

    __slots__ = ("k", "F", "s", "f1")

    def __init__(self, x0, y0, k, F, rtol, atol):
        self.k, self.F = k, F
        self.s = [x0, y0, 1.0, 0.0, 0.0, 1.0]
        self.f1 = self._rhs(self.s)
        self._start(x0, y0, self.f1[0], self.f1[1], rtol, atol, 0.0)

    def _rhs(self, s):
        k, F, u, v = self.k, self.F, s[0], s[1]
        # the Jacobian of the plane field
        j11, j12 = -(F + v * v), -2.0 * u * v
        j21, j22 = v * v, 2.0 * u * v - (F + k)
        fu, fv = field_eval(FIELD_PLANE, 1.0, u, v, k, F)
        return [fu, fv,
                j11 * s[2] + j12 * s[4], j11 * s[3] + j12 * s[5],
                j21 * s[2] + j22 * s[4], j21 * s[3] + j22 * s[5]]

    def _trial(self, h):
        """One step of size h, 6-component error norm; True when accepted."""
        rhs, s, k1, six = self._rhs, self.s, self.f1, range(6)
        k2 = rhs([s[i] + h * (_A21 * k1[i]) for i in six])
        k3 = rhs([s[i] + h * (_A31 * k1[i] + _A32 * k2[i]) for i in six])
        k4 = rhs([s[i] + h * (_A41 * k1[i] + _A42 * k2[i] + _A43 * k3[i]) for i in six])
        k5 = rhs([s[i] + h * (_A51 * k1[i] + _A52 * k2[i] + _A53 * k3[i] + _A54 * k4[i])
                  for i in six])
        k6 = rhs([s[i] + h * (_A61 * k1[i] + _A62 * k2[i] + _A63 * k3[i] + _A64 * k4[i]
                              + _A65 * k5[i]) for i in six])
        sn = [s[i] + h * (_B1 * k1[i] + _B3 * k3[i] + _B4 * k4[i] + _B5 * k5[i]
                          + _B6 * k6[i]) for i in six]
        k7 = rhs(sn)
        err = 0.0
        try:
            for i in six:
                ei = h * (_E1 * k1[i] + _E3 * k3[i] + _E4 * k4[i] + _E5 * k5[i]
                          + _E6 * k6[i] + _E7 * k7[i])
                err += (ei / (self.atol + self.rtol * max(abs(s[i]), abs(sn[i])))) ** 2
            err = math.sqrt(err / 6.0)
        except OverflowError:
            err = math.inf
        if not self._judge(h, err, False):
            return False
        self.s, self.f1 = sn, k7
        return True


def monodromy(x0, y0, k, F, t_total, rtol, atol):
    """Propagate the state and the 2x2 variational matrix forward over
    [0, t_total].

    Returns (status, x, y, m11, m12, m21, m22); the matrix maps initial
    displacements to final displacements (monodromy when the orbit is
    periodic with period t_total).
    """
    st = _Variational(x0, y0, k, F, rtol, atol)
    status = OK
    while status == OK and st.t < t_total:
        status = st.advance(t_total)
        if status == OK and st.steps >= STEP_LIMIT:
            status = MAX_STEPS
    return (status, *st.s)


# ---------------------------------------------------------------------------
# The map cell
# ---------------------------------------------------------------------------

# probe_cell's label codes (module docstring); regions 1-5 are those of
# gskit.dynamics.REGION_SIGNATURES
CELL_OUTSIDE = 0
CELL_X = 6
CELL_LABELS = ("outside", "1", "2", "3", "4", "5", "x")


def _closed_form_direction(j11, j12, j21, j22):
    """The ray direction (d0, d1) = (-w1, w0) / |w| from the leading
    eigenvector w of J in closed form with LAPACK's xGEEV normalization
    (unit norm, largest component real), whose phase sets the real part
    used.  With disc = (j11 - j22)^2 + 4 j12 j21: for disc >= 0, w = (j12,
    lam - j11) with lam = (j11 + j22 + sqrt(disc)) / 2; otherwise the
    eigenvector (j12, re + i s), re = (j22 - j11) / 2, s = sqrt(-disc) / 2,
    has its largest component made real, whose real part is w = (j12, re)
    when j12^2 >= m2 = re^2 + s^2 and w = (j12 re, m2) else.  j12 = -2uv is
    nonzero at the focus-type point, so w is too.  |w| is sqrt(w0^2 +
    w1^2), one formula in both backends (math.hypot is CPython's own and
    not C's hypot).  The direction is numpy eig's (that of
    gskit.dynamics.section_frame) up to round-off, which grows near a
    double eigenvalue (disc = 0) with the eigenvector's condition number."""
    disc = (j11 - j22) * (j11 - j22) + 4 * j12 * j21
    if disc >= 0:
        w0, w1 = j12, (j11 + j22 + math.sqrt(disc)) / 2 - j11
    else:
        re = (j22 - j11) / 2
        m2 = re * re - disc / 4
        w0, w1 = (j12, re) if j12 * j12 >= m2 else (j12 * re, m2)
    n = math.sqrt(w0 * w0 + w1 * w1)
    return -w1 / n, w0 / n


def _probe_frame(k, F):
    """The section ray of the map cell at (k, F): None when there is no pair
    of nontrivial equilibria (Delta = 1 - 4 F gamma^2 <= 0, gamma = (F + k)
    / F), else (unstable, cu, cv, d0, d1, orient, r_max).  The focus-type
    point (cu, cv) and the saddle (su, sv) are computed as
    gskit.equilibria computes them; unstable: the trace of the Jacobian J
    at the focus-type point is positive; (d0, d1) is
    _closed_form_direction of J, turned away from the saddle; orient: the
    sign of d x f just off the ray; r_max: where the ray leaves the
    quadrant, at most 2.5.  J and the field f are written in the operations
    and order of gskit.core's uv_jacobian and _field.  This is
    gskit.dynamics.section_frame's ray with the closed-form eigenvector in
    place of numpy's eig."""
    g = (F + k) / F
    delta = 1 - 4 * F * g * g
    if delta <= 0:
        return None
    s = math.sqrt(delta)
    cu, cv = (1 - s) / 2, (1 + s) / (2 * g)
    su, sv = (1 + s) / 2, (1 - s) / (2 * g)
    j11, j12 = -(F + cv * cv), -2 * cu * cv
    j21, j22 = cv * cv, -(F + k) + 2 * cu * cv
    d0, d1 = _closed_form_direction(j11, j12, j21, j22)
    # point away from the saddle
    if d0 * (cu - su) + d1 * (cv - sv) < 0:
        d0, d1 = -d0, -d1
    # rotation direction of the flow just off the section
    u, v = cu + 1e-6 * d0, cv + 1e-6 * d1
    uvv = u * v * v
    f0, f1 = -uvv + F * (1 - u), uvv - (F + k) * v
    orient = 1 if (d0 * f1 - d1 * f0) > 0 else -1
    # cap the ray at the quadrant boundary / sanity window
    r_max = 2.5
    if d0 < 0:
        r_max = min(r_max, -cu / d0)
    if d1 < 0:
        r_max = min(r_max, -cv / d1)
    return j11 + j22 > 0, cu, cv, d0, d1, orient, r_max


def _escape_sum(frame):
    """S_ray = max(1, S(c), S(c + r_max d)), S = u + v, of a _probe_frame
    tuple: at least 1 and the largest u + v on the ray's segment s <= r_max.
    A reversed orbit that leaves {u >= 0, u + v <= S_ray} never meets that
    segment again (ray_crossings' escape region)."""
    _, cu, cv, d0, d1, _, r_max = frame
    return max(1.0, cu + cv, (cu + r_max * d0) + (cv + r_max * d1))


def _section_radii(k, F, r0, frame, time_sign):
    """(status, radii): the successive section radii, at most 400, of the
    orbit through radius r0 on the ray of the _probe_frame tuple frame at
    (k, F), forward or (time_sign < 0) reversed in time, for at most 2e5
    time units at rel/abs tolerances 1e-8/1e-11.

    The list ends early once _attractor_kind can decide it: at the first
    triple that settles within SETTLE_TOL (status SETTLED), when a forward
    orbit is captured by the trivial node, or when a reversed orbit leaves
    {u >= 0, u + v <= S_ray}, S_ray = _escape_sum(frame), after which it
    never meets the ray within r_max again (derivations in ray_crossings)."""
    _, cu, cv, d0, d1, orient, _ = frame
    escape_sum = _escape_sum(frame) if time_sign < 0 else 0.0
    status, hits = ray_crossings(
        cu + r0 * d0, cv + r0 * d1, k, F, cu, cv, d0, d1,
        orient if time_sign > 0 else -orient, 400, 2e5, 1e-8, 1e-11, 1e-9,
        time_sign, escape_sum)
    return status, [h[1] for h in hits]


def _attractor_kind(radii, r_cap, settled):
    """Classify a radius sequence: converged to a cycle, fell into the
    focus, or left the rotation region: ('cycle', r), ('focus', 0.0) or
    ('escape', r).  settled says the kernel ended the sequence at its first
    triple settled within SETTLE_TOL (status SETTLED); otherwise no triple
    of it settled."""
    if settled:
        r = radii[-1]
        return ("focus", 0.0) if r < SETTLE_TOL else ("cycle", r)
    if len(radii) < 3:
        return "escape", 0.0
    tail = radii[-1]
    if tail > 0.9 * r_cap:
        return "escape", tail
    # drifting slowly: treat a contracting tail as a cycle estimate
    if abs(radii[-1] - radii[-2]) < 1e-5 * max(1.0, radii[-1]):
        return "cycle", radii[-1]
    if radii[-1] < 1e-6:
        return "focus", 0.0
    return "escape", tail


def probe_cell(k, F):
    """Label code of the map cell at positive floats k and F (CELL_OUTSIDE,
    1-5 or CELL_X), from one or two attractor probes on the ray of
    _probe_frame in place of the full census: forward from the focus side
    when the focus-type point is unstable, then, after a cycle, backward
    from just outside it; backward from the focus side when it is stable.
    Each probe follows at most 400 section crossings or 2e5 time units.

    unstable focus: escape -> 1, cycle and a cycle backward -> 3, cycle
    and no cycle backward -> 5; stable focus: cycle backward -> 2, escape
    backward -> 4; any other outcome -> CELL_X."""
    frame = _probe_frame(k, F)
    if frame is None:
        return CELL_OUTSIDE
    unstable, _, _, _, _, _, r_max = frame

    def probe(r0, time_sign):
        status, radii = _section_radii(k, F, r0, frame, time_sign)
        return _attractor_kind(radii, r_max, status == SETTLED)

    scale = max(1e-4, 0.02 * r_max)
    if unstable:
        kind, r_star = probe(scale, 1.0)
        if kind == "escape":
            return 1
        if kind == "cycle":
            kind2, _ = probe(min(r_star * 1.25, r_max * 0.9), -1.0)
            return 3 if kind2 == "cycle" else 5
        return CELL_X
    kind, _ = probe(scale, -1.0)
    if kind == "cycle":
        return 2
    if kind == "escape":
        return 4
    return CELL_X


# ---------------------------------------------------------------------------
# solve: the Newton step of gskit.continuation's pseudo-arclength engine
# ---------------------------------------------------------------------------

_SPLIT = 134217729.0    # 2**27 + 1, Veltkamp's splitting constant


def _fms(c, a, b):
    """c - a*b rounded once, as C's fma(-a, b, c): Dekker's exact product
    p + e of a and b, summed with c by the correctly rounded fsum.  Exact
    while |a|, |b| < 2**995 and no partial product underflows."""
    p = a * b
    x = _SPLIT * a
    ah = x - (x - a)
    x = _SPLIT * b
    bh = x - (x - b)
    al = a - ah
    bl = b - bh
    return math.fsum((c, -p, p - ah * bh - ah * bl - al * bh - al * bl))


def solve(m, y):
    """x with M x = y, or None at a zero pivot or when the factors or x are
    not finite.  M is n x n, its rows flattened into m; m and y are
    overwritten, with the factors and with x.

    LU with partial pivoting in the order and rounding of OpenBLAS's dgesv
    for one right-hand side, which np.linalg.solve calls: column j is
    finished left-looking, each entry less the dot product of its row's
    part of L with the column above it, summed in fused multiply-adds;
    the pivot is the first entry of largest magnitude, and the column
    below it is scaled by the pivot's reciprocal; the substitutions update
    in fused multiply-adds and divide by the diagonal.  A pivot swaps whole
    rows, which gives each later column the swaps LAPACK applies to it.
    Where OpenBLAS's kernels fuse (x86-64 with FMA), x has the bits of
    np.linalg.solve, with which the engine's pinned curves were recorded."""
    n = len(y)
    try:
        for j in range(n):
            for r in range(1, n):
                kmax = min(r, j)
                if kmax:
                    s = m[r * n] * m[j]
                    for k in range(1, kmax):
                        s = _fms(s, -m[r * n + k], m[k * n + j])
                    m[r * n + j] -= s
            p = j
            for r in range(j + 1, n):
                if abs(m[r * n + j]) > abs(m[p * n + j]):
                    p = r
            if m[p * n + j] == 0:
                return None
            if p != j:
                rj, rp = slice(j * n, j * n + n), slice(p * n, p * n + n)
                m[rj], m[rp] = m[rp], m[rj]
                y[j], y[p] = y[p], y[j]
            q = 1.0 / m[j * n + j]
            for r in range(j + 1, n):
                m[r * n + j] *= q
        for i in range(n):
            for k in range(i + 1, n):
                y[k] = _fms(y[k], y[i], m[k * n + i])
        for i in range(n - 1, -1, -1):
            y[i] /= m[i * n + i]
            for k in range(i):
                y[k] = _fms(y[k], y[i], m[k * n + i])
    except (OverflowError, ValueError):     # fsum met inf - inf or overflowed
        return None
    if not (all(map(math.isfinite, m)) and all(map(math.isfinite, y))):
        return None
    return list(y)
