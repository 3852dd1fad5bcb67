# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled integration kernels: the hot inner loops of the toolkit.

Mirrors gskit._pure exactly (Dormand-Prince 5(4) with FSAL, dense output,
quadrant guard, ray-crossing location with its three early stops,
variational propagation); see that module for the reference semantics and
documentation.

Status codes: 0 OK, 1 MAX_STEPS, 2 UNDERFLOW, 4 BOX_EXIT, 8 CAPTURED
(ray_crossings only: inside the invariant box around the trivial node),
16 SETTLED (ray_crossings only: three section radii agree within SETTLE_TOL).
"""
from libc.math cimport sqrt, fabs, fmin, fmax, INFINITY

BACKEND_NAME = "compiled"

OK = 0
MAX_STEPS = 1
UNDERFLOW = 2
BOX_EXIT = 4
CAPTURED = 8
SETTLED = 16

FIELD_PLANE = 0
FIELD_CHART_U = 1
FIELD_CHART_V = 2

cdef double A21 = 0.2
cdef double A31 = 3.0/40.0, A32 = 9.0/40.0
cdef double A41 = 44.0/45.0, A42 = -56.0/15.0, A43 = 32.0/9.0
cdef double A51 = 19372.0/6561.0, A52 = -25360.0/2187.0, A53 = 64448.0/6561.0, A54 = -212.0/729.0
cdef double A61 = 9017.0/3168.0, A62 = -355.0/33.0, A63 = 46732.0/5247.0, A64 = 49.0/176.0, A65 = -5103.0/18656.0
cdef double B1 = 35.0/384.0, B3 = 500.0/1113.0, B4 = 125.0/192.0, B5 = -2187.0/6784.0, B6 = 11.0/84.0
cdef double E1 = 71.0/57600.0, E3 = -71.0/16695.0, E4 = 71.0/1920.0, E5 = -17253.0/339200.0, E6 = 22.0/525.0, E7 = -1.0/40.0
cdef double D1 = -12715105075.0/11282082432.0
cdef double D3 = 87487479700.0/32700410799.0
cdef double D4 = -10690763975.0/1880347072.0
cdef double D5 = 701980252875.0/199316789632.0
cdef double D6 = -1453857185.0/822651844.0
cdef double D7 = 69997945.0/29380423.0

# node capture: see _pure._CAPTURE_EPS and _pure._node_box
cdef double CAPTURE_EPS = 0.5
cdef double CAPTURE_MARGIN = 0.1
# settled section radii: see _pure.SETTLE_TOL
cdef double C_SETTLE_TOL = 1e-7
SETTLE_TOL = C_SETTLE_TOL


cdef inline void c_field(int fid, double sgn, double x, double y, double k, double F,
                         double* ox, double* oy) nogil:
    cdef double uvv, z, w, q
    if fid == 0:
        uvv = x * y * y
        ox[0] = sgn * (-uvv + F * (1.0 - x))
        oy[0] = sgn * (uvv - (F + k) * y)
    elif fid == 1:
        z = x; w = y
        ox[0] = sgn * (z * z * (1.0 + z) - k * z * w * w - F * z * w * w * w)
        oy[0] = sgn * (z * z * w - F * w * w * w * w + F * w * w * w)
    else:
        q = x; w = y
        ox[0] = sgn * (-q * (1.0 + q) + k * q * w * w + F * w * w * w)
        oy[0] = sgn * (-q * w + (F + k) * w * w * w)


def field_eval(int fid, double sgn, double x, double y, double k, double F):
    cdef double ox, oy
    c_field(fid, sgn, x, y, k, F, &ox, &oy)
    return ox, oy


cdef struct StepState:
    int fid
    double sgn, k, F, rtol, atol, max_step, fixed_step
    bint quadrant_guard
    double t, x, y, h, k1x, k1y
    double told, hold
    double r1x, r2x, r3x, r4x, r5x
    double r1y, r2y, r3y, r4y, r5y


cdef double c_initial_step(int fid, double sgn, double x, double y, double k,
                           double F, double rtol, double atol, double max_step) nogil:
    cdef double fx, fy, scx, scy, d0, d1, h
    c_field(fid, sgn, x, y, k, F, &fx, &fy)
    scx = atol + rtol * fabs(x)
    scy = atol + rtol * fabs(y)
    d0 = sqrt(0.5 * ((x / scx) * (x / scx) + (y / scy) * (y / scy)))
    d1 = sqrt(0.5 * ((fx / scx) * (fx / scx) + (fy / scy) * (fy / scy)))
    if d0 < 1e-5 or d1 < 1e-5:
        h = 1e-6
    else:
        h = 0.01 * d0 / d1
    return fmin(h, max_step)


cdef void st_init(StepState* st, int fid, double sgn, double x0, double y0,
                  double k, double F, double rtol, double atol, double max_step,
                  bint quadrant_guard, double fixed_step) nogil:
    st.fid = fid; st.sgn = sgn; st.k = k; st.F = F
    st.rtol = rtol; st.atol = atol
    st.max_step = max_step if max_step > 0 else INFINITY
    st.quadrant_guard = quadrant_guard
    st.fixed_step = fixed_step
    st.t = 0.0; st.x = x0; st.y = y0
    c_field(fid, sgn, x0, y0, k, F, &st.k1x, &st.k1y)
    if fixed_step > 0.0:
        st.h = fixed_step
    else:
        st.h = c_initial_step(fid, sgn, x0, y0, k, F, rtol, atol, st.max_step)
    st.told = 0.0; st.hold = 0.0


cdef int st_advance(StepState* st, double t_limit) nogil:
    cdef double h, x, y, k1x, k1y, k2x, k2y, k3x, k3y, k4x, k4y, k5x, k5y, k6x, k6y, k7x, k7y
    cdef double xn, yn, ex, ey, sx, sy, err, fac, dx, dy, bsx, bsy
    cdef bint fixed = st.fixed_step > 0.0
    cdef bint guard_bad
    cdef int rejected = 0
    while True:
        h = st.h
        if not fixed:
            h = fmin(h, st.max_step)
        if st.t + h >= t_limit:
            h = t_limit - st.t
        if h <= 1e-15 * fmax(1.0, fabs(st.t)):
            return 2
        x = st.x; y = st.y; k1x = st.k1x; k1y = st.k1y
        c_field(st.fid, st.sgn, x + h*A21*k1x, y + h*A21*k1y, st.k, st.F, &k2x, &k2y)
        c_field(st.fid, st.sgn, x + h*(A31*k1x + A32*k2x), y + h*(A31*k1y + A32*k2y),
                st.k, st.F, &k3x, &k3y)
        c_field(st.fid, st.sgn, x + h*(A41*k1x + A42*k2x + A43*k3x),
                y + h*(A41*k1y + A42*k2y + A43*k3y), st.k, st.F, &k4x, &k4y)
        c_field(st.fid, st.sgn, x + h*(A51*k1x + A52*k2x + A53*k3x + A54*k4x),
                y + h*(A51*k1y + A52*k2y + A53*k3y + A54*k4y), st.k, st.F, &k5x, &k5y)
        c_field(st.fid, st.sgn, x + h*(A61*k1x + A62*k2x + A63*k3x + A64*k4x + A65*k5x),
                y + h*(A61*k1y + A62*k2y + A63*k3y + A64*k4y + A65*k5y), st.k, st.F, &k6x, &k6y)
        xn = x + h*(B1*k1x + B3*k3x + B4*k4x + B5*k5x + B6*k6x)
        yn = y + h*(B1*k1y + B3*k3y + B4*k4y + B5*k5y + B6*k6y)
        c_field(st.fid, st.sgn, xn, yn, st.k, st.F, &k7x, &k7y)
        if fixed:
            err = 0.0
        else:
            ex = h*(E1*k1x + E3*k3x + E4*k4x + E5*k5x + E6*k6x + E7*k7x)
            ey = h*(E1*k1y + E3*k3y + E4*k4y + E5*k5y + E6*k6y + E7*k7y)
            sx = st.atol + st.rtol * fmax(fabs(x), fabs(xn))
            sy = st.atol + st.rtol * fmax(fabs(y), fabs(yn))
            err = sqrt(0.5 * ((ex/sx)*(ex/sx) + (ey/sy)*(ey/sy)))
        guard_bad = (st.quadrant_guard and st.fid == 0
                     and (xn < -st.atol or yn < -st.atol))
        if (err <= 1.0 and not guard_bad) or fixed:
            if st.quadrant_guard and st.fid == 0:
                # snap within-tolerance undershoot onto the invariant axes
                if -st.atol <= xn < 0.0 or -st.atol <= yn < 0.0:
                    if -st.atol <= xn < 0.0:
                        xn = 0.0
                    if -st.atol <= yn < 0.0:
                        yn = 0.0
                    c_field(st.fid, st.sgn, xn, yn, st.k, st.F, &k7x, &k7y)
            dx = xn - x
            bsx = h * k1x - dx
            st.r1x = x; st.r2x = dx; st.r3x = bsx
            st.r4x = dx - h * k7x - bsx
            st.r5x = h*(D1*k1x + D3*k3x + D4*k4x + D5*k5x + D6*k6x + D7*k7x)
            dy = yn - y
            bsy = h * k1y - dy
            st.r1y = y; st.r2y = dy; st.r3y = bsy
            st.r4y = dy - h * k7y - bsy
            st.r5y = h*(D1*k1y + D3*k3y + D4*k4y + D5*k5y + D6*k6y + D7*k7y)
            st.told = st.t
            st.hold = h
            st.t += h
            st.x = xn; st.y = yn
            st.k1x = k7x; st.k1y = k7y
            if not fixed:
                fac = 0.9 * err ** -0.2 if err > 1e-30 else 5.0
                if rejected:
                    fac = fmin(fac, 1.0)
                st.h = h * fmin(5.0, fmax(0.2, fac))
            return 0
        rejected = 1
        fac = 0.9 * err ** -0.2 if err > 1e-30 else 0.5
        if guard_bad:
            fac = fmin(fac, 0.5)
        st.h = h * fmin(0.9, fmax(0.1, fac))


cdef inline void st_dense(StepState* st, double theta, double* ox, double* oy) nogil:
    cdef double th1 = 1.0 - theta
    ox[0] = st.r1x + theta * (st.r2x + th1 * (st.r3x + theta * (st.r4x + th1 * st.r5x)))
    oy[0] = st.r1y + theta * (st.r2y + th1 * (st.r3y + theta * (st.r4y + th1 * st.r5y)))


def integrate(int fid, double x0, double y0, double k, double F, double t_end,
              double rtol, double atol, double max_step, long max_steps,
              double time_sign, bint quadrant_guard, bint record,
              double fixed_step=0.0, double box_x=0.0, double box_y=0.0):
    cdef StepState st
    st_init(&st, fid, time_sign, x0, y0, k, F, rtol, atol, max_step,
            quadrant_guard, fixed_step)
    ts = []; xs = []; ys = []
    if record:
        ts.append(0.0); xs.append(x0); ys.append(y0)
    cdef long steps = 0
    cdef int status
    while st.t < t_end:
        status = st_advance(&st, t_end)
        if status != 0:
            return status, st.t, st.x, st.y, ts, xs, ys
        if record:
            ts.append(st.t); xs.append(st.x); ys.append(st.y)
        if box_x > 0.0 and (st.x > box_x or st.y > box_y):
            return BOX_EXIT, st.t, st.x, st.y, ts, xs, ys
        steps += 1
        if steps >= max_steps:
            return MAX_STEPS, st.t, st.x, st.y, ts, xs, ys
    return OK, st.t, st.x, st.y, ts, xs, ys


cdef bint ray_misses_box(double cx, double cy, double dx, double dy,
                         double s_min, double xlo, double xhi, double ylo,
                         double yhi) nogil:
    cdef double lo = s_min, hi = INFINITY, s1, s2
    if dx == 0.0:
        if not (xlo <= cx <= xhi):
            return True
    else:
        s1 = (xlo - cx) / dx; s2 = (xhi - cx) / dx
        lo = fmax(lo, fmin(s1, s2)); hi = fmin(hi, fmax(s1, s2))
        if lo > hi:
            return True
    if dy == 0.0:
        if not (ylo <= cy <= yhi):
            return True
    else:
        s1 = (ylo - cy) / dy; s2 = (yhi - cy) / dy
        lo = fmax(lo, fmin(s1, s2)); hi = fmin(hi, fmax(s1, s2))
        if lo > hi:
            return True
    return False


def ray_crossings(double x0, double y0, double k, double F, double cx, double cy,
                  double dx, double dy, int orient, int max_crossings,
                  double t_max, double rtol, double atol, double max_step,
                  double s_min, double t_min, double time_sign,
                  bint quadrant_guard, long max_steps=20000000,
                  double box=0.0):
    cdef StepState st
    st_init(&st, 0, time_sign, x0, y0, k, F, rtol, atol, max_step,
            quadrant_guard, 0.0)
    hits = []
    cdef double g_prev = dx * (y0 - cy) - dy * (x0 - cx)
    cdef double g_now, th, th_prev, gp, gn, lo, hi, glo, mid, gm, thr
    cdef double xx, yy, xm, ym, xh, yh, th_t, s, fx, fy, gdot
    cdef double r0, r1, eps = CAPTURE_EPS, delta, eps_in = 0.0, delta_in = 0.0
    cdef bint capture = False
    cdef long steps = 0
    cdef int status, i, j, n, nsub = 16
    if time_sign > 0 and F > 0.0 and F + k > 0.0:
        delta = 0.9 * fmin((F + k) / (1.0 + eps), sqrt(F * eps / (1.0 - eps)))
        capture = ray_misses_box(cx, cy, dx, dy, s_min,
                                 1.0 - (1.0 + CAPTURE_MARGIN) * eps,
                                 1.0 + (1.0 + CAPTURE_MARGIN) * eps,
                                 -CAPTURE_MARGIN * delta,
                                 (1.0 + CAPTURE_MARGIN) * delta)
        eps_in = (1.0 - CAPTURE_MARGIN) * eps
        delta_in = (1.0 - CAPTURE_MARGIN) * delta
    while st.t < t_max:
        status = st_advance(&st, t_max)
        if status != 0:
            return status, hits
        g_now = dx * (st.y - cy) - dy * (st.x - cx)
        if (g_prev < 0.0 <= g_now) or (g_prev > 0.0 >= g_now) or g_prev == 0.0:
            th_prev = 0.0
            gp = g_prev
            for i in range(1, nsub + 1):
                th = (<double>i) / nsub
                st_dense(&st, th, &xx, &yy)
                gn = dx * (yy - cy) - dy * (xx - cx)
                if (gp < 0.0 <= gn) or (gp > 0.0 >= gn):
                    lo = th_prev; hi = th; glo = gp
                    for j in range(60):
                        mid = 0.5 * (lo + hi)
                        st_dense(&st, mid, &xm, &ym)
                        gm = dx * (ym - cy) - dy * (xm - cx)
                        if (glo < 0.0) == (gm < 0.0):
                            lo = mid; glo = gm
                        else:
                            hi = mid
                    thr = 0.5 * (lo + hi)
                    st_dense(&st, thr, &xh, &yh)
                    th_t = st.told + thr * st.hold
                    s = (xh - cx) * dx + (yh - cy) * dy
                    c_field(0, st.sgn, xh, yh, k, F, &fx, &fy)
                    gdot = dx * fy - dy * fx
                    if (s > s_min and th_t >= t_min
                            and (orient == 0 or (gdot > 0) == (orient > 0))):
                        hits.append((th_t, s, xh, yh))
                        n = len(hits)
                        if n >= 3:
                            # explicit indices: wraparound is off
                            r0 = hits[n - 3][1]; r1 = hits[n - 2][1]
                            if s < C_SETTLE_TOL or (
                                    fabs(s - r1) < C_SETTLE_TOL * fmax(1.0, s)
                                    and fabs(r1 - r0) < C_SETTLE_TOL * fmax(1.0, r1)):
                                return SETTLED, hits
                        if n >= max_crossings:
                            return OK, hits
                th_prev = th; gp = gn
        g_prev = g_now
        if box > 0.0 and (st.x > box or st.y > box):
            return BOX_EXIT, hits
        if (capture and fabs(1.0 - st.x) <= eps_in
                and 0.0 <= st.y <= delta_in):
            return CAPTURED, hits
        steps += 1
        if steps >= max_steps:
            return MAX_STEPS, hits
    return MAX_STEPS, hits


cdef void rhs6(double sgn, double k, double F, double* y, double* out) nogil:
    cdef double u = y[0], v = y[1]
    cdef double fu, fv, j11, j12, j21, j22
    c_field(0, sgn, u, v, k, F, &fu, &fv)
    j11 = sgn * (-(F + v * v)); j12 = sgn * (-2.0 * u * v)
    j21 = sgn * (v * v); j22 = sgn * (2.0 * u * v - (F + k))
    out[0] = fu; out[1] = fv
    out[2] = j11 * y[2] + j12 * y[4]
    out[3] = j11 * y[3] + j12 * y[5]
    out[4] = j21 * y[2] + j22 * y[4]
    out[5] = j21 * y[3] + j22 * y[5]


def monodromy(double x0, double y0, double k, double F, double t_total,
              double rtol, double atol, double max_step, double time_sign=1.0,
              long max_steps=20000000):
    cdef double sgn = time_sign
    cdef double y[6]
    cdef double yn[6]
    cdef double ytmp[6]
    cdef double ks[7][6]
    cdef double t = 0.0, h, hmax, err, ei, sc, fac
    cdef long steps = 0
    cdef int i, j
    y[0] = x0; y[1] = y0; y[2] = 1.0; y[3] = 0.0; y[4] = 0.0; y[5] = 1.0
    hmax = max_step if max_step > 0 else INFINITY
    h = fmin(c_initial_step(0, sgn, x0, y0, k, F, rtol, atol, hmax), 1e-2)
    rhs6(sgn, k, F, y, ks[0])
    while t < t_total:
        h = fmin(fmin(h, hmax), t_total - t)
        if h <= 1e-15 * fmax(1.0, t):
            return UNDERFLOW, y[0], y[1], y[2], y[3], y[4], y[5]
        # stages 2..6
        for i in range(6):
            ytmp[i] = y[i] + h * A21 * ks[0][i]
        rhs6(sgn, k, F, ytmp, ks[1])
        for i in range(6):
            ytmp[i] = y[i] + h * (A31 * ks[0][i] + A32 * ks[1][i])
        rhs6(sgn, k, F, ytmp, ks[2])
        for i in range(6):
            ytmp[i] = y[i] + h * (A41 * ks[0][i] + A42 * ks[1][i] + A43 * ks[2][i])
        rhs6(sgn, k, F, ytmp, ks[3])
        for i in range(6):
            ytmp[i] = y[i] + h * (A51 * ks[0][i] + A52 * ks[1][i] + A53 * ks[2][i] + A54 * ks[3][i])
        rhs6(sgn, k, F, ytmp, ks[4])
        for i in range(6):
            ytmp[i] = y[i] + h * (A61 * ks[0][i] + A62 * ks[1][i] + A63 * ks[2][i]
                                  + A64 * ks[3][i] + A65 * ks[4][i])
        rhs6(sgn, k, F, ytmp, ks[5])
        for i in range(6):
            yn[i] = y[i] + h * (B1 * ks[0][i] + B3 * ks[2][i] + B4 * ks[3][i]
                                + B5 * ks[4][i] + B6 * ks[5][i])
        rhs6(sgn, k, F, yn, ks[6])
        err = 0.0
        for i in range(6):
            ei = h * (E1 * ks[0][i] + E3 * ks[2][i] + E4 * ks[3][i]
                      + E5 * ks[4][i] + E6 * ks[5][i] + E7 * ks[6][i])
            sc = atol + rtol * fmax(fabs(y[i]), fabs(yn[i]))
            err += (ei / sc) * (ei / sc)
        err = sqrt(err / 6.0)
        if err <= 1.0:
            t += h
            for i in range(6):
                y[i] = yn[i]
                ks[0][i] = ks[6][i]
            fac = 0.9 * err ** -0.2 if err > 1e-30 else 5.0
            h = h * fmin(5.0, fmax(0.2, fac))
        else:
            h = h * fmin(0.9, fmax(0.1, 0.9 * err ** -0.2))
        steps += 1
        if steps >= max_steps:
            return MAX_STEPS, y[0], y[1], y[2], y[3], y[4], y[5]
    return OK, y[0], y[1], y[2], y[3], y[4], y[5]
