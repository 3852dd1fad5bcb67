/* Integration kernels of gskit in C99: the compiled twin of gskit/_pure.py.
 *
 * Every function below mirrors its namesake in _pure.py statement for
 * statement, so that both backends return the same bits; as there, one
 * step controller picks every step, max_steps (STEP_LIMIT for
 * gs_ray_crossings and gs_monodromy) counts accepted steps, and the
 * arguments are those the callers vary, the rest being fixed here as in
 * _pure.py.  gs_probe_cell is the parameter-plane map cell in one call,
 * _pure.probe_cell: the closed-form section ray at (k, F), one or two
 * gs_ray_crossings probes into a stack buffer of 400 hits, of which only
 * the radii are read, and the decision tree; it returns the label code
 * CELL_OUTSIDE (0), a region 1-5, or CELL_X (6).  To keep the bits:
 *
 * - arithmetic keeps Python's operand order (a + b + c is (a + b) + c);
 * - py_pow() stands wherever _pure writes **, and reproduces Python's
 *   float power (special cases, sign of odd powers of negative bases);
 * - py_min()/py_max() stand for Python's min()/max(), which keep the first
 *   argument unless a later one compares smaller/larger, so a NaN never
 *   replaces a number (fmin/fmax would);
 * - where _pure maps the OverflowError of ** to inf, the code here checks
 *   for an infinite power of a finite base;
 * - a vector norm is sqrt(a * a + b * b) on both sides: CPython's
 *   math.hypot is its own algorithm, not libm's hypot.
 *
 * Callers pass rtol, atol > 0, so no error scale atol + rtol * |x| is zero,
 * and a field id that gskit.kernels has checked: fid is FIELD_PLANE or
 * FIELD_CHART_V.  The one C-only return is BUFFER_FULL.
 *
 * It must be built with -ffp-contract=off (no fused multiply-add but the
 * fma() calls of gs_solve, which _pure.solve rounds alike) and
 * -fno-builtin (gcc would otherwise turn pow(a, 2) into a * a, which can
 * differ from libm's pow in the last bit).  gskit.kernels compiles it with
 * those flags on first import and calls it through ctypes; it uses no
 * Python API.  Status codes and constants are those of _pure.py.
 */
#include <math.h>
#include <string.h>

enum {
    OK = 0, MAX_STEPS = 1, UNDERFLOW = 2, BOX_EXIT = 4, CAPTURED = 8,
    SETTLED = 16,
    /* C-only return, never the status of a finished call */
    BUFFER_FULL = -1
};

enum { FIELD_PLANE = 0, FIELD_CHART_V = 2 };

#define S_MIN 1e-12
#define STEP_LIMIT 20000000LL
#define SETTLE_TOL 1e-7
#define CAPTURE_EPS 0.5
#define CAPTURE_MARGIN 0.1

/* Dormand-Prince 5(4) tableau */
static const double A21 = 0.2;
static const double A31 = 3.0 / 40.0, A32 = 9.0 / 40.0;
static const double A41 = 44.0 / 45.0, A42 = -56.0 / 15.0, A43 = 32.0 / 9.0;
static const double A51 = 19372.0 / 6561.0, A52 = -25360.0 / 2187.0,
                    A53 = 64448.0 / 6561.0, A54 = -212.0 / 729.0;
static const double A61 = 9017.0 / 3168.0, A62 = -355.0 / 33.0,
                    A63 = 46732.0 / 5247.0, A64 = 49.0 / 176.0,
                    A65 = -5103.0 / 18656.0;
static const double B1 = 35.0 / 384.0, B3 = 500.0 / 1113.0,
                    B4 = 125.0 / 192.0, B5 = -2187.0 / 6784.0,
                    B6 = 11.0 / 84.0;
static const double E1 = 71.0 / 57600.0, E3 = -71.0 / 16695.0,
                    E4 = 71.0 / 1920.0, E5 = -17253.0 / 339200.0,
                    E6 = 22.0 / 525.0, E7 = -1.0 / 40.0;
static const double D1 = -12715105075.0 / 11282082432.0;
static const double D3 = 87487479700.0 / 32700410799.0;
static const double D4 = -10690763975.0 / 1880347072.0;
static const double D5 = 701980252875.0 / 199316789632.0;
static const double D6 = -1453857185.0 / 822651844.0;
static const double D7 = 69997945.0 / 29380423.0;

static double py_min(double a, double b) { return b < a ? b : a; }
static double py_max(double a, double b) { return b > a ? b : a; }

static int is_odd_integer(double y) { return fmod(fabs(y), 2.0) == 1.0; }

/* x ** y for a finite nonzero y, as CPython's float_pow computes it; the
 * bases used here never make Python raise ZeroDivisionError or return a
 * complex number.  An overflow gives +-inf where Python raises. */
static double py_pow(double x, double y)
{
    int negate = 0;
    double r;
    if (isnan(x))
        return x;
    if (isinf(x)) {
        if (y > 0.0)
            return is_odd_integer(y) ? x : fabs(x);
        return is_odd_integer(y) ? copysign(0.0, x) : 0.0;
    }
    if (x == 0.0)
        return is_odd_integer(y) ? x : 0.0;
    if (x < 0.0) {
        x = -x;
        negate = is_odd_integer(y);
    }
    if (x == 1.0)
        return negate ? -1.0 : 1.0;
    r = pow(x, y);
    return negate ? -r : r;
}

/* the OverflowError of x ** 2 in Python */
static int pow_overflowed(double base, double result)
{
    return isinf(result) && isfinite(base);
}

static void field_eval(int fid, double sgn, double x, double y, double k,
                       double F, double *fx, double *fy)
{
    if (fid == FIELD_PLANE) {
        double uvv = x * y * y;
        *fx = sgn * (F * (1.0 - x) - uvv);
        *fy = sgn * (uvv - (F + k) * y);
    } else {
        double q = x, w = y;
        *fx = sgn * (k * q * w * w - q * (1.0 + q) + F * py_pow(w, 3.0));
        *fy = sgn * ((F + k) * py_pow(w, 3.0) - q * w);
    }
}

static double rms(double a, double b)
{
    double a2 = py_pow(a, 2.0), b2;
    if (pow_overflowed(a, a2))
        return INFINITY;
    b2 = py_pow(b, 2.0);
    if (pow_overflowed(b, b2))
        return INFINITY;
    return sqrt(0.5 * (a2 + b2));
}

/* _pure._Controller, embedded first in both steppers.  trial() returns 1
 * when ctl_judge() accepts its step, else 0. */
typedef struct Controller {
    double rtol, atol, fixed_step, t, h;
    long long steps;
    int rejected;
    int (*trial)(struct Controller *c, double h);
} Controller;

/* _Controller._start */
static void ctl_start(Controller *c, double x0, double y0, double fx,
                      double fy, double rtol, double atol, double fixed_step)
{
    c->rtol = rtol;
    c->atol = atol;
    c->fixed_step = fixed_step;
    c->t = 0.0;
    c->steps = 0;
    if (fixed_step > 0.0) {
        c->h = fixed_step;
    } else {
        double sc_x = atol + rtol * fabs(x0), sc_y = atol + rtol * fabs(y0);
        double d0 = rms(x0 / sc_x, y0 / sc_y);
        double d1 = rms(fx / sc_x, fy / sc_y);
        c->h = (d0 < 1e-5 || d1 < 1e-5) ? 1e-6 : 0.01 * d0 / d1;
    }
}

/* Take one accepted step, not passing t_limit.  Returns status. */
static int ctl_advance(Controller *c, double t_limit)
{
    c->rejected = 0;
    for (;;) {
        double h = c->h;
        if (c->t + h >= t_limit)
            h = t_limit - c->t;
        /* `!(>)` also stops a nan step, which every trial would reject */
        if (!(h > 1e-15 * py_max(1.0, fabs(c->t))))
            return UNDERFLOW;
        if (c->trial(c, h)) {
            c->t += h;
            c->steps += 1;
            return OK;
        }
    }
}

/* _Controller._judge: 1 when the step is accepted, else 0 */
static int ctl_judge(Controller *c, double h, double err, int guard_bad)
{
    double fac;
    if (c->fixed_step > 0.0)
        return 1;
    if (err <= 1.0 && !guard_bad) {
        fac = err > 1e-30 ? 0.9 * py_pow(err, -0.2) : 5.0;
        if (c->rejected)
            fac = py_min(fac, 1.0);
        c->h = h * py_min(5.0, py_max(0.2, fac));
        return 1;
    }
    c->rejected = 1;
    fac = err > 1e-30 ? 0.9 * py_pow(err, -0.2) : 0.5;
    if (guard_bad)
        fac = py_min(fac, 0.5);
    c->h = h * py_min(0.9, py_max(0.1, fac));
    return 0;
}

/* _pure._Stepper: one DP54 integration of a 2-D field with dense output
 * for its last accepted step */
typedef struct {
    Controller c;
    int fid;
    double sgn, k, F;
    int guard;
    double x, y, k1x, k1y, hold, told;
    double r1x, r2x, r3x, r4x, r5x, r1y, r2y, r3y, r4y, r5y;
} Stepper;

/* _Stepper._trial */
static int st_trial(Controller *c, double h)
{
    Stepper *st = (Stepper *)c;
    const int fid = st->fid;
    const double sgn = st->sgn, k = st->k, F = st->F;
    const double rtol = c->rtol, atol = c->atol;
    const double x = st->x, y = st->y, k1x = st->k1x, k1y = st->k1y;
    double k2x, k2y, k3x, k3y, k4x, k4y, k5x, k5y, k6x, k6y, k7x, k7y;
    double xn, yn, err, dx, bsx, dy, bsy;
    int guard_bad;
    field_eval(fid, sgn, x + h * A21 * k1x, y + h * A21 * k1y, k, F,
               &k2x, &k2y);
    field_eval(fid, sgn, x + h * (A31 * k1x + A32 * k2x),
               y + h * (A31 * k1y + A32 * k2y), k, F, &k3x, &k3y);
    field_eval(fid, sgn, x + h * (A41 * k1x + A42 * k2x + A43 * k3x),
               y + h * (A41 * k1y + A42 * k2y + A43 * k3y), k, F,
               &k4x, &k4y);
    field_eval(fid, sgn,
               x + h * (A51 * k1x + A52 * k2x + A53 * k3x + A54 * k4x),
               y + h * (A51 * k1y + A52 * k2y + A53 * k3y + A54 * k4y),
               k, F, &k5x, &k5y);
    field_eval(fid, sgn,
               x + h * (A61 * k1x + A62 * k2x + A63 * k3x
                        + A64 * k4x + A65 * k5x),
               y + h * (A61 * k1y + A62 * k2y + A63 * k3y
                        + A64 * k4y + A65 * k5y), k, F, &k6x, &k6y);
    xn = x + h * (B1 * k1x + B3 * k3x + B4 * k4x + B5 * k5x + B6 * k6x);
    yn = y + h * (B1 * k1y + B3 * k3y + B4 * k4y + B5 * k5y + B6 * k6y);
    field_eval(fid, sgn, xn, yn, k, F, &k7x, &k7y);
    if (c->fixed_step > 0.0) {
        err = 0.0;
    } else {
        double ex = h * (E1 * k1x + E3 * k3x + E4 * k4x + E5 * k5x
                         + E6 * k6x + E7 * k7x);
        double ey = h * (E1 * k1y + E3 * k3y + E4 * k4y + E5 * k5y
                         + E6 * k6y + E7 * k7y);
        double sx = atol + rtol * py_max(fabs(x), fabs(xn));
        double sy = atol + rtol * py_max(fabs(y), fabs(yn));
        err = rms(ex / sx, ey / sy);
    }
    guard_bad = st->guard && (xn < -atol || yn < -atol);
    if (!ctl_judge(c, h, err, guard_bad))
        return 0;
    if (st->guard) {
        /* snap within-tolerance undershoot onto the invariant axes */
        int snapped = 0;
        if (-atol <= xn && xn < 0.0) {
            xn = 0.0;
            snapped = 1;
        }
        if (-atol <= yn && yn < 0.0) {
            yn = 0.0;
            snapped = 1;
        }
        if (snapped)
            field_eval(fid, sgn, xn, yn, k, F, &k7x, &k7y);
    }
    /* dense-output coefficients for this step */
    dx = xn - x;
    bsx = h * k1x - dx;
    st->r1x = x;
    st->r2x = dx;
    st->r3x = bsx;
    st->r4x = dx - h * k7x - bsx;
    st->r5x = h * (D1 * k1x + D3 * k3x + D4 * k4x + D5 * k5x
                   + D6 * k6x + D7 * k7x);
    dy = yn - y;
    bsy = h * k1y - dy;
    st->r1y = y;
    st->r2y = dy;
    st->r3y = bsy;
    st->r4y = dy - h * k7y - bsy;
    st->r5y = h * (D1 * k1y + D3 * k3y + D4 * k4y + D5 * k5y
                   + D6 * k6y + D7 * k7y);
    st->told = c->t;
    st->hold = h;
    st->x = xn;
    st->y = yn;
    st->k1x = k7x;
    st->k1y = k7y;
    return 1;
}

static void st_init(Stepper *st, int fid, double sgn, double x0, double y0,
                    double k, double F, double rtol, double atol,
                    double fixed_step)
{
    st->c.trial = st_trial;
    st->fid = fid;
    st->sgn = sgn;
    st->k = k;
    st->F = F;
    /* the first-quadrant guard: the plane field, forward in time */
    st->guard = fid == FIELD_PLANE && sgn > 0;
    st->x = x0;
    st->y = y0;
    st->hold = 0.0;
    st->told = 0.0;
    field_eval(fid, sgn, x0, y0, k, F, &st->k1x, &st->k1y);
    ctl_start(&st->c, x0, y0, st->k1x, st->k1y, rtol, atol, fixed_step);
}

/* State at told + theta*hold inside the last accepted step. */
static void st_dense(const Stepper *st, double theta, double *x, double *y)
{
    double th1 = 1.0 - theta;
    *x = st->r1x + theta * (st->r2x + th1 * (st->r3x + theta * (st->r4x + th1 * st->r5x)));
    *y = st->r1y + theta * (st->r2y + th1 * (st->r3y + theta * (st->r4y + th1 * st->r5y)));
}

void gs_field_eval(int fid, double sgn, double x, double y, double k,
                   double F, double *out)
{
    field_eval(fid, sgn, x, y, k, F, &out[0], &out[1]);
}

/* _pure.integrate.  end receives (t, x, y); with record, the samples go to
 * samples as (t, x, y) triples, at most cap of them, and *n counts them.
 * Returns the status, or BUFFER_FULL when sample cap + 1 was due. */
int gs_integrate(int fid, double x0, double y0, double k, double F,
                 double t_end, double rtol, double atol, long long max_steps,
                 int record, double fixed_step, double box,
                 double *end, double *samples, long long cap, long long *n)
{
    Stepper st;
    int status = OK;
    *n = 0;
    st_init(&st, fid, 1.0, x0, y0, k, F, rtol, atol, fixed_step);
    if (record) {
        if (*n >= cap)
            return BUFFER_FULL;
        samples[0] = 0.0;
        samples[1] = x0;
        samples[2] = y0;
        *n = 1;
    }
    while (st.c.t < t_end) {
        status = ctl_advance(&st.c, t_end);
        if (status != OK)
            break;
        if (record) {
            if (*n >= cap)
                return BUFFER_FULL;
            samples[3 * *n] = st.c.t;
            samples[3 * *n + 1] = st.x;
            samples[3 * *n + 2] = st.y;
            *n += 1;
        }
        if (box > 0.0 && (st.x > box || st.y > box)) {
            status = BOX_EXIT;
            break;
        }
        if (st.c.steps >= max_steps) {
            status = MAX_STEPS;
            break;
        }
    }
    end[0] = st.c.t;
    end[1] = st.x;
    end[2] = st.y;
    return status;
}

/* _pure._node_box */
static void node_box(double k, double F, double *eps, double *delta)
{
    *eps = CAPTURE_EPS;
    *delta = 0.9 * py_min((F + k) / (1.0 + *eps),
                          sqrt(F * *eps / (1.0 - *eps)));
}

/* _pure._ray_misses_box: 1 when {(cx,cy) + s (dx,dy) : s > S_MIN} misses
 * the box */
static int ray_misses_box(double cx, double cy, double dx, double dy,
                          double xlo, double xhi, double ylo, double yhi)
{
    double lo = S_MIN, hi = INFINITY;
    const double c[2] = {cx, cy}, d[2] = {dx, dy};
    const double blo[2] = {xlo, ylo}, bhi[2] = {xhi, yhi};
    int i;
    for (i = 0; i < 2; i++) {
        double s1, s2;
        if (d[i] == 0.0) {
            if (!(blo[i] <= c[i] && c[i] <= bhi[i]))
                return 1;
            continue;
        }
        s1 = (blo[i] - c[i]) / d[i];
        s2 = (bhi[i] - c[i]) / d[i];
        lo = py_max(lo, py_min(s1, s2));
        hi = py_min(hi, py_max(s1, s2));
        if (lo > hi)
            return 1;
    }
    return 0;
}

#define G_OF(x, y) (dx * ((y) - cy) - dy * ((x) - cx))

/* _pure.ray_crossings.  Hits go to hits as (t, s, x, y) quadruples, room
 * for max(max_crossings, 1) of them, and *n counts them.  Returns the
 * status.  With escape_sum > 0 it returns BOX_EXIT once the state leaves
 * {x >= 0, x + y <= escape_sum}, whose complement is invariant in reversed
 * time (derivation in _pure.ray_crossings). */
int gs_ray_crossings(double x0, double y0, double k, double F, double cx,
                     double cy, double dx, double dy, int orient,
                     long long max_crossings, double t_max, double rtol,
                     double atol, double t_min, double time_sign,
                     double escape_sum, double *hits, long long *n)
{
    Stepper st;
    int capture = 0;
    double eps = 0.0, delta, eps_in = 0.0, delta_in = 0.0, g_prev;
    *n = 0;
    st_init(&st, FIELD_PLANE, time_sign, x0, y0, k, F, rtol, atol, 0.0);
    if (time_sign > 0 && F > 0.0 && F + k > 0.0) {
        double grow;
        node_box(k, F, &eps, &delta);
        grow = 1.0 + CAPTURE_MARGIN;
        capture = ray_misses_box(cx, cy, dx, dy,
                                 1.0 - grow * eps, 1.0 + grow * eps,
                                 -CAPTURE_MARGIN * delta, grow * delta);
        eps_in = (1.0 - CAPTURE_MARGIN) * eps;
        delta_in = (1.0 - CAPTURE_MARGIN) * delta;
    }
    g_prev = G_OF(x0, y0);
    while (st.c.t < t_max) {
        double g_now;
        int status = ctl_advance(&st.c, t_max);
        if (status != OK)
            return status;
        g_now = G_OF(st.x, st.y);
        if ((g_prev < 0.0 && 0.0 <= g_now) || (g_prev > 0.0 && 0.0 >= g_now)
                || g_prev == 0.0) {
            /* subdivide the step; the interpolant may hold several roots */
            const int nsub = 16;
            double th_prev = 0.0, gp = g_prev;
            int i;
            for (i = 1; i <= nsub; i++) {
                double th = (double)i / (double)nsub, xx, yy, gn;
                st_dense(&st, th, &xx, &yy);
                gn = G_OF(xx, yy);
                if ((gp < 0.0 && 0.0 <= gn) || (gp > 0.0 && 0.0 >= gn)) {
                    double lo = th_prev, hi = th, glo = gp;
                    double thr, xh, yh, th_t, s, fx, fy, gdot;
                    int it;
                    for (it = 0; it < 60; it++) {
                        double mid = 0.5 * (lo + hi), xm, ym, gm;
                        st_dense(&st, mid, &xm, &ym);
                        gm = G_OF(xm, ym);
                        if ((glo < 0.0) == (gm < 0.0)) {
                            lo = mid;
                            glo = gm;
                        } else {
                            hi = mid;
                        }
                    }
                    thr = 0.5 * (lo + hi);
                    st_dense(&st, thr, &xh, &yh);
                    th_t = st.told + thr * st.hold;
                    s = (xh - cx) * dx + (yh - cy) * dy;
                    field_eval(FIELD_PLANE, st.sgn, xh, yh, k, F, &fx, &fy);
                    gdot = dx * fy - dy * fx;
                    if (s > S_MIN && th_t >= t_min
                            && (gdot > 0) == (orient > 0)) {
                        double *hit = hits + 4 * *n;
                        hit[0] = th_t;
                        hit[1] = s;
                        hit[2] = xh;
                        hit[3] = yh;
                        *n += 1;
                        if (*n >= 3) {
                            double r0 = hits[4 * (*n - 3) + 1];
                            double r1 = hits[4 * (*n - 2) + 1];
                            if (s < SETTLE_TOL
                                    || (fabs(s - r1) < SETTLE_TOL * py_max(1.0, s)
                                        && fabs(r1 - r0) < SETTLE_TOL * py_max(1.0, r1)))
                                return SETTLED;
                        }
                        if (*n >= max_crossings)
                            return OK;
                    }
                }
                th_prev = th;
                gp = gn;
            }
        }
        g_prev = g_now;
        if (escape_sum > 0.0 && (st.x < 0.0 || st.x + st.y > escape_sum))
            return BOX_EXIT;
        if (capture && fabs(1.0 - st.x) <= eps_in && 0.0 <= st.y
                && st.y <= delta_in)
            return CAPTURED;
        if (st.c.steps >= STEP_LIMIT)
            return MAX_STEPS;
    }
    return MAX_STEPS;
}

/* _pure._Variational: the plane field and its 2x2 variational matrix,
 * s = (x, y, m11, m12, m21, m22), with the error norm over all six */
typedef struct {
    Controller c;
    double k, F, s[6], f1[6];
} Variational;

/* _Variational._rhs */
static void var_rhs(const Variational *vs, const double *s, double *out)
{
    const double k = vs->k, F = vs->F, u = s[0], v = s[1];
    /* the Jacobian of the plane field */
    const double j11 = -(F + v * v), j12 = -2.0 * u * v;
    const double j21 = v * v, j22 = 2.0 * u * v - (F + k);
    field_eval(FIELD_PLANE, 1.0, u, v, k, F, &out[0], &out[1]);
    out[2] = j11 * s[2] + j12 * s[4];
    out[3] = j11 * s[3] + j12 * s[5];
    out[4] = j21 * s[2] + j22 * s[4];
    out[5] = j21 * s[3] + j22 * s[5];
}

/* out = rhs(s + h * (sum)), sum written for component i */
#define VAR_STAGE(out, sum)                  \
    do {                                     \
        for (i = 0; i < 6; i++)              \
            a[i] = s[i] + h * (sum);         \
        var_rhs(vs, a, out);                 \
    } while (0)

/* _Variational._trial */
static int var_trial(Controller *c, double h)
{
    Variational *vs = (Variational *)c;
    const double *s = vs->s, *k1 = vs->f1;
    double k2[6], k3[6], k4[6], k5[6], k6[6], k7[6], a[6], sn[6], err = 0.0;
    int i;
    VAR_STAGE(k2, A21 * k1[i]);
    VAR_STAGE(k3, A31 * k1[i] + A32 * k2[i]);
    VAR_STAGE(k4, A41 * k1[i] + A42 * k2[i] + A43 * k3[i]);
    VAR_STAGE(k5, A51 * k1[i] + A52 * k2[i] + A53 * k3[i] + A54 * k4[i]);
    VAR_STAGE(k6, A61 * k1[i] + A62 * k2[i] + A63 * k3[i] + A64 * k4[i]
                  + A65 * k5[i]);
    for (i = 0; i < 6; i++)
        sn[i] = s[i] + h * (B1 * k1[i] + B3 * k3[i] + B4 * k4[i] + B5 * k5[i]
                            + B6 * k6[i]);
    var_rhs(vs, sn, k7);
    for (i = 0; i < 6; i++) {
        double ei = h * (E1 * k1[i] + E3 * k3[i] + E4 * k4[i] + E5 * k5[i]
                         + E6 * k6[i] + E7 * k7[i]);
        double sc = c->atol + c->rtol * py_max(fabs(s[i]), fabs(sn[i]));
        double q = ei / sc, q2 = py_pow(q, 2.0);
        if (pow_overflowed(q, q2))
            break;
        err += q2;
    }
    err = i == 6 ? sqrt(err / 6.0) : INFINITY;
    if (!ctl_judge(c, h, err, 0))
        return 0;
    memcpy(vs->s, sn, sizeof sn);
    memcpy(vs->f1, k7, sizeof k7);
    return 1;
}

/* _pure.monodromy.  out receives (x, y, m11, m12, m21, m22). */
int gs_monodromy(double x0, double y0, double k, double F, double t_total,
                 double rtol, double atol, double *out)
{
    const double s0[6] = {x0, y0, 1.0, 0.0, 0.0, 1.0};
    Variational vs;
    int status = OK;
    vs.c.trial = var_trial;
    vs.k = k;
    vs.F = F;
    memcpy(vs.s, s0, sizeof s0);
    var_rhs(&vs, vs.s, vs.f1);
    ctl_start(&vs.c, x0, y0, vs.f1[0], vs.f1[1], rtol, atol, 0.0);
    while (status == OK && vs.c.t < t_total) {
        status = ctl_advance(&vs.c, t_total);
        if (status == OK && vs.c.steps >= STEP_LIMIT)
            status = MAX_STEPS;
    }
    memcpy(out, vs.s, sizeof vs.s);
    return status;
}

/* The map cell: _pure.probe_cell and its helpers. */

enum { CELL_OUTSIDE = 0, CELL_X = 6 };

/* _pure._attractor_kind's kinds */
enum { KIND_FOCUS, KIND_CYCLE, KIND_ESCAPE };

/* a _pure._probe_frame tuple */
typedef struct {
    int unstable, orient;
    double cu, cv, d0, d1, r_max;
} ProbeFrame;

/* _pure._closed_form_direction */
static void closed_form_direction(double j11, double j12, double j21,
                                  double j22, double *d0, double *d1)
{
    double disc = (j11 - j22) * (j11 - j22) + 4.0 * j12 * j21;
    double w0, w1, n;
    if (disc >= 0) {
        w0 = j12;
        w1 = (j11 + j22 + sqrt(disc)) / 2.0 - j11;
    } else {
        double re = (j22 - j11) / 2.0;
        double m2 = re * re - disc / 4.0;
        if (j12 * j12 >= m2) {
            w0 = j12;
            w1 = re;
        } else {
            w0 = j12 * re;
            w1 = m2;
        }
    }
    n = sqrt(w0 * w0 + w1 * w1);
    *d0 = -w1 / n;
    *d1 = w0 / n;
}

/* _pure._probe_frame: 0 where it returns None, else 1 with *fr set */
static int probe_frame(double k, double F, ProbeFrame *fr)
{
    double g = (F + k) / F;
    double delta = 1.0 - 4.0 * F * g * g;
    double s, cu, cv, su, sv, j11, j12, j21, j22, d0, d1, u, v, uvv, f0, f1;
    double r_max;
    if (delta <= 0)
        return 0;
    s = sqrt(delta);
    cu = (1.0 - s) / 2.0;
    cv = (1.0 + s) / (2.0 * g);
    su = (1.0 + s) / 2.0;
    sv = (1.0 - s) / (2.0 * g);
    j11 = -(F + cv * cv);
    j12 = -2.0 * cu * cv;
    j21 = cv * cv;
    j22 = -(F + k) + 2.0 * cu * cv;
    closed_form_direction(j11, j12, j21, j22, &d0, &d1);
    /* point away from the saddle */
    if (d0 * (cu - su) + d1 * (cv - sv) < 0) {
        d0 = -d0;
        d1 = -d1;
    }
    /* rotation direction of the flow just off the section */
    u = cu + 1e-6 * d0;
    v = cv + 1e-6 * d1;
    uvv = u * v * v;
    f0 = -uvv + F * (1.0 - u);
    f1 = uvv - (F + k) * v;
    /* cap the ray at the quadrant boundary / sanity window */
    r_max = 2.5;
    if (d0 < 0)
        r_max = py_min(r_max, -cu / d0);
    if (d1 < 0)
        r_max = py_min(r_max, -cv / d1);
    fr->unstable = j11 + j22 > 0;
    fr->cu = cu;
    fr->cv = cv;
    fr->d0 = d0;
    fr->d1 = d1;
    fr->orient = (d0 * f1 - d1 * f0) > 0 ? 1 : -1;
    fr->r_max = r_max;
    return 1;
}

/* _pure._escape_sum */
static double escape_sum_of(const ProbeFrame *fr)
{
    return py_max(py_max(1.0, fr->cu + fr->cv),
                  (fr->cu + fr->r_max * fr->d0) + (fr->cv + fr->r_max * fr->d1));
}

/* _pure._attractor_kind on the radii hits[4 i + 1], i < n; *r receives
 * the radius it returns with the kind */
static int attractor_kind(const double *hits, long long n, double r_cap,
                          int settled, double *r)
{
    double tail;
    if (settled) {
        *r = hits[4 * (n - 1) + 1];
        if (*r < SETTLE_TOL) {
            *r = 0.0;
            return KIND_FOCUS;
        }
        return KIND_CYCLE;
    }
    *r = 0.0;
    if (n < 3)
        return KIND_ESCAPE;
    tail = hits[4 * (n - 1) + 1];
    if (tail > 0.9 * r_cap) {
        *r = tail;
        return KIND_ESCAPE;
    }
    /* drifting slowly: treat a contracting tail as a cycle estimate */
    if (fabs(tail - hits[4 * (n - 2) + 1]) < 1e-5 * py_max(1.0, tail)) {
        *r = tail;
        return KIND_CYCLE;
    }
    if (tail < 1e-6)
        return KIND_FOCUS;
    *r = tail;
    return KIND_ESCAPE;
}

/* probe() of _pure.probe_cell: _pure._section_radii, then _attractor_kind
 * of the radii; a stack buffer holds the 400 hits */
static int probe(double k, double F, const ProbeFrame *fr, double r0,
                 double time_sign, double *r)
{
    double hits[4 * 400];
    long long n;
    double escape_sum = time_sign < 0 ? escape_sum_of(fr) : 0.0;
    int status = gs_ray_crossings(
        fr->cu + r0 * fr->d0, fr->cv + r0 * fr->d1, k, F, fr->cu, fr->cv,
        fr->d0, fr->d1, time_sign > 0 ? fr->orient : -fr->orient, 400, 2e5,
        1e-8, 1e-11, 1e-9, time_sign, escape_sum, hits, &n);
    return attractor_kind(hits, n, fr->r_max, status == SETTLED, r);
}

/* _pure.probe_cell: the label code of the map cell at (k, F) */
int gs_probe_cell(double k, double F)
{
    ProbeFrame fr;
    double scale, r_star;
    int kind;
    if (!probe_frame(k, F, &fr))
        return CELL_OUTSIDE;
    scale = py_max(1e-4, 0.02 * fr.r_max);
    if (fr.unstable) {
        kind = probe(k, F, &fr, scale, 1.0, &r_star);
        if (kind == KIND_ESCAPE)
            return 1;
        if (kind == KIND_CYCLE) {
            kind = probe(k, F, &fr, py_min(r_star * 1.25, fr.r_max * 0.9),
                         -1.0, &r_star);
            return kind == KIND_CYCLE ? 3 : 5;
        }
        return CELL_X;
    }
    kind = probe(k, F, &fr, scale, -1.0, &r_star);
    if (kind == KIND_CYCLE)
        return 2;
    if (kind == KIND_ESCAPE)
        return 4;
    return CELL_X;
}

/* _pure.solve: x with M x = y, M n x n with its rows flattened into m; m
 * and y are overwritten, with the factors and with x.  Returns 1 where
 * _pure.solve returns None (a zero pivot, factors or x not finite), else
 * 0.  fma() stands where _pure.solve calls _fms, which rounds as it does. */
int gs_solve(int n, double *m, double *y)
{
    int i, j, k, p, r;
    double s, q;
    for (j = 0; j < n; j++) {
        for (r = 1; r < n; r++) {
            int kmax = r < j ? r : j;
            if (kmax) {
                s = m[r * n] * m[j];
                for (k = 1; k < kmax; k++)
                    s = fma(m[r * n + k], m[k * n + j], s);
                m[r * n + j] -= s;
            }
        }
        p = j;
        for (r = j + 1; r < n; r++)
            if (fabs(m[r * n + j]) > fabs(m[p * n + j]))
                p = r;
        if (m[p * n + j] == 0)
            return 1;
        if (p != j) {
            for (k = 0; k < n; k++) {
                s = m[j * n + k];
                m[j * n + k] = m[p * n + k];
                m[p * n + k] = s;
            }
            s = y[j];
            y[j] = y[p];
            y[p] = s;
        }
        q = 1.0 / m[j * n + j];
        for (r = j + 1; r < n; r++)
            m[r * n + j] *= q;
    }
    for (i = 0; i < n; i++)
        for (k = i + 1; k < n; k++)
            y[k] = fma(-y[i], m[k * n + i], y[k]);
    for (i = n - 1; i >= 0; i--) {
        y[i] /= m[i * n + i];
        for (k = 0; k < i; k++)
            y[k] = fma(-y[i], m[k * n + i], y[k]);
    }
    for (i = 0; i < n * n; i++)
        if (!isfinite(m[i]))
            return 1;
    for (i = 0; i < n; i++)
        if (!isfinite(y[i]))
            return 1;
    return 0;
}
