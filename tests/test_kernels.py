import importlib.util
import math

import numpy as np
import pytest

from gskit import kernels
from gskit.core import Params, vector_field
from gskit.dynamics import from_chart_u, from_chart_v, to_chart_u, to_chart_v

BACKENDS = kernels.available_backends()


@pytest.fixture(params=BACKENDS)
def backend(request):
    kernels.use_backend(request.param)
    yield request.param
    kernels.use_backend(BACKENDS[0])


@pytest.mark.skipif(importlib.util.find_spec("Cython") is None,
                    reason="Cython is not installed; the compiled kernels are "
                           "built only where Cython is importable")
def test_compiled_backend_is_built():
    # the extension is part of the build; the pure twin is the fallback
    assert "compiled" in BACKENDS


def test_integrate_reaches_t_end(backend):
    st, t, x, y, *_ = kernels.integrate(0, 0.9, 0.1, 0.07, 0.02, 1500.0,
                                        1e-10, 1e-13, 0.0, 10**7, 1.0, True, False)
    assert st == kernels.OK and t == 1500.0
    # Delta < 0 here: the only attractor is (1, 0)
    assert abs(x - 1.0) < 1e-6 and abs(y) < 1e-9


def test_backends_agree():
    results = []
    for b in BACKENDS:
        kernels.use_backend(b)
        st, t, x, y, *_ = kernels.integrate(0, 0.8, 0.2, 0.05, 0.025, 50.0,
                                            1e-11, 1e-14, 0.0, 10**7, 1.0, True,
                                            False)
        results.append((st, t, x, y))
    kernels.use_backend(BACKENDS[0])
    for r in results[1:]:
        assert r[0] == results[0][0]
        assert r[2] == pytest.approx(results[0][2], abs=1e-12)
        assert r[3] == pytest.approx(results[0][3], abs=1e-12)


def test_fixed_step_convergence_order(backend):
    args = (0, 0.6, 0.25, 0.046, 0.026)
    ref = kernels.integrate(*args, 40.0, 1e-13, 1e-16, 0.0, 10**7, 1.0,
                            True, False)
    errs = []
    for h in (0.2, 0.1):
        st, t, x, y, *_ = kernels.integrate(*args, 40.0, 1e-9, 1e-12, 0.0,
                                            10**7, 1.0, True, False,
                                            fixed_step=h)
        errs.append(math.hypot(x - ref[2], y - ref[3]))
    order = math.log2(errs[0] / errs[1])
    assert order >= 4.5


def test_dense_output_against_scipy(backend):
    pytest.importorskip("scipy")
    from scipy.integrate import solve_ivp

    k, F = 0.04, 0.02

    def rhs(t, y):
        return vector_field((y[0], y[1]), Params(k, F))

    sol = solve_ivp(rhs, [0, 600.0], [0.7, 0.2], rtol=1e-11, atol=1e-13,
                    dense_output=True)
    # crossings of the horizontal line v = 0.25 through the spiral region
    st, hits = kernels.ray_crossings(0.7, 0.2, k, F, 0.0, 0.25, 1.0, 0.0,
                                     0, 4, 600.0, 1e-11, 1e-13, 0.0,
                                     1e-12, 1e-9, 1.0, True)
    assert hits
    for t, s, x, y in hits:
        ref = sol.sol(t)
        assert abs(ref[1] - 0.25) < 1e-7
        assert abs(ref[0] - x) < 1e-7


def test_quadrant_guard_snaps_to_axis(backend):
    # from a state with tiny v the orbit hugs the invariant axis; samples
    # must never dip below -abs_tol
    st, t, x, y, ts, xs, ys = kernels.integrate(
        0, 0.4, 1e-10, 0.05, 0.01, 2000.0, 1e-9, 1e-12, 0.0, 10**7, 1.0,
        True, True)
    assert st == kernels.OK
    assert min(ys) >= -1e-12
    assert min(xs) >= -1e-12


def test_monodromy_matches_exact_linear_flow(backend):
    # at the trivial point the variational system is diagonal with rates
    # -F and -(F+k)
    k, F, T = 0.06, 0.04, 12.5
    st, x, y, m11, m12, m21, m22 = kernels.monodromy(1.0, 0.0, k, F, T,
                                                     1e-12, 1e-14, 0.0)
    assert st == kernels.OK
    assert m11 == pytest.approx(math.exp(-F * T), rel=1e-9)
    assert m22 == pytest.approx(math.exp(-(F + k) * T), rel=1e-9)
    assert abs(m12) < 1e-12 and abs(m21) < 1e-12


def test_monodromy_fundamental_property(backend):
    # M(2T) = M(T over the translated segment) M(T): check det via Liouville
    k, F = 0.03, 0.055
    x0, y0 = 0.55, 0.22
    st, x1, y1, *m1 = kernels.monodromy(x0, y0, k, F, 7.0, 1e-12, 1e-14, 0.0)
    st2, x2, y2, *m2 = kernels.monodromy(x1, y1, k, F, 7.0, 1e-12, 1e-14, 0.0)
    st3, x3, y3, *m3 = kernels.monodromy(x0, y0, k, F, 14.0, 1e-12, 1e-14, 0.0)
    a1 = np.array(m1).reshape(2, 2)
    a2 = np.array(m2).reshape(2, 2)
    a3 = np.array(m3).reshape(2, 2)
    assert np.allclose(a2 @ a1, a3, rtol=1e-8, atol=1e-12)


def test_chart_fields_consistent_with_plane(backend):
    # d/dtau of the chart coordinates along the plane flow, rescaled by w^2,
    # equals the chart vector field
    rng = np.random.default_rng(31)
    k, F = 0.04, 0.03
    for _ in range(50):
        u = float(rng.uniform(0.2, 2.0))
        v = float(rng.uniform(0.2, 2.0))
        du, dv = kernels.field_eval(0, 1.0, u, v, k, F)
        # u-direction chart
        z, w = to_chart_u(u, v)
        dz = (dv * u - v * du) / (u * u)
        dw = -du / (u * u)
        fz, fw = kernels.field_eval(1, 1.0, z, w, k, F)
        assert fz == pytest.approx(dz * w * w * u * u / (u * u), rel=1e-10) or \
            fz == pytest.approx(dz * w * w, rel=1e-10)
        assert fw == pytest.approx(dw * w * w, rel=1e-10)
        # v-direction chart
        q, w2 = to_chart_v(u, v)
        dq = (du * v - u * dv) / (v * v)
        dw2 = -dv / (v * v)
        fq, fw2 = kernels.field_eval(2, 1.0, q, w2, k, F)
        assert fq == pytest.approx(dq * w2 * w2, rel=1e-10, abs=1e-14)
        assert fw2 == pytest.approx(dw2 * w2 * w2, rel=1e-10, abs=1e-14)


def test_chart_roundtrip_identity():
    rng = np.random.default_rng(32)
    for _ in range(100):
        u = float(rng.uniform(0.01, 3.0))
        v = float(rng.uniform(0.01, 3.0))
        zu = from_chart_u(*to_chart_u(u, v))
        zv = from_chart_v(*to_chart_v(u, v))
        assert abs(zu[0] - u) <= 1e-12 * max(1, u) and abs(zu[1] - v) <= 1e-12 * max(1, v)
        assert abs(zv[0] - u) <= 1e-12 * max(1, u) and abs(zv[1] - v) <= 1e-12 * max(1, v)


def test_backward_time_integration(backend):
    # forward then backward returns to the start
    k, F = 0.05, 0.028
    st, t, x, y, *_ = kernels.integrate(0, 0.6, 0.2, k, F, 20.0, 1e-12,
                                        1e-14, 0.0, 10**7, 1.0, True, False)
    st2, t2, x2, y2, *_ = kernels.integrate(0, x, y, k, F, 20.0, 1e-12,
                                            1e-14, 0.0, 10**7, -1.0, False,
                                            False)
    assert abs(x2 - 0.6) < 1e-9 and abs(y2 - 0.2) < 1e-9


# ---------------------------------------------------------------------------
# early stops of ray_crossings
# ---------------------------------------------------------------------------

def _probe_args(k, F, time_sign, t_max=2e5, n=400):
    """ray_crossings arguments of a probe_region probe at (k, F)."""
    from gskit import dynamics

    frame = dynamics.section_frame(Params(k, F))
    c, d = frame.center, frame.direction
    r0 = max(1e-4, 0.02 * frame.r_max)
    orient = frame.orientation if time_sign > 0 else -frame.orientation
    args = (c.u + r0 * d[0], c.v + r0 * d[1], k, F, c.u, c.v, d[0], d[1],
            orient, n, t_max, 1e-8, 1e-11, 0.0, 1e-12, 1e-9, time_sign,
            time_sign > 0)
    return args, frame


def test_reversed_probe_exits_escape_box(backend):
    # a label-4 cell: the reversed orbit from the stable focus blows up
    args, _ = _probe_args(0.055, 0.055, -1.0)
    st, hits = kernels.ray_crossings(*args, box=10.0)
    st0, hits0 = kernels.ray_crossings(*args)
    assert st == kernels.BOX_EXIT
    assert st0 == kernels.UNDERFLOW
    assert hits == hits0[:len(hits)]


def test_forward_probe_captured_by_node(backend):
    # a label-1 cell: the orbit leaves the unstable focus for (1, 0)
    from gskit import _pure

    k, F = 0.05, 0.02
    args, _ = _probe_args(k, F, 1.0)
    st, hits = kernels.ray_crossings(*args)
    assert st == kernels.CAPTURED
    x0, y0, _, _, cx, cy, dx, dy, _, _, t_max, rtol, atol = args[:13]
    eps, delta = _pure._node_box(k, F)
    assert _pure._ray_misses_box(cx, cy, dx, dy, 1e-12, 1 - eps, 1 + eps,
                                 0.0, delta)
    # the same stepper run by integrate reaches the capture state
    _, _, _, _, _, xs, ys = kernels.integrate(
        0, x0, y0, k, F, t_max, rtol, atol, 0.0, 10**7, 1.0, True, True)
    shrink = 1.0 - _pure._CAPTURE_MARGIN
    i = next(i for i in range(1, len(xs))
             if abs(1.0 - xs[i]) <= shrink * eps and 0.0 <= ys[i] <= shrink * delta)
    # from there the orbit stays in the invariant box and never meets the ray
    _, _, _, _, _, xs, ys = kernels.integrate(
        0, xs[i], ys[i], k, F, t_max, rtol, atol, 0.0, 10**7, 1.0, True, True)
    xs, ys = np.asarray(xs), np.asarray(ys)
    assert np.all(np.abs(1.0 - xs) <= eps) and np.all((ys >= 0) & (ys <= delta))
    g = dx * (ys - cy) - dy * (xs - cx)
    flips = np.nonzero(np.sign(g[1:]) != np.sign(g[:-1]))[0]
    for j in flips:
        w = g[j] / (g[j] - g[j + 1])
        s = ((xs[j] + w * (xs[j + 1] - xs[j]) - cx) * dx
             + (ys[j] + w * (ys[j + 1] - ys[j]) - cy) * dy)
        assert s <= 0.0


def _first_settled(radii, tol):
    """Index of the newest radius of the first triple settled within tol,
    or None."""
    for i in range(2, len(radii)):
        r0, r1, r2 = radii[i - 2:i + 1]
        if r2 < tol or (abs(r2 - r1) < tol * max(1.0, r2)
                        and abs(r1 - r0) < tol * max(1.0, r1)):
            return i
    return None


def test_settled_sequence_is_a_prefix(backend, monkeypatch):
    # a label-2 cell: the reversed orbit settles onto the repelling cycle
    from gskit import _pure, dynamics

    args, frame = _probe_args(0.06, 0.0465, -1.0)
    st, hits = kernels.ray_crossings(*args, box=10.0)
    assert st == kernels.SETTLED
    radii = [h[1] for h in hits]
    assert _first_settled(radii, kernels.SETTLE_TOL) == len(radii) - 1
    assert dynamics._attractor_kind(radii, frame.r_max, True) == ("cycle", radii[-1])
    # the pure kernel with a zero tolerance never settles: the full run
    monkeypatch.setattr(_pure, "SETTLE_TOL", 0.0)
    kernels.use_backend("pure")
    st0, hits0 = kernels.ray_crossings(*args, box=10.0)
    assert st0 != kernels.SETTLED and len(hits0) > len(hits)
    if backend == "pure":
        assert hits == hits0[:len(hits)]
    else:
        np.testing.assert_allclose(hits, hits0[:len(hits)], rtol=1e-9, atol=1e-12)
    # the full run settles first at the same crossing, which is where a scan
    # of its radii for the first settled triple stops
    radii0 = [h[1] for h in hits0]
    assert _first_settled(radii0, kernels.SETTLE_TOL) == len(radii) - 1
