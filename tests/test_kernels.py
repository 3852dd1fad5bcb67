import ctypes
import json
import math
import os
import re
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gskit import kernels
from gskit.core import Params, vector_field
from gskit.dynamics import from_chart_v
from gskit.errors import DomainError

BACKENDS = kernels.available_backends()
ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(params=BACKENDS)
def backend(request):
    kernels._use_backend(request.param)
    yield request.param
    kernels._use_backend(BACKENDS[0])


# one call per entry point, every argument a Python scalar or a list of floats
_CALLS = {
    "integrate": (0, 0.8, 0.2, 0.05, 0.025, 50.0, 1e-11, 1e-14, 10**7, True),
    "ray_crossings": (0.7, 0.2, 0.04, 0.02, 0.0, 0.25, 1.0, 0.0, 1, 4, 600.0,
                      1e-11, 1e-13, 1e-9, 1.0),
    "monodromy": (0.55, 0.22, 0.03, 0.055, 7.0, 1e-12, 1e-14),
    "field_eval": (2, -1.0, 0.3, 0.4, 0.05, 0.02),
    "probe_cell": (0.06, 0.0465),
    "solve": ([0.3, -1.2, 0.7, 2.0, 1.1, 0.4, -0.9, 0.25, 0.6, 0.8, 1.7, -0.3,
               0.05, 0.9, -0.4, 1.3], [0.1, -0.2, 0.3, 1e-13]),
}


def _entry(name):
    """The kernels entry point that _CALLS[name] calls; the field evaluation
    is private (kernels._field_eval)."""
    return getattr(kernels, "_field_eval" if name == "field_eval" else name)


def _bits(value):
    """value with every float replaced by its IEEE bit pattern, so that ==
    tells nan from nan only by its bits and 0.0 from -0.0."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, (list, tuple)):
        return type(value)(_bits(v) for v in value)
    return value


def _on_each_backend(fn, *args):
    """{backend: bit patterns of fn(*args)} over the available backends."""
    results = {}
    try:
        for b in BACKENDS:
            kernels._use_backend(b)
            results[b] = _bits(fn(*args))
    finally:
        kernels._use_backend(BACKENDS[0])
    return results


# ---------------------------------------------------------------------------
# building and selecting the C kernels
# ---------------------------------------------------------------------------

@pytest.mark.skipif(shutil.which("gcc") is None, reason="no C compiler on PATH")
def test_compiled_backend_loads():
    # wherever gcc is on PATH the C twin builds on first import and is the
    # default backend
    assert "compiled" in BACKENDS, kernels.COMPILED_ERROR
    assert kernels.COMPILED_ERROR is None


def test_failed_build_falls_back_to_pure(monkeypatch, tmp_path):
    # a compiler that cannot run: the loader reports why instead of raising
    missing = str(tmp_path / "no-such-gcc")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(kernels, "_CC", missing)
    impl, reason = kernels._load()
    assert impl is None and missing in reason
    assert not list((tmp_path / "cache" / "gskit").iterdir())


def _import_in_subprocess(env):
    code = ("from gskit import kernels; "
            "print(kernels.get_backend(), kernels.available_backends(), "
            "kernels.COMPILED_ERROR)")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), **env}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_without_compiler_runs_pure(tmp_path):
    # no gcc on PATH and an empty cache: import still succeeds, on the pure
    # backend, and says why
    out = _import_in_subprocess({"PATH": str(tmp_path),
                                 "XDG_CACHE_HOME": str(tmp_path / "cache")})
    assert out.startswith("pure ('pure',) FileNotFoundError")


@pytest.mark.skipif(shutil.which("gcc") is None, reason="no C compiler on PATH")
def test_concurrent_first_imports_share_one_build(tmp_path):
    # more processes than cores import at once with an empty cache: each
    # compiles under a temporary name and renames it into place, so all of
    # them load the C kernels and the cache ends with one library
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
           "XDG_CACHE_HOME": str(tmp_path)}
    # the build is under test, whatever backend the suite runs on
    env.pop("GSKIT_BACKEND", None)
    code = "from gskit import kernels; print(kernels.get_backend())"
    procs = [subprocess.Popen([sys.executable, "-c", code], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True) for _ in range(4)]
    outs = [p.communicate(timeout=120) for p in procs]
    assert [p.returncode for p in procs] == [0] * 4, [err for _, err in outs]
    assert [out for out, _ in outs] == ["compiled\n"] * 4
    files = [f.name for f in (tmp_path / "gskit").iterdir()]
    assert len(files) == 1 and files[0].endswith(".so"), files


@pytest.mark.skipif(shutil.which("gcc") is None, reason="no C compiler on PATH")
def test_build_removes_stale_libraries(monkeypatch, tmp_path):
    # the cache keeps the libraries of the newest four _kernel.c versions:
    # the build of a fifth removes the oldest
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    cache = tmp_path / "gskit"
    cache.mkdir()
    stale = [cache / f"_kernel-{i:016x}.so" for i in range(4)]
    for i, path in enumerate(stale):
        path.write_bytes(b"stale")
        os.utime(path, (1e9 + i, 1e9 + i))
    lib = kernels._build()
    assert sorted(f.name for f in cache.iterdir()) == sorted(
        [lib.name] + [path.name for path in stale[1:]])


@pytest.mark.skipif(shutil.which("gcc") is None, reason="no C compiler on PATH")
def test_c_twin_is_clean_and_fully_bound():
    # strict C99 with every warning on prints nothing, and the non-static
    # gs_* functions of _kernel.c are exactly those _CKernels binds, each
    # with its C return type: no export is dead and none is unbound
    proc = subprocess.run(["gcc", "-std=c99", "-pedantic", "-Wall", "-Wextra",
                           "-fsyntax-only", str(kernels._SOURCE)],
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout + proc.stderr) == (0, "")
    exported = re.findall(r"^(?!static\b)(\w+)\s+(gs_\w+)\s*\(",
                          kernels._SOURCE.read_text(), re.MULTILINE)
    restypes = {"void": None, "int": ctypes.c_int}
    assert {name: restypes[ctype] for ctype, name in exported} == {
        name: restype
        for name, (restype, _) in kernels._CKernels._signatures().items()}


def test_backend_forced_pure():
    out = _import_in_subprocess({"GSKIT_BACKEND": "pure"})
    assert out.startswith("pure ")


def test_integrate_reaches_t_end(backend):
    st, t, x, y, *_ = kernels.integrate(0, 0.9, 0.1, 0.07, 0.02, 1500.0,
                                        1e-10, 1e-13, 10**7, False)
    assert st == kernels.OK and t == 1500.0
    # Delta < 0 here: the only attractor is (1, 0)
    assert abs(x - 1.0) < 1e-6 and abs(y) < 1e-9


def test_backends_agree():
    # every returned number, samples and hit tuples included, is equal
    for name, args in _CALLS.items():
        results = _on_each_backend(_entry(name), *args)
        assert all(r == results["pure"] for r in results.values()), name


def test_fixed_step_convergence_order(backend):
    args = (0, 0.6, 0.25, 0.046, 0.026)
    ref = kernels.integrate(*args, 40.0, 1e-13, 1e-16, 10**7, False)
    errs = []
    for h in (0.2, 0.1):
        st, t, x, y, *_ = kernels.integrate(*args, 40.0, 1e-9, 1e-12, 10**7,
                                            False, fixed_step=h)
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
    hits = []
    for orient in (1, -1):
        st, h = kernels.ray_crossings(0.7, 0.2, k, F, 0.0, 0.25, 1.0, 0.0,
                                      orient, 4, 600.0, 1e-11, 1e-13, 1e-9,
                                      1.0)
        hits += h
    assert hits
    for t, s, x, y in hits:
        ref = sol.sol(t)
        assert abs(ref[1] - 0.25) < 1e-7
        assert abs(ref[0] - x) < 1e-7


def test_quadrant_guard_snaps_to_axis(backend):
    # from a state with tiny v the orbit hugs the invariant axis; samples
    # must never dip below -abs_tol
    st, t, x, y, ts, xs, ys = kernels.integrate(
        0, 0.4, 1e-10, 0.05, 0.01, 2000.0, 1e-9, 1e-12, 10**7, True)
    assert st == kernels.OK
    assert min(ys) >= -1e-12
    assert min(xs) >= -1e-12


def test_monodromy_matches_exact_linear_flow(backend):
    # at the trivial point the variational system is diagonal with rates
    # -F and -(F+k)
    k, F, T = 0.06, 0.04, 12.5
    st, x, y, m11, m12, m21, m22 = kernels.monodromy(1.0, 0.0, k, F, T,
                                                     1e-12, 1e-14)
    assert st == kernels.OK
    assert m11 == pytest.approx(math.exp(-F * T), rel=1e-9)
    assert m22 == pytest.approx(math.exp(-(F + k) * T), rel=1e-9)
    assert abs(m12) < 1e-12 and abs(m21) < 1e-12


def test_monodromy_fundamental_property(backend):
    # M(2T) = M(T over the translated segment) M(T): check det via Liouville
    k, F = 0.03, 0.055
    x0, y0 = 0.55, 0.22
    st, x1, y1, *m1 = kernels.monodromy(x0, y0, k, F, 7.0, 1e-12, 1e-14)
    st2, x2, y2, *m2 = kernels.monodromy(x1, y1, k, F, 7.0, 1e-12, 1e-14)
    st3, x3, y3, *m3 = kernels.monodromy(x0, y0, k, F, 14.0, 1e-12, 1e-14)
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
        du, dv = kernels._field_eval(0, 1.0, u, v, k, F)
        # v-direction chart
        q, w2 = u / v, 1 / v
        dq = (du * v - u * dv) / (v * v)
        dw2 = -dv / (v * v)
        fq, fw2 = kernels._field_eval(2, 1.0, q, w2, k, F)
        assert fq == pytest.approx(dq * w2 * w2, rel=1e-10, abs=1e-14)
        assert fw2 == pytest.approx(dw2 * w2 * w2, rel=1e-10, abs=1e-14)


def test_chart_roundtrip_identity():
    rng = np.random.default_rng(32)
    for _ in range(100):
        u = float(rng.uniform(0.01, 3.0))
        v = float(rng.uniform(0.01, 3.0))
        zv = from_chart_v(u / v, 1 / v)
        assert abs(zv[0] - u) <= 1e-12 * max(1, u) and abs(zv[1] - v) <= 1e-12 * max(1, v)


def test_backward_time_integration(backend):
    # forward then backward returns to the start: the reversed orbit crosses
    # a ray through the start, normal to the flow there, at t = 20
    k, F = 0.05, 0.028
    st, t, x, y, *_ = kernels.integrate(0, 0.6, 0.2, k, F, 20.0, 1e-12,
                                        1e-14, 10**7, False)
    fx, fy = kernels._field_eval(0, -1.0, 0.6, 0.2, k, F)
    norm = math.hypot(fx, fy)
    dx, dy = fy / norm, -fx / norm
    st2, hits = kernels.ray_crossings(x, y, k, F, 0.6 - 0.05 * dx,
                                      0.2 - 0.05 * dy, dx, dy, 1, 1, 21.0,
                                      1e-12, 1e-14, 19.0, -1.0)
    assert st2 == kernels.OK
    t2, _, x2, y2 = hits[0]
    assert abs(t2 - 20.0) < 1e-9
    assert abs(x2 - 0.6) < 1e-9 and abs(y2 - 0.2) < 1e-9


# ---------------------------------------------------------------------------
# early stops of ray_crossings
# ---------------------------------------------------------------------------

def _probe_args(k, F, time_sign, t_max=2e5, n=400):
    """ray_crossings arguments of a probe_region probe at (k, F), and the
    frame tuple (unstable, cu, cv, d0, d1, orient, r_max) of the cell."""
    from gskit import _pure

    frame = _pure._probe_frame(k, F)
    _, cu, cv, d0, d1, orient, r_max = frame
    r0 = max(1e-4, 0.02 * r_max)
    orient = orient if time_sign > 0 else -orient
    args = (cu + r0 * d0, cv + r0 * d1, k, F, cu, cv, d0, d1,
            orient, n, t_max, 1e-8, 1e-11, 1e-9, time_sign)
    return args, frame


def _reversed_steps(args, until):
    """(status, states): the state (t, x, y) after each accepted step of
    the reversed stepper that ray_crossings(*args) runs, up to the first
    for which until(x, y) holds or the stepper fails."""
    from gskit import _pure

    x0, y0, k, F = args[:4]
    t_max, rtol, atol = args[10:13]
    st = _pure._Stepper(_pure.FIELD_PLANE, -1.0, x0, y0, k, F, rtol, atol)
    states = []
    while st.t < t_max:
        status = st.advance(t_max)
        if status != kernels.OK:
            return status, states
        states.append((st.t, st.x, st.y))
        if until(st.x, st.y):
            return kernels.OK, states
    return kernels.MAX_STEPS, states


def test_reversed_probe_exits_escape_box(backend):
    # a label-4 cell: the reversed orbit from the stable focus blows up
    from gskit import _pure

    args, frame = _probe_args(0.055, 0.055, -1.0)
    s_ray = _pure._escape_sum(frame)
    st, hits = kernels.ray_crossings(*args, escape_sum=s_ray)
    st0, hits0 = kernels.ray_crossings(*args)
    assert st == kernels.BOX_EXIT
    assert st0 == kernels.UNDERFLOW
    assert hits == hits0[:len(hits)]
    # the unstopped run blows up with u -> -inf, v -> +inf and u + v
    # bounded: a stop on u + v alone would not end it
    status, states = _reversed_steps(args, lambda x, y: False)
    assert status == kernels.UNDERFLOW
    _, x, y = states[-1]
    assert x < -10.0 and y > 10.0 and x + y < 10.0


def test_reversed_stop_keeps_the_hits_within_r_max(backend):
    # reversed probes of seeded random pair cells of the criterion-10
    # window, from the focus side and from near r_max: the stop drops no
    # hit with s <= r_max, and the state where it ends the run is outside
    # R = {u >= 0, u + v <= S_ray}
    import random

    from gskit import _pure
    from gskit.equilibria import equilibria

    rng = random.Random(2017)
    exits = 0
    for _ in range(40):
        k, F = rng.uniform(1e-9, 0.07), rng.uniform(1e-9, 0.07)
        if equilibria(Params(k, F)).kind != "pair":
            continue
        args, frame = _probe_args(k, F, -1.0)
        s_ray = _pure._escape_sum(frame)
        _, cu, cv, d0, d1, _, r_max = frame
        for r0 in (max(1e-4, 0.02 * r_max), 0.9 * r_max):
            args = (cu + r0 * d0, cv + r0 * d1) + args[2:]
            # the probe of _pure._section_radii, on the active backend
            status, hits = kernels.ray_crossings(*args, escape_sum=s_ray)
            radii = [h[1] for h in hits]
            st0, hits0 = kernels.ray_crossings(*args)
            assert radii == [h[1] for h in hits0[:len(radii)]]
            within = [h for h in hits0 if h[1] <= r_max]
            assert [r for r in radii if r <= r_max] == [h[1] for h in within]
            # every hit on the segment lies in R
            assert all(x >= 0.0 and x + y <= s_ray for _, _, x, y in within)
            if status != kernels.BOX_EXIT:
                assert status == st0 and len(radii) == len(hits0)
                continue
            exits += 1
            _, states = _reversed_steps(
                args, lambda x, y: x < 0.0 or x + y > s_ray)
            t, x, y = states[-1]
            assert x < 0.0 or x + y > s_ray
            # the run ended at that step: its hits are the unstopped run's
            # up to it, and none after it lies on the segment
            assert len(radii) == sum(h[0] <= t for h in hits0)
            assert all(h[1] > r_max for h in hits0[len(radii):])
    assert exits >= 20


def test_forward_probe_captured_by_node(backend):
    # a label-1 cell: the orbit leaves the unstable focus for (1, 0)
    from gskit import _pure

    k, F = 0.05, 0.02
    args, _ = _probe_args(k, F, 1.0)
    st, hits = kernels.ray_crossings(*args)
    assert st == kernels.CAPTURED
    x0, y0, _, _, cx, cy, dx, dy, _, _, t_max, rtol, atol = args[:13]
    eps, delta = _pure._node_box(k, F)
    assert _pure._ray_misses_box(cx, cy, dx, dy, 1 - eps, 1 + eps, 0.0, delta)
    # the same stepper run by integrate reaches the capture state
    _, _, _, _, _, xs, ys = kernels.integrate(
        0, x0, y0, k, F, t_max, rtol, atol, 10**7, True)
    shrink = 1.0 - _pure._CAPTURE_MARGIN
    i = next(i for i in range(1, len(xs))
             if abs(1.0 - xs[i]) <= shrink * eps and 0.0 <= ys[i] <= shrink * delta)
    # from there the orbit stays in the invariant box and never meets the ray
    _, _, _, _, _, xs, ys = kernels.integrate(
        0, xs[i], ys[i], k, F, t_max, rtol, atol, 10**7, True)
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
    from gskit import _pure

    args, frame = _probe_args(0.06, 0.0465, -1.0)
    st, hits = kernels.ray_crossings(*args, escape_sum=10.0)
    assert st == kernels.SETTLED
    radii = [h[1] for h in hits]
    assert _first_settled(radii, kernels.SETTLE_TOL) == len(radii) - 1
    assert _pure._attractor_kind(radii, frame[-1], True) == ("cycle", radii[-1])
    # the pure kernel with a zero tolerance never settles: the full run
    monkeypatch.setattr(_pure, "SETTLE_TOL", 0.0)
    kernels._use_backend("pure")
    st0, hits0 = kernels.ray_crossings(*args, escape_sum=10.0)
    assert st0 != kernels.SETTLED and len(hits0) > len(hits)
    assert hits == hits0[:len(hits)]
    # the full run settles first at the same crossing, which is where a scan
    # of its radii for the first settled triple stops
    radii0 = [h[1] for h in hits0]
    assert _first_settled(radii0, kernels.SETTLE_TOL) == len(radii) - 1


# ---------------------------------------------------------------------------
# solve: the continuation engine's Newton step
# ---------------------------------------------------------------------------

def test_solve_has_the_bits_of_numpy(backend):
    # random well-conditioned systems of the two sizes the engine meets
    # ([jac; t] is 3 x 3 on the fold-of-cycles curve and 4 x 4 on the
    # equilibrium curves), and badly scaled ones: the curves pinned in the
    # tests and the benchmark reference were recorded with np.linalg.solve,
    # whose OpenBLAS kernels fuse multiply-adds on x86-64
    rng = np.random.default_rng(28)
    for n in (3, 4):
        for _ in range(200):
            A = rng.uniform(-1, 1, (n, n)) + n * np.eye(n)
            b = rng.uniform(-1, 1, n)
            assert kernels.solve(A.ravel().tolist(), b.tolist()) == np.linalg.solve(A, b).tolist()
        for _ in range(200):
            A = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-6, 3, (n, n))
            b = rng.standard_normal(n) * 10.0 ** rng.integers(-12, 0, n)
            assert kernels.solve(A.ravel().tolist(), b.tolist()) == np.linalg.solve(A, b).tolist()


def test_solve_gives_none_where_lapack_fails(backend):
    # a zero pivot column, where np.linalg.solve raises LinAlgError
    singular = [1.0, 2.0, 0.0, 3.0, 4.0, 0.0, 5.0, 6.0, 0.0]
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(np.reshape(singular, (3, 3)), np.ones(3))
    assert kernels.solve(singular, [1.0, 1.0, 1.0]) is None
    assert kernels.solve([1.0, 2.0, 2.0, 4.0], [1.0, 0.0]) is None
    # factors or a solution that are not finite
    assert kernels.solve([1.0, 0.0, 0.0, math.nan], [1.0, 1.0]) is None
    assert kernels.solve([1.0, 0.0, 0.0, 1.0], [math.inf, 1.0]) is None
    assert kernels.solve([1e-300, 0.0, 0.0, 1.0], [1e300, 1.0]) is None
    # the arguments are left as they were
    m, y = [2.0, 1.0, 1.0, 3.0], [1.0, 2.0]
    assert kernels.solve(m, y) == np.linalg.solve(np.reshape(m, (2, 2)), y).tolist()
    assert (m, y) == ([2.0, 1.0, 1.0, 3.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="5 matrix entries for 2 unknowns"):
        kernels.solve([1.0] * 5, [1.0, 1.0])


# ---------------------------------------------------------------------------
# the kernel interface: argument conversion at the kernels boundary
# ---------------------------------------------------------------------------



def _as_numpy(args):
    return tuple(np.float64(a) if type(a) is float else
                 np.int64(a) if type(a) is int else
                 np.bool_(a) if type(a) is bool else
                 np.array(a) if type(a) is list else a for a in args)


@pytest.mark.parametrize("name", sorted(_CALLS))
def test_numpy_arguments_give_the_same_result(backend, name):
    fn = _entry(name)
    assert fn(*_as_numpy(_CALLS[name])) == fn(*_CALLS[name])


@pytest.mark.parametrize("name", sorted(_CALLS))
def test_pure_kernels_return_python_floats(name):
    kernels._use_backend("pure")
    try:
        result = _entry(name)(*_as_numpy(_CALLS[name]))
    finally:
        kernels._use_backend(BACKENDS[0])
    if name in ("field_eval", "solve"):
        numbers = list(result)
    elif name == "probe_cell":
        assert type(result) is int and kernels.CELL_LABELS[result] == "2"
        numbers = []
    elif name == "ray_crossings":
        assert type(result[0]) is int and result[1]
        numbers = [x for hit in result[1] for x in hit]
    else:  # integrate: t, x, y and the samples; monodromy: x, y, the matrix
        assert type(result[0]) is int
        numbers = [x for v in result[1:] for x in (v if isinstance(v, list) else [v])]
    assert all(type(x) is float for x in numbers)


@pytest.mark.filterwarnings("error")
def test_reversed_blowup_status_does_not_depend_on_input_type(backend):
    # a reversed-time blow-up without a stop box: run in numpy scalar
    # arithmetic it overflows with RuntimeWarnings; the conversion at the
    # boundary runs both calls in Python floats
    args = (0.3, 0.5, 0.055, 0.055, 0.0, 0.25, 1.0, 0.0, 1, 400, 2e4, 1e-11,
            1e-14, 0.0, -1.0)
    st = kernels.ray_crossings(*args)[0]
    assert st == kernels.ray_crossings(*_as_numpy(args))[0] == kernels.UNDERFLOW


@pytest.mark.filterwarnings("error")
def test_overflowing_first_step_estimate_underflows(backend):
    # at (3, 1e80) the field's squares in the first-step estimate overflow:
    # the estimate is 0, so each kernel stops with UNDERFLOW
    x0, y0, k, F = 3.0, 1e80, 0.055, 0.055
    assert kernels.monodromy(x0, y0, k, F, 20.0, 1e-11,
                             1e-14)[0] == kernels.UNDERFLOW
    assert kernels.integrate(0, x0, y0, k, F, 20.0, 1e-11, 1e-14, 10**7,
                             False)[0] == kernels.UNDERFLOW
    assert kernels.ray_crossings(x0, y0, k, F, 0.5, 0.5, 1.0, 0.0, 1, 1, 20.0,
                                 1e-11, 1e-14, 0.0,
                                 -1.0)[0] == kernels.UNDERFLOW


@pytest.mark.filterwarnings("error")
def test_nan_first_step_underflows(backend):
    # at (1, inf) the field holds inf - inf, so the first-step estimate is
    # nan and every trial step would be rejected: each kernel stops at once
    x0, y0, k, F = 1.0, math.inf, 0.05, 0.02
    assert kernels.integrate(0, x0, y0, k, F, 10.0, 1e-8, 1e-11, 1000,
                             False)[0] == kernels.UNDERFLOW
    assert kernels.ray_crossings(x0, y0, k, F, 0.5, 0.5, 1.0, 0.0, 1, 1, 10.0,
                                 1e-8, 1e-11, 0.0,
                                 1.0)[0] == kernels.UNDERFLOW
    assert kernels.monodromy(x0, y0, k, F, 10.0, 1e-8,
                             1e-11)[0] == kernels.UNDERFLOW


def test_fixed_step_blowup_returns_the_same_nan():
    # the first fixed step reaches (inf, -inf) and the next gives nan; the
    # two backends return the same nan, sign bit included
    args = (0, 0.2249, 1e3, 0.05, 0.03, 5.0, 1e-8, 1e-11, 100, True, 0.1, 0.0)
    results = _on_each_backend(kernels.integrate, *args)
    assert math.isnan(struct.unpack("<d", results["pure"][2])[0])
    assert all(r == results["pure"] for r in results.values())


@pytest.mark.parametrize("fid", [0, 2])
@pytest.mark.parametrize("x, y", [
    (math.nan, 0.5), (-math.nan, 0.5), (0.5, math.nan), (0.5, -math.nan),
    (math.inf, 0.0), (0.0, math.inf), (math.inf, -math.inf),
])
def test_field_nan_bits_agree(fid, x, y):
    # where one input is nan, or inf meets 0 or -inf, each component is the
    # same nan on both backends
    for sgn in (1.0, -1.0):
        results = _on_each_backend(kernels._field_eval, fid, sgn, x, y, 0.05, 0.03)
        assert all(r == results["pure"] for r in results.values()), sgn


class _NoBackend:
    """A kernel backend whose every entry point fails when called."""

    def __getattr__(self, name):
        def entered(*args):
            raise AssertionError(f"a backend was entered: {name}")
        return entered


@pytest.mark.parametrize("fid", [-1, 1, 3])
def test_unknown_field_id_raises(backend, fid, monkeypatch):
    # only FIELD_PLANE and FIELD_CHART_V are fields; every other id raises at
    # the entry point, before the active backend or any other is entered
    for impl in (kernels._impl, _NoBackend()):
        monkeypatch.setattr(kernels, "_impl", impl)
        with pytest.raises(ValueError, match="unknown field id"):
            kernels._field_eval(fid, 1.0, 0.3, 0.4, 0.05, 0.02)
        with pytest.raises(ValueError, match="unknown field id"):
            kernels.integrate(fid, 0.3, 0.4, 0.05, 0.02, 1.0, 1e-8, 1e-11,
                              100, True)


@pytest.mark.parametrize("fid, w, expected", [
    (2, -1e80, (None, None)),             # w ** 3 = -1e240 is finite
    (2, -1e160, (math.nan, -math.inf)),   # k q w w - ... + F w ** 3: inf - inf
    (2, -1e110, (-math.inf, -math.inf)),  # w ** 3 overflows, negative
    (2, 1e110, (math.inf, math.inf)),
])
def test_chart_field_power_overflow_is_signed_inf(backend, fid, w, expected):
    # Python's ** raises OverflowError where C's pow returns the signed inf;
    # both backends give the inf
    got = kernels._field_eval(fid, 1.0, 0.5, w, 0.05, 0.02)
    for g, e in zip(got, expected):
        if e is None:
            assert math.isfinite(g)
        elif math.isnan(e):
            assert math.isnan(g)
        else:
            assert g == e


# ---------------------------------------------------------------------------
# exact parity of the two backends on random inputs
# ---------------------------------------------------------------------------

def _section_ray(k, F):
    """Center, direction and orientation of section_frame's ray at (k, F),
    or a fixed ray off the node where there is no focus-type equilibrium."""
    from gskit import dynamics

    try:
        _, cu, cv, d0, d1, orient, _ = dynamics.section_frame(Params(k, F))
    except DomainError:
        return (0.5, 0.25), (0.0, 1.0), 1
    return (cu, cv), (d0, d1), orient


_STATUSES = {kernels.OK, kernels.MAX_STEPS, kernels.UNDERFLOW,
             kernels.BOX_EXIT, kernels.CAPTURED, kernels.SETTLED}


def test_backends_agree_on_random_inputs():
    # all five entry points, compared by ==; the explicit examples make sure
    # that the statuses reached include every status a kernel can return,
    # and the map cells at their (k, F) the labels 1, 2 and 4
    seen, codes = set(), set()

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(k=st.floats(0.0, 0.08), F=st.floats(0.0, 0.08),
           x0=st.floats(0.0, 1.5),
           y0=st.one_of(st.floats(0.0, 1.5), st.floats(1e3, 1e200)),
           time_sign=st.sampled_from([1.0, -1.0]),
           rtol=st.floats(1e-11, 1e-6),
           fid=st.sampled_from([kernels.FIELD_PLANE, kernels.FIELD_CHART_V]),
           t_end=st.floats(0.0, 400.0),
           max_steps=st.sampled_from([40, 4000]),
           box=st.sampled_from([0.0, 10.0]))
    # SETTLED: a reversed probe settles onto the repelling cycle (label 2)
    @example(k=0.06, F=0.0465, x0=0.4194542937169253, y0=0.24730967009262803,
             time_sign=-1.0, rtol=1e-8, fid=0, t_end=100.0, max_steps=4000,
             box=10.0)
    # CAPTURED: a forward probe ends at the trivial node (label 1)
    @example(k=0.05, F=0.02, x0=0.42793139587617207, y0=0.15979898987322322,
             time_sign=1.0, rtol=1e-8, fid=0, t_end=100.0, max_steps=4000,
             box=0.0)
    # BOX_EXIT, and UNDERFLOW without the box: a reversed blow-up (label 4)
    @example(k=0.055, F=0.055, x0=0.3225368776732832, y0=0.32987048957087495,
             time_sign=-1.0, rtol=1e-8, fid=0, t_end=2e3, max_steps=4000,
             box=10.0)
    @example(k=0.055, F=0.055, x0=0.3225368776732832, y0=0.32987048957087495,
             time_sign=-1.0, rtol=1e-8, fid=0, t_end=2e3, max_steps=4000,
             box=0.0)
    def agree(k, F, x0, y0, time_sign, rtol, fid, t_end, max_steps, box):
        atol = 1e-3 * rtol
        (cx, cy), (dx, dy), orient = _section_ray(k, F)
        calls = {
            "integrate": (fid, x0, y0, k, F, t_end, rtol, atol, max_steps,
                          True, 0.0, box),
            "field_eval": (fid, time_sign, x0, y0, k, F),
        }
        # ray_crossings and monodromy take no step budget, so a time horizon
        # bounds their runs; forward from v > 1.5 the plane field is stiff
        # (rate -v^2) and the stable explicit step is about 3 / v^2, so a
        # horizon of 100 / v^2 keeps those calls to a few dozen steps
        stiff = y0 > 1.5
        # forward, v also climbs towards S = u + v, and S' = F (1 - S) - k v
        # brings S back under 1.5 only after a time of order 1 / (F + k): at
        # F + k < 1e-4 a pure run from S > 1.5 over the 2e5 horizon takes
        # 1.5-5 s (under 1 s at larger F + k), so those runs get the cap
        # 100 / S^2 too
        s0 = x0 + y0
        slow = stiff or (s0 > 1.5 and F + k < 1e-4)
        calls["ray_crossings"] = (x0, y0, k, F, cx, cy, dx, dy,
                                  orient if time_sign > 0 else -orient, 400,
                                  100.0 / s0 / s0 if slow and time_sign > 0
                                  else 2e5, rtol, atol, 1e-9, time_sign, box)
        # monodromy always runs forward
        calls["monodromy"] = (x0, y0, k, F,
                              min(t_end, 100.0 / y0 / y0) if stiff else t_end,
                              rtol, atol)
        # the map cell takes positive k and F
        if k > 0.0 and F > 0.0:
            calls["probe_cell"] = (k, F)
        for name, args in calls.items():
            results = _on_each_backend(_entry(name), *args)
            assert all(r == results["pure"] for r in results.values()), name
            if name == "probe_cell":
                codes.add(results["pure"])
            elif name != "field_eval":
                seen.add(results["pure"][0])

    agree()
    assert seen == _STATUSES
    assert {1, 2, 4} <= codes


_NEEDS_C = pytest.mark.skipif(
    "compiled" not in BACKENDS,
    reason=f"the C kernels did not build: {kernels.COMPILED_ERROR}")


@pytest.mark.parametrize("workload", [
    *(pytest.param(w, marks=_NEEDS_C) for w in ("map", "cycles", "portrait")),
    "verify"])
def test_benchmark_outputs_on_compiled_backend(monkeypatch, workload):
    # perfbench compares its byte digests (map CSV, portrait SVG and CSV,
    # trajectory sample counts) only on the backend its reference was
    # recorded on; run those checks here on the C kernels.  verify makes no
    # kernel call, so it runs on the active backend, C kernels or not
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    entries = json.loads((ROOT / "perfbench" / "reference.json").read_text())["entries"]
    if workload != "verify":
        kernels._use_backend("compiled")
    out = []
    try:
        workloads.RUNNERS[workload](workloads.select(workload, 1), out)
    finally:
        kernels._use_backend(BACKENDS[0])
    attempted, failed, msgs = workloads.check(out, entries, same_backend=True)
    assert attempted > 0 and failed == 0, msgs
