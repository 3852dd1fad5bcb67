import math

import numpy as np
import pytest

from gskit import _pure, bautin, dynamics, kernels
from gskit.core import Params, State, jacobian
from gskit.equilibria import discriminants, equilibria, hopf_F, saddle_node_F
from gskit.errors import DomainError, NoReturn, StepUnderflow
from reference import (bautin_polar_census, probe_frame_objects,
                       probe_region_route, section_frame_objects)


def test_integrate_constant_at_equilibrium():
    a = Params(0.05, 0.02)
    eq = equilibria(a)
    p = State(float(eq.p_mp.u), float(eq.p_mp.v))
    traj = dynamics.integrate(p, a, 100.0)
    assert np.max(np.abs(traj.u - p.u)) < 1e-10
    assert np.max(np.abs(traj.v - p.v)) < 1e-10


def test_integrate_to_trivial_attractor():
    traj = dynamics.integrate(State(0.9, 0.1), Params(0.07, 0.02), 4000.0)
    assert traj.final.u == pytest.approx(1.0, abs=1e-9)
    assert traj.final.v == pytest.approx(0.0, abs=1e-12)


def test_integrate_rejects_negative_start():
    with pytest.raises(DomainError):
        dynamics.integrate(State(-0.5, 0.1), Params(0.05, 0.02), 1.0)


def test_settings_validation():
    # every kernel call takes rtol and atol from IntegratorSettings, and the
    # kernels need both positive
    for bad in ({"rel_tol": -1.0}, {"rel_tol": 0.0}, {"abs_tol": 0.0}):
        with pytest.raises(DomainError):
            dynamics.IntegratorSettings(**bad)


def test_census_empty_outside_fold_region():
    assert dynamics.limit_cycle_census(Params(0.07, 0.02)) == []


def test_census_stable_cycle_below_hopf_supercritical():
    k = 0.02
    a = Params(k, float(hopf_F(k)) - 2e-5)
    cycles = dynamics.limit_cycle_census(a)
    assert len(cycles) == 1
    c = cycles[0]
    assert 0.0 < c.nontrivial_multiplier < 1.0
    assert c.stable
    assert c.period > 0


def test_census_unstable_cycle_above_hopf_subcritical():
    k = 0.05
    a = Params(k, float(hopf_F(k)) + 3e-4)
    cycles = dynamics.limit_cycle_census(a)
    assert len(cycles) == 1
    assert cycles[0].nontrivial_multiplier > 1.0
    assert not cycles[0].stable


def test_census_two_cycles_in_wedge():
    k = 0.034
    a = Params(k, float(hopf_F(k)) - 2e-6)
    cycles = dynamics.limit_cycle_census(a)
    assert len(cycles) == 2
    inner, outer = cycles
    assert inner.radius < outer.radius
    assert inner.stable and not outer.stable


def test_census_matches_polar_normal_form_counts():
    # map each probe point to the polar form (beta1, beta2) = (mu, L1/sqrt(L2))
    # and compare census size and stability ordering
    k = 0.034
    Fh = float(hopf_F(k))
    l2 = bautin.l2_kuz(Params(k, Fh))
    # probes sit inside each region of both the true system and the
    # truncated polar form (their fold curves differ at finite distance
    # from the organizing point)
    for dF, expected in ((+2e-5, 1), (-2e-6, 2), (-5e-4, 0)):
        a = Params(k, Fh + dF)
        census = dynamics.limit_cycle_census(a, n_scan=200)
        m = bautin.mu(a)
        l1 = bautin._l1_extended(equilibria(a).p_mp, a)
        polar = bautin_polar_census(m, l1 / math.sqrt(l2))
        assert len(census) == expected, (dF, census)
        assert len(polar) == expected, (dF, polar)
        if expected:
            assert [c.stable for c in census] == \
                [s == "stable" for _, s in polar]


def test_floquet_agrees_with_return_map_slope():
    k = 0.05
    a = Params(k, float(hopf_F(k)) + 3e-4)
    frame = dynamics.section_frame(a)
    cycles = dynamics.limit_cycle_census(a)
    c = cycles[0]
    r = c.radius
    dr = 1e-7 * max(1.0, r)
    tight = dynamics.IntegratorSettings(rel_tol=1e-12, abs_tol=1e-15)
    g1, _ = dynamics.return_map(a, r + dr, frame, tight)
    g0, _ = dynamics.return_map(a, r - dr, frame, tight)
    slope = (g1 - g0) / (2 * dr)
    assert slope == pytest.approx(c.nontrivial_multiplier, rel=1e-5)


def test_classify_region_signatures():
    assert dynamics.classify_region(Params(0.07, 0.02)).id == "outside"
    lab = dynamics.classify_region(Params(0.055, 0.055))
    assert lab.id == "4"
    lab = dynamics.classify_region(Params(0.05, 0.02))
    assert lab.id == "1"
    k = 0.02
    lab = dynamics.classify_region(Params(k, float(hopf_F(k)) - 2e-5))
    assert lab.id == "5"
    # on the fold, |Delta| <= 1e-10: no census
    lab = dynamics.classify_region(Params(0.04, float(saddle_node_F(0.04)[1])))
    assert lab.id in ("outside", "SN-degenerate")


def test_classify_region_locally_constant():
    base = Params(0.05, 0.03)
    lab1 = dynamics.classify_region(base)
    lab2 = dynamics.classify_region(Params(0.05 + 1e-6, 0.03 + 1e-6))
    assert lab1.id == lab2.id


def test_probe_region_agrees_with_census_classifier():
    pts = [(0.07, 0.02), (0.055, 0.055), (0.05, 0.02), (0.06, 0.055),
           (0.03, 0.02), (0.045, 0.045)]
    for k, F in pts:
        full = dynamics.classify_region(Params(k, F))
        fast = dynamics.probe_region(k, F)
        assert full.id == fast.id, (k, F, full, fast)


def _eigen_branch(a):
    """(branch, disc, J) of the closed-form eigenvector at a's focus-type
    point: 'node' (disc >= 0), or a focus whose eigenvector has its 'first'
    or its 'second' component largest."""
    jac = jacobian(equilibria(a).p_mp, a)
    (j11, j12), (j21, j22) = jac
    disc = (j11 - j22) ** 2 + 4 * j12 * j21
    m2 = ((j22 - j11) / 2) ** 2 - disc / 4
    return ("node" if disc >= 0 else "first" if j12 * j12 >= m2 else "second",
            disc, jac)


def test_probe_frame_matches_section_frame():
    # the closed-form frame of probe_region against numpy's eig over a grid
    # of the criterion-10 window that reaches every branch of the closed
    # form: nodes (disc >= 0) and foci whose eigenvector has its first or
    # its second component largest
    branches = set()
    for k in np.linspace(1e-9, 0.07, 50):
        for F in np.linspace(1e-9, 0.07, 50):
            a = Params(float(k), float(F))
            if discriminants(a).delta <= 0:
                continue
            branch, disc, ((j11, j12), (j21, j22)) = _eigen_branch(a)
            branches.add(branch)
            _, rcu, rcv, rd0, rd1, rorient, rr_max = dynamics.section_frame(a)
            _, cu, cv, d0, d1, orient, r_max = _pure._probe_frame(a.k, a.F)
            # near a double eigenvalue the eigenvector's condition number
            # |J| / |lambda1 - lambda2| is large, and LAPACK's direction
            # itself is off by up to 2.8e-15 from a 40-digit one there (over
            # the 200x200 map grid, where the two routes differ by 2.6e-15)
            cond = math.hypot(j11, j12, j21, j22) / math.sqrt(abs(disc))
            tol = max(2e-15, 2 * cond * np.finfo(float).eps)
            assert (cu, cv) == (rcu, rcv)
            assert max(abs(d0 - rd0), abs(d1 - rd1)) <= tol, (k, F)
            assert orient == rorient, (k, F)
            assert abs(r_max - rr_max) <= 1e-14 * rr_max, (k, F)
    assert branches == {"node", "first", "second"}


def _probe_cells(seed, n_random, n_curves):
    """Seeded cells of the criterion-10 window: n_random uniform ones, and
    for n_curves random k, cells within 1e-12 of both fold branches (Delta
    = 0) on both sides and cells on the Hopf curve and 1 ulp either side,
    where the trace at the focus-type point is about 0."""
    import random

    rng = random.Random(seed)
    cells = [(rng.uniform(1e-9, 0.07), rng.uniform(1e-9, 0.07))
             for _ in range(n_random)]
    for _ in range(n_curves):
        k = rng.uniform(1e-4, 0.0625)
        for F in saddle_node_F(k):
            cells += [(k, F + h) for h in (-1e-12, -1e-13, 0.0, 1e-13, 1e-12)]
        F = hopf_F(k)
        cells += [(k, F), (k, math.nextafter(F, 0.0)), (k, math.nextafter(F, 1.0))]
    return cells


def test_probe_frame_matches_object_route():
    # the float cell against the object route it replaced, compared with ==
    # on every float
    cells = _probe_cells(21, 400, 40)
    outside = 0
    for k, F in cells:
        ref, s_ray = probe_frame_objects(k, F)
        got = _pure._probe_frame(k, F)
        assert got == ref, (k, F)
        if got is None:
            outside += 1
        else:
            assert _pure._escape_sum(got) == s_ray, (k, F)
    assert 0 < outside < len(cells)


def test_probe_region_matches_python_route():
    # the one-call cell on each backend against the Python route it
    # replaced: seeded cells of the window, cells at the fold and at the
    # Hopf curve and its neighbours, over every branch of the closed-form
    # eigenvector.  The route's probes run on the first backend (the C
    # kernels where they built; ray_crossings returns the same bits on
    # both), since a Hopf cell takes about 0.2 s on the pure kernels
    cells = _probe_cells(26, 120, 4)
    branches = {_eigen_branch(Params(k, F))[0] for k, F in cells
                if discriminants(Params(k, F)).delta > 0}
    assert branches == {"node", "first", "second"}
    backend = kernels.get_backend()
    try:
        kernels._use_backend(kernels.available_backends()[0])
        want = [probe_region_route(k, F) for k, F in cells]
        for name in kernels.available_backends():
            kernels._use_backend(name)
            got = [dynamics.probe_region(k, F).id for k, F in cells]
            assert got == want, name
    finally:
        kernels._use_backend(backend)
    assert set(want) == {"outside", "1", "2", "3", "4"}


def test_section_frame_matches_object_route():
    # the shared frame routine with numpy's eig against the object route it
    # replaced, compared with == on every float, and raising DomainError on
    # the same cells: seeded cells of the criterion-10 window, cells within
    # 1e-12 of both fold branches, cells on the Hopf curve and 1 ulp either
    # side of it, and seeded Fraction cells, among them cells where Delta
    # is a rational square s^2 and the focus-type point is exact.  Where
    # Delta is exactly 0 the object route gave a frame at the degenerate
    # point; the shared routine raises DomainError there, as below 0
    import random
    from fractions import Fraction

    def square_cell(s, g):
        # Delta = 1 - 4 F g^2 = s^2 and gamma = (F + k) / F = g
        F = (1 - s * s) / (4 * g * g)
        return F * (g - 1), F

    rng = random.Random(22)
    cells = [(rng.uniform(1e-9, 0.07), rng.uniform(1e-9, 0.07))
             for _ in range(400)]
    for _ in range(40):
        k = rng.uniform(1e-4, 0.0625)
        for F in saddle_node_F(k):
            cells += [(k, F + h) for h in (-1e-12, -1e-13, 0.0, 1e-13, 1e-12)]
        F = hopf_F(k)
        cells += [(k, F), (k, math.nextafter(F, 0.0)), (k, math.nextafter(F, 1.0))]
    cells += [(Fraction(rng.randint(1, 70000), 10 ** 6),
               Fraction(rng.randint(1, 70000), 10 ** 6)) for _ in range(400)]
    cells += [square_cell(Fraction(rng.randint(1, 99), 100),
                          Fraction(rng.randint(101, 1000), 100))
              for _ in range(100)]
    cells += [(Fraction(1, 20), Fraction(2587, 100000)),
              (Fraction(1, 25), Fraction(1, 50))]
    raised = degenerate = 0
    for k, F in cells:
        a = Params(k, F)
        if discriminants(a).delta == 0:
            with pytest.raises(DomainError):
                dynamics.section_frame(a)
            degenerate += 1
            continue
        try:
            ref = section_frame_objects(a)
        except DomainError:
            with pytest.raises(DomainError):
                dynamics.section_frame(a)
            raised += 1
            continue
        assert dynamics.section_frame(a) == ref, (k, F)
    assert 0 < raised < len(cells) and degenerate > 0


def test_manifold_from_infinity_reaches_finite_attractor():
    for k, F in ((0.07, 0.02), (0.05, 0.03)):
        entry, attractor = dynamics.manifold_from_infinity(Params(k, F))
        assert entry is not None
        assert entry.v > entry.u          # enters steeply from large v
        assert attractor in ("p0", "p_mp")


def test_compactified_portrait_report():
    # at (0.07, 0.02) only the trivial point exists, and the manifold
    # entering from infinity reaches it
    p = Params(0.07, 0.02)
    assert len(equilibria(p).all_points()) == 1
    _, attractor = dynamics.manifold_from_infinity(p)
    assert attractor == "p0"


def test_render_portrait_deterministic():
    a = Params(0.07, 0.02)
    svg1, csv1, meta1 = dynamics.render_portrait(a)
    svg2, csv2, meta2 = dynamics.render_portrait(a)
    assert svg1 == svg2
    assert csv1 == csv2
    assert meta1 == meta2
    assert svg1.startswith("<svg ")
    assert "circle" in svg1


def test_render_portrait_two_nested_cycles():
    k = 0.034
    a = Params(k, float(hopf_F(k)) - 2e-6)
    svg, _, meta = dynamics.render_portrait(a)
    assert len(meta["cycles"]) == 2
    stable_stroke = svg.count('stroke="#1a5fb4"')
    unstable_stroke = svg.count('stroke="#a51d2d"')
    assert stable_stroke == 1 and unstable_stroke == 1


def test_render_portrait_single_attractor_outside():
    a = Params(0.07, 0.02)
    svg, _, meta = dynamics.render_portrait(a)
    assert meta["cycles"] == []
    assert len(meta["equilibria"]) == 1


def test_render_portrait_same_bytes_on_each_backend():
    # both backends return the same bits, so the same SVG and CSV text,
    # cycles included
    k = 0.034
    a = Params(k, float(hopf_F(k)) - 2e-6)
    backend = kernels.get_backend()
    try:
        outputs = {}
        for name in kernels.available_backends():
            kernels._use_backend(name)
            svg, csv_text, meta = dynamics.render_portrait(a)
            outputs[name] = (svg, csv_text)
    finally:
        kernels._use_backend(backend)
    assert len(meta["cycles"]) == 2
    assert all(out == outputs["pure"] for out in outputs.values())


def test_render_portrait_csv_fields_are_numpy_scalar_reprs(monkeypatch):
    # each CSV field is spelled as numpy spells the float64 scalar, for
    # signed zeros, exponents, subnormals and non-finite samples too
    values = [0.0, -0.0, 1e-05, 1e16, 5e-324, math.inf, math.nan]

    def integrate(*args, **kwargs):
        samples = np.array(values)
        return dynamics.Trajectory(t=samples, u=samples, v=samples[::-1],
                                   status=kernels.OK)

    monkeypatch.setattr(dynamics, "integrate", integrate)
    _, csv_text, _ = dynamics.render_portrait(Params(0.07, 0.02))
    rows = [line.split(",") for line in csv_text.splitlines()[1:]]
    assert rows == [[str(idx), repr(np.float64(t)), repr(np.float64(u)),
                     repr(np.float64(v))]
                    for idx in range(dynamics._SEEDS_PER_SIDE ** 2)
                    for t, u, v in zip(values, values, values[::-1])]


@pytest.mark.parametrize("error", [NoReturn, StepUnderflow, DomainError, RuntimeError])
def test_render_portrait_census_failures(monkeypatch, error):
    # a toolkit error of the census draws no cycle; any other error is a bug
    # and propagates
    def census(*args, **kwargs):
        raise error("census failed")

    monkeypatch.setattr(dynamics, "limit_cycle_census", census)
    a = Params(0.034, float(hopf_F(0.034)) - 2e-6)
    if error is RuntimeError:
        with pytest.raises(RuntimeError, match="census failed"):
            dynamics.render_portrait(a)
    else:
        assert dynamics.render_portrait(a)[2]["cycles"] == []


def test_fast_map_csv_pinned(criterion_map):
    # 20x20 fast map over the criterion-10 window, and criterion 10's own
    # 200x200 map; the digests were recorded before ray_crossings gained
    # its early stops and before the cell became one kernel call, which
    # must not move a label
    import hashlib

    from gskit import mapping

    labels, meta = mapping.region_map((1e-9, 0.07), (1e-9, 0.07), 20, 20,
                                      threads=1)
    text = mapping.map_to_csv(labels, meta)
    assert (hashlib.sha256(text.encode()).hexdigest()
            == "34eec3a222a7c615b0a21ae8585bed3e30c1ffcf2e7c16428c246477b745ab10")
    text = mapping.map_to_csv(*criterion_map)
    assert (hashlib.sha256(text.encode()).hexdigest()
            == "5aec761620edf4cbe0ec5b09b743e7259f06e8813c173d7cb76f19b93015b3b9")


def test_census_pinned():
    # radii come from np.linspace; the kernels must compute in the same
    # float arithmetic whatever scalar type reaches them, and both backends
    # the same bits (radius and period recorded on the pure backend while
    # its kernels still ran on numpy scalars; the multiplier since monodromy
    # runs on the shared step controller, within the DOP853 oracle of
    # test_oracles.py)
    backend = kernels.get_backend()
    try:
        for name in kernels.available_backends():
            kernels._use_backend(name)
            cycles = dynamics.limit_cycle_census(
                Params(0.025, hopf_F(0.025) - 1e-5), n_scan=120)
            assert [(c.radius.hex(), c.period.hex(),
                     c.nontrivial_multiplier.hex()) for c in cycles] == [
                ("0x1.d5ca9498c3840p-7", "0x1.07f114bae954ap+8",
                 "0x1.f4f57d25a3956p-1")], name
    finally:
        kernels._use_backend(backend)
