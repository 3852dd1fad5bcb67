import json
import math
from pathlib import Path

import numpy as np
import pytest

from gskit import bautin, continuation, dynamics, kernels
from gskit.continuation import (continue_curve, fold_seed, homoclinic_F,
                                homoclinic_curve, hopf_seed, lpc_bracket,
                                lpc_curve, lpc_seed_from_region3, newton_bt,
                                separatrix_splitting)
from gskit.core import Params
from gskit.equilibria import bisect_sign, hopf_F, saddle_node_F
from gskit.errors import (BracketNotFound, DomainError, NotOnHopfCurve,
                          SaddleMissing, SeedInvalid)

ROOT = Path(__file__).resolve().parent.parent


def test_newton_double_zero_from_spec_seed():
    u, v, k, F = newton_bt((0.05, 0.05))
    assert abs(k - 1 / 16) < 1e-12
    assert abs(F - 1 / 16) < 1e-12
    assert abs(u - 0.5) < 1e-10 and abs(v - 0.25) < 1e-10


def test_newton_double_zero_other_seeds():
    for start in ((0.04, 0.03), (0.055, 0.045)):
        _, _, k, F = newton_bt(start)
        assert abs(k - 1 / 16) < 1e-10 and abs(F - 1 / 16) < 1e-10


def test_hopf_continuation_tracks_closed_form():
    run = continue_curve("hopf", hopf_seed(0.03), direction=-1.0)
    ks, Fs = run.k_values(), run.F_values()
    assert len(run.points) > 30
    errs = [abs(F - float(hopf_F(k))) for k, F in zip(ks, Fs) if k > 1e-3]
    assert max(errs) < 1e-8
    # every accepted point satisfies the defining system to corrector tol
    for p in run.points[::5]:
        z = np.array([p.aux["u"], p.aux["v"], float(p.params.k), float(p.params.F)])
        assert np.max(np.abs(continuation._hopf_problem(z)[0])) < 1e-10


def test_hopf_continuation_detects_organizing_points():
    run = continue_curve("hopf", hopf_seed(0.03), direction=+1.0)
    names = {e.name for e in run.events}
    assert {"bt_det", "gh_l1"} <= names
    bt_ev = next(e for e in run.events if e.name == "bt_det")
    gh_ev = next(e for e in run.events if e.name == "gh_l1")
    assert abs(float(bt_ev.params.k) - 1 / 16) < 1e-8
    assert abs(float(bt_ev.params.F) - 1 / 16) < 1e-8
    assert abs(float(gh_ev.params.k) - 9 / 256) < 1e-8
    assert abs(float(gh_ev.params.F) - 3 / 256) < 1e-8


def test_fold_continuation_both_branches():
    for branch in ("lower", "upper"):
        run = continue_curve("fold", fold_seed(0.03, branch), direction=1.0,
                             detect_events=False)
        for k, F in zip(run.k_values(), run.F_values()):
            assert abs(k - (math.sqrt(F) / 2 - F)) < 1e-8


@pytest.mark.parametrize("problem", ["_fold_problem", "_hopf_problem"])
def test_equilibrium_jacobians_match_central_differences(problem):
    # the closed-form Jacobian against central differences of the residual
    # at random points, some outside the positive quadrant (Newton probes
    # there); the residual is cubic, so h = 1e-6 leaves only round-off
    fn = getattr(continuation, problem)
    rng = np.random.default_rng(14)
    h = 1e-6
    for _ in range(40):
        z = rng.uniform([-0.2, -0.2, -0.01, -0.01], [1.2, 1.5, 0.08, 0.1])
        jac = np.asarray(fn(z)[1]())
        fd = np.empty_like(jac)
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            fd[:, j] = (np.asarray(fn(z + e)[0]) - np.asarray(fn(z - e)[0])) / (2 * h)
        assert np.max(np.abs(jac - fd)) < 1e-8


def test_engine_evaluates_each_point_once(monkeypatch):
    # the engine reuses a residual and Jacobian it already has: the seed
    # check, the seed tangent and Newton's first iteration share one
    # evaluation, and so do a converged point and its tangent; no point is
    # evaluated twice in a row, no Jacobian twice
    hopf = continuation._hopf_problem
    calls = []

    def recorded(z):
        f, jac = hopf(z)
        call = [tuple(z), 0]
        calls.append(call)

        def counted():
            call[1] += 1
            return jac()

        return f, counted

    monkeypatch.setattr(continuation, "_hopf_problem", recorded)
    run = continue_curve("hopf", hopf_seed(0.03), detect_events=False)
    assert len(run.points) > 10
    keys = [key for key, _ in calls]
    assert keys[0] == tuple(hopf_seed(0.03))
    assert all(a != b for a, b in zip(keys, keys[1:]))
    assert all(n <= 1 for _, n in calls)


def test_zero_pivot_ends_the_correction():
    # kernels.solve gives None at a zero pivot, where np.linalg.solve raised
    # LinAlgError, and the corrector then gives up on the step
    def problem(z):
        # residual (z0 - 1, z1 - 1), which nothing in z[2] changes
        return (z[0] - 1.0, z[1] - 1.0), lambda: ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))

    engine = continuation._EQUILIBRIUM_ENGINE
    assert engine.correct(problem, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]) is None
    assert engine.correct(problem, [0.0, 0.0, 0.0], [0.0, 0.0, 1.0])[0] == [1.0, 1.0, 0.0]


@pytest.mark.parametrize("flip_null_vector", [False, True])
def test_first_step_follows_direction(monkeypatch, flip_null_vector):
    # direction=+1 raises F on the equilibrium curves and the radius on the
    # fold-of-cycles curve, from several seeds, whatever sign the SVD gives
    # the null vector (-v is as valid as v; LAPACK's choice is a convention)
    svd = np.linalg.svd

    def flipped_svd(a):
        u, s, vt = svd(a)
        vt[-1] = -vt[-1]
        return u, s, vt

    if flip_null_vector:
        monkeypatch.setattr(np.linalg, "svd", flipped_svd)
    for k0 in (0.01, 0.03, 0.05):
        for kind, seed in (("hopf", hopf_seed(k0)),
                           ("fold", fold_seed(k0, "lower")),
                           ("fold", fold_seed(k0, "upper"))):
            for direction in (1.0, -1.0):
                run = continue_curve(kind, seed, direction=direction,
                                     detect_events=False)
                dF = float(run.points[1].params.F) - float(run.points[0].params.F)
                assert np.sign(dF) == direction, (kind, k0)
                assert np.sign(run.points[0].tangent[3]) == direction, (kind, k0)
    for k in (0.032, 0.034):
        seed = lpc_seed_from_region3(Params(k, float(hopf_F(k)) - 2e-6))
        for direction in (1.0, -1.0):
            run = lpc_curve(seed, max_points=2, direction=direction)
            dr = run.points[1].aux["radius"] - run.points[0].aux["radius"]
            assert np.sign(dr) == direction, k


def test_verify_curves_match_benchmark_reference_on_every_k0(monkeypatch):
    # the benchmark's verify workload continues three curves from one k0 of
    # a pool of 16; run them from every k0 against perfbench/reference.json,
    # so that a change of step sequence or orientation shows on any seed
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    entries = json.loads((ROOT / "perfbench" / "reference.json").read_text())["entries"]
    out = []
    workloads.run_verify({"rational": [], "k0": list(range(workloads.POOL))}, out)
    assert sum(key.split("/")[0] in ("hopf_up", "hopf_down", "fold_lower")
               for key, _ in out) == 3 * workloads.POOL
    attempted, failed, msgs = workloads.check(out, entries, same_backend=True)
    assert attempted == len(out) and failed == 0, msgs


def test_invalid_seed_rejected():
    with pytest.raises(SeedInvalid):
        continue_curve("hopf", np.array([0.5, 0.3, 0.03, 0.02]))


@pytest.mark.parametrize("kind", ["lpc", "homoclinic", "neutral"])
def test_continue_curve_takes_equilibrium_curves_only(kind):
    # cycle curves have their own entry points, lpc_curve and
    # homoclinic_curve; continue_curve knows only 'fold' and 'hopf'
    with pytest.raises(ValueError, match="unknown curve kind"):
        continue_curve(kind, hopf_seed(0.03))


def test_cycle_amplitude_square_root_law():
    # amplitude ~ sqrt(|nu|) near the supercritical Hopf curve
    k = 0.02
    Fh = float(hopf_F(k))
    nus = np.array([-0.5e-6, -1e-6, -2e-6, -4e-6, -8e-6])
    radii = []
    for nu in nus:
        cycles = dynamics.limit_cycle_census(Params(k, Fh + float(nu)))
        assert len(cycles) == 1
        radii.append(cycles[0].radius)
    slope = np.polyfit(np.log(-nus), np.log(radii), 1)[0]
    assert slope == pytest.approx(0.5, abs=0.05)


def test_separatrix_splitting_sign_change_at_0_057():
    k = 0.057
    Fh = float(hopf_F(k))
    Fu = float(saddle_node_F(k)[0])
    lo = Fh + 1e-4 * (Fu - Fh)
    hi = Fh + 0.3 * (Fu - Fh)
    s_lo = separatrix_splitting(Params(k, lo))
    s_hi = separatrix_splitting(Params(k, hi))
    assert (s_lo > 0) != (s_hi > 0)


def test_separatrix_splitting_offset_halving():
    # Richardson check: halving the launch offset moves the gap by under
    # 1e-6, so the gap no longer depends on the offset
    a = Params(0.06, 0.0470658)
    gap = separatrix_splitting(a)
    assert isinstance(gap, float)
    assert gap == continuation._splitting_once(a, 1e-7)
    assert abs(gap - continuation._splitting_once(a, 1e-7 / 2)) <= 1e-6


# homoclinic_F(k) at criterion 8's k grid, np.linspace(0.058, 0.0624, 8):
# (F, bracket width).  The bisection reads only the sign of the splitting
# gap, so the section ray it is measured on does not show in these bits.
HOMOCLINIC_AT_CRITERION_8 = [
    (0.04122681736258436, 7.002042987092061e-09),
    (0.04283241031352605, 6.4681424521984e-09),
    (0.04457235841431756, 5.892954901831615e-09),
    (0.04648506181577503, 5.263894833906768e-09),
    (0.048633670759755304, 9.120341433466184e-09),
    (0.05113708985921738, 7.48492108570975e-09),
    (0.05428209201723434, 9.05150718960579e-09),
    (0.05953757480527115, 6.58680069515194e-09),
]


def test_homoclinic_F_bits_on_each_backend():
    backend = kernels.get_backend()
    try:
        for name in kernels.available_backends():
            kernels._use_backend(name)
            got = [homoclinic_F(float(k)) for k in np.linspace(0.058, 0.0624, 8)]
            assert got == HOMOCLINIC_AT_CRITERION_8, name
    finally:
        kernels._use_backend(backend)


# The cycles benchmark's two 3-point fold-of-cycles runs, (k, F, radius) of
# each point, from lpc_seed_from_region3 at k = 0.034 just below the Hopf
# curve.  The residual's g' is a round-off-limited finite difference, so a
# last-bit change of the engine or of the section frame shows here.
LPC_BENCHMARK_RUNS = {
    1.0: [(0.0342026988205836, 0.011092488149016679, 0.021450362444284738),
          (0.03417871045858863, 0.011076977038697955, 0.021648312226973186),
          (0.03415422932194772, 0.011061159638860691, 0.02184617783175122)],
    -1.0: [(0.0342026988205836, 0.011092488149016679, 0.021450362444284738),
           (0.034226206958673344, 0.011107700356437098, 0.02125233217156109),
           (0.034258329682085226, 0.011128505681199418, 0.020974959484130667)],
}


def test_lpc_curve_bits_on_each_backend():
    backend = kernels.get_backend()
    try:
        for name in kernels.available_backends():
            kernels._use_backend(name)
            seed = lpc_seed_from_region3(Params(0.034, float(hopf_F(0.034)) - 2e-6))
            for direction, want in LPC_BENCHMARK_RUNS.items():
                run = lpc_curve(seed, max_points=3, k_bounds=(5e-3, 9 / 256 - 5e-5),
                                direction=direction)
                got = [(p.params.k, p.params.F, p.aux["radius"]) for p in run.points]
                assert got == want, (name, direction)
    finally:
        kernels._use_backend(backend)


def test_separatrix_requires_saddle():
    with pytest.raises(SaddleMissing):
        separatrix_splitting(Params(0.07, 0.02))


def test_splitting_shrinks_toward_homoclinic():
    k = 0.06
    F_hom, width = homoclinic_F(k, f_tol=1e-8)
    assert width <= 1e-8
    gaps = [abs(separatrix_splitting(Params(k, F_hom + d)))
            for d in (8e-4, 2e-4, 5e-5)]
    assert gaps[0] > gaps[1] > gaps[2]


def test_homoclinic_bisection_returns_the_inline_loop_bits(monkeypatch):
    # homoclinic_F's bracket through bisect_sign against the loop it used to
    # write out, run on the same splitting gap and scan bracket
    def inline_loop(f, lo, hi, flo, tol):
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            fm = f(mid)
            if (flo < 0) == (fm < 0):
                lo, flo = mid, fm
            else:
                hi = mid
        return lo, hi

    calls = []

    def recorded(*args):
        calls.append((args, bisect_sign(*args)))
        return calls[-1][1]

    monkeypatch.setattr(continuation, "bisect_sign", recorded)
    F, width = homoclinic_F(0.06)
    (args, (lo, hi)), = calls
    assert (lo, hi) == inline_loop(*args)
    assert (F, width) == (0.5 * (lo + hi), hi - lo)


def test_homoclinic_between_hopf_and_upper_fold():
    for k in (0.058, 0.06, 0.062):
        F_hom, _ = homoclinic_F(k)
        Fh = float(hopf_F(k))
        Fu = float(saddle_node_F(k)[0])
        assert Fh < F_hom < Fu


def test_homoclinic_curve_polyline():
    run = homoclinic_curve(np.linspace(0.059, 0.062, 4))
    assert len(run.points) == 4
    assert run.status == "ok"
    assert all(p.aux["bracket_width"] <= 1e-8 for p in run.points)


def test_homoclinic_fold_tangency_exponent():
    # measured as graphs over F near the fold nose the separation in k
    # scales quadratically with the height above the organizing point
    ks = np.linspace(0.059, 0.0624, 6)
    xs, ys = [], []
    for k in ks:
        F, _ = homoclinic_F(float(k))
        xs.append(math.log(abs(F - 1 / 16)))
        ys.append(math.log(abs((math.sqrt(F) / 2 - F) - float(k))))
    slope = float(np.polyfit(xs, ys, 1)[0])
    assert 1.7 <= slope <= 2.3


def test_lpc_detection_agrees_with_cycle_collision():
    # multiplier = 1 locus and the census fold coincide at fixed k
    k = 0.034
    Fh = float(hopf_F(k))
    seed = lpc_seed_from_region3(Params(k, Fh - 2e-6))
    run = lpc_curve(seed, max_points=14)
    ks = run.k_values()
    Fs = run.F_values()
    order = np.argsort(ks)
    assert ks.min() < k < ks.max()
    F_lpc = float(np.interp(k, ks[order], Fs[order]))
    # census collision: bisect the 2 -> 0 transition in F
    lo, hi = Fh - 2e-5, Fh - 2e-6
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        n = len(dynamics.limit_cycle_census(Params(k, mid), n_scan=200))
        if n >= 2:
            hi = mid
        else:
            lo = mid
    F_collision = 0.5 * (lo + hi)
    assert abs(F_lpc - F_collision) < 1e-6


def test_lpc_bracket_two_cycle_band():
    # the fold-of-cycles bracket at criterion 6's k: two cycles at F_mid,
    # not two at F_below
    k = 0.034
    F_below, F_mid, Fh = lpc_bracket(k)
    assert F_below < F_mid < Fh == float(hopf_F(k))
    assert len(dynamics.limit_cycle_census(Params(k, F_mid), n_scan=200)) == 2
    assert len(dynamics.limit_cycle_census(Params(k, F_below), n_scan=200)) != 2


def test_lpc_bracket_checks_its_two_cycle_point():
    # at k = 0.03, F_hopf - 2e-6 already lies below the two-cycle band, so
    # no census finds two cycles, at the F the bracket would return neither
    with pytest.raises(BracketNotFound, match="no two cycles"):
        lpc_bracket(0.03)


@pytest.mark.parametrize("error", [DomainError, NotOnHopfCurve, RuntimeError])
def test_l1_test_failures(monkeypatch, error):
    # the Lyapunov-coefficient test function screens out what bautin would
    # reject (k, F <= 0 and real eigenvalues, on the same floats) and reads
    # them as undefined; an error of bautin past that screen is a bug and
    # propagates, toolkit errors included
    z = hopf_seed(0.03)
    assert continuation._l1_test(z) is not None
    u, v, k, F = z.tolist()
    assert continuation._l1_test(np.array([u, v, k, -F])) is None
    assert continuation._l1_test(np.array([0.5, 0.25, 1 / 16, 1 / 16])) is None

    def l1(pt, a):
        raise error("l1 failed")

    monkeypatch.setattr(bautin, "_l1_extended", l1)
    with pytest.raises(error, match="l1 failed"):
        continuation._l1_test(z)


def test_bracket_not_found_reported():
    with pytest.raises(BracketNotFound):
        homoclinic_F(0.03)   # far from the double-zero point: one-signed gap
