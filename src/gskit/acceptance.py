"""Acceptance battery: the project's exit criteria as runnable checks.

Each criterion function takes no argument and returns its named checks;
`run_battery` runs the CRITERIA table, times each criterion and turns a
criterion's GSKitError into that criterion's failed 'raised' check, and is
what both `gskit repro` and the acceptance test module drive.  Tolerances
are pinned here, not in callers.

Three targets follow from the mathematics rather than from a first reading
of the criteria (see the repository README for the derivations):

* criterion 1: b20(0) = -1/16 and s = +1.  The biorthonormal Jordan chain of
  the raw field gives a20 = -1/2, b20 = -1/16, b11 = 0; s is
  frame-independent, and s = +1 matches the subcritical Hopf branch (l1 > 0)
  near the double-zero point;
* criterion 4: the (mu, l1) parameter-map determinant is exactly
  +9*sqrt(2)/2, with rows (mu, l1) and columns (k, F); along the Hopf curve
  it equals -mu_F * dl1/dk, which the battery evaluates as a second route;
* criterion 8: the homoclinic curve lies between the Hopf curve and the
  upper fold branch, and the splitting gap keeps one sign below the Hopf
  curve; the fold tangency measured with the axes paired as
  |F_hom(k) - F_sn_lower(k)| against |k - 1/16| has exponent 1/2.
"""
from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import bautin, bt, continuation, dynamics
from .core import Params, State, jacobian, trace_det, vector_field
from .equilibria import bisect_sign, equilibria, hopf_F, saddle_node_F
from .errors import GSKitError
from .ratmath import Sqrt2


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class CriterionResult:
    number: int
    title: str
    checks: list
    elapsed: float

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)


# criteria 6 and 7 share the fold-of-cycles bracket at k = 0.034
_lpc_bracket = functools.cache(continuation.lpc_bracket)


# ---------------------------------------------------------------------------

def criterion_1() -> list:
    """Exact checkpoints in rational arithmetic, zero tolerance."""
    checks = []
    f_bt = vector_field(bt.BT_POINT, bt.BT_PARAMS)
    tr, det = trace_det(jacobian(bt.BT_POINT, bt.BT_PARAMS))
    checks.append(Check("double_zero_point",
                        f_bt == (0, 0) and tr == 0 and det == 0,
                        f"field {f_bt}, trace {tr}, det {det}"))
    rep = bt.bt_nondegeneracy()
    checks.append(Check("a20", rep.a20 == Fraction(-1, 2), f"a20(0) = {rep.a20}"))
    checks.append(Check("b20", rep.b20 == Fraction(-1, 16), f"b20(0) = {rep.b20}"))
    checks.append(Check("b11", rep.b11 == 0, f"b11(0) = {rep.b11}"))
    checks.append(Check("s", rep.s == 1, f"s = {rep.s}"))
    checks.append(Check("transversality_det",
                        rep.transversality_det == Fraction(-1, 512),
                        f"det = {rep.transversality_det}"))
    loc = bautin.gh_locate()
    checks.append(Check("resultant",
                        loc["matches_expected"],
                        f"sign {loc['sign']}, roots {loc['roots']}"))
    # without a root in (0, 1) there is no point: both checks fail
    gh = loc["gh"] or dict.fromkeys(("k", "F", "point"))
    checks.append(Check("gh_params",
                        gh["k"] == Fraction(9, 256) and gh["F"] == Fraction(3, 256),
                        f"(k, F) = ({gh['k']}, {gh['F']})"))
    checks.append(Check("gh_point",
                        gh["point"] == State(Fraction(1, 4), Fraction(3, 16)),
                        f"p = {gh['point']}"))
    return checks


def criterion_2() -> list:
    """Closed-form consistency at 1000 random samples, 1e-13."""
    rng = np.random.default_rng(20260810)
    checks = []
    worst_sn = 0.0
    for k in rng.uniform(1e-4, 1 / 16, 1000):
        for F in saddle_node_F(float(k)):
            worst_sn = max(worst_sn, abs(4 * (F + k) ** 2 - F))
    checks.append(Check("fold_branch_relation", worst_sn <= 1e-13,
                        f"max |4(F+k)^2 - F| = {worst_sn:.3e}"))
    worst_line = worst_hyp = 0.0
    n_ok = 0
    while n_ok < 1000:
        k = float(rng.uniform(1e-3, 0.08))
        F = float(rng.uniform(1e-3, 0.25))
        try:
            a = Params(k, F)
        except GSKitError:
            continue
        eq = equilibria(a)
        if eq.kind != "pair":
            continue
        n_ok += 1
        g = a.gamma
        for pt in (eq.p_mp, eq.p_pm):
            worst_line = max(worst_line, abs(pt.u + g * pt.v - 1))
            worst_hyp = max(worst_hyp, abs(pt.u * pt.v - (F + k)))
    checks.append(Check("equilibrium_line", worst_line <= 1e-13,
                        f"max |u + gamma v - 1| = {worst_line:.3e}"))
    checks.append(Check("equilibrium_hyperbola", worst_hyp <= 1e-13,
                        f"max |u v - (F+k)| = {worst_hyp:.3e}"))
    ok = True
    for k, F in ((Fraction(3, 100), Fraction(7, 250)), (Fraction(1, 16), Fraction(1, 16))):
        jac = jacobian(State(Fraction(1), Fraction(0)), Params(k, F))
        ok = ok and jac[0][1] == 0 and jac[1][0] == 0
        ok = ok and jac[0][0] == -F and jac[1][1] == -(F + k)
    checks.append(Check("trivial_point_eigenvalues", ok,
                        "Jacobian at (1,0) is diag(-F, -(F+k)) exactly"))
    return checks


def criterion_3() -> list:
    """Newton convergence to the double-zero point; Hopf curve checkpoints."""
    checks = []
    u, v, k, F = continuation.newton_bt((0.05, 0.05))
    err = max(abs(k - 1 / 16), abs(F - 1 / 16))
    checks.append(Check("newton_double_zero", err <= 1e-10,
                        f"|params - (1/16,1/16)| = {err:.2e}, point ({u:.12f}, {v:.12f})"))
    h1 = hopf_F(Fraction(1, 16))
    h2 = hopf_F(Fraction(9, 256))
    checks.append(Check("hopf_F_at_1_16", abs(float(h1 - Fraction(1, 16))) <= 1e-13,
                        f"hopf_F(1/16) = {h1}"))
    checks.append(Check("hopf_F_at_9_256", abs(float(h2 - Fraction(3, 256))) <= 1e-13,
                        f"hopf_F(9/256) = {h2}"))
    return checks


def criterion_4() -> list:
    """Lyapunov sign law, unique zero, l2 sign, parameter-map determinant."""
    checks = []
    neg = {}
    pos = {}
    for k in (0.01, 0.02, 0.03):
        a = Params(k, float(hopf_F(k)))
        neg[k] = (bautin.l1_clw(a), bautin.l1_kuz(a))
    for k in (0.04, 0.05, 0.06):
        a = Params(k, float(hopf_F(k)))
        pos[k] = (bautin.l1_clw(a), bautin.l1_kuz(a))
    checks.append(Check("l1_negative_side",
                        all(v[0] < 0 and v[1] < 0 for v in neg.values()),
                        str({k: (f"{v[0]:.3e}", f"{v[1]:.3e}") for k, v in neg.items()})))
    checks.append(Check("l1_positive_side",
                        all(v[0] > 0 and v[1] > 0 for v in pos.values()),
                        str({k: (f"{v[0]:.3e}", f"{v[1]:.3e}") for k, v in pos.items()})))

    def l1_on_curve(k):
        return bautin.l1_kuz(Params(k, float(hopf_F(k))))

    lo, hi = bisect_sign(l1_on_curve, 0.03, 0.04, l1_on_curve(0.03), 1e-12)
    root = 0.5 * (lo + hi)
    checks.append(Check("l1_zero_at_gh", abs(root - 9 / 256) <= 1e-9,
                        f"zero at k = {root!r}, |k - 9/256| = {abs(root - 9/256):.2e}"))
    signs = [l1_on_curve(k) < 0 for k in np.linspace(0.01, 0.0624, 50)]
    flips = sum(1 for i in range(1, 50) if signs[i] != signs[i - 1])
    checks.append(Check("l1_single_sign_change", flips == 1, f"{flips} sign flips"))
    c1, c2 = bautin.l2_gh_exact()
    l2f = bautin.l2_kuz(bautin.GH_PARAMS)
    checks.append(Check("l2_positive",
                        c2.re.sign() > 0 and c1.re.is_zero() and l2f > 0,
                        f"exact Re c2 = {c2.re.a}, float l2 = {l2f:.6e}"))
    det = bautin.param_map_transversality()
    checks.append(Check("param_map_nonzero", det == Sqrt2(0, Fraction(9, 2)),
                        f"det = {det!r} = {float(det):.6f}"))
    # second route: on the Hopf curve mu(k, F_h(k)) = 0, so with rows (mu, l1)
    # and columns (k, F) the determinant is -mu_F * dl1/dk along the curve
    kgh, h = 9 / 256, 1e-6
    Fgh = float(hopf_F(kgh))
    mu_F = (bautin.mu(Params(kgh, Fgh + h)) - bautin.mu(Params(kgh, Fgh - h))) / (2 * h)
    dl1_dk = (l1_on_curve(kgh + h) - l1_on_curve(kgh - h)) / (2 * h)
    route = -mu_F * dl1_dk
    checks.append(Check("param_map_sign", det.sign() > 0 and route > 0,
                        f"det = {det!r} (+9*sqrt(2)/2), -mu_F * dl1/dk = "
                        f"{-mu_F:.6f} * {dl1_dk:.6f} = {route:.6f}; rows (mu, l1) "
                        f"with mu = Re lambda, columns (k, F)"))
    return checks


def criterion_5() -> list:
    """Continuation against closed forms; organizing points detected."""
    checks = []
    up = continuation.continue_curve(
        "hopf", continuation.hopf_seed(0.03), direction=+1.0)
    down = continuation.continue_curve(
        "hopf", continuation.hopf_seed(0.03), direction=-1.0)
    pts = [(k, F) for run in (up, down)
           for k, F in zip(run.k_values(), run.F_values())
           if 1e-3 <= k <= 0.0615]
    pts = pts[:: max(1, len(pts) // 100)]
    err_h = max(abs(F - float(hopf_F(k))) for k, F in pts)
    checks.append(Check("hopf_vs_closed_form",
                        err_h <= 1e-8 and len(pts) >= 100,
                        f"max err {err_h:.2e} over {len(pts)} abscissae"))
    folds = [continuation.continue_curve("fold", continuation.fold_seed(0.03, branch),
                                         direction=direction, detect_events=False)
             for branch, direction in (("lower", 1.0), ("lower", -1.0), ("upper", 1.0))]
    fpts = [(k, F) for run in folds
            for k, F in zip(run.k_values(), run.F_values()) if F > 1e-6]
    fpts = fpts[:: max(1, len(fpts) // 100)]
    err_f = max(abs(k - (math.sqrt(F) / 2 - F)) for k, F in fpts)
    checks.append(Check("fold_vs_closed_form",
                        err_f <= 1e-8 and len(fpts) >= 100,
                        f"max err {err_f:.2e} over {len(fpts)} abscissae"))
    bt_ev = [e for e in up.events if e.name == "bt_det"]
    gh_ev = [e for e in up.events if e.name == "gh_l1"]
    bt_err = (max(abs(float(bt_ev[0].params.k) - 1 / 16),
                  abs(float(bt_ev[0].params.F) - 1 / 16)) if bt_ev else float("inf"))
    gh_err = (max(abs(float(gh_ev[0].params.k) - 9 / 256),
                  abs(float(gh_ev[0].params.F) - 3 / 256)) if gh_ev else float("inf"))
    checks.append(Check("bt_detected", bt_err <= 1e-8, f"err {bt_err:.2e}"))
    checks.append(Check("gh_detected", gh_err <= 1e-8, f"err {gh_err:.2e}"))
    return checks


def criterion_6() -> list:
    """Two coexisting cycles in the wedge between H- and T."""
    checks = []
    k = 0.034
    F_below, F_mid, Fh = _lpc_bracket(k)
    cycles = dynamics.limit_cycle_census(Params(k, F_mid))
    ok_count = len(cycles) == 2
    ok_stab = (ok_count and cycles[0].nontrivial_multiplier < 1.0
               and cycles[1].nontrivial_multiplier > 1.0
               and cycles[0].radius < cycles[1].radius)
    detail = [(round(c.radius, 6), round(c.nontrivial_multiplier, 6)) for c in cycles]
    checks.append(Check("two_cycles", ok_count, f"census at (k={k}, F={F_mid!r}): {detail}"))
    checks.append(Check("inner_stable_outer_unstable", ok_stab, str(detail)))
    return checks


def _lpc_toward_gh():
    """Fold-of-cycles polyline continued toward the generalized Hopf point."""
    k_seed = 0.0345
    _, F_mid, _ = _lpc_bracket(k_seed)
    seed = continuation.lpc_seed_from_region3(Params(k_seed, F_mid))
    # from this seed the curve reaches the generalized Hopf point, k rising,
    # as the radius falls (direction -1); run +1 only if that run ends lower
    run = continuation.lpc_curve(seed, max_points=60,
                                 k_bounds=(5e-3, 9 / 256 - 5e-5),
                                 direction=-1.0)
    if run.k_values()[-1] < k_seed:
        run = continuation.lpc_curve(seed, max_points=60,
                                     k_bounds=(5e-3, 9 / 256 - 5e-5))
    return run


def criterion_7() -> list:
    """Fold-of-cycles curve tangent to the Hopf curve at GH; census step 2."""
    checks = []
    run = _lpc_toward_gh()
    kgh = 9 / 256
    h = 1e-7
    slope_h = (float(hopf_F(kgh + h)) - float(hopf_F(kgh - h))) / (2 * h)
    # limit tangent at GH: fit the wedge offset F_T - F_h = b dk + c dk^2
    # through the endpoint (the curve terminates at GH by definition)
    xs, ys = [], []
    for p in run.points:
        dk = float(p.params.k) - kgh
        if abs(dk) < 5e-3:
            xs.append(dk)
            ys.append(float(p.params.F) - float(hopf_F(float(p.params.k))))
    A = np.array([[x, x * x] for x in xs])
    b, c = np.linalg.lstsq(A, np.array(ys), rcond=None)[0]
    angle = abs(b) / (1 + slope_h * slope_h)
    k_near = max(float(p.params.k) for p in run.points)
    checks.append(Check("tangent_to_hopf_at_gh", angle < 1e-3,
                        f"limit-tangent deviation {angle:.2e} rad "
                        f"(fit b={b:.2e}, curvature c={c:.3f}, nearest k={k_near!r})"))
    k_cross = 0.034
    F_below, F_mid2, Fh2 = _lpc_bracket(k_cross)
    n_above = len(dynamics.limit_cycle_census(Params(k_cross, F_mid2), n_scan=200))
    n_below = len(dynamics.limit_cycle_census(Params(k_cross, F_below - 2e-6), n_scan=200))
    checks.append(Check("census_changes_by_two", n_above - n_below == 2,
                        f"{n_above} cycles above T, {n_below} below"))
    return checks


def criterion_8() -> list:
    """Homoclinic curve: bracketing, ordering, no loop below the Hopf curve,
    fold tangency exponents."""
    checks = []
    k_grid = np.linspace(0.058, 0.0624, 8)
    run = continuation.homoclinic_curve(k_grid)
    ok_brackets = (len(run.points) == len(k_grid)
                   and all(p.aux["bracket_width"] <= 1e-8 for p in run.points))
    checks.append(Check("bisection_to_1e-8", ok_brackets,
                        f"{len(run.points)} points, status {run.status}"))
    orderings = []
    ordering_ok = True
    for p in run.points:
        k, F = float(p.params.k), float(p.params.F)
        Fh = float(hopf_F(k))
        Fu, Fl = (float(x) for x in saddle_node_F(k))
        orderings.append((k, Fl, Fh, F, Fu))
        ordering_ok = ordering_ok and (Fh < F < Fu)
    checks.append(Check("ordering_between_hopf_and_upper_fold", ordering_ok,
                        "F_hopf < F_hom < F_sn_upper; "
                        + "; ".join(f"k={o[0]:.4f}: Fl={o[1]:.6f} Fh={o[2]:.6f} "
                                    f"Fhom={o[3]:.6f} Fu={o[4]:.6f}" for o in orderings[-2:])))
    # homoclinic_F only searches above the Hopf curve, so the ordering alone
    # cannot see a loop below it: the splitting gap must keep one sign there
    def below_hopf(k):
        Fh, Fl = float(hopf_F(k)), float(saddle_node_F(k)[1])
        return [float(Fl + frac * (Fh - Fl)) for frac in np.linspace(0.02, 0.98, 7)]

    try:
        gap_signs = {int(np.sign(continuation.separatrix_splitting(Params(float(k), F))))
                     for k in k_grid for F in below_hopf(float(k))}
        scan = (f"splitting gap signs {sorted(gap_signs)} over 7 heights in "
                f"(F_sn_lower, F_hopf) at {len(k_grid)} values of k")
    except GSKitError as exc:
        gap_signs, scan = set(), f"{type(exc).__name__}: {exc}"
    checks.append(Check("no_loop_below_hopf", gap_signs in ({-1}, {1}), scan))
    # geometric tangency: fold distance measured in k at matched F heights
    xs, ys = [], []
    for p in run.points:
        k, F = float(p.params.k), float(p.params.F)
        k_sn = math.sqrt(F) / 2 - F
        xs.append(math.log(abs(F - 1 / 16)))
        ys.append(math.log(abs(k_sn - k)))
    slope = float(np.polyfit(xs, ys, 1)[0])
    checks.append(Check("fold_tangency_exponent", 1.7 <= slope <= 2.3,
                        f"log-log slope {slope:.3f} of |k_hom(F)-k_sn(F)| vs |F-1/16|"))
    # the same tangency with the axes paired the other way: the lower fold
    # branch is a square-root graph over k, so the gap is a d^p + b d with
    # p = 1/2, d = |k - 1/16|; p is profiled, (a, b) solved linearly for each
    d = np.array([abs(float(p.params.k) - 1 / 16) for p in run.points])
    gap = np.array([abs(float(p.params.F) - float(saddle_node_F(float(p.params.k))[1]))
                    for p in run.points])

    def misfit(expo):
        A = np.column_stack([d ** expo, d])
        coef = np.linalg.lstsq(A, gap, rcond=None)[0]
        return float(np.sum((A @ coef - gap) ** 2))

    trial = np.arange(0.05, 3.0, 1e-3)
    p_fit = float(trial[np.argmin([misfit(e) for e in trial])])
    plain = float(np.polyfit(np.log(d), np.log(gap), 1)[0])
    checks.append(Check("literal_axis_exponent", 0.425 <= p_fit <= 0.575,
                        f"|F_hom(k)-F_sn_lower(k)| vs |k-1/16|: two-term fit exponent "
                        f"{p_fit:.3f} (plain log-log slope {plain:.3f})"))
    return checks


def criterion_9() -> list:
    """Integrator quality: order, fixed points, quadrant invariance."""
    checks = []
    a = Params(0.046, 0.026)
    p0 = State(0.6, 0.25)
    ref = dynamics.integrate(p0, a, 40.0,
                             dynamics.IntegratorSettings(rel_tol=1e-13, abs_tol=1e-15),
                             record=False).final
    errs = []
    for h in (0.2, 0.1):
        end = dynamics.integrate(p0, a, 40.0, dynamics.DEFAULT_SETTINGS,
                                 record=False, fixed_step=h).final
        errs.append(math.hypot(end.u - ref.u, end.v - ref.v))
    order = math.log2(errs[0] / errs[1])
    checks.append(Check("convergence_order", order >= 4.5,
                        f"order {order:.2f} (errors {errs[0]:.2e}, {errs[1]:.2e})"))
    worst = 0.0
    for kk, FF in ((0.04, 0.02), (0.05, 0.025), (0.06, 0.045)):
        eq = equilibria(Params(kk, FF))
        for pt in eq.all_points():
            p = State(float(pt.u), float(pt.v))
            end = dynamics.integrate(p, Params(kk, FF), 50.0, record=False).final
            worst = max(worst, math.hypot(end.u - p.u, end.v - p.v))
    checks.append(Check("equilibria_fixed", worst <= 1e-9,
                        f"max drift {worst:.2e} over 50 time units"))
    rng = np.random.default_rng(7)
    min_u = min_v = 0.0
    for _ in range(1000):
        kk = float(rng.uniform(0.01, 0.09))
        FF = float(rng.uniform(0.005, 0.12))
        u0 = float(rng.uniform(0.0, 1.2))
        v0 = float(rng.uniform(0.0, 0.8))
        traj = dynamics.integrate(State(u0, v0), Params(kk, FF), 200.0)
        min_u = min(min_u, float(traj.u.min()))
        min_v = min(min_v, float(traj.v.min()))
    atol = dynamics.DEFAULT_SETTINGS.abs_tol
    checks.append(Check("quadrant_invariance",
                        min_u >= -atol and min_v >= -atol,
                        f"min u {min_u:.2e}, min v {min_v:.2e} over 1000 trajectories"))
    return checks


def criterion_10() -> list:
    """Global map: region layout and adjacency on a 200x200 grid plus the
    documented zoom insets for the thin two-cycle and one-stable-cycle bands.
    The maps run on mapping.thread_budget()'s workers."""
    checks = []
    from .mapping import adjacency, region_map

    labels, meta = region_map((1e-9, 0.07), (1e-9, 0.07), 200, 200)
    present = {lab for row in labels for lab in row}
    adj = adjacency(labels)
    required = {frozenset(p) for p in
                (("outside", "4"), ("outside", "1"), ("4", "2"), ("2", "1"))}
    missing = {tuple(sorted(p)) for p in required if p not in adj}
    checks.append(Check("macro_adjacency", not missing,
                        f"labels {sorted(present)}; missing edges {sorted(missing)}"))
    checks.append(Check("no_outside_wedge_contact",
                        frozenset(("outside", "3")) not in adj,
                        "the two-cycle wedge never touches the fold boundary"))
    # column signatures near the double-zero point, bottom to top:
    # outside | 1 | 2 | 4 (| outside when the upper fold branch is in window)
    col_ok = 0
    ncols = 0
    for j, k in enumerate(meta["k_values"]):
        if not (0.058 <= k <= 0.0615):
            continue
        ncols += 1
        col = [row[j] for row in labels if row[j] != "x"]
        seq = [lab for lab, prev in zip(col, [None] + col[:-1]) if lab != prev]
        if seq[:4] == ["outside", "1", "2", "4"] and set(seq[4:]) <= {"outside"}:
            col_ok += 1
    checks.append(Check("bt_column_signature", ncols > 0 and col_ok >= 0.8 * ncols,
                        f"{col_ok}/{ncols} columns show outside|1|2|4|(outside)"))
    # zoom inset: the two-cycle wedge between H- and T near the generalized
    # Hopf point is a few 1e-6 wide in F, far below the macro cell size, and
    # the Hopf line's slope dwarfs it, so the strip follows the curve
    cols_ok = 0
    strip_labels = set()
    for k0 in np.linspace(0.0336, 0.0344, 5):
        Fh = float(hopf_F(k0))
        col = []
        for dF in np.linspace(-1.0e-5, 4e-6, 22):
            col.append(dynamics.classify_region(Params(k0, Fh + dF)).id)
        strip_labels.update(col)
        # cells landing on the Hopf line itself are nonhyperbolic; drop them
        filtered = [lab for lab in col if lab != "x"]
        seq = [lab for lab, prev in zip(filtered, [None] + filtered[:-1])
               if lab != prev]
        if seq == ["1", "3", "2"]:
            cols_ok += 1
    checks.append(Check("gh_wedge_inset", cols_ok >= 4,
                        f"strip labels {sorted(strip_labels)}, {cols_ok}/5 "
                        f"curve-following columns show 1|3|2"))
    # zoom inset: the thin stable-cycle band (region 5) below H- at small k
    k5 = 0.02
    Fh5 = float(hopf_F(k5))
    zoom5, _ = region_map((k5 - 1e-4, k5 + 1e-4), (Fh5 - 1.5e-4, Fh5 + 2e-5), 5, 24,
                          fast=False)
    z5 = {lab for row in zoom5 for lab in row}
    checks.append(Check("region5_inset", "5" in z5 and "4" in z5,
                        f"inset labels {sorted(z5)}"))
    return checks


CRITERIA = ((criterion_1, "exact checkpoints"),
            (criterion_2, "closed-form consistency"),
            (criterion_3, "Hopf detection"),
            (criterion_4, "Lyapunov sign law"),
            (criterion_5, "continuation vs closed form"),
            (criterion_6, "two coexisting cycles"),
            (criterion_7, "fold-of-cycles tangency"),
            (criterion_8, "homoclinic curve"),
            (criterion_9, "integrator quality"),
            (criterion_10, "global map"))


def run_battery(numbers=None) -> list:
    """CriterionResults of the criteria numbered in numbers (all when
    empty), in order.  A criterion that raises GSKitError fails alone, with
    one 'raised' check naming the error."""
    out = []
    for number, (fn, title) in enumerate(CRITERIA, 1):
        if numbers and number not in numbers:
            continue
        t0 = time.perf_counter()
        try:
            checks = fn()
        except GSKitError as exc:
            checks = [Check("raised", False, f"{type(exc).__name__}: {exc}")]
        out.append(CriterionResult(number=number, title=title, checks=checks,
                                   elapsed=time.perf_counter() - t0))
    return out


def format_battery(results) -> str:
    lines = []
    width = max(len(r.title) for r in results)
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        lines.append(f"criterion {r.number:>2}  {r.title:<{width}}  {mark}  "
                     f"({r.elapsed:.1f}s)")
        for c in r.checks:
            cm = "ok  " if c.ok else "FAIL"
            lines.append(f"    [{cm}] {c.name}: {c.detail}")
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} criteria fully green")
    return "\n".join(lines)
