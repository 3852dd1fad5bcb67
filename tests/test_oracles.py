"""Independent oracles for the double-zero coefficients, the Hopf types,
the cycle census, and the closed-form derivatives of the field: the
extended Jacobian behind the fold and Hopf continuation and the
double-zero transversality determinant, the first-focal-value bracket,
the normal-form projections, the normal-form coefficients c1 and c2 at the
generalized Hopf point, the resultant that locates that point, and the
determinant of the parameter map (k, F) -> (mu, l1) there.

The oracles share no code with gskit: the field is written out again, the
Jordan chain is built by sympy from the raw field, and the dynamics are
integrated by scipy.  These tests justify the targets of acceptance criteria
1, 4 and 8 (b20 = -1/16, s = +1, a subcritical Hopf branch near the
double-zero point) without sharing code with the routes they check.  The
census test imports gskit only for the cycles it checks, the derivative
and normal-form tests only for the closed forms they compare with sympy's,
the resultant test only for the coefficient table of q1, and the
parameter-map test only for the exact value it compares.  The generic
bracket comes from tests/reference.py.  The map test checks gskit's fast
map (criterion 10) against the curves that bound its regions: the fold and
Hopf curves written out again, and gskit's homoclinic search and
separatrix splitting, which integrate the saddle's separatrices and share
no code with the map's probes.
"""
import math

import numpy as np
import pytest

from reference import clw_bracket_generic


def _field(u, v, k, F):
    uvv = u * v * v
    return (-uvv + F * (1 - u), uvv - (F + k) * v)


def _jordan_coefficients(sp, c, d):
    """(a20, b20, b11) at (k, F) = (1/16, 1/16), (u, v) = (1/2, 1/4) in the
    Jordan frame q0' = c q0, q1' = c q1 + d q0 (Kuznetsov, section 8.4):
    A0 q0 = 0, A0 q1 = q0, A0^T p1 = 0, A0^T p0 = p1, <q1, p1> = 1,
    <q1, p0> = 0; a20 = <p0, B(q0, q0)>, b20 = <p1, B(q0, q0)>,
    b11 = <p1, B(q0, q1)>."""
    u, v = sp.symbols("u v")
    half, quarter, sixteenth = sp.Rational(1, 2), sp.Rational(1, 4), sp.Rational(1, 16)
    f = sp.Matrix(_field(u, v, sixteenth, sixteenth))
    at = {u: half, v: quarter}
    A0 = f.jacobian([u, v]).subs(at)
    assert A0.det() == 0 and A0.trace() == 0 and A0 != sp.zeros(2, 2)
    q0 = A0.nullspace()[0]
    q0 = q0 / q0[1]
    # particular solution of A0 q1 = q0 with vanishing first component
    y = sp.Symbol("y")
    q1 = sp.Matrix([0, sp.solve((A0 * sp.Matrix([0, y]) - q0)[0], y)[0]])
    assert A0 * q1 == q0
    q0, q1 = c * q0, c * q1 + d * q0
    p1 = A0.T.nullspace()[0]
    p1 = p1 / q1.dot(p1)
    w = sp.Matrix(sp.symbols("w0 w1"))
    sol = sp.solve(list(A0.T * w - p1) + [q1.dot(w)], list(w), dict=True)[0]
    p0 = w.subs(sol)
    assert (A0.T * p0 - p1).applyfunc(sp.simplify) == sp.zeros(2, 1)
    assert [sp.simplify(e) for e in (q0.dot(p0), q1.dot(p1), q0.dot(p1), q1.dot(p0))] \
        == [1, 1, 0, 0]
    hess = [sp.hessian(fi, (u, v)).subs(at) for fi in f]

    def B(x, z):
        return sp.Matrix([(x.T * h * z)[0] for h in hess])

    a20 = sp.simplify(p0.dot(B(q0, q0)))
    b20 = sp.simplify(p1.dot(B(q0, q0)))
    b11 = sp.simplify(p1.dot(B(q0, q1)))
    return a20, b20, b11


def test_double_zero_coefficients_from_raw_field():
    sp = pytest.importorskip("sympy")
    a20, b20, b11 = _jordan_coefficients(sp, 1, 0)
    assert (a20, b20, b11) == (sp.Rational(-1, 2), sp.Rational(-1, 16), 0)
    assert sp.sign(b20 * (a20 + b11)) == 1


def test_double_zero_sign_is_frame_independent():
    sp = pytest.importorskip("sympy")
    c, d = sp.Symbol("c", nonzero=True), sp.Symbol("d")
    a20, b20, b11 = _jordan_coefficients(sp, 1, 0)
    a20c, b20c, b11c = _jordan_coefficients(sp, c, d)
    # s = sign(b20 (a20 + b11)) only picks up the factor c^2
    assert sp.simplify(b20c * (a20c + b11c) - c**2 * b20 * (a20 + b11)) == 0
    # a frame with b11 = 0 has no shear, so a20 / b20 = 8 in every such frame:
    # (a20, b20, b11) = (-1/2, +1/16, 0) is attained by none
    assert sp.solve(b11c, d) == [0]
    assert sp.simplify(a20c.subs(d, 0) / b20c.subs(d, 0)) == 8


def test_equilibrium_curve_jacobians_from_sympy():
    # the derivatives gskit writes out in closed form, against sympy's
    # derivatives of the raw field: core.extended_jacobian, the values and
    # the 4x4 Jacobian of (f1, f2, tr A, det A) in (u, v, k, F), A the (u, v)
    # Jacobian; the fold and Hopf continuation residuals {f = 0, det A = 0}
    # and {f = 0, tr A = 0}; the Jacobian of newton_bt's residual; and the
    # first-focal-value bracket specialized to the field.  Each is evaluated
    # on symbols and must equal sympy's expression identically
    sp = pytest.importorskip("sympy")
    from gskit import bautin, continuation
    from gskit.core import extended_jacobian

    z = sp.symbols("u v k F")
    f = sp.Matrix(_field(*z))
    A = f.jacobian(z[:2])
    E = sp.Matrix([f[0], f[1], A.trace(), A.det()])
    values, rows = extended_jacobian(*z)
    assert (sp.Matrix(values) - E).applyfunc(sp.expand) == sp.zeros(4, 1)
    assert (sp.Matrix(rows) - E.jacobian(z)).applyfunc(sp.expand) == sp.zeros(4, 4)
    # the double-zero transversality determinant, without poly's Bareiss
    at_bt = dict(zip(z, (sp.Rational(1, 2), sp.Rational(1, 4),
                         sp.Rational(1, 16), sp.Rational(1, 16))))
    assert E.jacobian(z).subs(at_bt).det() == sp.Rational(-1, 512)
    for problem, last in ((continuation._fold_problem, A.det()),
                          (continuation._hopf_problem, A.trace())):
        R = sp.Matrix([f[0], f[1], last])
        res, jac = problem(np.array(z, dtype=object))
        assert (sp.Matrix(list(res)) - R).applyfunc(sp.expand) == sp.zeros(3, 1)
        assert ((sp.Matrix(jac().tolist()) - R.jacobian(z)).applyfunc(sp.expand)
                == sp.zeros(3, 4))
    # newton_bt's residual (k(u, v) - v^2, 1 - 2u) on the focus-branch graph
    u, v = z[:2]
    k_graph = u * v * (1 - u - v) / (1 - u)
    J = sp.Matrix([k_graph - v ** 2, 1 - 2 * u]).jacobian([u, v])
    assert (sp.Matrix(continuation._bt_jacobian(u, v).tolist()) - J).applyfunc(
        sp.simplify) == sp.zeros(2, 2)
    # the first-focal-value bracket, specialized to the field, against the
    # generic bracket on sympy's 14 second and third partials, for free
    # b, c, d, beta2
    partials = _sympy_partials(sp, f, *z[:2])
    assert len(partials) == 14
    b, c, d, beta2 = sp.symbols("b c d beta2")
    assert sp.expand(bautin.clw_bracket(b, c, d, beta2, *z[:2])
                     - clw_bracket_generic(b, c, d, beta2, partials)) == 0


def _sympy_partials(sp, f, u, v) -> dict:
    """The 14 second and third partials of the field f = (f1, f2) in
    (u, v), keyed as the generic bracket reads them: "gxyy" is the third
    partial of f2 in u, v, v, and so on."""
    return {comp + wrt: sp.diff(fi, *[u if c == "x" else v for c in wrt])
            for comp, fi in (("f", f[0]), ("g", f[1]))
            for wrt in ("xx", "xy", "yy", "xxx", "xxy", "xyy", "yyy")}


def test_gh_param_map_determinant_from_sympy():
    # the third Bautin fact from the raw field, without gskit.poly or
    # ratmath: with rows (mu, l1) and columns (k, F), mu = tr A / 2 at the
    # focus point, the determinant is -mu_F * dl1/dk along the Hopf curve,
    # where mu vanishes.  mu_k and mu_F come from the focus point's implicit
    # derivative; l1 = b S / (4 beta2) / omega along the curve from the
    # generic bracket S on sympy's partials, differentiated in y
    sp = pytest.importorskip("sympy")
    from gskit import bautin

    R = sp.Rational
    u, v, k, F, y = sp.symbols("u v k F y")
    f = sp.Matrix(_field(u, v, k, F))
    A = f.jacobian([u, v])
    tr = sp.Matrix([A.trace()])
    at = {u: R(1, 4), v: R(3, 16), k: R(9, 256), F: R(3, 256)}
    assert f.subs(at) == sp.zeros(2, 1) and tr.subs(at) == sp.zeros(1, 1)
    d_uv = -A.inv() * f.jacobian([k, F])
    mu_k, mu_F = ((tr.jacobian([k, F]) + tr.jacobian([u, v]) * d_uv) / 2).subs(at)
    assert (mu_k, mu_F) == (2, -3)
    # the Hopf curve through y = sqrt(1 - 4 sqrt(k)), with y = 1/2 at GH
    x = (1 - y ** 2) / 4
    on = {u: (1 - y) / 2, v: x, k: x ** 2, F: x * (1 - y) / 2 - x ** 2}
    assert f.subs(on).applyfunc(sp.expand) == sp.zeros(2, 1)
    assert sp.expand(tr[0].subs(on)) == 0
    assert all(e.subs(y, R(1, 2)) == at[s] for s, e in on.items())
    Ay = A.subs(on)
    beta2 = Ay.det()
    partials = {name: p.subs(on) for name, p in _sympy_partials(sp, f, u, v).items()}
    l1 = (Ay[0, 1] * clw_bracket_generic(Ay[0, 1], Ay[1, 0], Ay[1, 1], beta2, partials)
          / (4 * beta2) / sp.sqrt(beta2))
    dk_dy = sp.diff(on[k], y)
    dl1_dk = sp.radsimp(sp.simplify((sp.diff(l1, y) / dk_dy).subs(y, R(1, 2))))
    assert sp.simplify(dl1_dk - 3 * sp.sqrt(2) / 2) == 0
    # mu vanishes along the curve: mu_k + mu_F dF/dk = 0 at GH
    assert mu_k + mu_F * (sp.diff(on[F], y) / dk_dy).subs(y, R(1, 2)) == 0
    det = -mu_F * dl1_dk
    assert sp.simplify(det - 9 * sp.sqrt(2) / 2) == 0
    exact = bautin.param_map_transversality()
    assert (exact.a, exact.b) == (0, R(9, 2))


def _gh_projections(sp):
    """(jac, lam, g) at the generalized Hopf point, where lam = i*omega: the
    projections g_jk = <p, B(q, q)>, ..., <p, C(qb, qb, qb)> with B and C
    from sympy's second and third derivatives of the raw field, p from
    sympy's null space of A^T - conj(lam) I, q = (a12, lam - a11) as in
    gskit and <p, q> = conj(p) . q = 1; each g_jk radsimp-expanded."""
    x = sp.symbols("u v")
    f = sp.Matrix(_field(*x, sp.Rational(9, 256), sp.Rational(3, 256)))
    at = {x[0]: sp.Rational(1, 4), x[1]: sp.Rational(3, 16)}
    A = f.jacobian(x).subs(at)
    assert A.trace() == 0 and A.det() > 0
    lam = sp.I * sp.sqrt(A.det())
    q = sp.Matrix([A[0, 1], lam - A[0, 0]])
    assert (A * q - lam * q).applyfunc(sp.expand) == sp.zeros(2, 1)
    p = (A.T - sp.conjugate(lam) * sp.eye(2)).nullspace()[0]
    p = p / sp.conjugate(p.applyfunc(sp.conjugate).dot(q))
    p = p.applyfunc(lambda e: sp.expand(sp.radsimp(e)))
    assert sp.expand(p.applyfunc(sp.conjugate).dot(q)) == 1

    def form(vectors):
        out = []
        for fi in f:
            acc = 0
            for idx in np.ndindex(*(2,) * len(vectors)):
                term = sp.diff(fi, *(x[i] for i in idx)).subs(at)
                for vec, i in zip(vectors, idx):
                    term *= vec[i]
                acc += term
            out.append(acc)
        return p.applyfunc(sp.conjugate).dot(sp.Matrix(out))

    qb = q.applyfunc(sp.conjugate)
    g = {(j, k): sp.expand(sp.radsimp(form([q] * j + [qb] * k)))
         for j, k in ((2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3))}
    return ((A[0, 0], A[0, 1]), (A[1, 0], A[1, 1])), lam, g


def test_normal_form_projections_from_sympy():
    # the projections that feed the first and second Lyapunov coefficients
    sp = pytest.importorskip("sympy")
    from gskit import bautin

    jac, lam, expected = _gh_projections(sp)
    g = bautin._g_coeffs(sp.sympify, lam, jac, sp.Rational(1, 4), sp.Rational(3, 16))
    for m, value in g.items():
        assert sp.expand(sp.radsimp(value - expected[m])) == 0, m


def test_gh_normal_form_coefficients_from_sympy():
    # c1 and c2 at the generalized Hopf point from sympy's own projections
    # in sympy arithmetic, with no ratmath: Re c1 = 0 and
    # Re c2 = 81/524288 > 0 exactly
    sp = pytest.importorskip("sympy")
    from gskit.normalform import poincare_normal_form

    _, lam, g = _gh_projections(sp)
    c1, c2 = (sp.expand(sp.radsimp(c)) for c in poincare_normal_form(g, lam))
    assert c1 == -81 * sp.sqrt(2) * sp.I / 16384
    assert c2 == sp.Rational(81, 524288) - 7857 * sp.sqrt(2) * sp.I / 8388608


def test_gh_resultant_from_sympy():
    # sympy eliminates x from Q1 (bautin's coefficient table) and
    # Q2 = 1 - 4x - y^2 with its own resultant, factorization and roots,
    # without gskit.poly's arithmetic
    sp = pytest.importorskip("sympy")
    from gskit.bautin import q1_poly

    x, y = sp.symbols("x y")
    q1 = sum((c[0] + c[1] * y) * x ** i for i, c in enumerate(q1_poly().coeffs))
    res = sp.factor(sp.resultant(q1, 1 - 4 * x - y ** 2, x))
    assert res == 2 * (y - 1) ** 16 * (2 * y - 1)
    assert sp.roots(sp.Poly(res, y)) == {sp.Rational(1, 2): 1, sp.Integer(1): 16}


def _hopf_F(k):
    return (math.sqrt(k) - 2 * k - math.sqrt(k - 4 * k * math.sqrt(k))) / 2


def _fold_F(k):
    """Both F branches of the fold curve 4 (F + k)^2 = F, 0 < k <= 1/16."""
    r = math.sqrt(1 - 16 * k)
    return ((1 - 8 * k) + r) / 8, ((1 - 8 * k) - r) / 8


def test_map_edges_lie_on_their_curves(criterion_map):
    # every vertical label edge of the 200x200 map (two cells of one column
    # with different labels) lies within one cell height of the curve that
    # makes it: outside|(1, 4, 5) a fold branch; 1|2, 5|4, 1|3 and 1|4 the
    # Hopf curve; 2|4 the homoclinic curve above it (homoclinic_F); 1|5
    # the homoclinic curve below it, which homoclinic_F does not search, so
    # the splitting gap changes sign between the two cells
    from gskit.continuation import homoclinic_F, separatrix_splitting
    from gskit.core import Params

    labels, meta = criterion_map
    ks, Fs = meta["k_values"], meta["F_values"]
    dF = Fs[1] - Fs[0]
    hopf_edges = [{"1", "2"}, {"5", "4"}, {"1", "3"}, {"1", "4"}]
    edges = 0
    for j, k in enumerate(ks):
        for i in range(len(Fs) - 1):
            pair = {labels[i][j], labels[i + 1][j]}
            if len(pair) == 1:
                continue
            edges += 1
            mid = 0.5 * (Fs[i] + Fs[i + 1])
            if "outside" in pair and pair & {"1", "4", "5"}:
                curve = min(_fold_F(k), key=lambda F: abs(F - mid))
            elif pair in hopf_edges:
                curve = _hopf_F(k)
            elif pair == {"2", "4"}:
                curve = homoclinic_F(k)[0]
            elif pair == {"1", "5"}:
                gaps = [separatrix_splitting(Params(k, F)) for F in Fs[i:i + 2]]
                assert (gaps[0] < 0) != (gaps[1] < 0), (k, mid)
                continue
            else:
                raise AssertionError(f"edge {sorted(pair)} at k={k}, F={mid}")
            assert abs(curve - mid) <= dF, (sorted(pair), k, mid, curve)
    assert edges >= 400


def _focus(k, F):
    """Focus-type equilibrium: the root of u v = F + k, F (1 - u) = u v^2
    with the larger v."""
    a = (F + k) / F
    v = (1 + math.sqrt(1 - 4 * a * (F + k))) / (2 * a)
    return 1 - (F + k) * v / F, v


def _run_below_hopf(k, t_end):
    from scipy.integrate import solve_ivp

    F = _hopf_F(k) - 1e-5
    u0, v0 = _focus(k, F)
    assert max(abs(f) for f in _field(u0, v0, k, F)) < 1e-14
    jac = np.array([[-v0 * v0 - F, -2 * u0 * v0], [v0 * v0, 2 * u0 * v0 - F - k]])
    lam = np.linalg.eigvals(jac)
    # an unstable focus just below the Hopf curve
    assert np.all(lam.imag != 0) and 0 < lam[0].real < 1e-4

    def rhs(t, x):
        return _field(x[0], x[1], k, F)

    def section(t, x):
        return x[1] - v0
    section.direction = 1.0

    sol = solve_ivp(rhs, (0.0, t_end), [u0 + 1e-3, v0], method="DOP853",
                    rtol=1e-9, atol=1e-12, events=section)
    assert sol.status == 0
    return sol, (u0, v0)


def test_hopf_subcritical_near_double_zero():
    # k = 0.06: no small stable cycle below the Hopf curve; the orbit leaves
    # the unstable focus and ends at the trivial state (1, 0)
    pytest.importorskip("scipy")
    sol, _ = _run_below_hopf(0.06, 2e5)
    u, v = sol.y[:, -1]
    assert abs(u - 1) < 1e-9 and abs(v) < 1e-9


def test_hopf_supercritical_at_small_k():
    # k = 0.02: the orbit leaving the unstable focus settles onto a small
    # stable cycle: successive section crossings converge to one radius
    pytest.importorskip("scipy")
    sol, (u0, v0) = _run_below_hopf(0.02, 4e5)
    radii = sol.y_events[0][:, 0] - u0
    last = radii[-5:]
    assert 1e-2 < last.min() and last.max() < 0.2
    assert np.ptp(last) < 1e-6 * last.mean()
    u, v = sol.y[:, -1]
    assert abs(u - 1) > 0.5


def _cycle_by_dop853(k, F, cycle, frame):
    """(period, nontrivial multiplier) of the cycle through the census's
    section point, by scipy's DOP853 at rtol 1e-13.  The period is the first
    return to the section ray; the multiplier is det M(T) by Liouville's
    formula, exp of the divergence integrated along the orbit, so no
    variational equation is shared with gskit."""
    from scipy.integrate import solve_ivp

    x0, y0, T = cycle.section_point.u, cycle.section_point.v, cycle.period
    _, cx, cy, dx, dy, orient, _ = frame

    def rhs(t, z):
        u, v = z[0], z[1]
        return (*_field(u, v, k, F), (-v * v - F) + (2 * u * v - F - k))

    def section(t, z):
        return dx * (z[1] - cy) - dy * (z[0] - cx)
    section.direction = orient

    sol = solve_ivp(rhs, (0.0, 1.5 * T), [x0, y0, 0.0], method="DOP853",
                    rtol=1e-13, atol=1e-15, events=section)
    assert sol.status == 0
    returns = [(t, z) for t, z in zip(sol.t_events[0], sol.y_events[0])
               if t > 0.5 * T and (z[0] - cx) * dx + (z[1] - cy) * dy > 0]
    t_ret, z_ret = returns[0]
    return t_ret, math.exp(z_ret[2])


# (k, F - F_hopf(k), cycle stabilities inner to outer): the pinned census
# point and points on both sides of the generalized-Hopf point k = 9/256,
# including the two-cycle wedge at k = 0.034
_CENSUS_POINTS = [(0.025, -1e-5, "s"), (0.025, -3e-5, "s"), (0.034, -2e-6, "su"),
                  (0.034, 1e-5, "u"), (0.04, 1e-5, "u"), (0.04, 3e-5, "u")]


@pytest.mark.parametrize("k, dF, stabilities", _CENSUS_POINTS)
def test_census_cycles_match_dop853(k, dF, stabilities):
    # period and Floquet multiplier of every census cycle agree with DOP853
    # within 1e-8 relative, ten times the census rel_tol of 1e-9
    pytest.importorskip("scipy")
    from gskit import dynamics
    from gskit.core import Params

    F = _hopf_F(k) + dF
    a = Params(k, F)
    frame = dynamics.section_frame(a)
    cycles = dynamics.limit_cycle_census(a, n_scan=120)
    assert "".join("s" if c.stable else "u" for c in cycles) == stabilities
    for c in cycles:
        period, multiplier = _cycle_by_dop853(k, F, c, frame)
        assert c.period == pytest.approx(period, rel=1e-8, abs=0)
        assert c.nontrivial_multiplier == pytest.approx(multiplier, rel=1e-8, abs=0)
