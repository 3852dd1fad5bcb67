import math
from fractions import Fraction as Fr

import numpy as np
import pytest

from gskit.core import Number, Params, State
from gskit.equilibria import (bisect_sign, classify, disc_curve_F, discriminants,
                              equilibria, hopf_F, neutral_saddle_F,
                              p_mp_trace_det_disc, saddle_node_F)
from gskit.errors import DomainError, NotAnEquilibrium

# ---------------------------------------------------------------------------
# The resultant surface of the equilibrium conditions, whose singular set
# projects onto the fold curve
# ---------------------------------------------------------------------------

def surface_G(k: Number, F: Number, v: Number) -> Number:
    """Nontrivial factor of the resultant surface: F(F+k) - F v + (F+k) v^2."""
    return F * (F + k) - F * v + (F + k) * v * v


def singular_set_residual(k: Number, F: Number, v: Number) -> Number:
    """Vertical-tangency condition on the surface: -F + 2(F+k) v."""
    return -F + 2 * (F + k) * v


def fold_defect(k: Number, F: Number) -> Number:
    """Residual of the fold-curve relation 4(F+k)^2 - F (zero on the curve)."""
    return 4 * (F + k) * (F + k) - F


def test_discriminants_exact_values():
    d = discriminants(Params(Fr(1, 16), Fr(1, 16)))
    assert d.gamma == 2 and d.delta == 0
    d = discriminants(Params(Fr(9, 256), Fr(3, 256)))
    assert d.gamma == 4 and d.delta == Fr(1, 4)
    d = discriminants(Params(0.07, 0.02))
    assert d.delta == pytest.approx(-0.62, abs=1e-14)


def test_equilibria_three_cases():
    eq = equilibria(Params(Fr(1, 16), Fr(1, 16)))
    assert eq.kind == "degenerate"
    assert eq.p_mp == State(Fr(1, 2), Fr(1, 4))

    eq = equilibria(Params(Fr(9, 256), Fr(3, 256)))
    assert eq.kind == "pair"
    assert eq.p_mp == State(Fr(1, 4), Fr(3, 16))
    assert eq.p_pm == State(Fr(3, 4), Fr(1, 16))

    eq = equilibria(Params(0.07, 0.02))
    assert eq.kind == "none"
    assert eq.nontrivial() == ()
    assert eq.p0 == State(1.0, 0.0)


def test_equilibrium_identities_random():
    rng = np.random.default_rng(11)
    n = 0
    while n < 300:
        k = float(rng.uniform(1e-3, 0.08))
        F = float(rng.uniform(1e-3, 0.24))
        a = Params(k, F)
        eq = equilibria(a)
        if eq.kind != "pair":
            continue
        n += 1
        g = a.gamma
        assert abs(eq.p_mp.u + g * eq.p_mp.v - 1) <= 1e-13
        assert abs(eq.p_pm.u + g * eq.p_pm.v - 1) <= 1e-13
        assert abs(eq.p_mp.u * eq.p_mp.v - (F + k)) <= 1e-13
        assert abs(eq.p_pm.u * eq.p_pm.v - (F + k)) <= 1e-13


def test_classify_trivial_point_always_stable():
    for a in (Params(0.01, 0.2), Params(0.06, 0.04), Params(Fr(1, 16), Fr(1, 16))):
        rep = classify(State(1.0, 0.0), a)
        assert rep.label == "stable-node"
        assert rep.eigenvalues[1] == pytest.approx(-float(a.F))
        assert rep.eigenvalues[0] == pytest.approx(-float(a.F + a.k))


def test_classify_gh_point_hopf_candidate():
    a = Params(Fr(9, 256), Fr(3, 256))
    rep = classify(State(Fr(1, 4), Fr(3, 16)), a)
    assert rep.trace == 0
    assert rep.det == Fr(9, 8192)
    assert rep.label == "nonhyperbolic(hopf)"
    lam = rep.eigenvalues[1]
    assert lam.real == 0
    assert lam.imag == pytest.approx(3 * math.sqrt(2) / 128, rel=1e-14)


def test_classify_saddle_at_gh():
    a = Params(Fr(9, 256), Fr(3, 256))
    rep = classify(State(Fr(3, 4), Fr(1, 16)), a)
    assert rep.det == Fr(-3, 8192)
    assert rep.label == "saddle"


def test_classify_saddle_whenever_pair_exists():
    rng = np.random.default_rng(12)
    n = 0
    while n < 100:
        a = Params(float(rng.uniform(1e-3, 0.08)), float(rng.uniform(1e-3, 0.24)))
        eq = equilibria(a)
        if eq.kind != "pair":
            continue
        n += 1
        assert classify(eq.p_pm, a).label == "saddle"


def test_classify_rejects_non_equilibrium():
    with pytest.raises(NotAnEquilibrium):
        classify(State(0.4, 0.3), Params(0.04, 0.02))


def test_neutral_saddle_trace_value_at_gh():
    a = Params(Fr(9, 256), Fr(3, 256))
    rep = classify(State(Fr(3, 4), Fr(1, 16)), a)
    assert rep.trace == Fr(1, 32)


def test_saddle_node_branches():
    up, lo = saddle_node_F(Fr(1, 16))
    assert up == Fr(1, 16) and lo == Fr(1, 16)
    up, lo = saddle_node_F(0.04)
    assert up == pytest.approx(0.16, abs=1e-15)
    assert lo == pytest.approx(0.01, abs=1e-15)
    assert abs(4 * (up + 0.04) ** 2 - up) < 1e-15
    assert abs(4 * (lo + 0.04) ** 2 - lo) < 1e-15
    with pytest.raises(DomainError):
        saddle_node_F(0.07)


def test_saddle_node_limits_toward_zero():
    up, lo = saddle_node_F(1e-12)
    assert up == pytest.approx(0.25, abs=1e-10)
    assert lo == pytest.approx(0.0, abs=1e-10)


def test_saddle_node_substitution_oracle_many():
    rng = np.random.default_rng(13)
    for k in rng.uniform(1e-4, 1 / 16, 500):
        for F in saddle_node_F(float(k)):
            assert abs(fold_defect(float(k), F)) <= 1e-13


def test_hopf_curve_values_and_trace():
    assert hopf_F(Fr(1, 16)) == Fr(1, 16)
    assert hopf_F(Fr(9, 256)) == Fr(3, 256)
    for k in (0.01, 0.03, 0.05, 0.06):
        F = float(hopf_F(k))
        tr, det, _ = p_mp_trace_det_disc(k, F)
        assert abs(tr) <= 1e-13
        assert det > 0
    with pytest.raises(DomainError):
        hopf_F(0.0626)


def test_neutral_saddle_trace_vanishes_at_saddle():
    for k in (0.02, 0.04, 0.06):
        F = float(neutral_saddle_F(k))
        a = Params(k, F)
        eq = equilibria(a)
        rep_tr = k - eq.p_pm.v ** 2
        assert abs(rep_tr) <= 1e-13


def test_hopf_and_neutral_inside_fold_region():
    for k in np.linspace(0.005, 0.0624, 40):
        for F in (float(hopf_F(float(k))), float(neutral_saddle_F(float(k)))):
            d = discriminants(Params(float(k), F))
            assert d.delta > 0


def test_disc_curve_between_hopf_and_lower_fold():
    for k in (0.03, 0.05):
        roots = disc_curve_F(k)
        assert roots
        lo = float(saddle_node_F(k)[1])
        hi = float(hopf_F(k))
        for F in roots:
            assert lo < F < hi
            _, _, disc = p_mp_trace_det_disc(k, F)
            assert abs(disc) < 1e-9
    # on the Hopf curve the eigenvalues are complex: disc = -4 det < 0
    for k in (0.02, 0.05):
        _, det, disc = p_mp_trace_det_disc(k, float(hopf_F(k)))
        assert disc == pytest.approx(-4 * det, rel=1e-10)
        assert disc < 0


def test_disc_curve_roots_approach_double_zero_point():
    roots = disc_curve_F(0.0624)
    assert roots
    assert all(abs(F - 1 / 16) < 0.01 for F in roots)


def test_surface_and_singular_set():
    assert surface_G(Fr(1, 16), Fr(1, 16), Fr(1, 4)) == 0
    assert singular_set_residual(Fr(1, 16), Fr(1, 16), Fr(1, 4)) == 0
    # G's roots in v coincide with the equilibrium quadratic's roots
    rng = np.random.default_rng(14)
    n = 0
    while n < 50:
        a = Params(float(rng.uniform(1e-3, 0.06)), float(rng.uniform(1e-3, 0.2)))
        eq = equilibria(a)
        if eq.kind != "pair":
            continue
        n += 1
        for pt in (eq.p_mp, eq.p_pm):
            assert abs(surface_G(a.k, a.F, pt.v)) < 1e-14


def test_eliminating_v_reproduces_fold_relation():
    # v from the singular condition substituted into G leaves the fold defect
    # times F/(4(F+k)) exactly
    rng = np.random.default_rng(15)
    for _ in range(50):
        k = float(rng.uniform(1e-3, 0.1))
        F = float(rng.uniform(1e-3, 0.2))
        v = F / (2 * (F + k))
        g = surface_G(k, F, v)
        expected = F * fold_defect(k, F) / (4 * (F + k))
        assert g == pytest.approx(expected, rel=1e-12, abs=1e-16)


def test_bisect_sign_keeps_a_narrow_sign_change():
    # the bracket returned is at most tol wide and f still changes sign
    # across it, from either end's sign
    def f(x):
        return x ** 3 - 2 * x - 5

    for lo, hi, tol in ((2.0, 3.0, 1e-12), (2.0, 2.5, 1e-6), (-1.0, 4.0, 1e-9),
                        (2.09, 2.1, 1e-15)):
        for g in (f, lambda x: -f(x)):
            a, b = bisect_sign(g, lo, hi, g(lo), tol)
            assert lo <= a < b <= hi and b - a <= tol
            assert (g(a) < 0) != (g(b) < 0)


def test_bisect_sign_keeps_an_exact_zero_as_an_end():
    # a midpoint where f is exactly zero counts as positive: the halving goes
    # on and the zero stays the end of the bracket on its side; a bracket
    # already within tol is returned as given
    lo, hi = bisect_sign(lambda x: x - 0.375, 0.0, 1.0, -0.375, 1e-12)
    assert hi == 0.375 and 0 < hi - lo <= 1e-12
    lo, hi = bisect_sign(lambda x: 0.375 - x, 0.0, 1.0, 0.375, 1e-12)
    assert lo == 0.375 and 0 < hi - lo <= 1e-12

    def unused(x):
        pytest.fail("f evaluated on a bracket already within tol")

    assert bisect_sign(unused, 0.0, 1e-13, -1.0, 1e-12) == (0.0, 1e-13)
