from fractions import Fraction as Fr

import numpy as np
import pytest

from gskit.core import (Params, State, extended_jacobian, jacobian, trace_det,
                        vector_field)
from gskit.errors import DomainError


def test_trivial_equilibrium():
    for params in (Params(0.01, 0.01), Params(Fr(7, 100), Fr(2, 100))):
        assert vector_field(State(1, 0), params) == (0, 0)


def test_double_zero_equilibrium_exact():
    a = Params(Fr(1, 16), Fr(1, 16))
    assert vector_field(State(Fr(1, 2), Fr(1, 4)), a) == (0, 0)


def test_field_direct_evaluation():
    f = vector_field(State(1.0, 1.0), Params(0.06, 0.04))
    assert f[0] == pytest.approx(-1.0, abs=1e-15)
    assert f[1] == pytest.approx(0.9, abs=1e-15)


def test_params_validation():
    with pytest.raises(DomainError):
        Params(-0.01, 0.02)
    with pytest.raises(DomainError):
        Params(0.01, 0.0)
    assert Params(Fr(1, 16), Fr(1, 16)).gamma == 2


def test_jacobian_at_trivial_point():
    a = Params(Fr(3, 50), Fr(1, 25))
    jac = jacobian(State(Fr(1), Fr(0)), a)
    assert jac == ((-a.F, 0), (0, -(a.F + a.k)))


def test_jacobian_at_double_zero_point():
    jac = jacobian(State(Fr(1, 2), Fr(1, 4)), Params(Fr(1, 16), Fr(1, 16)))
    assert jac == ((Fr(-1, 8), Fr(-1, 4)), (Fr(1, 16), Fr(1, 8)))


def _fd_jacobian(p, a, h=1e-6):
    out = np.empty((2, 2))
    for j in range(2):
        up = [p.u, p.v]
        dn = [p.u, p.v]
        up[j] += h
        dn[j] -= h
        fu = vector_field(tuple(up), a)
        fd = vector_field(tuple(dn), a)
        out[:, j] = [(fu[i] - fd[i]) / (2 * h) for i in range(2)]
    return out


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(3)
    for _ in range(40):
        a = Params(float(rng.uniform(0.005, 0.1)), float(rng.uniform(0.005, 0.2)))
        p = State(float(rng.uniform(0, 1.2)), float(rng.uniform(0, 0.8)))
        exact = np.array(jacobian(p, a))
        approx = _fd_jacobian(p, a)
        assert np.allclose(exact, approx, rtol=1e-8, atol=1e-8)


def test_jet_trace_det_closed_forms_at_equilibria():
    from gskit.equilibria import equilibria
    rng = np.random.default_rng(6)
    n = 0
    while n < 100:
        k = float(rng.uniform(0.005, 0.06))
        F = float(rng.uniform(0.005, 0.08))
        a = Params(k, F)
        eq = equilibria(a)
        if eq.kind != "pair":
            continue
        n += 1
        for pt in (eq.p_mp, eq.p_pm):
            f1, f2, tr, det = extended_jacobian(pt.u, pt.v, k, F)[0]
            assert (f1, f2) == vector_field(pt, a)
            assert (tr, det) == trace_det(jacobian(pt, a))
            v = pt.v
            assert abs(det - (v * v - F) * (F + k)) <= 1e-13
            assert abs(tr - (k - v * v)) <= 1e-13
            assert max(abs(f1), abs(f2)) < 1e-12
