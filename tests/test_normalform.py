import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from gskit.bautin import GH_PARAMS, _g_coeffs, l2_kuz
from gskit.core import Params, jacobian
from gskit.equilibria import equilibria, hopf_F
from gskit.normalform import poincare_normal_form
from gskit.ratmath import FieldComplex, Sqrt2
from reference import ORDER, Series, poincare_normal_form as engine

CUBIC = [(2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3)]


def _field_zero(c):
    """The engine's is_negligible over Q(sqrt 2, i): exactly zero."""
    return c.re.is_zero() and c.im.is_zero()


def _closed_c1(coeffs, omega):
    g20 = 2 * coeffs.get((2, 0), 0j)
    g11 = coeffs.get((1, 1), 0j)
    g02 = 2 * coeffs.get((0, 2), 0j)
    g21 = 2 * coeffs.get((2, 1), 0j)
    return (1j * g20 * g11 / (2 * omega) - 1j * abs(g11) ** 2 / omega
            - 1j * abs(g02) ** 2 / (6 * omega) + g21 / 2)


def test_engine_matches_closed_formula_on_synthetic_systems():
    rng = np.random.default_rng(41)
    for _ in range(10):
        omega = float(rng.uniform(0.2, 3.0))
        coeffs = {(2, 0): complex(*rng.normal(size=2)),
                  (1, 1): complex(*rng.normal(size=2)),
                  (0, 2): complex(*rng.normal(size=2)),
                  (2, 1): complex(*rng.normal(size=2)),
                  (3, 0): complex(*rng.normal(size=2)),
                  (1, 2): complex(*rng.normal(size=2)),
                  (0, 3): complex(*rng.normal(size=2))}
        c1, c2, _ = engine(
            coeffs, complex(0, omega), complex(1.0),
            lambda c: abs(c) < 1e-13)
        assert c1 == pytest.approx(_closed_c1(coeffs, omega), rel=1e-10)


def test_engine_removes_all_nonresonant_terms():
    coeffs = {(2, 0): 1 + 2j, (1, 1): 0.5 - 1j, (0, 2): -0.3 + 0.7j}
    c1, c2, rhs = engine(coeffs, complex(0, 1.3), complex(1.0),
                         lambda c: abs(c) < 1e-13)
    leftover = {m: v for m, v in rhs.terms.items()
                if m not in ((1, 0), (2, 1), (3, 2)) and abs(v) > 1e-12}
    assert not leftover


def test_engine_pure_cubic_identity():
    # z' = i z + c z^2 zbar is already resonant: engine must return c exactly
    c = -0.25 + 0.6j
    c1, c2, _ = engine({(2, 1): c}, complex(0, 1.0), complex(1.0),
                       lambda x: abs(x) < 1e-15)
    assert c1 == pytest.approx(c, rel=1e-14)
    assert abs(c2) < 1e-14


def test_engine_exact_field_arithmetic():
    # quadratic-only input over Q(sqrt 2, i): results stay in the field
    om = Sqrt2(0, 1)             # sqrt(2)
    i_om = FieldComplex(0, om)
    one = FieldComplex(1)
    half = FieldComplex(Sqrt2(1, 0) / 2)
    coeffs = {(2, 0): half, (1, 1): FieldComplex(1, Sqrt2(0, 1)),
              (0, 2): FieldComplex(Sqrt2(0, 1), 1)}
    c1, c2, _ = engine(coeffs, i_om, one, _field_zero)
    g20 = complex(coeffs[(2, 0)]) * 2
    g11 = complex(coeffs[(1, 1)])
    g02 = complex(coeffs[(0, 2)]) * 2
    w = float(om)
    expected = (1j * g20 * g11 / (2 * w) - 1j * abs(g11) ** 2 / w
                - 1j * abs(g02) ** 2 / (6 * w))
    assert complex(c1) == pytest.approx(expected, rel=1e-12)


def test_series_conjugation_and_product():
    a = Series({(1, 0): 1 + 1j, (0, 1): 2 - 1j})
    b = a.conj()
    assert b.terms[(0, 1)] == 1 - 1j
    assert b.terms[(1, 0)] == 2 + 1j
    prod = a.mul(a)
    assert prod.terms[(2, 0)] == (1 + 1j) ** 2
    assert prod.terms[(1, 1)] == 2 * (1 + 1j) * (2 - 1j)


def _hex(c):
    return f"{c.real.hex()},{c.imag.hex()}"


def _synthetic_systems():
    """Forty seeded (omega, a_jk) systems up to ORDER: dense, sparse, real and
    imaginary coefficients, so exact and signed zeros occur."""
    rng = np.random.default_rng(2024)
    monomials = [(j, m - j) for m in range(2, ORDER + 1) for j in range(m + 1)]
    for i in range(40):
        omega = float(rng.uniform(0.2, 3.0))
        keep = rng.random(len(monomials)) < (0.3 if i % 2 else 1.0)
        coeffs = {mk: complex(*rng.normal(size=2))
                  for mk, on in zip(monomials, keep) if on}
        if i % 4 == 2:
            coeffs = {mk: complex(c.real, 0.0) for mk, c in coeffs.items()}
        elif i % 4 == 3:
            coeffs = {mk: complex(-0.0, c.imag) for mk, c in coeffs.items()}
        yield omega, coeffs


def test_float_engine_outputs_pinned():
    # SHA-256 over float.hex of the engine's c1, c2 and residual series on
    # the synthetic systems
    h = hashlib.sha256()
    for omega, coeffs in _synthetic_systems():
        c1, c2, rhs = engine(
            coeffs, complex(0, omega), complex(1.0), lambda c: abs(c) < 1e-13)
        h.update(f"{_hex(c1)};{_hex(c2)};".encode())
        for m in sorted(rhs.terms):
            h.update(f"{m}:{_hex(rhs.terms[m])};".encode())
    assert h.hexdigest() == (
        "9b9e267a6771fe2db24bff7664350ce948a3bff0f1ae8ad4786098d4e86ce4d5")


def test_l2_kuz_outputs_pinned():
    # l2_kuz at points on the Hopf curve, bit for bit
    got = [l2_kuz(Params(k, hopf_F(k))).hex()
           for k in (0.012, 0.02, 0.03, 0.04, 0.05, 0.06)]
    assert got == ["-0x1.3f045579a6af5p-11", "-0x1.29c3c262c62fbp-10",
                   "0x1.d10af97d00e1dp-12", "0x1.dc49cfc1447a0p-7",
                   "0x1.d380e5d4729c6p-4", "0x1.27897b42f9b1ep+2"]


def _engine_c1_c2(g, i_omega, one, is_negligible):
    """The engine's (c1, c2) for the projections g_jk: its input is the
    monomial coefficients a_jk = g_jk / (j! k!)."""
    a = {(j, k): c / (math.factorial(j) * math.factorial(k)) for (j, k), c in g.items()}
    c1, c2, _ = engine(a, i_omega, one, is_negligible)
    return c1, c2


def test_closed_form_equals_engine_exactly():
    # over Q(sqrt 2, i): at the generalized-Hopf input of l2_gh_exact and at
    # seeded random inputs whose parts are random Fractions
    pt = equilibria(GH_PARAMS).p_mp
    lam = FieldComplex(0, Sqrt2(0, Fraction(3, 128)))
    cases = [(_g_coeffs(FieldComplex, lam, jacobian(pt, GH_PARAMS), pt.u, pt.v), lam)]
    rnd = random.Random(16)

    def frac():
        return Fraction(rnd.randint(-60, 60), rnd.randint(1, 40))

    for _ in range(4):
        g = {m: FieldComplex(Sqrt2(frac(), frac()), Sqrt2(frac(), frac())) for m in CUBIC}
        i_omega = FieldComplex(0, Sqrt2(Fraction(rnd.randint(1, 60), rnd.randint(1, 40)),
                                        frac()))
        cases.append((g, i_omega))
    for g, i_omega in cases:
        expected = _engine_c1_c2(g, i_omega, FieldComplex(1), _field_zero)
        assert poincare_normal_form(g, i_omega) == expected


def test_closed_form_matches_float_engine_on_synthetic_systems():
    # the synthetic systems cut to their cubic part, absent terms zero
    for omega, coeffs in _synthetic_systems():
        g = {(j, k): coeffs.get((j, k), 0j) * (math.factorial(j) * math.factorial(k))
             for j, k in CUBIC}
        got = poincare_normal_form(g, complex(0, omega))
        expected = _engine_c1_c2(g, complex(0, omega), complex(1.0),
                                 lambda c: abs(c) < 1e-13)
        assert got == pytest.approx(expected, rel=1e-12, abs=0)
