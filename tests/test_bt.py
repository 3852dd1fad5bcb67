from fractions import Fraction as Fr

import numpy as np
import pytest

from gskit import bt
from gskit.bt import BT_PARAMS, BT_POINT, FRAME, BTFrame, bt_nondegeneracy
from gskit.core import Params, State, extended_jacobian, jacobian, vector_field
from gskit.errors import GSKitError
from reference import A0, bt_coefficients, det_bareiss_ring, jordan_basis

# ---------------------------------------------------------------------------
# The exact-difference route to the quadratic coefficients: the field shifted
# to the double-zero point, and expanded around the moving base point and
# projected onto a Jordan frame
# ---------------------------------------------------------------------------

def shifted_field(x, alpha):
    """Field in coordinates centered at (1/2, 1/4) with parameter offsets
    alpha = (F - 1/16, k - 1/16).  Identical to composing the original field
    with the shift."""
    a1, a2 = alpha
    p = (x[0] + Fr(1, 2), x[1] + Fr(1, 4))
    return vector_field(p, Params(a2 + Fr(1, 16), a1 + Fr(1, 16)))


def base_point(alpha) -> State:
    """Base point (1/2, k/(2(F+k))) of the coefficient-family expansion."""
    a1, a2 = alpha
    k = a2 + Fr(1, 16)
    fk = a1 + a2 + Fr(1, 8)
    return State(Fr(1, 2), k / (2 * fk))


def unfolding_field(x, alpha):
    """Field expanded around the moving base point; equals shifted_field at
    alpha = 0."""
    a1, a2 = alpha
    bp = base_point(alpha)
    p = (x[0] + bp.u, x[1] + bp.v)
    return vector_field(p, Params(a2 + Fr(1, 16), a1 + Fr(1, 16)))


def projected_component(y1, y2, alpha, w, frame: BTFrame | None = None):
    """<unfolding_field(y1 v0 + y2 v1, alpha), w> for w in {frame.w0, frame.w1}."""
    frame = frame or jordan_basis()
    x = (y1 * frame.v0[0] + y2 * frame.v1[0], y1 * frame.v0[1] + y2 * frame.v1[1])
    f = unfolding_field(x, alpha)
    return f[0] * w[0] + f[1] * w[1]


def coefficients_in_frame(frame: BTFrame, alpha=(Fr(0), Fr(0))):
    """(a20, b20, b11) recomputed in an arbitrary admissible frame by exact
    second differences of the projected components (the field is cubic, so
    central differences are exact)."""
    h = Fr(1, 64)

    def d2_11(w):
        return (projected_component(h, 0, alpha, w, frame)
                - 2 * projected_component(0, 0, alpha, w, frame)
                + projected_component(-h, 0, alpha, w, frame)) / (h * h)

    def d2_12(w):
        return (projected_component(h, h, alpha, w, frame)
                - projected_component(h, -h, alpha, w, frame)
                - projected_component(-h, h, alpha, w, frame)
                + projected_component(-h, -h, alpha, w, frame)) / (4 * h * h)

    return d2_11(frame.w0), d2_11(frame.w1), d2_12(frame.w1)


def test_shifted_field_zero_at_origin():
    assert shifted_field((Fr(0), Fr(0)), (Fr(0), Fr(0))) == (0, 0)


def test_shifted_field_composition_oracle():
    rng = np.random.default_rng(21)
    for _ in range(200):
        x = (float(rng.uniform(-0.2, 0.2)), float(rng.uniform(-0.1, 0.1)))
        alpha = (float(rng.uniform(-0.03, 0.03)), float(rng.uniform(-0.03, 0.03)))
        direct = shifted_field(x, alpha)
        composed = vector_field((x[0] + 0.5, x[1] + 0.25),
                                Params(alpha[1] + 1 / 16, alpha[0] + 1 / 16))
        assert direct[0] == pytest.approx(composed[0], abs=1e-14)
        assert direct[1] == pytest.approx(composed[1], abs=1e-14)


def test_linearization_at_origin_is_a0():
    # the typed-in A0 is the field's Jacobian at the point, and an exact
    # second-order stencil around 0 recovers it from the shifted field
    assert jacobian(BT_POINT, BT_PARAMS) == A0
    h = Fr(1, 128)
    for j, e in enumerate(((h, Fr(0)), (Fr(0), h))):
        up = shifted_field(e, (Fr(0), Fr(0)))
        dn = shifted_field((-e[0], -e[1]), (Fr(0), Fr(0)))
        col = ((up[0] - dn[0]) / (2 * h), (up[1] - dn[1]) / (2 * h))
        assert col == (A0[0][j], A0[1][j])


def test_jordan_basis_reference_and_invariants():
    frame = jordan_basis()
    assert FRAME == frame
    assert frame.v0 == (-2, 1)
    assert frame.v1 == (0, 8)
    assert frame.w0 == (Fr(-1, 2), 0)
    assert frame.w1 == (Fr(1, 16), Fr(1, 8))
    for name, residual in frame.check().items():
        if isinstance(residual, tuple):
            assert residual == (0, 0), name
        else:
            assert residual == 0, name


def test_a0_maps_v1_to_v0():
    frame = jordan_basis()
    img = (A0[0][0] * frame.v1[0] + A0[0][1] * frame.v1[1],
           A0[1][0] * frame.v1[0] + A0[1][1] * frame.v1[1])
    assert img == frame.v0


def test_alternative_frames_satisfy_invariants():
    for c, d in ((2, 0), (Fr(1, 3), 0), (-4, Fr(1, 2)), (1, -3)):
        frame = jordan_basis(c, d)
        for name, residual in frame.check().items():
            if isinstance(residual, tuple):
                assert residual == (0, 0), (c, d, name)
            else:
                assert residual == 0, (c, d, name)


def test_bt_coefficients_at_zero():
    a20, b20, b11 = bt_coefficients((Fr(0), Fr(0)))
    assert a20 == Fr(-1, 2)
    assert b20 == Fr(-1, 16)
    assert b11 == 0


def test_bt_coefficients_diagonal_cancellation():
    for t in (Fr(1, 100), Fr(-1, 200)):
        a20, b20, b11 = bt_coefficients((t, t))
        assert a20 == Fr(-1, 2)
        assert b20 == Fr(-1, 16)
        assert b11 == 0


def test_bt_coefficients_offdiagonal_value():
    a20, b20, b11 = bt_coefficients((Fr(1, 100), Fr(0)))
    assert b11 == Fr(4, 100) / Fr(108, 100)
    assert a20 == -Fr(23, 25) / (2 * Fr(27, 25))
    assert b20 == a20 / 8


def test_bt_coefficients_match_exact_projected_differences():
    # the closed forms are the second partials of the projected moving-point
    # expansion; the field is cubic so the stencil below is exact
    frame = jordan_basis()
    for alpha in ((Fr(0), Fr(0)), (Fr(1, 100), Fr(0)), (Fr(-1, 150), Fr(1, 200)),
                  (Fr(1, 64), Fr(1, 64))):
        a20c, b20c, b11c = bt_coefficients(alpha)
        a20n, b20n, b11n = coefficients_in_frame(frame, alpha)
        assert (a20c, b20c, b11c) == (a20n, b20n, b11n)


def test_bt_coefficients_match_float_finite_differences():
    rng = np.random.default_rng(22)
    frame = jordan_basis()
    h = 1e-4
    for _ in range(50):
        alpha = (float(rng.uniform(-0.01, 0.01)), float(rng.uniform(-0.01, 0.01)))
        a20c, b20c, b11c = bt_coefficients(alpha)

        def d2(w):
            return (projected_component(h, 0.0, alpha, w, frame)
                    - 2 * projected_component(0.0, 0.0, alpha, w, frame)
                    + projected_component(-h, 0.0, alpha, w, frame)) / (h * h)

        def d11(w):
            return (projected_component(h, h, alpha, w, frame)
                    - projected_component(h, -h, alpha, w, frame)
                    - projected_component(-h, h, alpha, w, frame)
                    + projected_component(-h, -h, alpha, w, frame)) / (4 * h * h)

        w0 = tuple(float(x) for x in frame.w0)
        w1 = tuple(float(x) for x in frame.w1)
        assert d2(w0) == pytest.approx(float(a20c), abs=1e-7)
        assert d2(w1) == pytest.approx(float(b20c), abs=1e-7)
        assert d11(w1) == pytest.approx(float(b11c), abs=1e-7)


def test_unfolding_field_matches_shift_at_zero():
    rng = np.random.default_rng(23)
    for _ in range(20):
        x = (Fr(rng.integers(-20, 20)) / 100, Fr(rng.integers(-20, 20)) / 100)
        assert unfolding_field(x, (Fr(0), Fr(0))) == shifted_field(x, (Fr(0), Fr(0)))
    bp = base_point((Fr(0), Fr(0)))
    assert (bp.u, bp.v) == (Fr(1, 2), Fr(1, 4))


def test_nondegeneracy_report():
    rep = bt_nondegeneracy()
    # the projections of the field's second-derivative form onto FRAME are
    # the exact second differences of the projected field and the
    # closed-form family at alpha = 0
    coefficients = (rep.a20, rep.b20, rep.b11)
    assert coefficients == coefficients_in_frame(FRAME)
    assert coefficients == bt_coefficients((Fr(0), Fr(0)))
    assert rep.a20 + rep.b11 == Fr(-1, 2)
    assert rep.b20 == Fr(-1, 16)
    assert rep.s == 1
    assert rep.transversality_det == Fr(-1, 512)


def test_nondegeneracy_rejects_a_broken_chain(monkeypatch):
    broken = BTFrame(FRAME.v0, FRAME.v1, FRAME.w0, (FRAME.w1[0], Fr(1, 4)))
    monkeypatch.setattr(bt, "FRAME", broken)
    with pytest.raises(GSKitError, match="A0\\^T w1.*<v1,w1> - 1"):
        bt_nondegeneracy()


def test_s_invariant_under_admissible_frames():
    for c, d in ((1, 0), (2, 0), (Fr(-1, 2), Fr(1, 4)), (3, -1)):
        frame = jordan_basis(c, d)
        a20, b20, b11 = coefficients_in_frame(frame)
        q = b20 * (a20 + b11)
        assert q > 0, (c, d, a20, b20, b11)


def test_transversality_matrix_entries_at_double_zero():
    values, m = extended_jacobian(Fr(1, 2), Fr(1, 4), Fr(1, 16), Fr(1, 16))
    expected = (
        (Fr(-1, 8), Fr(-1, 4), 0, Fr(1, 2)),
        (Fr(1, 16), Fr(1, 8), Fr(-1, 4), Fr(-1, 4)),
        (Fr(1, 2), Fr(1, 2), -1, -2),
        (Fr(-1, 32), 0, Fr(1, 8), 0),
    )
    assert values == (0, 0, 0, 0)
    assert m == expected
    assert all(isinstance(x, (Fr, int)) for row in m for x in row)
    assert bt._det(m) == Fr(-1, 512)
    assert bt_nondegeneracy().transversality_det == Fr(-1, 512)


def test_det_matches_fraction_free_oracle():
    # bt's elimination against the Bareiss determinant on seeded random
    # Fraction matrices: pivots that need a row swap, and singular ones
    rng = np.random.default_rng(24)
    mats = [[[Fr(int(rng.integers(-9, 10)), int(rng.integers(1, 9)))
              for _ in range(4)] for _ in range(4)] for _ in range(40)]
    mats.append([mats[0][0], mats[0][1], mats[0][2],
                 [a + 2 * b for a, b in zip(mats[0][0], mats[0][1])]])
    mats.append([[0, 1, 2, 3], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    mats.append([[0] * 4] + mats[1][1:])
    for m in mats:
        assert bt._det(m) == det_bareiss_ring(m), m
    assert bt._det(mats[-3]) == 0 and bt._det(mats[-1]) == 0
    assert bt._det(mats[-2]) == -1


def test_transversality_matrix_is_jacobian_of_extended_map():
    # core.extended_jacobian, whose rows are also the Jacobians of the fold
    # and Hopf continuation problems, against central differences of
    # (f1, f2, trace, det) written out here, at random points, some outside
    # the positive quadrant and at k, F <= 0 (Newton probes there); the map
    # is cubic, so h = 1e-6 leaves only round-off
    def extended(u, v, k, F):
        f1 = -u * v * v + F * (1 - u)
        f2 = u * v * v - (F + k) * v
        tr = -(F + v * v) - (F + k) + 2 * u * v
        det = (-(F + v * v)) * (-(F + k) + 2 * u * v) + 2 * u * v * v * v
        return np.array([f1, f2, tr, det])

    rng = np.random.default_rng(14)
    h = 1e-6
    for _ in range(60):
        z = rng.uniform([-0.2, -0.2, -0.01, -0.01], [1.2, 1.5, 0.08, 0.1])
        values, rows = extended_jacobian(*z.tolist())
        assert np.allclose(values, extended(*z), rtol=0, atol=1e-15)
        fd = np.empty((4, 4))
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            fd[:, j] = (extended(*(z + e)) - extended(*(z - e))) / (2 * h)
        assert np.max(np.abs(np.array(rows) - fd)) < 1e-8
