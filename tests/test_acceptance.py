"""Acceptance battery, asserted criterion by criterion.

Each test asserts its criterion at the stated tolerance; the assertion
messages carry the computed values.  The targets of criteria 1, 4 and 8
(b20 = -1/16 and s = +1, a positive parameter-map determinant, the
homoclinic curve above the Hopf curve with a square-root axis pairing) are
derived in the README's acceptance section and checked independently in
tests/test_oracles.py.

Run with `-s` to see the full pass/fail table (one line per criterion).
"""
import pytest

from gskit import acceptance

GRID = 200


@pytest.fixture(scope="module")
def battery():
    results = {r.number: r for r in acceptance.run_battery(grid=GRID)}
    print()
    print(acceptance.format_battery(list(results.values())))
    return results


def _assert_criterion(result):
    failed = [c for c in result.checks if not c.ok]
    msg = "; ".join(f"{c.name}: {c.detail}" for c in failed)
    assert result.passed, f"criterion {result.number} sub-checks failed -> {msg}"


def _assert_named_checks(result, names):
    # the named sub-checks must be present and pass: a sub-check dropped
    # from the battery would leave _assert_criterion green
    by_name = {c.name: c for c in result.checks}
    missing = [n for n in names if n not in by_name]
    assert not missing, f"criterion {result.number} lacks sub-checks {missing}"
    failed = [f"{n}: {by_name[n].detail}" for n in names if not by_name[n].ok]
    assert not failed, f"criterion {result.number} sub-checks failed -> {'; '.join(failed)}"


def test_criterion_1_exact_checkpoints(battery):
    # b20(0) = -1/16 and s = +1 exactly: the projected quadratic expansion,
    # the exact finite differences in test_bt.py and the sympy Jordan chain
    # in test_oracles.py agree
    _assert_criterion(battery[1])


def test_criterion_1_remaining_checkpoints_green(battery):
    _assert_named_checks(battery[1], [
        "double_zero_point", "a20", "b11", "transversality_det", "resultant",
        "gh_params", "gh_point"])


def test_criterion_2_closed_form_consistency(battery):
    _assert_criterion(battery[2])


def test_criterion_3_hopf_detection(battery):
    _assert_criterion(battery[3])


def test_criterion_4_lyapunov_sign_law(battery):
    # with mu = Re lambda, rows (mu, l1) and columns (k, F) the determinant
    # is +9*sqrt(2)/2 and its sign must match -mu_F * dl1/dk along the Hopf
    # curve, evaluated by a second route inside the battery
    _assert_criterion(battery[4])


def test_criterion_4_signs_and_l2_green(battery):
    _assert_named_checks(battery[4], [
        "l1_negative_side", "l1_positive_side", "l1_zero_at_gh",
        "l1_single_sign_change", "l2_positive", "param_map_nonzero"])


def test_criterion_5_continuation_vs_closed_form(battery):
    _assert_criterion(battery[5])


def test_criterion_6_two_coexisting_cycles(battery):
    _assert_criterion(battery[6])


def test_criterion_7_lpc_tangency(battery):
    _assert_criterion(battery[7])


def test_criterion_8_homoclinic_curve(battery):
    # the homoclinic curve lies between the Hopf curve and the upper fold
    # branch (repelling newborn cycles, s = +1) and the splitting gap keeps
    # one sign below the Hopf curve; the fold tangency has exponent 2 in the
    # geometric pairing and 1/2 in the literal axis pairing (two-term fit)
    _assert_criterion(battery[8])


def test_criterion_8_bracketing_and_tangency_green(battery):
    _assert_named_checks(battery[8], [
        "bisection_to_1e-8", "no_loop_below_hopf", "fold_tangency_exponent"])


def test_criterion_9_integrator_quality(battery):
    _assert_criterion(battery[9])


def test_criterion_10_global_map(battery):
    _assert_criterion(battery[10])


def test_battery_runtime_budget(battery):
    total = sum(r.elapsed for r in battery.values())
    assert total < 600.0, f"battery took {total:.0f}s, budget is 10 minutes"
