import hashlib
import json
import subprocess
import sys

import pytest

from gskit import bt, mapping
from gskit.cli import main
from gskit.errors import DomainError, GSKitError


def run_cli(*argv):
    from io import StringIO
    import contextlib
    out = StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def test_eq_exact_rational_double_zero():
    code, out = run_cli("eq", "--k", "1/16", "--F", "1/16")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["exact"] is True
    assert doc["kind"] == "degenerate"
    pt = doc["equilibria"]["p_mp"]["point"]
    assert pt["u"] == {"num": 1, "den": 2, "value": 0.5}
    assert pt["v"]["num"] == 1 and pt["v"]["den"] == 4


def test_eq_outside_region():
    code, out = run_cli("eq", "--k", "0.07", "--F", "0.02")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "none"
    assert list(doc["equilibria"]) == ["p0"]


def test_eq_gh_point():
    code, out = run_cli("eq", "--k", "9/256", "--F", "3/256")
    assert code == 0
    doc = json.loads(out)
    pm = doc["equilibria"]["p_mp"]
    assert pm["point"]["u"]["num"] == 1 and pm["point"]["u"]["den"] == 4
    assert pm["class"] == "nonhyperbolic(hopf)"


def test_eq_domain_error_exit_2():
    code, _ = run_cli("eq", "--k", "-0.01", "--F", "0.02")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("eq", "--k", "abc", "--F", "0.02"),
    ("eq", "--k", "1/0", "--F", "0.02"),
    ("map", "--grid", "200"),
    ("curves", "--which", "hopf", "--k-range", "0.07"),
    ("map", "--grid=-1x3"),
    ("map", "--grid=3x-2"),
    ("map", "--grid", "0x3"),
    ("curves", "--which", "hopf", "--n=-1"),
    ("continue", "--curve", "homoclinic", "--n=-1"),
    ("continue", "--curve", "hopf", "--direction", "0"),
    ("continue", "--curve", "hopf", "--direction", "2"),
], ids=["number", "zero-denominator", "grid", "range", "grid-negative-k",
        "grid-negative-F", "grid-zero", "curves-negative-n",
        "continue-negative-n", "direction-zero", "direction-two"])
def test_malformed_input_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "invalid" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "0", "-3"])
def test_malformed_thread_count_is_a_domain_error(monkeypatch, capsys, value):
    # GSKIT_THREADS sets the map workers; a value that is not a positive
    # integer is rejected by name, and the commands that map exit 2
    monkeypatch.setenv("GSKIT_THREADS", value)
    with pytest.raises(DomainError, match="GSKIT_THREADS"):
        mapping.thread_budget()
    assert mapping.thread_budget(1) == 1
    for argv in (("map", "--grid", "2x2"), ("repro", "--only", "2")):
        assert run_cli(*argv)[0] == 2
        assert "GSKIT_THREADS" in capsys.readouterr().err


VERIFY_BT_CHECKS = {
    "a20_is_-1/2", "b20_is_-1/16", "b11_is_0", "bt1_a20_plus_b11_nonzero",
    "bt2_b20_nonzero", "s_is_+1", "transversality_det_is_-1/512"}


def test_verify_commands_and_negative_controls():
    code, out = run_cli("verify-bt")
    assert code == 0
    assert json.loads(out)["all_passed"] is True
    assert set(json.loads(out)["checks"]) == VERIFY_BT_CHECKS
    code, out = run_cli("verify-bt", "--mutate")
    assert code == 1
    assert json.loads(out)["all_passed"] is False
    assert set(json.loads(out)["checks"]) == VERIFY_BT_CHECKS
    code, out = run_cli("verify-bautin")
    assert code == 0
    # the parameter-map determinant is the exact 0 + (9/2) sqrt(2)
    det = json.loads(out)["param_map_det"]
    assert (det["a"]["num"], det["b"]["num"], det["b"]["den"]) == (0, 9, 2)
    # the whole report, exact checkpoints and float l2 alike, byte for byte
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "1eade15d706f0d174da4ea49f09a8e997af133b5fc8162ea2abf6df710582329")
    code, out = run_cli("verify-bautin", "--mutate")
    assert code == 1


def test_curves_csv():
    code, out = run_cli("curves", "--which", "sn", "--k-range", "0.01..0.06",
                        "--n", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "curve,k,F"
    assert len(lines) == 11
    assert all(line.startswith(("sn_upper", "sn_lower")) for line in lines[1:])


def test_cycles_json():
    code, out = run_cli("cycles", "--k", "0.05", "--F", "0.02587")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == len(doc["cycles"])


@pytest.mark.parametrize("curve, sha256", [
    ("hopf", "d1ac1a50283aff701adcc5654a664dbdc8bbe4857a90db028e8a3a5dcac9347d"),
    ("fold", "5a6fd6c4dad7646ab5df6532f666a45bb20a3147084f2f6e267e6815649b4766"),
], ids=["hopf", "fold"])
def test_continue_csv_hopf(curve, sha256):
    # the curve CSVs are pinned byte for byte
    code, out = run_cli("continue", "--curve", curve, "--k0", "0.03")
    assert code == 0
    header = out.splitlines()[0].split(",")
    assert header[:2] == ["k", "F"]
    assert "flags" in header
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_continue_lpc_default_start():
    # without --k0 the lpc curve is seeded at k = 0.034, inside the
    # two-cycle band (at the shared 0.03 the bracket raises
    # BracketNotFound); the seed's corrector moves k by 3e-4
    code, out = run_cli("continue", "--curve", "lpc", "--n", "3")
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) >= 2
    assert float(rows[0].split(",")[0]) == pytest.approx(0.034, abs=1e-3)


def test_map_deterministic(tmp_path):
    args = ("map", "--grid", "12x12", "--k", "0..0.07", "--F", "0..0.07")
    code1, out1 = run_cli(*args)
    code2, out2 = run_cli(*args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.splitlines()[0] == "k,F,label"


def test_portrait_outputs(tmp_path):
    code, out = run_cli("portrait", "--k", "0.07", "--F", "0.02",
                        "--out", str(tmp_path))
    assert code == 0
    svgs = list(tmp_path.glob("*.svg"))
    csvs = list(tmp_path.glob("*.csv"))
    metas = list(tmp_path.glob("*.json"))
    assert len(svgs) == 1 and len(csvs) == 1 and len(metas) == 1
    # byte-identical on rerun
    first = svgs[0].read_bytes()
    run_cli("portrait", "--k", "0.07", "--F", "0.02", "--out", str(tmp_path))
    assert svgs[0].read_bytes() == first


def test_infinity_scan():
    code, out = run_cli("infinity-scan", "--k", "0.07", "--F", "0.02")
    assert code == 0
    doc = json.loads(out)
    assert doc["attractor"] == "p0"


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "gskit.cli", "eq",
                           "--k", "1/16", "--F", "1/16"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["kind"] == "degenerate"


def test_repro_fast_subset():
    code, out = run_cli("repro", "--only", "2", "3")
    assert code == 0
    assert "criterion  2" in out and "criterion  3" in out
    assert "FAIL" not in out


def test_repro_reports_a_raising_criterion(monkeypatch):
    # a criterion that raises prints its FAIL line instead of aborting
    def broken():
        raise GSKitError("FRAME is not a Jordan chain at the point")

    monkeypatch.setattr(bt, "bt_nondegeneracy", broken)
    code, out = run_cli("repro", "--only", "1")
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("criterion  1  exact checkpoints  FAIL")
    assert lines[1] == ("    [FAIL] raised: GSKitError: FRAME is not a Jordan "
                        "chain at the point")
