import json
import math
import os
from pathlib import Path

import pytest

from goodfun import constants as constants_mod
from goodfun.cli import main
from goodfun.constants import load_constants
from goodfun.core import DomainError, cos_pi


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_h_json(capsys):
    code, out, _ = run(capsys, "eval", "--fn", "H", "--x", "0", "--rho", "1")
    assert code == 0
    rec = json.loads(out)
    assert rec["function"] == "H"
    assert rec["value"] == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert rec["method"] == "oracle"
    assert "constants_file_hash" in rec["manifest"]


def test_eval_g_matches_h(capsys):
    code, out, _ = run(capsys, "eval", "--fn", "G", "--gamma", "0",
                       "--rho", "1", "--x", "0")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_eval_q(capsys):
    code, out, _ = run(capsys, "eval", "--fn", "Q", "--gamma", "0",
                       "--xi", "2", "--x", "0")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(1 / math.sqrt(3), abs=1e-12)


def test_eval_domain_error_exit_2(capsys):
    code, _, err = run(capsys, "eval", "--fn", "H", "--x", "1", "--rho", "0")
    assert code == 2
    assert "rho" in err


def test_eval_missing_parameter_exit_2(capsys):
    code, _, _ = run(capsys, "eval", "--fn", "Q", "--gamma", "0", "--x", "0")
    assert code == 2


def test_eval_tolerance_exit_3_and_best_effort(capsys):
    # a starved panel budget cannot honor the anti-aliasing cap (x below
    # X_C, where H is integrated on the real axis)
    argv = ["eval", "--fn", "H", "--x", "90", "--rho", "1", "--max-panels", "50"]
    code, out, _ = run(capsys, *argv)
    assert code == 3
    assert json.loads(out)["converged"] is False
    code, _, _ = run(capsys, *argv, "--best-effort")
    assert code == 0


def test_cli_module_entry_point():
    import subprocess
    import sys
    proc = subprocess.run(
        [sys.executable, "-m", "goodfun.cli", "eval", "--fn", "H",
         "--x", "0", "--rho", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == pytest.approx(1 / math.sqrt(2),
                                                             abs=1e-12)


def _read_csv(path):
    text = path.read_text(encoding="utf-8")
    lines = text.split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:] if ln]
    return text, header, rows


def test_compare_table(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    code, stdout, _ = run(capsys, "compare", "--rho", "1", "--x-range",
                          "1e2:1e4", "--points", "50", "--out", str(out))
    assert code == 0
    text, header, rows = _read_csv(out)
    assert header == ["x", "rho", "s", "u", "regime", "oracle", "approx",
                      "err_claimed", "err_actual", "flag"]
    assert len(rows) == 50
    for row in rows:
        assert row["regime"] == "LARGE_S"
        assert float(row["err_actual"]) <= float(row["err_claimed"])
    assert "max err_actual/err_claimed" in stdout
    ratio = float(stdout.rsplit("=", 1)[1])
    assert ratio <= 1.0
    raw = out.read_bytes()
    assert b"\r" not in raw  # LF line endings only
    manifest = json.loads((tmp_path / "cmp.csv.manifest.json").read_text())
    assert manifest["command"] == "compare"
    assert manifest["tolerances"]["abs_tol"] == 1e-12


def test_compare_determinism_and_no_dropped_rows(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, "compare", "--rho", "0.001", "--x-range", "1e3:1e5",
        "--points", "8", "--out", str(a), "--best-effort")
    run(capsys, "compare", "--rho", "0.001", "--x-range", "1e3:1e5",
        "--points", "8", "--out", str(b), "--best-effort")
    assert a.read_bytes() == b.read_bytes()
    _, _, rows = _read_csv(a)
    assert len(rows) == 8  # flagged rows are kept, never dropped
    assert {r["regime"] for r in rows} <= {"LARGE_S", "CRITICAL_S",
                                           "SMALL_S_LARGE_U", "FINITE_U",
                                           "FIXED_POINT"}


def test_eval_csv_format(capsys):
    code, out, _ = run(capsys, "eval", "--fn", "H", "--x", "0", "--rho", "1",
                       "--csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("function,value,")
    assert lines[1].split(",")[0] == "H"
    assert float(lines[1].split(",")[1]) == pytest.approx(1 / math.sqrt(2),
                                                          abs=1e-12)


def test_scan_json_format(tmp_path, capsys):
    out = tmp_path / "scan.json"
    code, _, _ = run(capsys, "scan", "--alpha", "1", "--eta", "0.5",
                     "--rho-range", "1e-3:1e-2", "--points", "3",
                     "--out", str(out), "--json")
    assert code == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 3 and "main_term" in rows[0]


def test_compare_rejects_empty_range(capsys):
    code, _, _ = run(capsys, "compare", "--rho", "1", "--x-range", "100:100",
                     "--points", "5")
    assert code == 2
    code, _, _ = run(capsys, "compare", "--rho", "1", "--x-range", "1e3:1e2",
                     "--points", "5")
    assert code == 2


def test_compare_rejects_single_point(capsys):
    code, _, _ = run(capsys, "compare", "--rho", "1", "--x-range", "1e2:1e4",
                     "--points", "1")
    assert code == 2


def test_zeros_table(tmp_path, capsys):
    out = tmp_path / "z.csv"
    code, _, _ = run(capsys, "zeros", "--rho", "1", "--xmin", "10",
                     "--xmax", "13", "--out", str(out))
    assert code == 0
    _, header, rows = _read_csv(out)
    assert len(rows) == 3
    assert header[0] == "x_zero"
    for row, m in zip(rows, [10, 11, 12]):
        assert float(row["x_zero"]) == pytest.approx(m + 2 / 3, abs=0.05)


def test_scan_main_term_column(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code, _, _ = run(capsys, "scan", "--alpha", "2", "--eta", "1",
                     "--rho-range", "1e-3:1e-2", "--points", "5",
                     "--out", str(out))
    assert code == 0
    _, header, rows = _read_csv(out)
    assert "main_term" in header
    for row in rows:
        rho = float(row["rho"])
        x = 1.0 * rho ** -2.0
        assert float(row["main_term"]) == pytest.approx(cos_pi(x) / (2 * rho),
                                                        rel=1e-12)


def test_calibrate_quick_reproduces_committed(tmp_path, capsys):
    target = tmp_path / "constants.txt"
    code, stdout, _ = run(capsys, "calibrate", "--quick", "--out", str(target))
    assert code == 0
    fresh = load_constants(target)
    committed = load_constants()
    # quick sweep runs on a documented subgrid of the full sweep, so its
    # maxima sit at or below the committed ones but in the same decade
    for name in ("c_anger_diag", "c_anger_reflected", "c_anger_shifted",
                 "c_phase_engine", "c_h_large", "c_h_small"):
        q = getattr(fresh, name)
        f = getattr(committed, name)
        assert q <= f * 1.0001, name
        assert q >= f / 10.0, name
    assert "->" in stdout


def test_calibrate_quick_without_out_is_a_usage_error(capsys):
    packaged = Path(constants_mod.__file__).parent / "data" / "constants.txt"
    before = packaged.read_bytes()
    with pytest.raises(SystemExit) as exc:
        main(["calibrate", "--quick"])
    assert exc.value.code == 2
    assert "--out" in capsys.readouterr().err
    assert packaged.read_bytes() == before


def test_calibrate_full_reproduces_committed(tmp_path, capsys):
    # the sweep is deterministic, so a fresh full run must land within the
    # 2x reproducibility band of the committed file (here: exactly on it)
    target = tmp_path / "constants.txt"
    code, _, _ = run(capsys, "calibrate", "--out", str(target))
    assert code == 0
    fresh = load_constants(target)
    committed = load_constants()
    for name in ("c_anger_diag", "c_anger_reflected", "c_anger_shifted",
                 "c_phase_engine", "c_h_large", "c_h_small"):
        q = getattr(fresh, name)
        f = getattr(committed, name)
        assert f / 2.0 <= q <= 2.0 * f, name


def test_constants_env_override(tmp_path, capsys, monkeypatch):
    custom = tmp_path / "alt.txt"
    committed = load_constants()
    text = constants_mod.format_constants(committed).replace(
        f"c_h_small = {committed.c_h_small:.17g}", "c_h_small = 123.0")
    custom.write_text(text, encoding="utf-8")
    monkeypatch.setenv("GOODFUN_CONSTANTS", str(custom))
    constants_mod.clear_cache()
    try:
        assert constants_mod.get_constants().c_h_small == 123.0
    finally:
        monkeypatch.delenv("GOODFUN_CONSTANTS")
        constants_mod.clear_cache()


def test_constants_file_holds_exactly_the_calibrated_keys():
    text = constants_mod.format_constants(load_constants())
    with pytest.raises(DomainError, match=r"missing keys: \['c_h_small'\]"):
        constants_mod.parse_constants(text.replace("c_h_small", "# c_h_small"))
    # the classifier thresholds are code, not file entries
    with pytest.raises(DomainError, match="unknown key 's_hi'"):
        constants_mod.parse_constants(text + "s_hi = 50\n")


def test_scan_tiny_rho_is_a_domain_error(tmp_path, capsys):
    code, _, err = run(capsys, "scan", "--alpha", "2", "--eta", "1",
                       "--rho-range", "1e-200:1e-199",
                       "--out", str(tmp_path / "s.csv"))
    assert code == 2
    assert "x must be finite" in err


def test_scan_tiny_eta_at_tiny_tolerance(tmp_path, capsys):
    # V(1e-25) at abs_tol 1e-300: the ray's cut-off must survive an underflow
    code, _, _ = run(capsys, "scan", "--alpha", "3", "--eta", "1e-25",
                     "--rho-range", "1e-12:1e-11", "--points", "2", "--tol", "1e-300",
                     "--out", str(tmp_path / "s.csv"))
    assert code == 0


_VALID = {
    "calibrate": ["--quick"],
    "compare": ["--rho", "1", "--x-range", "1e2:1e3", "--points", "2"],
    "zeros": ["--rho", "1", "--xmin", "10", "--xmax", "13"],
    "eval": ["--fn", "H", "--x", "0", "--rho", "1"],
    "scan": ["--alpha", "2", "--eta", "1", "--rho-range", "1e-3:1e-2"],
}


@pytest.mark.parametrize("command, flag", [
    ("calibrate", "--tol=1e-3"), ("calibrate", "--rel-tol=1e-3"),
    ("calibrate", "--max-panels=10"), ("calibrate", "--best-effort"),
    ("calibrate", "--json"), ("calibrate", "--csv"), ("calibrate", "--threads=8"),
    ("zeros", "--threads=2"), ("zeros", "--best-effort"),
    ("eval", "--threads=2"), ("scan", "--best-effort"),
    ("compare", "--threads=2"), ("scan", "--threads=2"),
])
def test_subcommands_reject_flags_they_ignore(command, flag, tmp_path, capsys):
    # --out keeps a parser that wrongly accepts the flag off the packaged files
    with pytest.raises(SystemExit) as exc:
        main([command, *_VALID[command], "--out", str(tmp_path / "out"), flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
