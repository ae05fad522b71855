import json
import math
import os
from pathlib import Path

import numpy as np
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
    # X_C, where H is integrated on the real axis; the G10K21 fold of x = 90
    # fits 50 panels)
    argv = ["eval", "--fn", "H", "--x", "90", "--rho", "1", "--max-panels", "20"]
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


def test_compare_fixed_point_rows_integrate_once(tmp_path, capsys, monkeypatch):
    # x <= 2 rows take their approximation from the batched oracle value; the
    # table is byte for byte the one built row by row from eval_H and h_approx
    from goodfun import cli, regimes
    from goodfun.good import eval_H
    from goodfun.regimes import classify, h_approx

    out = tmp_path / "cmp.csv"
    batched = []
    eval_H_many = cli.eval_H_many
    monkeypatch.setattr(cli, "eval_H_many",
                        lambda xs, *rest: batched.extend(xs) or eval_H_many(xs, *rest))
    monkeypatch.setattr(regimes, "eval_H", lambda *a: pytest.fail("H integrated twice"))
    code, _, _ = run(capsys, "compare", "--rho", "1", "--x-range", "1.5:1e4",
                     "--out", str(out))
    monkeypatch.undo()
    assert code == 0
    xs = [float(x) for x in np.geomspace(1.5, 1e4, 50)]
    assert batched == xs  # each row's oracle ran once, in one batch
    consts = load_constants()
    lines = ["x,rho,s,u,regime,oracle,approx,err_claimed,err_actual,flag"]
    for x in xs:
        oracle, approx, regime = eval_H(x, 1.0), h_approx(x, 1.0, None, consts), classify(x, 1.0)
        lines.append(",".join([cli._fmt(v) for v in (x, 1.0, regime.s, regime.u)] + [
            regime.kind.value] + [cli._fmt(v) for v in (
                oracle.h, approx.value, approx.error_estimate, abs(oracle.h - approx.value))]
            + [""]))
    assert sum(",FIXED_POINT," in ln for ln in lines) == 2
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_eval_csv_format(capsys):
    code, out, _ = run(capsys, "eval", "--fn", "H", "--x", "0", "--rho", "1",
                       "--csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("function,value,")
    assert lines[1].split(",")[0] == "H"
    assert float(lines[1].split(",")[1]) == pytest.approx(1 / math.sqrt(2),
                                                          abs=1e-12)


@pytest.mark.parametrize("fmt", ["--json", "--csv"])
def test_eval_out_writes_the_printed_text_and_a_manifest(fmt, tmp_path, capsys):
    out = tmp_path / "e.txt"
    code, stdout, _ = run(capsys, "eval", "--fn", "H", "--x", "0", "--rho", "1", fmt,
                          "--out", str(out))
    assert code == 0
    assert out.read_text(encoding="utf-8") == stdout
    manifest = json.loads((tmp_path / "e.txt.manifest.json").read_text())
    assert manifest["command"] == "eval"
    assert manifest["parameters"] == {"fn": "H", "x": 0.0, "rho": 1.0}
    assert set(manifest["versions"]) == {"goodfun", "numpy", "python"}
    assert manifest["versions"]["numpy"] == np.__version__
    if fmt == "--json":
        assert json.loads(stdout)["manifest"] == manifest


def test_manifest_hashes_the_bytes_compare_parsed(tmp_path, capsys, monkeypatch):
    import hashlib
    import pathlib

    custom = tmp_path / "alt.txt"
    custom.write_text(constants_mod.format_constants(load_constants(), note="copy"),
                      encoding="utf-8")
    opened = []
    path_open = pathlib.Path.open
    monkeypatch.setattr(pathlib.Path, "open",
                        lambda self, *a, **k: opened.append(self) or path_open(self, *a, **k))
    code, _, _ = run(capsys, "compare", "--rho", "1", "--x-range", "1e2:1e3", "--points", "2",
                     "--constants-file", str(custom), "--out", str(tmp_path / "c.csv"))
    monkeypatch.undo()
    assert code == 0
    assert opened.count(custom) == 1
    manifest = json.loads((tmp_path / "c.csv.manifest.json").read_text())
    assert manifest["constants_file_hash"] == hashlib.sha256(custom.read_bytes()).hexdigest()


_MISSING_CONSTANTS = [
    ["compare", "--rho", "1", "--x-range", "1e2:1e3", "--points", "2"],
    ["scan", "--alpha", "2", "--eta", "1", "--rho-range", "1e-3:1e-2", "--points", "2"],
]


@pytest.mark.parametrize("via_env", [False, True])
@pytest.mark.parametrize("argv", _MISSING_CONSTANTS)
def test_an_unreadable_constants_file_is_an_error_line(argv, via_env, tmp_path, capsys,
                                                       monkeypatch):
    missing = tmp_path / "missing.txt"
    if via_env:
        monkeypatch.setenv("GOODFUN_CONSTANTS", str(missing))
    else:
        argv = [*argv, "--constants-file", str(missing)]
    code, _, err = run(capsys, *argv, "--out", str(tmp_path / "t.csv"))
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1 and "missing.txt" in err
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("argv", _MISSING_CONSTANTS)
def test_a_constants_file_that_is_not_utf8_is_a_domain_error(argv, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe c_h_small = 1\n")
    code, _, err = run(capsys, *argv, "--constants-file", str(bad),
                       "--out", str(tmp_path / "t.csv"))
    assert code == 2
    assert err.startswith("domain error:") and "UTF-8" in err


@pytest.mark.parametrize("argv", [
    ["eval", "--fn", "H", "--x", "0", "--rho", "1"],
    ["zeros", "--rho", "1", "--xmin", "10", "--xmax", "11"],
])
def test_commands_without_constants_record_an_unreadable_file_as_missing(argv, tmp_path,
                                                                         capsys):
    out = tmp_path / "o.txt"
    code, _, _ = run(capsys, *argv, "--constants-file", str(tmp_path / "missing.txt"),
                     "--out", str(out))
    assert code == 0
    manifest = json.loads((tmp_path / "o.txt.manifest.json").read_text())
    assert manifest["constants_file_hash"] == "missing"


@pytest.mark.parametrize("argv", [
    ["eval", "--fn", "H", "--x", "0", "--rho", "1"],
    ["zeros", "--rho", "1", "--xmin", "10", "--xmax", "11"],
    _MISSING_CONSTANTS[0],
    _MISSING_CONSTANTS[1],
    ["calibrate", "--quick"],
])
def test_an_out_in_a_missing_directory_is_an_error_line(argv, tmp_path, capsys):
    code, _, err = run(capsys, *argv, "--out", str(tmp_path / "no" / "t.csv"))
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["calibrate"], ["calibrate", "--quick"],
                                  ["zeros", "--rho", "1", "--xmin", "10", "--xmax", "13"]])
def test_an_out_in_a_missing_directory_fails_before_computing(argv, tmp_path, capsys,
                                                              monkeypatch):
    from goodfun import cli
    for name in ("calibrate", "find_zeros"):
        monkeypatch.setattr(cli, name, lambda *a, **k: pytest.fail("computed before --out"))
    out = tmp_path / "no" / "q.txt"
    code, _, err = run(capsys, *argv, "--out", str(out))
    assert code == 1
    assert err == f"error: [Errno 2] No such file or directory: {str(out)!r}\n"
    assert not (tmp_path / "no").exists()


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


def test_zeros_table_keeps_its_bits(tmp_path, capsys):
    out = tmp_path / "z.csv"
    code, _, _ = run(capsys, "zeros", "--rho", "1", "--xmin", "10", "--xmax", "13",
                     "--out", str(out))
    assert code == 0
    assert out.read_text(encoding="utf-8").splitlines() == [
        "x_zero,bracket_lo,bracket_hi,rho,residual,method",
        "10.631256968225827,10.166666666666666,11.166666666666666,1,1.9137585259440926e-12,brent",
        "11.63227196421102,11.166666666666666,12.166666666666666,1,1.806264612584741e-12,brent",
        "12.633213114799224,12.166666666666666,13.166666666666666,1,1.6850424092096696e-12,brent",
    ]


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
    line = len(text.splitlines()) + 1
    with pytest.raises(DomainError, match=f"line {line}: repeated key 'c_anger_diag'"):
        constants_mod.parse_constants(text + "c_anger_diag = 1\n")


def test_scan_tiny_rho_is_a_domain_error(tmp_path, capsys):
    code, _, err = run(capsys, "scan", "--alpha", "2", "--eta", "1",
                       "--rho-range", "1e-200:1e-199",
                       "--out", str(tmp_path / "s.csv"))
    assert code == 2
    assert "x must be finite" in err


@pytest.mark.parametrize("argv", [
    ["compare", "--rho", "1e150", "--x-range", "3:10", "--points", "2"],  # rho^4 overflows
    ["scan", "--alpha", "3.2", "--eta", "1", "--rho-range", "1e-90:1e-89",
     "--points", "2"],                                                      # rho^4 underflows
    ["compare", "--rho", "1e30", "--x-range", "1e199:1e200", "--points", "2"],  # x rho^4
])
def test_large_law_beyond_binary64_is_an_error_line(argv, tmp_path, capsys):
    code, _, err = run(capsys, *argv, "--out", str(tmp_path / "t.csv"))
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err


def test_zeros_at_an_overflowing_rho_is_an_error_line(tmp_path, capsys):
    # rho^2 overflows: every H would read 0 +- 0, an ambiguous sign, and no zero be found
    code, _, err = run(capsys, "zeros", "--rho", "1e160", "--xmin", "3", "--xmax", "6",
                       "--out", str(tmp_path / "z.csv"))
    assert code == 1
    assert err.startswith("error:") and "rho^2 overflows" in err


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
