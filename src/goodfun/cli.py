"""Command-line surface: eval, compare, zeros, scan, calibrate.

Single evaluations print JSON to stdout; tables are written as CSV
(header row, comma separators, '.' decimal, LF line endings, numbers at
17 significant digits).  Every table, and the file of ``eval --out``, gets
a manifest sidecar ``<out>.manifest.json``: the command, its parameters,
the SHA-256 of the constants file ("missing" if eval or zeros cannot read
it), the tolerances, the goodfun, numpy and Python versions, and a
timestamp; identical manifests (up to timestamp) reproduce bit-identical
numeric output.  calibrate's constants file carries a note line instead.

Exit codes: 0 ok, 1 error (an unreadable or unwritable file among them),
2 domain error, 3 tolerance failure (suppressed by --best-effort).
"""
from __future__ import annotations

import argparse
import dataclasses
import errno
import hashlib
import json
import math
import os
import platform
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import __version__
from . import constants as constants_mod
from .constants import Constants, load_constants, parse_constants, save_constants
from .core import DomainError, EvalResult, GoodFunError, QuadConfig
from .calibrate import calibrate
from .good import eval_G, eval_H, eval_H_many, eval_Q
from .regimes import classify, corollary_path_main, h_approx
from .zeros import find_zeros

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_TOLERANCE = 3


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _table(header: Sequence[str], rows: List[Sequence[str]], as_json: bool) -> str:
    """CSV lines (the header, then the rows), or a JSON list of one object per row."""
    if as_json:
        return json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n"
    return "".join(",".join(line) + "\n" for line in (header, *rows))


def _manifest(command: str, parameters: Dict[str, object], cfg: QuadConfig,
              constants_bytes: Optional[bytes]) -> Dict[str, object]:
    """What a run's numbers depend on, and when it ran; ``None`` bytes hash as "missing"."""
    return {"command": command, "parameters": parameters,
            "constants_file_hash": ("missing" if constants_bytes is None
                                    else hashlib.sha256(constants_bytes).hexdigest()),
            "tolerances": dataclasses.asdict(cfg),
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "versions": {"goodfun": __version__, "numpy": np.__version__,
                         "python": platform.python_version()}}


def _write(args, text: str, manifest: Dict[str, object]) -> str:
    """Write ``text`` to ``--out`` (a table's default: ``<command>.csv``/``.json``)
    and ``manifest`` to ``<path>.manifest.json``."""
    path = args.out or f"{manifest['command']}.{'json' if args.json else 'csv'}"
    Path(path).write_text(text, encoding="utf-8", newline="")
    Path(path + ".manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8", newline="")
    return path


def _cfg_from_args(args) -> QuadConfig:
    kw = {"abs_tol": args.tol, "rel_tol": args.rel_tol, "max_panels": args.max_panels}
    return QuadConfig(**{k: v for k, v in kw.items() if v is not None})


def _constants_path(args) -> Path:
    return Path(args.constants_file or constants_mod.default_constants_path())


def _constants_bytes_if_readable(args) -> Optional[bytes]:
    """The constants file's bytes for eval and zeros, which do not use them; None if unreadable."""
    try:
        return _constants_path(args).read_bytes()
    except OSError:
        return None


def cmd_eval(args) -> int:
    cfg = _cfg_from_args(args)
    fn = args.fn.upper()
    if fn == "H":
        if args.x is None or args.rho is None:
            raise DomainError("eval --fn H requires --x and --rho")
        inputs = {"x": args.x, "rho": args.rho}
        hv = eval_H(args.x, args.rho, cfg)
        r = EvalResult(value=hv.h, error_estimate=hv.err, method="oracle", converged=hv.converged)
    elif fn == "G":
        if args.gamma is None or args.rho is None or args.x is None:
            raise DomainError("eval --fn G requires --gamma, --rho and --x")
        inputs = {"gamma": args.gamma, "rho": args.rho, "x": args.x}
        r = eval_G(args.gamma, args.rho, args.x, cfg)
    else:  # Q; argparse restricts --fn to G, Q and H
        if args.gamma is None or args.xi is None or args.x is None:
            raise DomainError("eval --fn Q requires --gamma, --xi and --x")
        inputs = {"gamma": args.gamma, "xi": args.xi, "x": args.x}
        r = eval_Q(args.gamma, args.xi, args.x, cfg)
    manifest = _manifest("eval", {"fn": fn, **inputs}, cfg, _constants_bytes_if_readable(args))
    if args.csv:
        text = _table(["function", "value", "error_estimate", "method", "converged"],
                      [[fn, _fmt(r.value), _fmt(r.error_estimate), r.method,
                        str(r.converged).lower()]], False)
    else:
        record = {"function": fn, "inputs": inputs, "value": r.value,
                  "error_estimate": r.error_estimate, "method": r.method,
                  "converged": r.converged, "manifest": manifest}
        text = json.dumps(record, sort_keys=True, indent=2) + "\n"
    print(text, end="")
    if args.out:
        _write(args, text, manifest)
    if not r.converged and not args.best_effort:
        return EXIT_TOLERANCE
    return EXIT_OK


def _log_grid(text: str, name: str, points: int) -> np.ndarray:
    """``points`` log-spaced values over the positive range ``LO:HI``."""
    try:
        lo_s, _, hi_s = text.partition(":")
        lo, hi = float(lo_s), float(hi_s)
    except ValueError as exc:
        raise DomainError(f"{name} must look like LO:HI, got {text!r}") from exc
    if not (0.0 < lo < hi and math.isfinite(hi)):
        raise DomainError(f"{name} must satisfy 0 < LO < HI, got {text!r}")
    if points < 2:
        raise DomainError(f"--points must be >= 2, got {points}")
    return np.geomspace(lo, hi, points)


def cmd_compare(args) -> int:
    cfg = _cfg_from_args(args)
    constants_bytes = _constants_path(args).read_bytes()
    consts = parse_constants(constants_bytes)
    xs = _log_grid(args.x_range, "--x-range", args.points)
    header = ["x", "rho", "s", "u", "regime", "oracle", "approx",
              "err_claimed", "err_actual", "flag"]
    rows = []
    worst = 0.0
    flagged = False
    xs = [float(x) for x in xs]
    for x, oracle in zip(xs, eval_H_many(xs, args.rho, cfg)):
        approx = h_approx(x, args.rho, cfg, consts, oracle)  # the batch is eval_H bit for bit
        regime = classify(x, args.rho)
        err_actual = abs(oracle.h - approx.value)
        worst = max(worst, err_actual / approx.error_estimate)
        flag = "" if (oracle.converged and approx.converged) else "TOL"
        flagged = flagged or bool(flag)
        rows.append([_fmt(x), _fmt(args.rho), _fmt(regime.s), _fmt(regime.u),
                     regime.kind.value, _fmt(oracle.h), _fmt(approx.value),
                     _fmt(approx.error_estimate), _fmt(err_actual), flag])
    out = _write(args, _table(header, rows, args.json),
                 _manifest("compare", {"rho": args.rho, "x_range": args.x_range,
                                       "points": args.points}, cfg, constants_bytes))
    print(f"wrote {out} ({len(rows)} rows); max err_actual/err_claimed = {worst:.6g}")
    if flagged and not args.best_effort:
        return EXIT_TOLERANCE
    return EXIT_OK


def cmd_zeros(args) -> int:
    cfg = _cfg_from_args(args)
    records = find_zeros(args.rho, args.xmin, args.xmax, cfg)
    header = ["x_zero", "bracket_lo", "bracket_hi", "rho", "residual", "method"]
    rows = [[_fmt(r.x_zero), _fmt(r.bracket_lo), _fmt(r.bracket_hi), _fmt(r.rho),
             _fmt(r.residual), r.method] for r in records]
    out = _write(args, _table(header, rows, args.json),
                 _manifest("zeros", {"rho": args.rho, "xmin": args.xmin, "xmax": args.xmax},
                           cfg, _constants_bytes_if_readable(args)))
    print(f"wrote {out} ({len(rows)} zeros)")
    return EXIT_OK


def cmd_scan(args) -> int:
    cfg = _cfg_from_args(args)
    constants_bytes = _constants_path(args).read_bytes()
    consts = parse_constants(constants_bytes)
    rhos = _log_grid(args.rho_range, "--rho-range", args.points)
    header = ["rho", "x", "alpha", "eta", "s", "u", "regime", "main_term",
              "err_claimed"]
    rows = []
    for rho in map(float, rhos):
        r = corollary_path_main(args.alpha, args.eta, rho, cfg=cfg, constants=consts)
        rows.append([_fmt(rho), _fmt(r.regime.x), _fmt(args.alpha), _fmt(args.eta),
                     _fmt(r.regime.s), _fmt(r.regime.u), r.regime.kind.value,
                     _fmt(r.value), _fmt(r.error_estimate)])
    out = _write(args, _table(header, rows, args.json),
                 _manifest("scan", {"alpha": args.alpha, "eta": args.eta,
                                    "rho_range": args.rho_range, "points": args.points},
                           cfg, constants_bytes))
    print(f"wrote {out} ({len(rows)} rows)")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    target = _constants_path(args) if args.out is None else Path(args.out)
    try:
        old = load_constants(target)
    except (OSError, DomainError):
        old = None
    fresh = calibrate(quick=args.quick)
    note = "quick sweep" if args.quick else "full sweep"
    save_constants(fresh, target, note=note)
    constants_mod.clear_cache()
    for f in dataclasses.fields(Constants):
        before = getattr(old, f.name) if old is not None else float("nan")
        print(f"{f.name}: {before:.6g} -> {getattr(fresh, f.name):.6g}")
    print(f"wrote {target}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="goodfun",
        description="Good's special functions: quadrature oracle and asymptotics.")
    # flag groups; each subcommand takes only the groups it honours
    files = argparse.ArgumentParser(add_help=False)
    files.add_argument("--constants-file", default=None,
                       help="calibrated constants file (else $GOODFUN_CONSTANTS, "
                            "else the packaged file)")
    files.add_argument("--out", default=None, help="output file path")
    quad = argparse.ArgumentParser(add_help=False)
    quad.add_argument("--tol", type=float, default=None,
                      help="absolute quadrature tolerance (default 1e-12)")
    quad.add_argument("--rel-tol", type=float, default=None,
                      help="relative quadrature tolerance (default 1e-10)")
    quad.add_argument("--max-panels", type=int, default=None,
                      help="panel budget per integral (default 200000); a result that "
                           "needs more is flagged unconverged, and an integral's "
                           "breakpoints alone may exceed it")
    fmt = argparse.ArgumentParser(add_help=False)
    group = fmt.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true",
                       help="JSON output (default for eval)")
    group.add_argument("--csv", action="store_true",
                       help="CSV output (default for tables)")
    best_effort = argparse.ArgumentParser(add_help=False)
    best_effort.add_argument("--best-effort", action="store_true",
                             help="exit 0 even when a tolerance was not reached")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[files, quad, fmt, best_effort],
                       help="evaluate G, Q or H")
    p.add_argument("--fn", required=True, choices=["G", "Q", "H", "g", "q", "h"])
    p.add_argument("--gamma", type=float)
    p.add_argument("--rho", type=float)
    p.add_argument("--x", type=float)
    p.add_argument("--xi", type=float)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", parents=[files, quad, fmt, best_effort],
                       help="oracle vs asymptotic table over an x range")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--x-range", required=True, help="LO:HI (log-spaced)")
    p.add_argument("--points", type=int, default=50)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("zeros", parents=[files, quad, fmt], help="zero table of H(., rho)")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--xmin", type=float, required=True)
    p.add_argument("--xmax", type=float, required=True)
    p.set_defaults(func=cmd_zeros)

    p = sub.add_parser("scan", parents=[files, quad, fmt],
                       help="main-term table along x = eta * rho^-alpha")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--rho-range", required=True, help="LO:HI (log-spaced)")
    p.add_argument("--points", type=int, default=20)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("calibrate", parents=[files],
                       help="re-run the remainder-constant sweep and rewrite "
                            "the constants file")
    p.add_argument("--quick", action="store_true", help="documented subgrid (needs --out)")
    p.set_defaults(func=cmd_calibrate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "calibrate" and args.quick and args.out is None:
        # the subgrid constants sit below the shipped ones; never replace them
        parser.error("calibrate --quick needs --out (it would overwrite the constants file)")
    try:
        if args.out is not None and not Path(args.out).parent.is_dir():
            # before the command computes anything, with the error its write would raise
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), args.out)
        return args.func(args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (GoodFunError, OSError) as exc:  # OSError: a file that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
