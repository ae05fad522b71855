"""Mathematical constants and the calibrated-constants file.

The asymptotic laws implemented here come with remainders of proven
order but no explicit constants.  The values shipped in
``data/constants.txt`` were measured once by the sweep in
:mod:`goodfun.calibrate` (max observed scaled remainder times a safety
factor of 2) and are frozen.  ``goodfun calibrate`` re-runs the sweep and
rewrites the file.

File format: UTF-8 text, one ``key = value`` pair per line, ``#`` starts
a comment, keys as in :class:`Constants`.  The environment variable
``GOODFUN_CONSTANTS`` overrides the file path.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path
from typing import Optional, Union

from .core import DomainError, require_above

# Gamma function at the two thirds, as >=20 significant digit literals
# (kept as literals rather than pulling in a gamma implementation for two
# fixed numbers).
GAMMA_THIRD = 2.6789385347077476336556929409746776441
GAMMA_TWO_THIRDS = 1.3541179394264004169452880281545137855

SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class Constants:
    """Calibrated remainder constants.

    c_anger_diag, c_anger_reflected, c_anger_shifted
        Remainder constants of the three Anger asymptotics: the error of
        the diagonal / reflected one-term formulas is bounded by C/x, the
        shifted two-term formula by C*(1+|k|**3)/x.
    c_phase_engine
        Engine constant of the two-term stationary-phase expansion: the
        rest is bounded by C*(amplitude bound package)/x.
    c_h_large
        Large-s approximation of H: |rest| <= C/(x*rho**4).
    c_h_small
        Small-rho approximation of H (and its two limiting case
        formulas): |rest| <= C, an O(1) constant.
    """

    c_anger_diag: float
    c_anger_reflected: float
    c_anger_shifted: float
    c_phase_engine: float
    c_h_large: float
    c_h_small: float

    def __post_init__(self) -> None:
        for f in fields(self):
            require_above(f"constant {f.name}", getattr(self, f.name), 0.0)


def default_constants_path() -> Path:
    """Path of the active constants file (env override, else packaged)."""
    env = os.environ.get("GOODFUN_CONSTANTS")
    if env:
        return Path(env)
    return Path(str(resources.files("goodfun").joinpath("data/constants.txt")))


def parse_constants(text: str) -> Constants:
    values: dict[str, float] = {}
    known = {f.name for f in fields(Constants)}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"constants file line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in known:
            raise DomainError(f"constants file line {lineno}: unknown key {key!r}")
        try:
            values[key] = float(val.strip())
        except ValueError as exc:
            raise DomainError(f"constants file line {lineno}: bad value {val.strip()!r}") from exc
    missing = known - set(values)
    if missing:
        raise DomainError(f"constants file is missing keys: {sorted(missing)}")
    return Constants(**values)


def format_constants(constants: Constants, note: str = "") -> str:
    lines = ["# goodfun calibrated constants", "# key = value"]
    if note:
        lines.append(f"# {note}")
    for f in fields(Constants):
        lines.append(f"{f.name} = {getattr(constants, f.name):.17g}")
    return "\n".join(lines) + "\n"


def load_constants(path: Optional[Union[str, Path]] = None) -> Constants:
    """Load constants from ``path`` or from the active default location."""
    p = Path(path) if path is not None else default_constants_path()
    return parse_constants(p.read_text(encoding="utf-8"))


def save_constants(constants: Constants, path: Union[str, Path], note: str = "") -> None:
    Path(path).write_text(format_constants(constants, note), encoding="utf-8")


_cached: Optional[Constants] = None


def get_constants(constants: Optional[Constants] = None) -> Constants:
    """Resolve an explicit Constants, else the cached default file."""
    global _cached
    if constants is not None:
        return constants
    if _cached is None:
        _cached = load_constants()
    return _cached


def clear_cache() -> None:
    global _cached
    _cached = None
