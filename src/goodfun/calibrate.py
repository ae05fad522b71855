"""Remainder-constant calibration sweeps.

The asymptotic laws in this package come with remainders of proven order
but unknown constant; at C = 1 a law's ``error_estimate`` is its remainder
scale.  Calibration measures the worst |oracle - law| / (error at C = 1),
``compare``'s err_actual/err_claimed, over a fixed desk-scale grid and
freezes twice that maximum (a 2x safety margin) into the constants file.
Everything here is deterministic, so re-running the sweep on an unchanged
code base reproduces the shipped file exactly.

``quick=True`` runs a documented subgrid (used by the CLI test); the
shipped file always comes from the full sweep.
"""
from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

from .anger import anger_J, anger_diag_asym, anger_reflected_asym, anger_shifted_asym
from .constants import Constants
from .core import EvalResult, cos_pi, require_at_least, sin_pi
from .good import X_C, _anger_contour, eval_H
from .phase import AmplitudeBounds, PhaseProblem, two_term_expansion
from .regimes import h_asym_large, h_asym_small

__all__ = ["calibrate", "good_amplitude_problem",
           "sweep_anger_diag", "sweep_anger_reflected", "sweep_anger_shifted",
           "sweep_phase_engine", "sweep_h_large", "sweep_h_small"]

# every constant 1: a law's error_estimate is then its remainder scale
_UNIT = Constants(1, 1, 1, 1, 1, 1)


def _ratio(oracle: complex, law: EvalResult) -> float:
    """|oracle - law| in units of the law's remainder scale."""
    return abs(oracle - law.value) / law.error_estimate


def _anger_phase_problem(f, bounds: AmplitudeBounds) -> PhaseProblem:
    """PhaseProblem on [0, pi] with the Anger phase t - sin t and f'(0) = 0."""
    return PhaseProblem(f=f, f_prime0=0.0, psi=lambda t: t - np.sin(t),
                        psi_prime=lambda t: 1.0 - np.cos(t), b=math.pi, bounds=bounds)


def good_amplitude_problem(rho: float) -> PhaseProblem:
    """PhaseProblem for the Good amplitude 1/(rho^2 + sin^2 t) on [0, pi].

    The amplitude derivatives are closed-form in D = rho^2 + sin^2 t, so
    the bound package is computed exactly on a dense grid (sup norms) and
    by trapezoid (the |f'''| integral), with a 2% headroom factor.
    """
    rho2 = rho * rho

    def f(t: np.ndarray) -> np.ndarray:
        s = np.sin(t)
        return 1.0 / (rho2 + s * s)

    def derivs(t: np.ndarray):
        # with r = 1/D, a = D' r = sin(2t) r and b = D'' r = 2 cos(2t) r
        # (D''' = -4 sin 2t), the derivatives of f = r are polynomials in a, b
        r = 1.0 / (rho2 + np.sin(t) ** 2)
        a = np.sin(2.0 * t) * r
        b = 2.0 * np.cos(2.0 * t) * r
        f1 = -a * r
        f2 = (-b + 2.0 * a * a) * r
        f3 = (4.0 * a + 6.0 * a * b - 6.0 * a * a * a) * r
        return f1, f2, f3

    grid = np.linspace(0.0, math.pi, 40_001)
    f1, f2, f3 = derivs(grid)
    return _anger_phase_problem(f, AmplitudeBounds(
        sup_f=float(1.0 / rho2),
        sup_df=float(1.02 * np.max(np.abs(f1))),
        sup_d2f=float(1.02 * np.max(np.abs(f2))),
        int_abs_d3f=float(1.02 * np.trapezoid(np.abs(f3), grid)),
    ))


def sweep_anger_diag(xs: Sequence[float]) -> float:
    return max(_ratio(anger_J(x, x).value, anger_diag_asym(x, _UNIT)) for x in xs)


def sweep_anger_reflected(xs: Sequence[float]) -> float:
    return max(_ratio(anger_J(x, -x).value, anger_reflected_asym(x, _UNIT)) for x in xs)


def sweep_anger_shifted(xs: Sequence[float], ks: Sequence[int]) -> float:
    return max(_ratio(anger_J(x + k, -x).value, anger_shifted_asym(x, k, _UNIT))
               for x in xs for k in ks)


def unit_amplitude_problem() -> PhaseProblem:
    """PhaseProblem for f = 1 (the Anger diagonal) on [0, pi]."""
    return _anger_phase_problem(lambda t: np.ones_like(t, dtype=float),
                                AmplitudeBounds(1.0, 0.0, 0.0, 0.0))


def _flipped(x: float, cal: complex) -> complex:
    """pi e^{i pi x} conj(cal): t = pi - u takes calH or calA to the engine's form."""
    return math.pi * complex(cos_pi(x), sin_pi(x)) * cal.conjugate()


def sweep_phase_engine(rhos: Sequence[float], xs: Sequence[float]) -> float:
    """Worst scaled remainder of the two-term expansion over the grid (x >= X_C).

    t = pi - u turns the Good-amplitude integral into
    pi e^{i pi x} conj(calH(x, rho)), which ``eval_H`` computes, and the
    unit-amplitude one into pi e^{i pi x} conj(calA(x, 0)), which
    ``good._anger_contour`` computes.
    """
    worst = 0.0
    for rho in rhos:
        prob = good_amplitude_problem(rho)
        for x in xs:
            worst = max(worst, _ratio(_flipped(x, eval_H(x, rho).h_complex),
                                      two_term_expansion(prob, x, _UNIT)))
    unit = unit_amplitude_problem()
    for x in xs:
        require_at_least("x", x, X_C)
        worst = max(worst, _ratio(_flipped(x, _anger_contour(x, 0.0, None).value),
                                  two_term_expansion(unit, x, _UNIT)))
    return worst


def sweep_h_large(rhos: Sequence[float], xs: Sequence[float]) -> float:
    return max(_ratio(eval_H(x, rho).h, h_asym_large(x, rho, _UNIT))
               for rho in rhos for x in xs)


def _case_value(kind: str, x: float, rho: float) -> float:
    if kind == "full":
        return h_asym_small(x, rho, constants=_UNIT).value
    if kind == "case_ii":
        return cos_pi(x) / (2.0 * rho)
    if kind == "case_iii":
        u = x * rho
        return (math.exp(-2.0 * u) + cos_pi(x)) / (2.0 * rho)
    raise ValueError(kind)


def sweep_h_small(points: Sequence[Tuple[float, float, str]]) -> float:
    # scale 1: the two limiting case forms are no law with an error_estimate
    worst = 0.0
    for x, rho, kind in points:
        h = eval_H(x, rho).h
        worst = max(worst, abs(h - _case_value(kind, x, rho)))
    return worst


def _grids(quick: bool):
    if quick:
        # subgrid of the full sweep; keeps the non-integer x values, where
        # the oscillatory part of each remainder is not at a minimum
        return {
            "anger_xs": list(np.geomspace(1e2, 1e4, 5))[:3],
            "shift_xs": [1e2, 1e3],
            "shift_ks": [0, 1, -2],
            "engine_rhos": [1.0],
            "engine_xs": [1e2, 1e3],
            "large_rhos": [1.0],
            "large_xs": list(np.geomspace(1e2, 1e4, 3)),
            "small_pts": [(1e5, 1e-4, "case_ii"), (1e3, 5e-4, "case_iii"),
                          (1e4, 1e-3, "full")],
        }
    return {
        "anger_xs": list(np.geomspace(1e2, 1e4, 5)),
        "shift_xs": list(np.geomspace(1e2, 1e4, 5)),
        "shift_ks": [0, 1, -1, 2, -2, 5, -5],
        "engine_rhos": [0.5, 1.0, 2.0],
        "engine_xs": list(np.geomspace(1e2, 1e4, 5)),
        "large_rhos": [0.5, 1.0, 2.0],
        "large_xs": list(np.geomspace(1e2, 1e5, 8)),
        "small_pts": [(1e5, 1e-4, "case_ii"), (1e3, 5e-4, "case_iii"),
                      (1e4, 1e-3, "full"), (5e5, 1e-2, "full"),
                      (1e6, 1e-2, "full"), (6e6, 1e-2, "full"),
                      (1e5, 0.3, "full")],
    }


def _freeze(x: float) -> float:
    # 2x safety margin, rounded up at 4 significant digits
    v = 2.0 * x
    scale = 10.0 ** (math.floor(math.log10(v)) - 3)
    return math.ceil(v / scale) * scale


def calibrate(quick: bool = False) -> Constants:
    """Run the sweeps and return freshly calibrated constants.

    Every oracle call uses the default ``QuadConfig``: the constants are
    defined for that configuration only.
    """
    g = _grids(quick)
    return Constants(
        c_anger_diag=_freeze(sweep_anger_diag(g["anger_xs"])),
        c_anger_reflected=_freeze(sweep_anger_reflected(g["anger_xs"])),
        c_anger_shifted=_freeze(sweep_anger_shifted(g["shift_xs"], g["shift_ks"])),
        c_phase_engine=_freeze(sweep_phase_engine(g["engine_rhos"], g["engine_xs"])),
        c_h_large=_freeze(sweep_h_large(g["large_rhos"], g["large_xs"])),
        c_h_small=_freeze(sweep_h_small(g["small_pts"])),
    )
