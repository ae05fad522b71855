"""Remainder-constant calibration sweeps.

The asymptotic laws in this package come with remainders of proven order
but unknown constant; at C = 1 a law's ``error_estimate`` is its remainder
scale.  Calibration measures the worst |oracle - law| / (error at C = 1),
``compare``'s err_actual/err_claimed, over a fixed desk-scale grid and
freezes twice that maximum (a 2x safety margin) into the constants file.
Everything here is deterministic, so re-running the sweep on an unchanged
code base reproduces the shipped file exactly.

``quick=True`` runs a documented subgrid (used by the CLI test); the
shipped file always comes from the full sweep.  Best of repeated runs on a
2-vCPU x86 VM (Python 3.11, numpy 2.4), they take about 2.3 and 11 ms.

Before any integral runs, ``calibrate`` gathers the oracle points of all
six sweeps and integrates each distinct one once (``_oracles``): every
calA(x, k) and every calH(x, rho), all rhos together, in one contour
batch (``good._contours``).  Its rays are the owners of one
``integrate_many`` call, which evaluates them in shared sweeps and
refines them in lockstep.  The quick run integrates 7 calA and 6 calH
points where the sweeps read 14 and 8, the full run 33 and 43 where they
read 48 and 46.  Each value is bit for bit its single-point call, so the
constants are those of calling ``anger_J``, ``eval_H`` (the real part of
calH) and the contour of calH point by point.  An unconverged oracle
value raises ``NumericalError`` rather than being frozen into a constant.
"""
from __future__ import annotations

import math
from typing import Callable, Sequence, Tuple

import numpy as np

from .anger import (_J_of_calA, _calA_point, _on_contour, anger_J, anger_diag_asym,
                    anger_reflected_asym, anger_shifted_asym)
from .constants import Constants
from .core import EvalResult, NumericalError, cos_pi, require_at_least, sin_pi
from .good import X_C, _contours, _require_rho, _require_x_rho
from .phase import AmplitudeBounds, PhaseProblem, two_term_expansion
from .quadrature import QuadResult
from .regimes import h_asym_large, h_asym_small

__all__ = ["calibrate", "good_amplitude_problem",
           "sweep_anger_diag", "sweep_anger_reflected", "sweep_anger_shifted",
           "sweep_phase_engine", "sweep_h_large", "sweep_h_small"]

# the oracle values a sweep reads: J_nu(x), calH(x, rho), whose real part is
# H(x, rho), and calA(x, k)
_AngerOracle = Callable[[float, float], EvalResult]
_HOracle = Callable[[float, float], QuadResult]
_CalAOracle = Callable[[float, float], QuadResult]

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
    """PhaseProblem for the Good amplitude f = 1/(rho^2 + sin^2 t) on [0, pi].

    The bounds are exact.  Each norm is symmetric about pi/2, v = sin^2 t is
    monotone on [0, pi/2], and with D = rho^2 + v, |f'| = 2 sqrt(v (1 - v))/D^2
    and f'' = (8 v (1 - v)/D - 2 (1 - 2v))/D^2.  sup|f'| sits at the zero of
    f'' in (0, 1/2), the small root v1 of 2 v^2 - (3 + 2 rho^2) v + rho^2.  f''
    has one extremum in (0, 1), the small root v2 of v^2 - (4 rho^2 + 3) v
    + rho^2 (rho^2 + 3), for rho < sqrt(2) only (at v = 1 the quadratic is
    (rho^2 - 2)(rho^2 + 1)); past it v2 is clipped to 1.  So sup|f''| is the
    largest |f''| at v = 0, v2 and 1, and int_0^pi |f'''|, the total variation
    of f'', is twice its jumps between them.  Roots are cancellation-free in
    1/rho^2 and 1/D^2 is (1/D)^2: no rho overflows.  The 2% headroom stays:
    the constants were calibrated with it (on a grid that resolved f).
    """
    _require_rho(rho)
    rho2 = rho * rho
    w = 1.0 / rho2

    def d2f(v: float) -> float:
        r = 1.0 / (rho2 + v)
        return (-2.0 * (1.0 - 2.0 * v) + 8.0 * v * (1.0 - v) * r) * r * r

    v1 = 2.0 / ((3.0 * w + 2.0) + math.sqrt((9.0 * w + 4.0) * w + 4.0))
    v2 = 2.0 * (rho2 + 3.0) / ((3.0 * w + 4.0) + math.sqrt((9.0 * w + 12.0) * w + 12.0))
    r1 = 1.0 / (rho2 + v1)
    d2 = [d2f(v) for v in (0.0, min(v2, 1.0), 1.0)]
    return _anger_phase_problem(lambda t: 1.0 / (rho2 + np.sin(t) ** 2), AmplitudeBounds(
        sup_f=w,
        sup_df=1.02 * 2.0 * math.sqrt(v1 * (1.0 - v1)) * r1 * r1,
        sup_d2f=1.02 * max(map(abs, d2)),
        int_abs_d3f=1.02 * 2.0 * (abs(d2[1] - d2[0]) + abs(d2[2] - d2[1])),
    ))


def _converged(sweep: str, point: Tuple[float, float], res):
    """``res``, after refusing an unconverged one: its value would be frozen into a constant."""
    if not res.converged:
        a, b = map(float, point)
        raise NumericalError(f"{sweep}: the integral at ({a!r}, {b!r}) did not converge")
    return res


def sweep_anger_diag(xs: Sequence[float], J: _AngerOracle) -> float:
    return max(_ratio(_converged("sweep_anger_diag", (x, x), J(x, x)).value,
                      anger_diag_asym(x, _UNIT)) for x in xs)


def sweep_anger_reflected(xs: Sequence[float], J: _AngerOracle) -> float:
    return max(_ratio(_converged("sweep_anger_reflected", (x, -x), J(x, -x)).value,
                      anger_reflected_asym(x, _UNIT)) for x in xs)


def sweep_anger_shifted(xs: Sequence[float], ks: Sequence[int], J: _AngerOracle) -> float:
    return max(_ratio(_converged("sweep_anger_shifted", (x + k, -x), J(x + k, -x)).value,
                      anger_shifted_asym(x, k, _UNIT))
               for x in xs for k in ks)


def unit_amplitude_problem() -> PhaseProblem:
    """PhaseProblem for f = 1 (the Anger diagonal) on [0, pi]."""
    return _anger_phase_problem(lambda t: np.ones_like(t, dtype=float),
                                AmplitudeBounds(1.0, 0.0, 0.0, 0.0))


def _flipped(x: float, cal: complex) -> complex:
    """pi e^{i pi x} conj(cal): t = pi - u takes calH or calA to the engine's form."""
    return math.pi * complex(cos_pi(x), sin_pi(x)) * cal.conjugate()


def sweep_phase_engine(rhos: Sequence[float], xs: Sequence[float], H: _HOracle,
                       A: _CalAOracle) -> float:
    """Worst scaled remainder of the two-term expansion over the grid (x >= X_C).

    t = pi - u turns the Good-amplitude integral into
    pi e^{i pi x} conj(calH(x, rho)), read from ``H``, and the
    unit-amplitude one into pi e^{i pi x} conj(calA(x, 0)), read from ``A``.
    """
    worst = 0.0
    for rho in rhos:
        prob = good_amplitude_problem(rho)
        for x in xs:
            h = _converged("sweep_phase_engine", (x, rho), H(x, rho))
            worst = max(worst, _ratio(_flipped(x, h.value),
                                      two_term_expansion(prob, x, _UNIT)))
    unit = unit_amplitude_problem()
    for x in xs:
        require_at_least("x", x, X_C)
        a = _converged("sweep_phase_engine", (x, 0.0), A(x, 0.0))
        worst = max(worst, _ratio(_flipped(x, a.value), two_term_expansion(unit, x, _UNIT)))
    return worst


def sweep_h_large(rhos: Sequence[float], xs: Sequence[float], H: _HOracle) -> float:
    return max(_ratio(_converged("sweep_h_large", (x, rho), H(x, rho)).value.real,
                      h_asym_large(x, rho, _UNIT))
               for rho in rhos for x in xs)


def _case_value(kind: str, x: float, rho: float) -> float:
    if kind == "full":
        law = h_asym_small(x, rho, constants=_UNIT)  # its cubic_tail is an oracle too
        return _converged("sweep_h_small", (x, rho), law).value
    if kind == "case_ii":
        return cos_pi(x) / (2.0 * rho)
    if kind == "case_iii":
        u = x * rho
        return (math.exp(-2.0 * u) + cos_pi(x)) / (2.0 * rho)
    raise ValueError(kind)


def sweep_h_small(points: Sequence[Tuple[float, float, str]], H: _HOracle) -> float:
    # scale 1: the two limiting case forms are no law with an error_estimate
    worst = 0.0
    for x, rho, kind in points:
        h = _converged("sweep_h_small", (x, rho), H(x, rho)).value.real
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


def _oracles(g: dict) -> Tuple[_AngerOracle, _HOracle, _CalAOracle]:
    """J, calH and calA read from a table of every point the sweeps on grid ``g`` read.

    J is keyed by the exact (X, k) that ``anger_J`` reduces it to; a J off
    the contour band (|k| > x^(1/3)) is a plain ``anger_J`` call.  Every
    calA and calH point, all rhos together, goes into one contour batch
    (``good._contours``).  Each calH point is first validated as
    ``eval_H`` validates it, and its x must reach X_C, from where
    ``eval_H`` takes the contour too.
    """
    anger = ([(x, x) for x in g["anger_xs"]] + [(x, -x) for x in g["anger_xs"]]
             + [(x + k, -x) for x in g["shift_xs"] for k in g["shift_ks"]])
    pairs = [(x, 0.0) for x in g["engine_xs"]]
    pairs += [_calA_point(nu, x)[:2] for nu, x in anger if _on_contour(nu, x)]
    pairs = list(dict.fromkeys(pairs))

    points = list(dict.fromkeys(
        [(x, rho) for rho in g["engine_rhos"] for x in g["engine_xs"]]
        + [(x, rho) for rho in g["large_rhos"] for x in g["large_xs"]]
        + [(x, rho) for x, rho, _ in g["small_pts"]]))
    checked = [(require_at_least("x", _require_x_rho(x, rho), X_C), rho) for x, rho in points]
    calA_res, calH_res = _contours(pairs, checked, None)
    calA = dict(zip(pairs, calA_res))
    calH = dict(zip(points, calH_res))

    def J(nu: float, x: float) -> EvalResult:
        if not _on_contour(nu, x):
            return anger_J(nu, x)
        x_a, k, turn = _calA_point(nu, x)
        return _J_of_calA(calA[x_a, k], turn)

    return J, lambda x, rho: calH[x, rho], lambda x, k: calA[x, k]


def calibrate(quick: bool = False) -> Constants:
    """Run the sweeps and return freshly calibrated constants.

    Every oracle call uses the default ``QuadConfig``: the constants are
    defined for that configuration only.
    """
    g = _grids(quick)
    J, H, A = _oracles(g)
    return Constants(
        c_anger_diag=_freeze(sweep_anger_diag(g["anger_xs"], J)),
        c_anger_reflected=_freeze(sweep_anger_reflected(g["anger_xs"], J)),
        c_anger_shifted=_freeze(sweep_anger_shifted(g["shift_xs"], g["shift_ks"], J)),
        c_phase_engine=_freeze(sweep_phase_engine(g["engine_rhos"], g["engine_xs"], H, A)),
        c_h_large=_freeze(sweep_h_large(g["large_rhos"], g["large_xs"], H)),
        c_h_small=_freeze(sweep_h_small(g["small_pts"], H)),
    )
