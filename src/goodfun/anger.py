"""The Anger function and its large-argument asymptotic forms.

    J_nu(x) = (1/pi) int_0^pi cos(nu*th - x*sin th) dth

For non-integer nu this generalizes the Bessel function of the first
kind.  Three asymptotic regimes are provided, all obtained from the
two-term stationary-phase expansion around the degenerate (cubic)
stationary point of th -> th - sin th:

  diagonal    J_x(x)      ~  (sqrt(3)/(6 pi)) Gamma(1/3) (6/x)^(1/3)
  reflected   J_x(-x)     =  (Gamma(1/3)/(3 pi)) (6/x)^(1/3) cos(pi (x - 1/6)) + O(1/x)
  shifted     J_{x+k}(-x) =  ((-1)^k/(3 pi)) { Gamma(1/3) (6/x)^(1/3) cos(pi (x - 1/6))
                             + k Gamma(2/3) (6/x)^(2/3) sin(pi (x - 1/3)) }
                             + O((1 + |k|^3)/x)

The remainder constants are calibrated by sweep (see goodfun.calibrate)
and frozen in the constants file; the theory proves only their existence.

J is the paper's oscillatory integral
F_a(gamma, x) = (1/pi) int_0^pi a(th) cos(gamma*th + x*sin th) dth at the
unit amplitude, J_nu(x) = F_1(nu, -x); G and Q are the same integral with
the amplitudes 1/(rho^2 + sin^2 th) and 1/(xi - cos th).  The oracle
``anger_J`` integrates it on the real axis, folded onto [0, pi/2] as G, Q
and H are (``good._real_fold``), at a cost that grows like |nu| + |x|, except
in the band these laws live in: from |x| = X_C on, orders with
||nu| - |x|| <= |x|^(1/3) go along calH's steepest-descent contour
(``good._contours``), whose cost does not grow with x.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import replace
from typing import Optional, Tuple

import numpy as np

from .constants import (GAMMA_THIRD, GAMMA_TWO_THIRDS, SQRT3, Constants,
                        get_constants)
from .core import (DomainError, EvalResult, QuadConfig, cos_pi, require_above,
                   require_finite, require_phase, sin_pi)
from .good import X_C, _contours, _oracle, _real_fold
from .quadrature import QuadResult

__all__ = ["anger_J", "anger_diag_asym", "anger_reflected_asym",
           "anger_shifted_asym"]

_K_MAX = 10 ** 6


def _real_axis(nu: float, x: float, cfg: Optional[QuadConfig]) -> EvalResult:
    """J_nu(x) = F_1(nu, -x) on the fold (``good._real_fold``); cost grows like |nu| + |x|."""
    fold = _real_fold([(nu, -x)], lambda _u, _s, p, m: 2.0 * np.cos(p) * np.cos(m), (), cfg)
    return _oracle(fold)


def _on_contour(nu: float, x: float) -> bool:
    """Whether ``anger_J`` takes J_nu(x) from calA: |x| >= X_C and ||nu| - |x|| <= |x|^(1/3)."""
    return abs(x) >= X_C and abs(abs(nu) - abs(x)) <= abs(x) ** (1.0 / 3.0)


def _calA_point(nu: float, x: float) -> Tuple[float, float, Optional[float]]:
    """(X, k, turn) with J_nu(x) = ``_J_of_calA(calA(X, k), turn)``, for finite nu and x.

    turn is None where J is Re calA(X, k), else the order whose
    e^{i pi turn} rotates conj calA(X, k) onto J.
    """
    if nu < 0.0:
        nu, x = -nu, -x  # J_nu(x) = J_{-nu}(-x)
    if x < 0.0:
        # J_{|x|+k}(-|x|) = Re calA(|x|, k); nu + x is exact, the two within 2x
        return -x, nu + x, None
    # th -> pi - th: J_nu(x) = Re[e^{i pi nu} conj calA(x, nu - x)]
    return x, nu - x, nu


def _J_of_calA(res: QuadResult, turn: Optional[float]) -> EvalResult:
    """J from calA's ``res`` and the ``turn`` of ``_calA_point``."""
    value = res.value
    j = value.real if turn is None else cos_pi(turn) * value.real + sin_pi(turn) * value.imag
    return EvalResult(value=j, error_estimate=res.err, method="oracle",
                      converged=res.converged)


def anger_J(nu: float, x: float, cfg: Optional[QuadConfig] = None) -> EvalResult:
    """Oracle value of J_nu(x) by adaptive quadrature.

    From |x| = X_C on, orders with ||nu| - |x|| <= |x|^(1/3) are integrated
    along calH's contour (``good._contours``), at a cost that does not
    grow with x; every other order on the real axis.
    """
    require_finite("nu", nu)
    require_finite("x", x)
    # nu*u - x*sin u on one half, nu*u + x*sin u on the other: one of them adds
    require_phase("nu*th -+ x*sin(th)", abs(nu), abs(x), math.pi / 2.0)
    if not _on_contour(nu, x):
        return _real_axis(nu, x, cfg)
    x_a, k, turn = _calA_point(nu, x)
    return _J_of_calA(_contours([(x_a, k)], (), cfg)[0][0], turn)


def anger_diag_asym(x: float, constants: Optional[Constants] = None) -> EvalResult:
    """One-term approximation of J_x(x); error estimate C_diag/x."""
    require_above("x", x, 2.0)
    c = get_constants(constants)
    value = SQRT3 / (6.0 * math.pi) * GAMMA_THIRD * (6.0 / x) ** (1.0 / 3.0)
    return EvalResult(value=value, error_estimate=c.c_anger_diag / x, method="asymptotic")


def anger_reflected_asym(x: float, constants: Optional[Constants] = None) -> EvalResult:
    """One-term approximation of J_x(-x), the shifted law at k = 0; error estimate C_ref/x."""
    require_above("x", x, 2.0)
    c = get_constants(constants)
    return replace(anger_shifted_asym(x, 0, c), error_estimate=c.c_anger_reflected / x)


def anger_shifted_asym(x: float, k: int,
                       constants: Optional[Constants] = None) -> EvalResult:
    """Two-term approximation of J_{x+k}(-x); error C_shift*(1+|k|^3)/x."""
    require_above("x", x, 2.0)
    if not isinstance(k, numbers.Integral):  # (-1)^k has no meaning otherwise
        raise DomainError(f"k must be an integer, got {k!r}")
    if not abs(k) <= _K_MAX:
        raise DomainError(f"|k| must be <= {_K_MAX}, got {k}")
    c = get_constants(constants)
    sign = -1.0 if k % 2 else 1.0
    # reduce x before the shift: x - 1/6 itself would round at ulp(x)
    r = math.fmod(x, 2.0)
    t1 = GAMMA_THIRD / (3.0 * math.pi) * (6.0 / x) ** (1.0 / 3.0) * cos_pi(r - 1.0 / 6.0)
    t2 = (k * GAMMA_TWO_THIRDS / (3.0 * math.pi) * (6.0 / x) ** (2.0 / 3.0)
          * sin_pi(r - 1.0 / 3.0))
    value = sign * (t1 + t2)
    err = c.c_anger_shifted * (1.0 + abs(k) ** 3) / x
    return EvalResult(value=value, error_estimate=err, method="asymptotic")
