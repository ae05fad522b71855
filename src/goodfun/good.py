"""Oracle evaluation of the Good functions G, Q and the restricted H.

    G_{gamma,rho}(x) = (1/pi) int_0^pi cos(gamma*th + x*sin th) / (rho^2 + sin^2 th) dth
    Q_{gamma,xi}(x)  = (1/pi) int_0^pi cos(gamma*th + x*sin th) / (xi - cos th) dth
    H(x, rho)        = G_{x,rho}(x)

H is always computed through the complex variant

    calH(x, rho) = (1/pi) int_0^pi exp(i*x*(th + sin th)) / (rho^2 + sin^2 th) dth

as one complex integral, which halves the quadrature work and enforces
H = Re calH by construction.  The module also provides the explicit
a-priori bounds on |H| and its first derivatives.

The G and H integrals are evaluated as two halves with the right half
folded by th -> pi - u.  The folded form keeps the integrand peak at an
exactly representable endpoint (the peak at th = pi sits a sliver below
the nearest double, which at rho = 1e-3 already costs ~1e-10 of mass)
and turns the constant phase at pi into cos/sin(pi*gamma) factors that
reduce exactly modulo 2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from .core import (DomainError, EvalResult, GoodParams, PrecisionError,
                   QuadConfig, cos_pi, require_above, require_finite, sin_pi,
                   validate)
from .quadrature import HotSpot, Integrand, integrate_finite

__all__ = ["HValue", "HBounds", "eval_G", "eval_G_any_order", "eval_Q",
           "eval_H", "bounds_H", "RHO_MIN"]

# Below this rho the integrand peak (~rho**-2) exhausts binary64 headroom;
# the evaluators refuse by default rather than lose digits silently.
RHO_MIN = 1e-6


@dataclass(frozen=True)
class HValue:
    """H(x, rho) together with the complex integral it is the real part of."""

    h: float
    h_complex: complex
    err: float
    converged: bool = True


class HBounds(NamedTuple):
    """A-priori bounds: |H| <= b0, |dH/dx| <= bx, |dH/drho| <= brho."""

    b0: float
    bx: float
    brho: float


_HALF_PI = math.pi / 2.0

_Fn = Callable[[np.ndarray], np.ndarray]


def _fold(fn_left: _Fn, fn_right: _Fn, freq_left: float, freq_right: float,
          rho: float, cfg: Optional[QuadConfig],
          allow_tiny_rho: bool) -> Tuple[complex, float, bool]:
    """(1/pi) int_0^pi as two halves on [0, pi/2], the right one folded.

    ``fn_right`` takes u = pi - th.  Both halves peak at u = 0 with width
    rho.  Returns (value, error estimate, converged).
    """
    require_above("rho", rho, 0.0)
    if rho < RHO_MIN and not allow_tiny_rho:
        raise PrecisionError(
            f"rho = {rho} is below {RHO_MIN}; the integrand peak ~1/rho^2 "
            "exhausts binary64 headroom (pass allow_tiny_rho=True to override)"
        )
    spots = (HotSpot(0.0, rho),)
    left = integrate_finite(Integrand(fn_left, freq_left, spots), 0.0, _HALF_PI, cfg)
    right = integrate_finite(Integrand(fn_right, freq_right, spots), 0.0, _HALF_PI, cfg)
    return ((left.value + right.value) / math.pi, (left.err + right.err) / math.pi,
            left.converged and right.converged)


def eval_G(p: GoodParams, cfg: Optional[QuadConfig] = None, *,
           allow_tiny_rho: bool = False) -> EvalResult:
    """Evaluate G_{gamma,rho}(x) by adaptive quadrature."""
    p = validate(p)
    return eval_G_any_order(p.gamma, p.rho, p.x, cfg, allow_tiny_rho=allow_tiny_rho)


def eval_G_any_order(gamma: float, rho: float, x: float,
                     cfg: Optional[QuadConfig] = None, *,
                     allow_tiny_rho: bool = False) -> EvalResult:
    """G for arbitrary real order, including gamma < 0.

    The defining integral extends verbatim to negative order; the Q-G
    relation needs it at gamma - 1 when gamma < 1.
    """
    require_finite("gamma", gamma)
    require_finite("x", x)
    rho2 = rho * rho
    cg, sg = cos_pi(gamma), sin_pi(gamma)

    def fn_left(th: np.ndarray) -> np.ndarray:
        s = np.sin(th)
        return np.cos(gamma * th + x * s) / (rho2 + s * s)

    def fn_right(u: np.ndarray) -> np.ndarray:
        # th = pi - u: cos(pi*gamma - (gamma*u - x*sin u))
        s = np.sin(u)
        w = gamma * u - x * s
        return (cg * np.cos(w) + sg * np.sin(w)) / (rho2 + s * s)

    freq = 0.5 * (abs(gamma) + abs(x))
    value, err, converged = _fold(fn_left, fn_right, freq, freq, rho, cfg, allow_tiny_rho)
    return EvalResult(value=value.real, error_estimate=err, method="oracle",
                      converged=converged)


def eval_Q(p: GoodParams, cfg: Optional[QuadConfig] = None) -> EvalResult:
    """Evaluate Q_{gamma,xi}(x) by adaptive quadrature (requires xi > 1)."""
    p = validate(p)
    if p.xi is None:
        raise DomainError("Q requires the xi parameter (xi > 1)")
    gamma, xi, x = p.gamma, p.xi, p.x

    def fn(th: np.ndarray) -> np.ndarray:
        return np.cos(gamma * th + x * np.sin(th)) / (xi - np.cos(th))

    # the denominator dips to xi - 1 at th = 0 with parabolic width
    width = min(math.sqrt(2.0 * (xi - 1.0)), 1.0)
    f = Integrand(fn, osc_frequency=0.5 * (abs(gamma) + abs(x)),
                  hot_spots=(HotSpot(0.0, width),))
    res = integrate_finite(f, 0.0, math.pi, cfg)
    return EvalResult(value=res.value.real / math.pi, error_estimate=res.err / math.pi,
                      method="oracle", converged=res.converged)


def eval_H(x: float, rho: float, cfg: Optional[QuadConfig] = None, *,
           allow_tiny_rho: bool = False) -> HValue:
    """Evaluate the restricted Good function H(x, rho) = Re calH(x, rho)."""
    require_finite("x", x)
    rho2 = rho * rho
    phase_pi = complex(cos_pi(x), sin_pi(x))  # e^{i pi x}, reduced exactly mod 2

    def fn_left(th: np.ndarray) -> np.ndarray:
        s = np.sin(th)
        return np.exp(1j * x * (th + s)) / (rho2 + s * s)

    def fn_right(u: np.ndarray) -> np.ndarray:
        # th = pi - u: exp(i x (pi - u + sin u))
        s = np.sin(u)
        return phase_pi * np.exp(1j * x * (s - u)) / (rho2 + s * s)

    value, err, converged = _fold(fn_left, fn_right, abs(x), 0.5 * abs(x), rho, cfg,
                                  allow_tiny_rho)
    return HValue(h=value.real, h_complex=value, err=err, converged=converged)


def bounds_H(x: float, rho: float) -> HBounds:
    """Explicit bounds on |H|, |dH/dx| and |dH/drho| (x plays no role)."""
    require_finite("x", x)
    require_above("rho", rho, 0.0)
    b0 = min(1.0 / (rho * rho), math.pi / (2.0 * rho))
    return HBounds(b0=b0, bx=math.pi * b0, brho=(2.0 / rho) * b0)
