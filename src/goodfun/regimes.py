"""Asymptotic approximants for H(x, rho) across the (x, rho) plane.

Two closed-form laws cover the plane, glued by a classifier on the
scaling products s = x*rho**3 and u = x*rho:

large s (or rho not small)
    H = (Gamma(1/3)/(3 pi rho^2)) cos(pi (x - 1/6)) (6/x)^(1/3) + R,
    |R| <= C_large/(x rho^4), for x > 2.

small rho
    H = exp(-2 x rho)/(2 rho)
        + (1/(pi rho)) Re{ exp(-i pi x) * V(x rho^3) } + R,   |R| <= C_small,
    where V(lam) = int_0^inf exp(i lam t^3/6)/(1 + t^2) dt is the
    cubic-tail integral; Re V > 0, so V(lam) = C(lam) exp(i pi psi(lam))
    with C = |V| and psi = arg(V)/pi in (-1/2, 1/2).

V(lam) = I(lam/6), I(lam) = int_0^inf e^{i lam u^3}/(1+u^2) du, is
computed on the rotated ray u -> exp(i pi/6) t (``i_lambda_oracle``),
where the integrand decays like exp(-lam t^3) and the quadrature is
routine; oscillatory quadrature on the real axis is never used for it.
Below lam ~ 4e-52, where V is within 1e-17 of pi/2, that value is
returned with its explicit bound instead.

The power-law dispatch for paths x = eta * rho**(-alpha) and the
self-contained asymptotic law for I(lam) live here as well.
"""
from __future__ import annotations

import cmath
import dataclasses
import math
from typing import Optional

import numpy as np

from .constants import GAMMA_THIRD, Constants, get_constants
from .core import (DomainError, EvalResult, NumericalError, PrecisionError, QuadConfig,
                   Regime, RegimeKind, cos_pi, require_above, require_at_least,
                   require_finite, sin_pi)
from .good import HValue, eval_H
from .quadrature import _DEFAULT_CFG, Integrand, QuadResult, integrate_tail

__all__ = ["cubic_tail", "i_lambda_oracle", "i_lambda_asym", "h_asym_large",
           "h_asym_small", "classify", "h_approx", "corollary_path_main"]


_ROT = cmath.exp(1j * math.pi / 3.0)   # rotated denominator 1 + e^{i pi/3} t^2
_ROT_HALF = cmath.exp(1j * math.pi / 6.0)


def cubic_tail(lam: float, cfg: Optional[QuadConfig] = None) -> EvalResult:
    """Evaluate V(lam) = int_0^inf exp(i lam t^3/6)/(1+t^2) dt (Re V > 0) for lam >= 0.

    Below lam ~ 4e-52 it is pi/2 with its explicit bound, method "asymptotic".
    """
    require_at_least("lam", lam, 0.0)
    # |V - pi/2| <= 3 (lam/12)^(1/3): bound |e^{ia} - 1| by |a| below and
    # by 2 above t = T, T^3 = 12/lam
    bound = 3.0 * lam ** (1.0 / 3.0) / 12.0 ** (1.0 / 3.0)
    if bound <= 1e-17:  # lam <~ 4e-52
        return EvalResult(value=complex(math.pi / 2.0), error_estimate=bound,
                          method="asymptotic")
    res = i_lambda_oracle(lam / 6.0, cfg)
    if not res.value.real > 0.0:
        raise NumericalError(f"cubic-tail integral must have Re > 0, got {res.value}")
    return EvalResult(value=complex(res.value), error_estimate=res.err, method="oracle",
                      converged=res.converged)


def i_lambda_oracle(lam: float, cfg: Optional[QuadConfig] = None) -> QuadResult:
    """I(lam) = int_0^inf exp(i lam u^3)/(1+u^2) du on the rotated ray, lam > 0.

    u = e^{i pi/6} t turns it into
    e^{i pi/6} int_0^inf exp(-lam t^3) / (1 + e^{i pi/3} t^2) dt,
    whose integrand does not oscillate and decays like exp(-lam t^3).
    As |1 + e^{i pi/3} t^2| >= 1, integrate_tail's envelope check refuses a wrong rotation.
    Where rel_tol times the law's |I| ~ Gamma(1/3)/(3 lam^(1/3)) is below abs_tol (lam >~ 7e5 at
    the defaults), it is the absolute tolerance (at least 2**-1022): the ray is not cut short.
    """
    require_above("lam", lam, 0.0)
    base = cfg or _DEFAULT_CFG
    tol = max(base.rel_tol * GAMMA_THIRD / (3.0 * lam ** (1.0 / 3.0)), 2.0 ** -1022)
    if tol < base.abs_tol:
        cfg = dataclasses.replace(base, abs_tol=tol)

    def fn(t: np.ndarray) -> np.ndarray:
        return np.exp(-lam * t ** 3) / (1.0 + _ROT * t * t)

    res = integrate_tail(Integrand(fn), lam, cfg)
    return QuadResult(_ROT_HALF * res.value, res.err, res.converged, res.panels)


def i_lambda_asym(lam: float) -> EvalResult:
    """I(lam) = e^{i pi/6} Gamma(1/3)/(3 lam^(1/3)) + R with |R| <= 1/(3 lam).

    The bound is explicit (not calibrated): it comes from
    |1/(1 + e^{i pi/3} t^2) - 1| <= t^2 on the rotated ray.
    """
    require_above("lam", lam, 0.0)
    three_lam = 3.0 * lam
    # 3 lam overflows from lam ~6e307 on; there the 3 divides last
    rest = 1.0 / three_lam if three_lam < math.inf else 1.0 / lam / 3.0
    if rest == math.inf:  # lam <~ 1.9e-309
        raise DomainError(f"lam must be large enough that 1/(3 lam) is finite, got {lam!r}")
    main = _ROT_HALF * GAMMA_THIRD / (3.0 * lam ** (1.0 / 3.0))
    return EvalResult(value=main, error_estimate=rest, method="asymptotic")


def h_asym_large(x: float, rho: float,
                 constants: Optional[Constants] = None) -> EvalResult:
    """Large-s approximation of H; error estimate C_large/(x rho^4).

    PrecisionError where that estimate is not a positive binary64 number.
    """
    require_above("x", x, 2.0)
    require_above("rho", rho, 0.0)
    c = get_constants(constants)
    try:
        err = c.c_h_large / (x * rho ** 4)
    except (OverflowError, ZeroDivisionError):  # rho^4 overflows, or x rho^4 underflows
        err = 0.0
    if not 0.0 < err < math.inf:  # x rho^4 overflowed, or the quotient did
        raise PrecisionError(f"C/(x rho^4) at x = {x!r}, rho = {rho!r} leaves binary64")
    # reduce x before the shift: x - 1/6 itself would round at ulp(x)
    value = (GAMMA_THIRD / (3.0 * math.pi * rho * rho)
             * cos_pi(math.fmod(x, 2.0) - 1.0 / 6.0) * (6.0 / x) ** (1.0 / 3.0))
    return EvalResult(value=value, error_estimate=err, method="asymptotic",
                      regime=Regime(RegimeKind.LARGE_S, x, rho))


def h_asym_small(x: float, rho: float, cfg: Optional[QuadConfig] = None,
                 constants: Optional[Constants] = None) -> EvalResult:
    """Small-rho approximation of H; error estimate the O(1) constant C_small."""
    regime = classify(x, rho)  # validates x > 0 and rho > 0
    c = get_constants(constants)
    tail = cubic_tail(regime.s, cfg)
    # Re{ e^{-i pi x} V } with exact mod-2 reduction of the phase
    osc = cos_pi(x) * tail.value.real + sin_pi(x) * tail.value.imag
    value = math.exp(-2.0 * x * rho) / (2.0 * rho) + osc / (math.pi * rho)
    if not math.isfinite(value):  # a 1/rho term or their sum overflowed (inf, or inf - inf)
        raise PrecisionError(f"the 1/rho terms at x = {x!r}, rho = {rho!r} leave binary64")
    return EvalResult(value=value,
                      error_estimate=c.c_h_small + tail.error_estimate / (math.pi * rho),
                      method="asymptotic", regime=regime, converged=tail.converged)


# Classifier thresholds on s = x*rho**3, u = x*rho and rho: where each law
# takes over is a policy choice, not a calibrated number.
S_HI = 50.0
S_LO = 0.02
U_HI = 50.0
RHO_CUT = 0.5


def classify(x: float, rho: float, constants: Optional[Constants] = None) -> Regime:
    """Classify (x, rho) into the asymptotic regime used by h_approx.

    ``constants`` is accepted and ignored: the thresholds are the module
    constants above, not calibrated values.
    """
    require_above("x", x, 0.0)
    require_above("rho", rho, 0.0)
    r = Regime(RegimeKind.FIXED_POINT, x, rho)
    if x <= 2.0:
        return r
    s = r.s
    if s >= S_HI or rho >= RHO_CUT:
        kind = RegimeKind.LARGE_S
    elif s > S_LO:
        kind = RegimeKind.CRITICAL_S
    elif r.u >= U_HI:
        kind = RegimeKind.SMALL_S_LARGE_U
    else:
        kind = RegimeKind.FINITE_U
    return Regime(kind, x, rho)


def h_approx(x: float, rho: float, cfg: Optional[QuadConfig] = None,
             constants: Optional[Constants] = None,
             oracle: Optional[HValue] = None) -> EvalResult:
    """Best asymptotic value of H for (x, rho), or the oracle near fixed points.

    ``oracle`` is ``eval_H(x, rho, cfg)`` when the caller has it already;
    near fixed points it is then returned instead of integrating H again.
    """
    regime = classify(x, rho)
    if regime.kind is RegimeKind.LARGE_S:
        return h_asym_large(x, rho, constants)
    if regime.kind is RegimeKind.FIXED_POINT:
        hv = oracle or eval_H(x, rho, cfg)
        return EvalResult(value=hv.h, error_estimate=hv.err, method="oracle",
                          converged=hv.converged)
    return h_asym_small(x, rho, cfg, constants)


def corollary_path_main(alpha: float, eta: float, rho: float,
                        cfg: Optional[QuadConfig] = None,
                        constants: Optional[Constants] = None) -> EvalResult:
    """Main term of H along the path x = eta * rho**(-alpha).

    Dispatch on alpha (exact comparison against the row boundaries 1, 3):

        alpha > 3      (Gamma(1/3)/(3 pi rho^2)) cos(pi (x - 1/6)) (6/x)^(1/3)
        alpha = 3      (C(eta)/(pi rho)) cos(pi (x - psi(eta)))
        1 < alpha < 3  cos(pi x)/(2 rho)
        alpha = 1      (exp(-2 eta) + cos(pi x))/(2 rho)
        0 < alpha < 1  (1 + cos(pi x))/(2 rho)

    The alpha > 3 row carries the same prefactor Gamma(1/3)/(3 pi rho^2)
    as h_asym_large; a doubled variant fails cross-validation against the
    quadrature oracle.  eta = 0 is accepted for alpha <= 3 as the
    degenerate limit of the bottom rows (x = 0).
    """
    require_above("alpha", alpha, 0.0)
    require_at_least("eta", eta, 0.0)
    require_above("rho", rho, 0.0)
    c = get_constants(constants)
    try:
        x = eta * rho ** (-alpha)
    except OverflowError:  # rho**-alpha beyond binary64
        x = math.inf
    require_finite("x", x)
    if x <= 2.0 and eta > 0.0:
        raise DomainError(f"path point x = eta*rho^-alpha = {x} is not > 2; "
                          "take rho small enough")
    if alpha > 3.0:
        if eta == 0.0:
            raise DomainError("eta = 0 is not meaningful for alpha > 3")
        return h_asym_large(x, rho, constants)
    err, converged = c.c_h_small, True
    if alpha == 3.0:
        tail = cubic_tail(eta, cfg)
        # C(eta) = |V| and psi(eta) = arg(V)/pi
        psi = cmath.phase(tail.value) / math.pi
        value = abs(tail.value) / (math.pi * rho) * cos_pi(math.fmod(x, 2.0) - psi)
        err += tail.error_estimate / (math.pi * rho)
        converged = tail.converged
        kind = RegimeKind.CRITICAL_S
    elif alpha > 1.0:
        value = cos_pi(x) / (2.0 * rho)
        kind = RegimeKind.SMALL_S_LARGE_U
    elif alpha == 1.0:
        value = (math.exp(-2.0 * eta) + cos_pi(x)) / (2.0 * rho)
        kind = RegimeKind.FINITE_U
    else:
        value = (1.0 + cos_pi(x)) / (2.0 * rho)
        kind = RegimeKind.FINITE_U
    return EvalResult(value=value, error_estimate=err, method="asymptotic",
                      regime=Regime(kind, x, rho), converged=converged)
