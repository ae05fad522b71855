"""Oracle evaluation of the Good functions G, Q and the restricted H.

    G_{gamma,rho}(x) = (1/pi) int_0^pi cos(gamma*th + x*sin th) / (rho^2 + sin^2 th) dth
    Q_{gamma,xi}(x)  = (1/pi) int_0^pi cos(gamma*th + x*sin th) / (xi - cos th) dth
    H(x, rho)        = G_{x,rho}(x)

H is always computed through the complex variant

    calH(x, rho) = (1/pi) int_0^pi exp(i*x*(th + sin th)) / (rho^2 + sin^2 th) dth

as one complex integral, which halves the quadrature work and enforces
H = Re calH by construction.  The module also provides the explicit
a-priori bounds on |H| and its first derivatives.

On the real axis the G and H integrals are evaluated as two halves with
the right half folded by th -> pi - u.  The folded form keeps the
integrand peak at an exactly representable endpoint (the peak at th = pi
sits a sliver below the nearest double, which at rho = 1e-3 already
costs ~1e-10 of mass) and turns the constant phase at pi into
cos/sin(pi*gamma) factors that reduce exactly modulo 2.  From |x| = X_C
on, calH is integrated along a contour in the upper half-plane instead
(``_contour``), at a cost that does not grow with x.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from .core import (EvalResult, PrecisionError, QuadConfig, cos_pi, require_above,
                   require_at_least, require_finite, sin_pi)
from .quadrature import HotSpot, Integrand, QuadResult, integrate_finite

__all__ = ["HValue", "HBounds", "eval_G", "eval_Q", "eval_H", "bounds_H",
           "RHO_MIN", "X_C"]

# Below this rho the integrand peak (~rho**-2) exhausts binary64 headroom;
# the evaluators refuse it rather than lose digits silently.
RHO_MIN = 1e-6

# From this |x| on, eval_H integrates along the complex contour, whose cost
# does not depend on x; below it, along the real axis, whose cost grows
# like x.  Near x = 100 both take about the same wall time per call
# (2-vCPU x86 VM, numpy 2.4); above it the contour is faster.
X_C = 100.0


@dataclass(frozen=True)
class HValue:
    """H(x, rho) as the real part of the complex integral calH(x, rho)."""

    h_complex: complex
    err: float
    converged: bool = True

    @property
    def h(self) -> float:
        return self.h_complex.real


class HBounds(NamedTuple):
    """A-priori bounds: |H| <= b0, |dH/dx| <= bx, |dH/drho| <= brho."""

    b0: float
    bx: float
    brho: float


_HALF_PI = math.pi / 2.0

_Fn = Callable[[np.ndarray], np.ndarray]


def _require_rho(rho: float) -> None:
    require_above("rho", rho, 0.0)
    if rho < RHO_MIN:
        raise PrecisionError(
            f"rho = {rho} is below {RHO_MIN}; the integrand peak ~1/rho^2 "
            "exhausts binary64 headroom"
        )


def _fold(fn_left: _Fn, fn_right: _Fn, freq_left: float, freq_right: float,
          rho: float, cfg: Optional[QuadConfig]) -> QuadResult:
    """(1/pi) int_0^pi as two halves on [0, pi/2], the right one folded.

    ``fn_right`` takes u = pi - th.  Both halves peak at u = 0 with width
    rho.  The panel count is that of both halves.
    """
    spots = (HotSpot(0.0, rho),)
    left = integrate_finite(Integrand(fn_left, freq_left, spots), 0.0, _HALF_PI, cfg)
    right = integrate_finite(Integrand(fn_right, freq_right, spots), 0.0, _HALF_PI, cfg)
    return QuadResult((left.value + right.value) / math.pi, (left.err + right.err) / math.pi,
                      left.converged and right.converged, left.panels + right.panels)


# The contour runs where |exp(i x g)| <= exp(-_DECAY), g(th) = th + sin th.
_DECAY = 50.0
_DIR_0 = cmath.exp(0.25j * math.pi)    # ray out of th = 0
_DIR_PI = cmath.exp(5j * math.pi / 6)  # cubic valley out of th = pi
# w - sin w = w^3/3! - w^5/5! + ... up to w^25: full precision for |w| <= 2
_W_MINUS_SIN = tuple((-1) ** (k + 1) / math.factorial(2 * k + 1) for k in range(1, 13))


def _w_minus_sin(w):
    """w - sin w for |w| <= 2, free of the cancellation of the direct form."""
    w2 = w * w
    acc = _W_MINUS_SIN[-1]
    for c in reversed(_W_MINUS_SIN[:-1]):
        acc = acc * w2 + c
    return acc * w2 * w


def _contour_ends(x: float) -> Tuple[complex, complex]:
    """Far ends of the two rays for x >= X_C: (P0, P1 - pi).

    Near 0, g(th) ~ 2 th, so x Im g reaches _DECAY at t = _DECAY/(2 x sin(pi/4))
    on the first ray; near pi, g(pi + t e^{5i pi/6}) ~ pi + i t^3/6, so at
    t = (6 _DECAY/x)^(1/3) on the second.
    """
    t0 = (0.5 * _DECAY) / (x * _DIR_0.imag)   # 2 x would overflow near float max
    t_pi = (6.0 * _DECAY / x) ** (1.0 / 3.0)
    return t0 * _DIR_0, t_pi * _DIR_PI


def _connector_bound(x: float, rho: float) -> float:
    """Bound on the part of calH(x, rho) along P0 -> Q -> P1, Q = Re P0 + i Im P1.

    With th = a + i b (0 <= a <= pi, b >= 0), Im g = b + cos a sinh b and
    |rho^2 + sin^2 th| >= sin a * sqrt(sinh^2 b + rho^2).  On P0 -> Q
    (a = Re P0 < pi/2) Im g rises with b at a rate >= 1 + cos a.  On
    Q -> P1 (b = Im P1) it falls with a: it exceeds Im g(P1) by at least
    -cos a1 sinh b for a <= pi/2, and by (a1 - a) sin a1 sinh b beyond.
    """
    p0, w1 = _contour_ends(x)
    a0, h0, h1 = p0.real, p0.imag, w1.imag
    s1 = math.sin(-w1.real)                 # sin a1, a1 = pi + Re w1 = Re P1
    decay_0 = x * (p0 + cmath.sin(p0)).imag
    decay_1 = x * _w_minus_sin(w1).imag
    # both sides halved (exactly) so that x (1 + cos a0) cannot overflow
    up = 0.5 * math.exp(-decay_0) / (0.5 * x * (1.0 + math.cos(a0)) * math.sin(a0)
                                     * math.hypot(math.sinh(h0), rho))
    sh = math.sinh(h1)
    across = math.exp(-decay_1) / math.hypot(sh, rho) * (
        math.exp(-x * sh * math.cos(w1.real)) * math.log(1.0 / math.tan(0.5 * a0))
        + min(_HALF_PI + w1.real, 1.0 / (x * sh * s1)) / s1)
    return (up + across) / math.pi


def _contour(x: float, rho: float, cfg: Optional[QuadConfig]) -> QuadResult:
    """calH(x, rho) for x >= X_C along a contour in the upper half-plane.

    The phase g(th) = th + sin th has two critical places on [0, pi]: the
    endpoint 0, where g' = 2, and pi, where g' = g'' = 0 and the third
    derivative is 1.  [0, pi] is deformed onto

    * the ray th = t e^{i pi/4} out of 0, up to P0 (``_contour_ends``);
    * the path P0 -> Q -> P1 joining the ray ends by a vertical and a
      horizontal segment, on which x Im g >= x Im g(P0 or P1) ~ _DECAY;
    * the ray th = pi + t e^{5i pi/6} from P1 back into pi, the valley of
      the cubic stationary point: exp(i x g) = e^{i pi x} exp(-x t^3/6 + ...).

    Each ray is one ``integrate_finite`` call in t.  The segments are not
    integrated: ``_connector_bound`` (below 1e-17 for rho >= RHO_MIN) is
    added to the error estimate instead.

    No residue enters.  The poles of 1/(rho^2 + sin^2 th) sit at
    k pi +- i asinh(rho), on the lines Re th = 0 and Re th = pi.  The
    closed path made of [0, pi], the rays and the segments meets those
    lines only at its real endpoints 0 and pi, so it encloses no pole.
    The geometry this relies on (Re P0 < pi/2 < Re P1, Im P0 < Im P1)
    holds for every x >= X_C.
    """
    rho2 = rho * rho
    p0, w1 = _contour_ends(x)

    def fn_0(t: np.ndarray) -> np.ndarray:
        w = t * _DIR_0
        s = np.sin(w)
        return np.exp(1j * x * (w + s)) / (rho2 + s * s)

    def fn_pi(t: np.ndarray) -> np.ndarray:
        # th = pi + w: g = pi + (w - sin w) and sin^2 th = sin^2 w
        w = t * _DIR_PI
        s = np.sin(w)
        return np.exp(1j * x * _w_minus_sin(w)) / (rho2 + s * s)

    # half the largest real phase rate x |Re(dir * g')| on each ray: at t = 0
    # on the first, at the far end on the second (1 - cos w = 2 sin^2(w/2))
    nu_0 = x * _DIR_0.real
    nu_pi = x * abs((_DIR_PI * cmath.sin(0.5 * w1) ** 2).real)
    spots = (HotSpot(0.0, rho),)
    ray_0 = integrate_finite(Integrand(fn_0, nu_0, spots), 0.0, abs(p0), cfg)
    ray_pi = integrate_finite(Integrand(fn_pi, nu_pi, spots), 0.0, abs(w1), cfg)
    phase_pi = complex(cos_pi(x), sin_pi(x))   # e^{i pi x}, reduced exactly mod 2
    value = (_DIR_0 * ray_0.value - phase_pi * _DIR_PI * ray_pi.value) / math.pi
    err = (ray_0.err + ray_pi.err) / math.pi + _connector_bound(x, rho)
    return QuadResult(value, err, ray_0.converged and ray_pi.converged,
                      ray_0.panels + ray_pi.panels)


def eval_G(gamma: float, rho: float, x: float,
           cfg: Optional[QuadConfig] = None) -> EvalResult:
    """Evaluate G_{gamma,rho}(x) by adaptive quadrature, for any finite real gamma.

    The defining integral extends verbatim to negative order; the Q-G
    relation needs it at gamma - 1 when gamma < 1.
    """
    require_finite("gamma", gamma)
    require_finite("x", x)
    _require_rho(rho)
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
    res = _fold(fn_left, fn_right, freq, freq, rho, cfg)
    return EvalResult(value=res.value.real, error_estimate=res.err, method="oracle",
                      converged=res.converged)


def eval_Q(gamma: float, xi: float, x: float,
           cfg: Optional[QuadConfig] = None) -> EvalResult:
    """Evaluate Q_{gamma,xi}(x) by adaptive quadrature (gamma >= 0, xi > 1)."""
    require_at_least("gamma", gamma, 0.0)
    require_above("xi", xi, 1.0)
    require_finite("x", x)

    def fn(th: np.ndarray) -> np.ndarray:
        return np.cos(gamma * th + x * np.sin(th)) / (xi - np.cos(th))

    # the denominator dips to xi - 1 at th = 0 with parabolic width
    width = min(math.sqrt(2.0 * (xi - 1.0)), 1.0)
    f = Integrand(fn, osc_frequency=0.5 * (abs(gamma) + abs(x)),
                  hot_spots=(HotSpot(0.0, width),))
    res = integrate_finite(f, 0.0, math.pi, cfg)
    return EvalResult(value=res.value.real / math.pi, error_estimate=res.err / math.pi,
                      method="oracle", converged=res.converged)


def _real_axis(x: float, rho: float, cfg: Optional[QuadConfig]) -> QuadResult:
    """calH(x, rho) by the fold on the real axis; cost grows like |x|."""
    rho2 = rho * rho
    phase_pi = complex(cos_pi(x), sin_pi(x))  # e^{i pi x}, reduced exactly mod 2

    def fn_left(th: np.ndarray) -> np.ndarray:
        s = np.sin(th)
        return np.exp(1j * x * (th + s)) / (rho2 + s * s)

    def fn_right(u: np.ndarray) -> np.ndarray:
        # th = pi - u: exp(i x (pi - u + sin u))
        s = np.sin(u)
        return phase_pi * np.exp(1j * x * (s - u)) / (rho2 + s * s)

    return _fold(fn_left, fn_right, abs(x), 0.5 * abs(x), rho, cfg)


def eval_H(x: float, rho: float, cfg: Optional[QuadConfig] = None) -> HValue:
    """Evaluate the restricted Good function H(x, rho) = Re calH(x, rho).

    |x| >= X_C is integrated along a complex contour (``_contour``), using
    calH(-x) = conj(calH(x)); smaller |x| along the real axis.
    """
    require_finite("x", x)
    _require_rho(rho)
    if abs(x) >= X_C:
        res = _contour(abs(x), rho, cfg)
        if x < 0:
            res = res._replace(value=res.value.conjugate())
    else:
        res = _real_axis(x, rho, cfg)
    return HValue(h_complex=res.value, err=res.err, converged=res.converged)


def bounds_H(x: float, rho: float) -> HBounds:
    """Explicit bounds on |H|, |dH/dx| and |dH/drho| (x plays no role)."""
    require_finite("x", x)
    require_above("rho", rho, 0.0)
    b0 = min(1.0 / (rho * rho), math.pi / (2.0 * rho))
    return HBounds(b0=b0, bx=math.pi * b0, brho=(2.0 / rho) * b0)
