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

That contour is one primitive (``_rays``) for the phase x*(th + sin th),
with any amplitude that has no pole between [0, pi] and the contour.
Besides calH's 1/(rho^2 + sin^2 th) it carries the Anger amplitude
e^{i k th}:

    calA(x, k) = (1/pi) int_0^pi exp(i*(x*(th + sin th) + k*th)) dth

(``_anger_contour``), from which ``anger.anger_J`` takes J near its
diagonal, J_{x+k}(-x) = Re calA(x, k).
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .core import (EvalResult, PrecisionError, QuadConfig, cos_pi, require_above,
                   require_at_least, require_finite, require_phase, sin_pi)
from .quadrature import HotSpot, Integrand, QuadResult, integrate_finite, integrate_many

__all__ = ["HValue", "HBounds", "eval_G", "eval_Q", "eval_H", "eval_H_many", "bounds_H",
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


def _require_rho(rho: float) -> None:
    require_above("rho", rho, 0.0)
    if rho < RHO_MIN:
        raise PrecisionError(
            f"rho = {rho} is below {RHO_MIN}; the integrand peak ~1/rho^2 "
            "exhausts binary64 headroom"
        )


_OwnerFn = Callable[[np.ndarray, object], np.ndarray]
_Integrate = Callable[[_OwnerFn, Sequence[Tuple[float, float, float]], Tuple[HotSpot, ...],
                       Optional[QuadConfig]], List[QuadResult]]


def _each(fn: _OwnerFn, spans: Sequence[Tuple[float, float, float]],
          spots: Tuple[HotSpot, ...], cfg: Optional[QuadConfig]) -> List[QuadResult]:
    """``integrate_many``'s contract, as one ``integrate_finite`` call per owner.

    The single-point evaluators take this path, so that a tracer that
    wraps ``integrate_finite`` by name sees each of their integrals.
    """
    return [integrate_finite(Integrand(lambda t, k=k: fn(t, k), osc, spots), a, b, cfg)
            for k, (a, b, osc) in enumerate(spans)]


def _require_x_rho(x: float, rho: float) -> float:
    """x as a float, after the checks of one ``eval_H(x, rho)`` call, in its order."""
    x = require_finite("x", x)
    _require_rho(rho)
    return x


def _fold(fn_left: _OwnerFn, fn_right: _OwnerFn, freqs: Sequence[Tuple[float, float]],
          rho: float, cfg: Optional[QuadConfig],
          integrate: _Integrate = _each) -> List[QuadResult]:
    """(1/pi) int_0^pi as two halves on [0, pi/2], the right one folded, per owner.

    Owner k's halves are ``fn_left(th, k)`` and ``fn_right(u, k)``,
    u = pi - th, with oscillation scales ``freqs[k]``.  Both halves peak
    at u = 0 with width rho.  The panel count is that of both halves.
    """
    spots = (HotSpot(0.0, rho),)
    left = integrate(fn_left, [(0.0, _HALF_PI, f) for f, _ in freqs], spots, cfg)
    right = integrate(fn_right, [(0.0, _HALF_PI, f) for _, f in freqs], spots, cfg)
    return [QuadResult((lt.value + rt.value) / math.pi, (lt.err + rt.err) / math.pi,
                       lt.converged and rt.converged, lt.panels + rt.panels)
            for lt, rt in zip(left, right)]


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


def _end_decays(x: float) -> Tuple[complex, complex, float, float]:
    """P0, P1 - pi, and x Im g at P0 and at P1 (each about _DECAY)."""
    p0, w1 = _contour_ends(x)
    return p0, w1, x * (p0 + cmath.sin(p0)).imag, x * _w_minus_sin(w1).imag


def _connector_bound(x: float, rho: float) -> float:
    """Bound on the part of calH(x, rho) along P0 -> Q -> P1, Q = Re P0 + i Im P1.

    With th = a + i b (0 <= a <= pi, b >= 0), Im g = b + cos a sinh b and
    |rho^2 + sin^2 th| >= sin a * sqrt(sinh^2 b + rho^2).  On P0 -> Q
    (a = Re P0 < pi/2) Im g rises with b at a rate >= 1 + cos a.  On
    Q -> P1 (b = Im P1) it falls with a: it exceeds Im g(P1) by at least
    -cos a1 sinh b for a <= pi/2, and by (a1 - a) sin a1 sinh b beyond.
    """
    p0, w1, decay_0, decay_1 = _end_decays(x)
    a0, h0, h1 = p0.real, p0.imag, w1.imag
    s1 = math.sin(-w1.real)                 # sin a1, a1 = pi + Re w1 = Re P1
    # both sides halved (exactly) so that x (1 + cos a0) cannot overflow
    up = 0.5 * math.exp(-decay_0) / (0.5 * x * (1.0 + math.cos(a0)) * math.sin(a0)
                                     * math.hypot(math.sinh(h0), rho))
    sh = math.sinh(h1)
    across = math.exp(-decay_1) / math.hypot(sh, rho) * (
        math.exp(-x * sh * math.cos(w1.real)) * math.log(1.0 / math.tan(0.5 * a0))
        + min(_HALF_PI + w1.real, 1.0 / (x * sh * s1)) / s1)
    return (up + across) / math.pi


def _anger_connector_bound(x: float, k: float) -> float:
    """Bound on the part of calA(x, k) along P0 -> Q -> P1, Q = Re P0 + i Im P1.

    As in ``_connector_bound``, x Im g >= x Im g(P0) on P0 -> Q and
    x Im g >= x Im g(P1) on Q -> P1.  The connector keeps
    0 <= Im th <= Im P1, so |e^{i k th}| = e^{-k Im th} <= e^{|k| Im P1}.
    The path is (Im P1 - Im P0) + (Re P1 - Re P0) long, which gives
    length * e^{|k| Im P1 - min(x Im g(P0), x Im g(P1))} / pi.
    """
    p0, w1, decay_0, decay_1 = _end_decays(x)
    length = (w1.imag - p0.imag) + (math.pi + w1.real - p0.real)
    return length * math.exp(abs(k) * w1.imag - min(decay_0, decay_1)) / math.pi


_RayFn = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


def _rays(xs: Sequence[float], integrand: _RayFn, at_pi: complex, osc: float,
          spots: Tuple[HotSpot, ...], connectors: Sequence[float],
          cfg: Optional[QuadConfig], integrate: _Integrate = _each) -> List[QuadResult]:
    """(1/pi) int_0^pi exp(i x g(th)) a(th) dth along the two rays, for each x >= X_C.

    The phase g(th) = th + sin th has two critical places on [0, pi]: the
    endpoint 0, where g' = 2, and pi, where g' = g'' = 0 and the third
    derivative is 1.  [0, pi] is deformed onto

    * the ray th = t e^{i pi/4} out of 0, up to P0 (``_contour_ends``);
    * the path P0 -> Q -> P1 joining the ray ends by a vertical and a
      horizontal segment, on which x Im g >= x Im g(P0 or P1) ~ _DECAY;
    * the ray th = pi + t e^{5i pi/6} from P1 back into pi, the valley of
      the cubic stationary point: exp(i x g) = e^{i pi x} exp(-x t^3/6 + ...).

    Each ray is one integral in t per x, all of them taken by
    ``integrate`` (``integrate_many`` or ``_each``).  The segments are not
    integrated: ``connectors[k]``, the caller's bound on them for its
    amplitude at xs[k], is added to the error instead.

    ``integrand(z, w, s)`` returns exp(z) a(th), given
    z = i x (g(th) - g(th at the ray's start)), the offset w of th from
    that start, and s = sin w; on the ray into pi, a(th) is taken
    without its constant factor ``at_pi``.  The amplitude is the same at
    every x.  ``osc`` is half its own phase rate, added to the phase's on
    each ray.

    The geometry the connector bounds rely on (Re P0 < pi/2 < Re P1,
    Im P0 < Im P1) holds for every x >= X_C.
    """
    x_of = np.array(xs, dtype=np.float64)
    ends = [_contour_ends(x) for x in xs]

    def fn_0(t: np.ndarray, k) -> np.ndarray:
        w = t * _DIR_0
        s = np.sin(w)
        return integrand(1j * x_of[k] * (w + s), w, s)

    def fn_pi(t: np.ndarray, k) -> np.ndarray:
        # th = pi + w: g = pi + (w - sin w) and sin^2 th = sin^2 w
        w = t * _DIR_PI
        return integrand(1j * x_of[k] * _w_minus_sin(w), w, np.sin(w))

    # half the largest real phase rate x |Re(dir * g')| on each ray: at t = 0
    # on the first, at the far end on the second (1 - cos w = 2 sin^2(w/2))
    ray_0 = integrate(fn_0, [(0.0, abs(p0), x * _DIR_0.real + osc)
                             for x, (p0, _) in zip(xs, ends)], spots, cfg)
    ray_pi = integrate(fn_pi, [(0.0, abs(w1), x * abs((_DIR_PI * cmath.sin(0.5 * w1) ** 2).real)
                                + osc) for x, (_, w1) in zip(xs, ends)], spots, cfg)
    out = []
    for x, r0, rp, connector in zip(xs, ray_0, ray_pi, connectors):
        # e^{i pi x}, reduced exactly mod 2, times the amplitude's factor at pi
        phase_pi = complex(cos_pi(x), sin_pi(x)) * at_pi
        value = (_DIR_0 * r0.value - phase_pi * _DIR_PI * rp.value) / math.pi
        err = (r0.err + rp.err) / math.pi + connector
        out.append(QuadResult(value, err, r0.converged and rp.converged,
                              r0.panels + rp.panels))
    return out


def _contour(xs: Sequence[float], rho: float, cfg: Optional[QuadConfig],
             integrate: _Integrate = _each) -> List[QuadResult]:
    """calH(x, rho) for each x >= X_C along the contour of ``_rays``.

    The connector bound is ``_connector_bound``, below 1e-17 for
    rho >= RHO_MIN.  No residue enters.  The poles of
    1/(rho^2 + sin^2 th) sit at k pi +- i asinh(rho), on the lines
    Re th = 0 and Re th = pi.  The closed path made of [0, pi], the rays
    and the segments meets those lines only at its real endpoints 0 and
    pi, so it encloses no pole.
    """
    rho2 = rho * rho
    return _rays(xs, lambda z, w, s: np.exp(z) / (rho2 + s * s), 1.0, 0.0,
                 (HotSpot(0.0, rho),), [_connector_bound(x, rho) for x in xs], cfg, integrate)


def _anger_contour(x: float, k: float, cfg: Optional[QuadConfig]) -> QuadResult:
    """calA(x, k) = (1/pi) int_0^pi exp(i (x g(th) + k th)) dth for x >= X_C.

    The amplitude e^{i k th} is entire, so the contour of ``_rays`` needs
    no residue and no hot spot; on the ray into pi it is e^{i pi k} e^{i k w}.
    The connector bound is ``_anger_connector_bound``.
    """
    return _rays([x], lambda z, w, s: np.exp(z + 1j * k * w), complex(cos_pi(k), sin_pi(k)),
                 0.5 * abs(k), (), [_anger_connector_bound(x, k)], cfg)[0]


def eval_G(gamma: float, rho: float, x: float,
           cfg: Optional[QuadConfig] = None) -> EvalResult:
    """Evaluate G_{gamma,rho}(x) by adaptive quadrature, for any finite real gamma.

    The defining integral extends verbatim to negative order; the Q-G
    relation needs it at gamma - 1 when gamma < 1.
    """
    require_finite("gamma", gamma)
    require_finite("x", x)
    _require_rho(rho)
    # gamma*th + x*sin th on one half, gamma*u - x*sin u on the other: one of them adds
    require_phase("gamma*th +- x*sin(th)", abs(gamma), abs(x), _HALF_PI)
    rho2 = rho * rho
    cg, sg = cos_pi(gamma), sin_pi(gamma)

    def fn_left(th: np.ndarray, _k) -> np.ndarray:
        s = np.sin(th)
        return np.cos(gamma * th + x * s) / (rho2 + s * s)

    def fn_right(u: np.ndarray, _k) -> np.ndarray:
        # th = pi - u: cos(pi*gamma - (gamma*u - x*sin u))
        s = np.sin(u)
        w = gamma * u - x * s
        return (cg * np.cos(w) + sg * np.sin(w)) / (rho2 + s * s)

    freq = 0.5 * (abs(gamma) + abs(x))
    res, = _fold(fn_left, fn_right, [(freq, freq)], rho, cfg)
    return EvalResult(value=res.value.real, error_estimate=res.err, method="oracle",
                      converged=res.converged)


def eval_Q(gamma: float, xi: float, x: float,
           cfg: Optional[QuadConfig] = None) -> EvalResult:
    """Evaluate Q_{gamma,xi}(x) by adaptive quadrature (gamma >= 0, xi > 1)."""
    require_at_least("gamma", gamma, 0.0)
    require_above("xi", xi, 1.0)
    # q_from_g's floor: xi - cos th rounds at ~1e-16 against a peak of width xi - 1
    if math.sqrt(xi * xi - 1.0) < RHO_MIN:
        raise PrecisionError(f"xi = {xi} is too close to 1: sqrt(xi^2 - 1) is below {RHO_MIN}")
    require_finite("x", x)
    require_phase("gamma*th + x*sin(th)", gamma, x, math.pi)

    def fn(th: np.ndarray) -> np.ndarray:
        return np.cos(gamma * th + x * np.sin(th)) / (xi - np.cos(th))

    # the denominator dips to xi - 1 at th = 0 with parabolic width
    width = min(math.sqrt(2.0 * (xi - 1.0)), 1.0)
    f = Integrand(fn, osc_frequency=0.5 * (abs(gamma) + abs(x)),
                  hot_spots=(HotSpot(0.0, width),))
    res = integrate_finite(f, 0.0, math.pi, cfg)
    return EvalResult(value=res.value.real / math.pi, error_estimate=res.err / math.pi,
                      method="oracle", converged=res.converged)


def _real_axis(xs: Sequence[float], rho: float, cfg: Optional[QuadConfig],
               integrate: _Integrate = _each) -> List[QuadResult]:
    """calH(x, rho) for each x of xs by the fold on the real axis; cost grows like |x|."""
    rho2 = rho * rho
    x_of = np.array(xs, dtype=np.float64)
    # e^{i pi x}, reduced exactly mod 2
    phase_pi = np.array([complex(cos_pi(x), sin_pi(x)) for x in xs])

    def fn_left(th: np.ndarray, k) -> np.ndarray:
        s = np.sin(th)
        return np.exp(1j * x_of[k] * (th + s)) / (rho2 + s * s)

    def fn_right(u: np.ndarray, k) -> np.ndarray:
        # th = pi - u: exp(i x (pi - u + sin u))
        s = np.sin(u)
        return phase_pi[k] * np.exp(1j * x_of[k] * (s - u)) / (rho2 + s * s)

    return _fold(fn_left, fn_right, [(abs(x), 0.5 * abs(x)) for x in xs], rho, cfg, integrate)


def _calH(xs: Sequence[float], rho: float, cfg: Optional[QuadConfig],
          integrate: _Integrate) -> List[HValue]:
    """H at each x of xs: the fold below X_C, the contour (conjugated for x < 0) from it on."""
    xs = [_require_x_rho(x, rho) for x in xs]
    near = [x for x in xs if abs(x) < X_C]
    far = [abs(x) for x in xs if abs(x) >= X_C]
    # a branch without points is skipped whole: its set-up is a few us per call
    near_res = iter(_real_axis(near, rho, cfg, integrate) if near else ())
    far_res = iter(_contour(far, rho, cfg, integrate) if far else ())
    out = []
    for x in xs:
        r = next(near_res) if abs(x) < X_C else next(far_res)
        value = r.value.conjugate() if x <= -X_C else r.value
        out.append(HValue(h_complex=value, err=r.err, converged=r.converged))
    return out


def eval_H(x: float, rho: float, cfg: Optional[QuadConfig] = None) -> HValue:
    """Evaluate the restricted Good function H(x, rho) = Re calH(x, rho).

    |x| >= X_C is integrated along a complex contour (``_contour``), using
    calH(-x) = conj(calH(x)); smaller |x| along the real axis.  Each of
    the two integrals is one ``integrate_finite`` call.
    """
    return _calH([x], rho, cfg, _each)[0]


def eval_H_many(xs: Iterable[float], rho: float,
                cfg: Optional[QuadConfig] = None) -> List[HValue]:
    """``[eval_H(x, rho, cfg) for x in xs]``, bit for bit, in shared quadrature sweeps.

    Every x (and rho) is validated before any integral runs, and the
    first invalid one raises what ``eval_H`` would raise.  The points of
    each branch (the fold, the contour) go through ``integrate_many``
    together: one mesh build and a few integrand calls for all of them.
    """
    return _calH(list(xs), rho, cfg, integrate_many)


def bounds_H(x: float, rho: float) -> HBounds:
    """Explicit bounds on |H|, |dH/dx| and |dH/drho| (x plays no role)."""
    require_finite("x", x)
    require_above("rho", rho, 0.0)
    b0 = min(1.0 / (rho * rho), math.pi / (2.0 * rho))
    return HBounds(b0=b0, bx=math.pi * b0, brho=(2.0 / rho) * b0)
