"""Oracle evaluation of the Good functions G, Q and the restricted H.

    G_{gamma,rho}(x) = (1/pi) int_0^pi cos(gamma*th + x*sin th) / (rho^2 + sin^2 th) dth
    Q_{gamma,xi}(x)  = (1/pi) int_0^pi cos(gamma*th + x*sin th) / (xi - cos th) dth
    H(x, rho)        = G_{x,rho}(x)

``eval_H`` computes H through the complex variant

    calH(x, rho) = (1/pi) int_0^pi exp(i*x*(th + sin th)) / (rho^2 + sin^2 th) dth

as one complex integral, which halves the quadrature work and enforces
H = Re calH by construction.  ``zeros.find_zeros``, which reads only H's
value and error, takes them from a real oracle (``_h_many``): G's fold at
gamma = x below X_C, two cosines a node and real panel sums, and the real
part of calH's contour from X_C on.  The module also provides the
explicit a-priori bounds on |H| and its first derivatives.

G, Q, Anger's J and calH are one integral with four amplitudes a,

    F_a(gamma, x) = (1/pi) int_0^pi a(th) cos(gamma*th + x*sin th) dth,

G's a = 1/(rho^2 + sin^2 th), Q's a = 1/(xi - cos th), J's a = 1 with
J_nu(x) = F_1(nu, -x), and calH is G's at gamma = x with e^{i(...)} for
the cosine.  On the real axis it is written once (``_real_fold``), folded
by th -> pi - u onto [0, pi/2]: one integral per point, whose integrand
sums both halves at the same node, where their phases are P + M and
P - M, P = x*sin u + pi*r and M = gamma*u - pi*r with r = gamma/2
reduced exactly modulo 2.  Each caller gives only its amplitude of
(P, M).  The fold keeps the peaks of G and H at an exactly representable
endpoint (the peak at th = pi sits a sliver below the nearest double,
which at rho = 1e-3 already costs ~1e-10 of mass) and takes half the
panels of a mesh of [0, pi] at the same oscillation scale.
From |x| = X_C on, calH is integrated along a contour in the upper
half-plane instead (``_contours``), at a cost that does not grow with x.

That contour is one primitive (``_rays``) for the phase x*(th + sin th),
with any amplitude that has no pole between [0, pi] and the contour.
Besides calH's 1/(rho^2 + sin^2 th) it carries the Anger amplitude
e^{i k th}:

    calA(x, k) = (1/pi) int_0^pi exp(i*(x*(th + sin th) + k*th)) dth

from which ``anger.anger_J`` takes J near its diagonal,
J_{x+k}(-x) = Re calA(x, k).  ``_contours`` takes calA and calH points
of any rho in one batch.
"""
from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .core import (EvalResult, PrecisionError, QuadConfig, _reduce_mod2, cos_pi, require_above,
                   require_at_least, require_finite, require_phase, sin_pi)
from .quadrature import G10K21, HotSpot, QuadResult, integrate_many

__all__ = ["HValue", "HBounds", "eval_G", "eval_Q", "eval_H", "eval_H_many", "bounds_H",
           "RHO_MIN", "X_C"]

# Below this rho the integrand peak (~rho**-2) exhausts binary64 headroom;
# the evaluators refuse it rather than lose digits silently.
RHO_MIN = 1e-6

# From this |x| on, eval_H integrates along the complex contour, whose cost
# does not depend on x; below it, along the real axis, whose cost grows
# like x.  Per point, calH's G10K21 fold (three cosines and sines a node,
# ``_real_fold``) takes 0.59-0.65 times the G10K21 contour's wall time at
# x = 100 for rho in [0.05, 1] and 0.59-0.60 times at rho = 1e-3;
# 0.71-0.77 and 0.67-0.69 at x = 150; 0.76-0.86 and 0.76-0.77 at 200;
# 0.92-0.99 and 0.87 at 250; 1.01-1.10 and 0.95-0.96 at 300; 1.24-1.35 and
# 1.14-1.15 at 400.  anger_J's fold in its band (nu = +-x, x +- x^(1/3)),
# at two cosines a node, takes 0.53-0.59, 0.64-0.68, 0.74-0.77,
# 0.81-0.85, 0.89-0.94 and 1.07-1.14 times the contour's time at x = 100,
# 150, 200, 250, 300 and 400 (best of 400 calls timed alternately with the
# contour, three runs; 2-vCPU x86 VM, numpy 2.4).  So the fold meets the
# contour near x = 300 for calH and 330 for J.  X_C stays at 100: moving
# it would move the compare rows, zeros windows and calibration points
# between it and the crossover onto the other path.
X_C = 100.0


@dataclass(frozen=True, slots=True)
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
    """Refuse a rho below RHO_MIN, or one whose square overflows (rho >~ 1.34e154).

    At such a rho, G and H would read 0 +- 0 and the Good amplitude's
    bounds would all be 0.
    """
    require_above("rho", rho, 0.0)
    if rho < RHO_MIN:
        raise PrecisionError(
            f"rho = {rho} is below {RHO_MIN}; the integrand peak ~1/rho^2 "
            "exhausts binary64 headroom"
        )
    if rho * rho == math.inf:
        raise PrecisionError(f"rho = {rho!r}: rho^2 overflows binary64")


_OwnerFn = Callable[..., np.ndarray]


def _by_owner(first: _OwnerFn, second: _OwnerFn, n: int) -> _OwnerFn:
    """One owner function of two: fn(*nodes, k) is first(*nodes, k) for k < n, else
    second(*nodes, k - n).

    ``nodes`` are one or more node arrays of the same length.
    ``integrate_many`` hands a sweep's owners over in ascending order, so
    ``first``'s nodes come before ``second``'s, and each runs on its own
    slice of every node array.
    """
    def fn(*args):
        k = args[-1]  # args[-1] costs less than unpacking *nodes, k
        if not isinstance(k, np.ndarray):
            return first(*args) if k < n else second(*args[:-1], k - n)
        cut = int(np.searchsorted(k, n))
        if cut in (0, len(k)):  # a sweep of one function's owners
            return first(*args) if cut else second(*args[:-1], k - n)
        nodes = args[:-1]
        return np.concatenate([first(*[a[:cut] for a in nodes], k[:cut]),
                               second(*[a[cut:] for a in nodes], k[cut:] - n)])

    return fn


def _of(values: list) -> Callable[[object], object]:
    """k -> values[k] for one owner k; for an owner array, the value at each node.

    ``values`` becomes an array once, here, not on every sweep.  One
    owner's value is a Python scalar: numpy's arithmetic costs less with
    it than with a numpy scalar, and gives the same bits.
    """
    array = np.array(values)
    return lambda k: array[k] if isinstance(k, np.ndarray) else values[k]


def _require_x_rho(x: float, rho: float) -> float:
    """x as a float, after the checks of one ``eval_H(x, rho)`` call, in its order."""
    x = require_finite("x", x)
    _require_rho(rho)
    return x


_Amplitude = Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]


def _real_fold(points: Sequence[Tuple[float, float]], amplitude: _Amplitude,
               spots: Tuple[HotSpot, ...], cfg: Optional[QuadConfig]) -> List[QuadResult]:
    """(1/pi) int_0^pi f(th) dth at each (gamma, x) of ``points``, folded onto [0, pi/2].

    The real axis of all four oracles, as int_0^{pi/2} f(u) + f(pi - u) du.
    At a node u, with s = sin u and r = gamma/2 reduced exactly modulo 2
    (``_reduce_mod2``), P = x*s + pi*r and M = gamma*u - pi*r, the phase
    gamma*th + x*sin th is P + M at th = u and P - M at th = pi - u, modulo
    2 pi.  ``amplitude(u, s, P, M)`` returns f(u) + f(pi - u):
    2 cos P cos M a(u) where a is symmetric (G, J), 2 cos M e^{iP} a(u) for
    calH, and cos(P + M) a(u) + cos(P - M) a(pi - u) for Q's asymmetric a,
    whose peak sits where P + M ~ 0 and its cosine keeps full accuracy.
    pi*gamma/2 itself rounds at ulp(gamma); pi*r keeps one rounding
    (~4e-16) at any gamma.  And M is not gamma*(u - pi/2): under the
    1/rho^2 peak at u = 0, where the halves cancel near odd gamma, that
    would round u - pi/2 and multiply the rounding by gamma.

    ``spots`` are the peaks of both halves in u, the same for every
    point: (0, rho) for calH and G, (0, ~sqrt(2 (xi - 1))) for Q, none for
    J.  The oscillation scale is (|gamma| + |x|)/2, half the larger phase
    rate.  Each point is one owner of one ``integrate_many`` call on
    G10K21, converged against its own value.  The caller checks that the
    phase stays finite.
    """
    gamma_of, x_of = _of([g for g, _ in points]), _of([x for _, x in points])
    pi_r_of = _of([math.pi * _reduce_mod2(0.5 * g) for g, _ in points])

    def fn(u: np.ndarray, k) -> np.ndarray:
        s, pi_r = np.sin(u), pi_r_of(k)
        return amplitude(u, s, x_of(k) * s + pi_r, gamma_of(k) * u - pi_r)

    spans = [(0.0, _HALF_PI, 0.5 * (abs(g) + abs(x)), spots) for g, x in points]
    return [QuadResult(r.value / math.pi, r.err / math.pi, r.converged, r.panels)
            for r in integrate_many(fn, spans, cfg, rule=G10K21)]


def _oracle(results: List[QuadResult]) -> EvalResult:
    """The oracle ``EvalResult`` of a one-point, real-valued ``_real_fold``."""
    (res,) = results
    return EvalResult(value=res.value.real, error_estimate=res.err, method="oracle",
                      converged=res.converged)


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

    That bound falls like 1/rho, H like 1/rho^2.  So where it is smaller,
    the bound of a unit amplitude (``_anger_connector_bound`` at k = 0)
    over rho^2 - cosh^2(Im P1) is taken instead: on the connector
    |sin th|^2 = cosh^2 b - cos^2 a <= cosh^2(Im P1), so
    |rho^2 + sin^2 th| >= rho^2 - cosh^2(Im P1) where that is positive.
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
    bound = (up + across) / math.pi
    gap = rho * rho - math.cosh(h1) ** 2
    return min(bound, _anger_connector_bound(x, 0.0) / gap) if gap > 0.0 else bound


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


_RayFn = Callable[[np.ndarray, np.ndarray, np.ndarray, object], np.ndarray]
_RayPoint = Tuple[float, complex, float, Tuple[HotSpot, ...], float]


def _rays(points: Sequence[_RayPoint], integrand: _RayFn,
          cfg: Optional[QuadConfig]) -> List[QuadResult]:
    """(1/pi) int_0^pi exp(i x g(th)) a(th) dth along the two rays, for each point, x >= X_C.

    The phase g(th) = th + sin th has two critical places on [0, pi]: the
    endpoint 0, where g' = 2, and pi, where g' = g'' = 0 and the third
    derivative is 1.  [0, pi] is deformed onto

    * the ray th = t e^{i pi/4} out of 0, up to P0 (``_contour_ends``);
    * the path P0 -> Q -> P1 joining the ray ends by a vertical and a
      horizontal segment, on which x Im g >= x Im g(P0 or P1) ~ _DECAY;
    * the ray th = pi + t e^{5i pi/6} from P1 back into pi, the valley of
      the cubic stationary point: exp(i x g) = e^{i pi x} exp(-x t^3/6 + ...).

    points[k] = (x, at_pi, osc, spots, connector) describes point k and
    its amplitude a.  Each ray is one integral in t per point, with hot
    spots ``spots``.  All of them are the owners of one ``integrate_many``
    call, the rays out of 0 first, so a batch integrates every ray of
    every point in shared sweeps.  The segments
    are not integrated: ``connector``, the caller's bound on them for its
    amplitude, is added to the error instead.

    ``integrand(z, w, s, k)`` returns exp(z) a(th) for point k (an int,
    or an int array in a sweep over several points), given
    z = i x (g(th) - g(th at the ray's start)), the offset w of th from
    that start, and s = sin w; on the ray into pi, a(th) is taken
    without its constant factor ``at_pi``.  ``osc`` is half the
    amplitude's own phase rate, added to each ray's scale.

    The rays run on G10K21, with a panel cap from each ray's own geometry
    rather than from its oscillation.  In its natural variable a ray does
    not depend on x: tau = x t out of 0, where exp(i x g) ~ exp(2 i tau
    e^{i pi/4}) decays as fast as it turns, and tau = (x/6)^(1/3) t into
    pi, where it is ~ exp(-tau^3), the cubic valley.  The scales x and
    3 (x/6)^(1/3) (half the exponent's modulus rate 2 x at 0; three times
    the valley's inverse width) make G10K21's cap 0.75 * 2 pi/(1 + scale)
    split the rays, 25 sqrt 2 and 50^(1/3) long in tau, into 8 and 3
    panels at every x >= X_C, plus the hot-spot ladder, which depends on
    x only through x rho and (x/6)^(1/3) rho.  There they meet their
    target on the first sweep: no refinement round on the 168 points of
    the benchmark's compare sets, nor on a grid of 435 calH and 570 calA
    points (x from 100 to 1e9, rho from 1e-3 to 1e22, orders across the
    band).  With 2 panels into pi, 84 and 396 of those refine; out of 0,
    the scale of the oscillation alone, x/sqrt 2 (a cap of 6.66 in tau),
    took 29 refinement rounds on 2 317 points of a dense x rho grid.

    The geometry the connector bounds rely on (Re P0 < pi/2 < Re P1,
    Im P0 < Im P1) holds for every x >= X_C.
    """
    n, x_of = len(points), _of([p[0] for p in points])

    def fn_0(t: np.ndarray, k) -> np.ndarray:
        w = t * _DIR_0
        s = np.sin(w)
        return integrand(1j * x_of(k) * (w + s), w, s, k)

    def fn_pi(t: np.ndarray, k) -> np.ndarray:
        # th = pi + w: g = pi + (w - sin w) and sin^2 th = sin^2 w
        w = t * _DIR_PI
        return integrand(1j * x_of(k) * _w_minus_sin(w), w, np.sin(w), k)

    # each ray's scale from its own geometry (docstring)
    spans_0, spans_pi = [], []
    for x, _, o, spots, _ in points:
        p0, w1 = _contour_ends(x)
        spans_0.append((0.0, abs(p0), x + o, spots))
        spans_pi.append((0.0, abs(w1), 3.0 * (x / 6.0) ** (1.0 / 3.0) + o, spots))
    rays = integrate_many(_by_owner(fn_0, fn_pi, n), spans_0 + spans_pi, cfg, rule=G10K21)
    out = []
    for (x, a, _, _, connector), r0, rp in zip(points, rays[:n], rays[n:]):
        # e^{i pi x}, reduced exactly mod 2, times the amplitude's factor at pi
        phase_pi = complex(cos_pi(x), sin_pi(x)) * a
        value = (_DIR_0 * r0.value - phase_pi * _DIR_PI * rp.value) / math.pi
        err = (r0.err + rp.err) / math.pi + connector
        out.append(QuadResult(value, err, r0.converged and rp.converged,
                              r0.panels + rp.panels))
    return out


def _contours(pairs: Sequence[Tuple[float, float]], points: Sequence[Tuple[float, float]],
              cfg: Optional[QuadConfig]) -> Tuple[List[QuadResult], List[QuadResult]]:
    """(calA at each (x, k) of ``pairs``, calH at each (x, rho) of ``points``), x >= X_C.

    Every pair and point is one point of a single ``_rays`` call, the
    calA ones first, so a batch integrates them all in shared sweeps, on
    G10K21 panels laid out by each ray's geometry.  calA adds its own
    phase rate |k|/2 to the rays' scales.

    calA's amplitude e^{i k th} is entire, so its contour needs no
    residue and no hot spot; on the ray into pi it is e^{i pi k} e^{i k w}.
    Its connector bound is ``_anger_connector_bound``.

    calH's connector bound is ``_connector_bound``, below 1e-17 for
    rho >= RHO_MIN, and its rays have the hot spot (0, rho).  No residue
    enters.  The poles of 1/(rho^2 + sin^2 th) sit at k pi +- i asinh(rho),
    on the lines Re th = 0 and Re th = pi.  The closed path made of
    [0, pi], the rays and the segments meets those lines only at its real
    endpoints 0 and pi, so it encloses no pole.
    """
    ik, rho2, rays = [], [], []
    for x, k in pairs:
        ik.append(1j * k)
        rays.append((x, complex(cos_pi(k), sin_pi(k)), 0.5 * abs(k), (),
                     _anger_connector_bound(x, k)))
    for x, rho in points:
        rho2.append(rho * rho)
        rays.append((x, 1.0, 0.0, (HotSpot(0.0, rho),), _connector_bound(x, rho)))

    ik_of, rho2_of = _of(ik), _of(rho2)

    def calA(z, w, _s, o):
        return np.exp(z + ik_of(o) * w)

    def calH(z, _w, s, o):
        return np.exp(z) / (rho2_of(o) + s * s)

    n = len(pairs)
    res = _rays(rays, calH if not n else calA if not points else _by_owner(calA, calH, n),
                cfg)
    return res[:n], res[n:]


def eval_G(gamma: float, rho: float, x: float,
           cfg: Optional[QuadConfig] = None) -> EvalResult:
    """Evaluate G_{gamma,rho}(x) by adaptive quadrature, for any finite real gamma.

    The defining integral extends verbatim to negative order; the Q-G
    relation needs it at gamma - 1 when gamma < 1.
    """
    require_finite("gamma", gamma)
    x = _require_x_rho(x, rho)
    # gamma*th + x*sin th on one half, gamma*u - x*sin u on the other: one of them adds
    require_phase("gamma*th +- x*sin(th)", abs(gamma), abs(x), _HALF_PI)
    return _oracle(_real_fold([(gamma, x)], _G(rho), (HotSpot(0.0, rho),), cfg))


def eval_Q(gamma: float, xi: float, x: float,
           cfg: Optional[QuadConfig] = None) -> EvalResult:
    """Evaluate Q_{gamma,xi}(x) by adaptive quadrature (gamma >= 0, xi > 1)."""
    require_at_least("gamma", gamma, 0.0)
    require_above("xi", xi, 1.0)
    # q_from_g's floor: xi - cos th rounds at ~1e-16 against a peak of width xi - 1
    if math.sqrt(xi * xi - 1.0) < RHO_MIN:
        raise PrecisionError(f"xi = {xi} is too close to 1: sqrt(xi^2 - 1) is below {RHO_MIN}")
    require_finite("x", x)
    require_phase("gamma*th +- x*sin(th)", gamma, abs(x), _HALF_PI)

    def amplitude(u, _s, p, m):
        c = np.cos(u)
        return np.cos(p + m) / (xi - c) + np.cos(p - m) / (xi + c)

    # only the th = 0 half peaks: xi - cos u dips to xi - 1 with parabolic width
    spot = HotSpot(0.0, min(math.sqrt(2.0 * (xi - 1.0)), 1.0))
    return _oracle(_real_fold([(gamma, x)], amplitude, (spot,), cfg))


def _G(rho: float) -> _Amplitude:
    """G's amplitude 2 cos P cos M/(rho^2 + s^2): two cosines a node, in real arithmetic."""
    rho2 = rho * rho
    return lambda _u, s, p, m: np.cos(p) * np.cos(m) * (2.0 / (rho2 + s * s))


def _calH(rho: float) -> _Amplitude:
    """calH's amplitude 2 cos M e^{iP}/(rho^2 + s^2), e^{iP} built in real arithmetic."""
    rho2 = rho * rho

    def amplitude(_u, s, p, m):
        a = np.cos(m) * (2.0 / (rho2 + s * s))
        z = np.empty(s.shape, np.complex128)
        z.real, z.imag = a * np.cos(p), a * np.sin(p)
        return z

    return amplitude


def _branches(xs: Iterable[float], rho: float, near_amplitude: Callable[[float], _Amplitude],
              cfg: Optional[QuadConfig]) -> Tuple[List[float], List[QuadResult]]:
    """(the xs as floats, a result per x): the fold at gamma = x of the amplitude
    ``near_amplitude(rho)`` below X_C, calH's contour at |x| from it on.

    Every x, and rho once, is validated before any integral runs, in the
    order of ``eval_H`` point by point, so the first failure raises what
    that would.  The points of each branch go through one
    ``integrate_many`` call, with one owner per point on the fold and two
    (its rays) on the contour.  That call shares its sweeps from three
    owners on: one mesh build and a few integrand calls for all of them,
    refinement rounds included.
    """
    # rho once, after the first x, where the first eval_H call checks it
    xs = [require_finite("x", x) if i else _require_x_rho(x, rho) for i, x in enumerate(xs)]
    near = [(x, x) for x in xs if abs(x) < X_C]
    far = [(abs(x), rho) for x in xs if abs(x) >= X_C]
    # a branch without points is skipped whole: its set-up is a few us per call
    near_res = _real_fold(near, near_amplitude(rho), (HotSpot(0.0, rho),), cfg) if near else []
    far_res = _contours((), far, cfg)[1] if far else []
    if not (near_res and far_res):
        return xs, near_res or far_res
    near_it, far_it = iter(near_res), iter(far_res)
    return xs, [next(near_it) if abs(x) < X_C else next(far_it) for x in xs]


def eval_H(x: float, rho: float, cfg: Optional[QuadConfig] = None) -> HValue:
    """Evaluate the restricted Good function H(x, rho) = Re calH(x, rho): ``eval_H_many([x])``.

    |x| >= X_C is integrated along a complex contour (``_contours``), using
    calH(-x) = conj(calH(x)); smaller |x| along the real axis.  That is
    one integral below X_C (the fold) and two from it on (the rays), one
    ``integrate_finite`` call each (``integrate_many``).
    """
    return eval_H_many([x], rho, cfg)[0]


def eval_H_many(xs: Iterable[float], rho: float,
                cfg: Optional[QuadConfig] = None) -> List[HValue]:
    """``[eval_H(x, rho, cfg) for x in xs]``, bit for bit, in shared quadrature sweeps.

    calH on the fold below X_C, and on the contour, conjugated for x < 0,
    from it on (``_branches``).
    """
    xs, results = _branches(xs, rho, _calH, cfg)
    return [HValue(h_complex=r.value.conjugate() if x <= -X_C else r.value, err=r.err,
                   converged=r.converged) for x, r in zip(xs, results)]


def _h_many(xs: Iterable[float], rho: float,
            cfg: Optional[QuadConfig] = None) -> List[QuadResult]:
    """H(x, rho) at each x of ``xs``, real, in shared quadrature sweeps: the oracle of
    ``zeros.find_zeros``.

    ``eval_H_many``'s validation and branches (``_branches``) with G's
    amplitude on the fold, where H = G_{x,rho}(x): each value is
    ``eval_G(x, rho, x).value`` below X_C and ``eval_H(x, rho).h`` from it
    on, bit for bit, and each error that call's.  The fold then takes two
    cosines a node where calH's takes three trigonometric calls, and its
    panel sums stay real (``quadrature._eval_panels``).
    """
    return [QuadResult(r.value.real, r.err, r.converged, r.panels)
            for r in _branches(xs, rho, _G, cfg)[1]]


def bounds_H(x: float, rho: float) -> HBounds:
    """Explicit bounds on |H|, |dH/dx| and |dH/drho| (x plays no role) while all are normal."""
    require_finite("x", x)
    require_above("rho", rho, 0.0)
    if rho * rho == 0.0:  # rho <~ 1.57e-162
        raise PrecisionError(f"rho = {rho!r}: rho^2 underflows binary64")
    b0 = min(1.0 / (rho * rho), math.pi / (2.0 * rho))
    brho = (2.0 / rho) * b0
    if brho == math.inf:  # rho <~ 1.32e-154
        raise PrecisionError(f"rho = {rho!r}: the bound on |dH/drho| overflows binary64")
    if brho < sys.float_info.min:  # rho >~ 4.48e102: subnormal, below its own 2/rho^3, or 0
        raise PrecisionError(f"rho = {rho!r}: the bound on |dH/drho| underflows binary64")
    return HBounds(b0=b0, bx=math.pi * b0, brho=brho)
