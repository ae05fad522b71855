"""Brute-force reference for H(x, rho), independent of goodfun.quadrature.

    H(x, rho) = (1/pi) int_0^pi cos(x (th + sin th)) / (rho^2 + sin^2 th) dth

The right half is folded by th = pi - u, so both amplitude peaks (width
rho) sit at the exactly representable endpoint 0 of [0, pi/2].  Each half
is split at a geometric ladder toward that peak and into panels on which
x * (panel length) stays below ``_PHASE_PER_PANEL``.  Every panel is
integrated with two Gauss-Legendre rules; their difference plus a
roundoff term is the returned error estimate.

The large part of the phase, x * (c +- sin c) at each panel centre c, is
formed and reduced modulo 2 pi in long double; the per-node remainder is
small, so binary64 keeps it accurate at any x.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

_N_LO, _N_HI = 40, 56
_PHASE_PER_PANEL = 40.0   # the lower rule is exact to polynomial degree 79
_CHUNK_PANELS = 20_000
_EPS = float(np.finfo(np.float64).eps)
_PI_LD = np.arccos(np.longdouble(-1))
_TWO_PI_LD = 2 * _PI_LD


class Reference(NamedTuple):
    value: float
    err: float


_RULES = {n: np.polynomial.legendre.leggauss(n) for n in (_N_LO, _N_HI)}


def _segments(x: float, rho: float):
    """Yield (left edge, panel length, panel count) covering [0, pi/2]."""
    points = [0.0]
    w = 0.25 * rho
    while w < 1.0:
        points.append(w)
        w *= 2.0
    points.append(0.5 * math.pi)
    cap = min(0.5, _PHASE_PER_PANEL / max(abs(x), 1.0))
    for a, b in zip(points, points[1:]):
        # a ladder segment [w, 2w] is never longer than its distance to the
        # peak, which keeps the amplitude's poles outside the rule's ellipse
        n = max(1, math.ceil((b - a) / cap))
        yield a, (b - a) / n, n


def _half(x: float, rho: float, sign: int, n: int):
    """Sum over one half for the n-point rule: (value, sum |w f|).

    sign = +1 integrates cos(x (t + sin t)) on [0, pi/2]; sign = -1
    integrates cos(x pi - x (t - sin t)), the folded right half.
    """
    t, w = _RULES[n]
    rho2 = rho * rho
    offset = np.longdouble(math.fmod(x, 2.0)) * _PI_LD if sign < 0 else np.longdouble(0)
    parts, absparts = [], []
    for a, h, count in _segments(x, rho):
        d = 0.5 * h * t                       # node offsets from the centre
        sin_d, cos_d_m1 = np.sin(d), -2.0 * np.sin(0.5 * d) ** 2
        for start in range(0, count, _CHUNK_PANELS):
            k = np.arange(start, min(count, start + _CHUNK_PANELS))
            c = np.longdouble(a) + (k + np.longdouble(0.5)) * np.longdouble(h)
            sin_c_ld, cos_c_ld = np.sin(c), np.cos(c)
            big = np.fmod(offset + sign * np.longdouble(x) * (c + sign * sin_c_ld),
                          _TWO_PI_LD)
            sin_c = sin_c_ld.astype(np.float64)[:, None]
            cos_c = cos_c_ld.astype(np.float64)[:, None]
            # sin(c + d) - sin c, free of cancellation for small d
            dsin = sin_c * cos_d_m1[None, :] + cos_c * sin_d[None, :]
            small = x * (d[None, :] + sign * dsin)
            s = sin_c + dsin
            amp = 1.0 / (rho2 + s * s)
            vals = np.cos(big.astype(np.float64)[:, None] + sign * small) * amp
            parts.append((vals @ w) * (0.5 * h))
            absparts.append((amp @ w) * (0.5 * h))
    return math.fsum(np.concatenate(parts)), math.fsum(np.concatenate(absparts))


def h_reference(x: float, rho: float) -> Reference:
    """H(x, rho) with an error estimate (two-rule difference plus roundoff)."""
    sums = {}
    for n in (_N_LO, _N_HI):
        left, left_abs = _half(x, rho, +1, n)
        right, right_abs = _half(x, rho, -1, n)
        sums[n] = ((left + right) / math.pi, (left_abs + right_abs) / math.pi)
    value, resabs = sums[_N_HI]
    return Reference(value, abs(value - sums[_N_LO][0]) + 8.0 * _EPS * resabs)
