"""Adaptive Gauss-Kronrod quadrature for the oscillatory Good integrands.

Two entry points:

``integrate_finite``
    A finite interval, with a priori mesh control: panels never exceed a
    fraction of the local oscillation period (anti-aliasing), and panels
    are refined geometrically toward declared hot spots (the integrand
    peaks of width ~rho at the interval endpoints).  On top of that mesh
    an ordinary worst-panel-first adaptive loop runs a nested 7/15-point
    pair, whose difference is the per-panel error estimate.

``integrate_tail``
    The semi-infinite interval [0, inf) for an integrand bounded by the
    envelope exp(-rate t^3) of a declared decay rate, the decay of a cubic
    phase on its steepest-descent ray.  Integrates [0, T] adaptively and
    bounds the truncated tail in closed form from the envelope; the
    returned error includes both contributions.

The error estimate is a heuristic (nested-rule difference, conservatively
damped), not a rigorous enclosure; it normally overestimates the true
error, which is the honest side to err on for an oracle.  Ground truth in
tests therefore comes from refinement studies and closed forms.

Panels are evaluated in vectorized chunks; the final summation runs in
ascending panel order, so results are bit-reproducible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .core import (EnvelopeViolated, NumericalError, PrecisionError, QuadConfig,
                   require_above, require_finite)

__all__ = [
    "HotSpot",
    "Integrand",
    "QuadResult",
    "integrate_finite",
    "integrate_tail",
]

# Gauss 7 / Kronrod 15 nodes and weights on [-1, 1] (QUADPACK values).
_XGK = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])

_CHUNK_PANELS = 200_000   # ~3M integrand evaluations per chunk
_MAX_ROUNDS = 500
_EPS = float(np.finfo(np.float64).eps)
# geometric refinement toward a hot spot stops at panels of length
# _ENDPOINT_SCALE * width (width is the hot-spot scale, e.g. rho)
_ENDPOINT_SCALE = 0.25
# a priori cap on panel length as a fraction of the oscillation period
# 2*pi/(1 + nu); deliberately not error-driven, to avoid aliasing traps at
# large frequencies
_OSC_PANEL_FACTOR = 0.25


@dataclass(frozen=True)
class HotSpot:
    """A point where the integrand peaks, with its characteristic width."""

    location: float
    width: float


@dataclass(frozen=True)
class Integrand:
    """Evaluation contract for the quadrature routines.

    fn
        Vectorized callable mapping an ndarray of abscissae to real or
        complex values; must be finite everywhere on the integration
        domain for valid parameters.
    osc_frequency
        Oscillation scale nu: half the worst-case phase rate.  The mesh
        caps panels at ``_OSC_PANEL_FACTOR * 2*pi/(1 + nu)``, so a
        panel never spans more than about half a period of the
        fastest local oscillation.
    hot_spots
        Peaks toward which the initial mesh refines geometrically.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    osc_frequency: float = 0.0
    hot_spots: Tuple[HotSpot, ...] = ()


class QuadResult(NamedTuple):
    """Integral value, absolute error estimate, convergence flag, panel count."""

    value: complex
    err: float
    converged: bool
    panels: int


def _eval_panels(fn, lo: np.ndarray, hi: np.ndarray):
    """Return (k15, err, resabs) arrays for a batch of panels.

    The per-panel estimate is the nested-rule difference |K15 - G7|,
    damped by the standard resasc*(200*d/resasc)**1.5 rule on smooth
    panels and floored at the 50*eps*resabs roundoff level.
    """
    n = len(lo)
    k15 = np.empty(n, dtype=np.complex128)
    err = np.empty(n, dtype=np.float64)
    resabs = np.empty(n, dtype=np.float64)
    for start in range(0, n, _CHUNK_PANELS):
        sl = slice(start, min(start + _CHUNK_PANELS, n))
        l, h = lo[sl], hi[sl]
        c = 0.5 * (l + h)
        hw = 0.5 * (h - l)
        nodes = c[:, None] + hw[:, None] * _XGK[None, :]
        vals = np.asarray(fn(nodes.reshape(-1)))
        if not np.all(np.isfinite(vals)):
            bad = nodes.reshape(-1)[~np.isfinite(vals)]
            raise NumericalError(
                f"integrand returned a non-finite value, first at t={bad[0]!r}"
            )
        vals = vals.reshape(len(l), 15)
        k15[sl] = (vals @ _WGK) * hw
        g7 = (vals[:, 1::2] @ _WG) * hw
        d = np.abs(k15[sl] - g7)
        resabs[sl] = (np.abs(vals) @ _WGK) * hw
        mean = k15[sl] / np.maximum(2.0 * hw, 1e-300)
        resasc = (np.abs(vals - mean[:, None]) @ _WGK) * hw
        with np.errstate(divide="ignore", invalid="ignore"):
            damped = resasc * np.minimum(1.0, (200.0 * d / resasc) ** 1.5)
        e = np.where(resasc > 0.0, damped, d)
        err[sl] = np.maximum(e, 50.0 * _EPS * resabs[sl])
    return k15, err, resabs


def _ordered_sum(lo: np.ndarray, values: np.ndarray) -> complex:
    order = np.argsort(lo, kind="stable")
    return complex(values[order].sum())


def _adaptive(fn, edges: np.ndarray, cfg: QuadConfig, mesh_ok: bool) -> QuadResult:
    lo = edges[:-1].copy()
    hi = edges[1:].copy()
    val, err, resabs = _eval_panels(fn, lo, hi)

    converged = False
    for _ in range(_MAX_ROUNDS):
        total = _ordered_sum(lo, val)
        est = float(err.sum())
        # per-panel estimates are floored at 50*eps*resabs, so the global
        # target keeps a 2x headroom over that floor to guarantee progress
        floor = 100.0 * _EPS * float(resabs.sum())
        target = max(cfg.abs_tol, cfg.rel_tol * abs(total), floor)
        if est <= target:
            converged = True
            break
        room = cfg.max_panels - len(lo)
        if room <= 0:
            break
        # split every panel whose estimate exceeds its share of the target,
        # worst first, as many as the budget allows
        share = target / (2.0 * len(lo))
        candidates = np.nonzero(err > share)[0]
        if len(candidates) == 0:
            candidates = np.array([int(np.argmax(err))])
        if len(candidates) > room:
            worst = np.argsort(err[candidates], kind="stable")[::-1][:room]
            candidates = candidates[worst]
        keep = np.ones(len(lo), dtype=bool)
        keep[candidates] = False
        mid = 0.5 * (lo[candidates] + hi[candidates])
        new_lo = np.concatenate([lo[keep], lo[candidates], mid])
        new_hi = np.concatenate([hi[keep], mid, hi[candidates]])
        nval, nerr, nres = _eval_panels(fn, np.concatenate([lo[candidates], mid]),
                                        np.concatenate([mid, hi[candidates]]))
        lo, hi = new_lo, new_hi
        val = np.concatenate([val[keep], nval])
        err = np.concatenate([err[keep], nerr])
        resabs = np.concatenate([resabs[keep], nres])

    total = _ordered_sum(lo, val)
    est = float(err.sum())
    return QuadResult(total, est, converged and mesh_ok, len(lo))


def _osc_cap(osc_frequency: float) -> float:
    """Panel-length cap from the oscillation scale; unbounded when static."""
    if osc_frequency == 0.0:
        return math.inf
    return _OSC_PANEL_FACTOR * 2.0 * math.pi / (1.0 + abs(osc_frequency))


def _subdivide(points: Sequence[float], cap: float, max_panels: int):
    """Split each segment between consecutive points to the panel cap.

    Returns (edges, ok); ok is False when honoring the cap would exceed
    the panel budget, in which case the mesh is coarsened to fit and the
    caller must flag the result.
    """
    points = np.asarray(points, dtype=np.float64)
    seg = np.diff(points)
    if not math.isfinite(cap):
        return points, True
    with np.errstate(divide="ignore", over="ignore"):  # cap may underflow to 0
        counts = np.maximum(1.0, np.ceil(seg / cap))
        if not counts.sum() < 2.0 ** 62:  # inf, or near what int64 holds
            counts = np.minimum(counts, max_panels + 1)
    counts = counts.astype(np.int64)
    ok = True
    total = int(counts.sum())
    if total > max_panels:
        ok = False
        scale = total / max_panels
        counts = np.maximum(1, (counts / scale).astype(np.int64))
    # segment i contributes points[i] + j*step_i for j < counts[i], the
    # arithmetic of np.linspace(points[i], points[i + 1], counts[i] + 1)
    first = np.repeat(np.cumsum(counts) - counts, counts)
    j = np.arange(first.size) - first
    edges = np.append(j * np.repeat(seg / counts, counts) + np.repeat(points[:-1], counts),
                      points[-1])
    if not np.all(edges[1:] > edges[:-1]):
        edges = np.unique(edges)  # a rounded step overtook the segment end
    return edges, ok


def _hot_spot_points(f: Integrand, a: float, b: float) -> list:
    length = b - a
    pts = []
    for hs in f.hot_spots:
        w = hs.width * _ENDPOINT_SCALE
        if not (w > 0.0) or w >= length:
            continue
        w = max(w, length * 1e-14)  # keep the ladder finite for tiny widths
        while w < length:
            for p in (hs.location - w, hs.location + w):
                if a < p < b:
                    pts.append(p)
            w *= 2.0
    return pts


def integrate_finite(f: Integrand, a: float, b: float,
                     cfg: Optional[QuadConfig] = None) -> QuadResult:
    """Integrate ``f`` over the finite interval [a, b].

    The returned error estimate bounds |value - true integral| with high
    confidence; ``converged`` is False when the estimate could not be
    pushed below the configured tolerance within the panel budget (the
    value and estimate returned are still the honest best effort).
    """
    cfg = cfg or QuadConfig()
    require_finite("a", a)
    require_above("b", b, a)
    cap = _osc_cap(f.osc_frequency)
    points = sorted(set([a, b] + _hot_spot_points(f, a, b)))
    edges, mesh_ok = _subdivide(points, cap, cfg.max_panels)
    return _adaptive(f.fn, edges, cfg, mesh_ok)


def _tail(rate: float, big_t: float) -> float:
    """Bound on int_T^inf exp(-rate t^3) dt: exp(-rate T^3)/(3 rate T^2)."""
    return math.exp(-rate * big_t ** 3) / (3.0 * rate * big_t ** 2)


def _cutoff(rate: float, eps: float) -> float:
    """T where ``_tail(rate, T)`` falls to eps; PrecisionError if 1/eps or T overflows."""
    if not eps > 0.0 or 1.0 / eps == math.inf:
        raise PrecisionError(f"tail tolerance {eps!r} has no finite reciprocal")
    log_q = max(math.log(1.0 / eps), 1.0)
    for _ in range(5):  # a start value and four fixed-point steps
        t = (max(log_q, 0.5) / rate) ** (1.0 / 3.0)
        if t == math.inf:
            raise PrecisionError(f"tail cut-off for rate {rate!r} overflows binary64")
        d = eps * 3.0 * rate * t * t
        if d > 0.0 and 1.0 / d < math.inf:
            log_q = math.log(1.0 / d)
        else:  # d underflowed: the same logarithm as a sum of logarithms
            log_q = math.log(1.0 / (eps * 3.0)) - math.log(rate) - 2.0 * math.log(t)
    return t


def _checked(fn, rate: float):
    def wrapper(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t)
        v = np.asarray(fn(t))
        env = np.exp(-rate * t ** 3)
        mask = env > 1e-280  # skip the check where the envelope underflows
        excess = np.abs(v) - 1.1 * env
        excess[~mask] = -np.inf
        if np.any(excess > 0.0):
            i = int(np.argmax(excess))
            raise EnvelopeViolated(
                f"|g({t[i]})| = {abs(v[i])} exceeds 1.1 * envelope = {1.1 * env[i]}"
            )
        return v

    return wrapper


def integrate_tail(g: Integrand, rate: float,
                   cfg: Optional[QuadConfig] = None) -> QuadResult:
    """Integrate ``g`` over [0, inf) given |g(t)| <= exp(-rate t^3), rate > 0.

    [0, T] is integrated adaptively, with T chosen so that the envelope's
    closed-form tail bound meets half the absolute tolerance; that bound
    is added to the returned error.  Sampled values that exceed the
    envelope by more than 10% raise :class:`EnvelopeViolated`; a T that
    binary64 cannot hold raises :class:`PrecisionError`.
    """
    require_above("rate", rate, 0.0)
    cfg = cfg or QuadConfig()
    big_t = _cutoff(rate, cfg.abs_tol / 2.0)
    # geometric panels beyond t = 1 track the decades of the decay
    head = min(1.0, big_t)
    points = list(np.linspace(0.0, head, 9))
    if big_t > 1.0:
        points += list(np.geomspace(1.0, big_t, max(2, int(4 * math.log2(big_t)) + 1))[1:])
    tail = _tail(rate, big_t)
    spots = _hot_spot_points(g, 0.0, big_t)
    edges, mesh_ok = _subdivide(sorted(set(points + spots)), _osc_cap(g.osc_frequency),
                                cfg.max_panels)
    res = _adaptive(_checked(g.fn, rate), edges, cfg, mesh_ok)
    return QuadResult(res.value, res.err + tail, res.converged, res.panels)
