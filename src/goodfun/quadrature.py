"""Adaptive Gauss-Kronrod quadrature for the oscillatory Good integrands.

Three entry points:

``integrate_finite``
    A finite interval, with a priori mesh control: panels never exceed a
    fraction of the local oscillation period (anti-aliasing), and panels
    are refined geometrically toward declared hot spots (the integrand
    peaks of width ~rho at the interval endpoints).  On top of that mesh
    an ordinary worst-panel-first adaptive loop runs a nested 7/15-point
    pair, whose difference is the per-panel error estimate.

``integrate_many``
    Many such integrals ("owners") at once, each with its own interval,
    oscillation scale and mesh, and bit-identical to one
    ``integrate_finite`` call each; ``integrate_finite`` is its
    one-owner case.  The meshes are built in one vectorised pass, and
    the first round evaluates the owners in batches ("chunks") of at most
    ``_BATCH_PANELS`` panels, each with one integrand call; no owner is
    split across batches, so the cap bounds the temporaries.  The
    weighted row sums and the totals still run on each owner's slice
    alone: a BLAS matrix-vector product can give a row a result that
    depends on its position in the matrix (summed over whole batches,
    3 of 1725 test points moved in their last bit).  An owner that misses
    its target goes on alone in the refinement loop.

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
from itertools import accumulate, pairwise
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .core import (EnvelopeViolated, NumericalError, PrecisionError, QuadConfig,
                   require_above, require_finite)

__all__ = [
    "HotSpot",
    "Integrand",
    "QuadResult",
    "integrate_finite",
    "integrate_many",
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
# first-round panels per batched sweep.  Larger batches gain little speed
# (a zeros window batches 20-40 owners of 12-30 panels), while the
# integrand's temporaries grow with the batch: at 512 panels they raised a
# find_zeros process's peak RSS by 0.6 MB, at 256 by 0.3 MB.
_BATCH_PANELS = 256
_MAX_ROUNDS = 500
_DEFAULT_CFG = QuadConfig()  # immutable; built once, not on every call
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


def _eval_panels(fn, lo: np.ndarray, hi: np.ndarray, starts: Sequence[int] = (0,)):
    """Return (k15, err, resabs) arrays for a batch of panels.

    The per-panel estimate is the nested-rule difference |K15 - G7|,
    damped by the standard resasc*(200*d/resasc)**1.5 rule on smooth
    panels and floored at the 50*eps*resabs roundoff level.

    ``starts`` holds the first panel of each owner (integral) in the
    batch.  The integrand runs once over every node and the elementwise
    arithmetic over every panel, but the four weighted row sums run on
    each owner's slice alone: a BLAS matrix-vector product can give a row
    a result that depends on its position in the matrix, and a slice
    summed alone sums exactly as in a call of its own.  Only a lone owner
    ever has more than _CHUNK_PANELS panels; it is evaluated in slices of
    that size, as separate batches.
    """
    n = len(lo)
    if n > _CHUNK_PANELS:
        parts = [_eval_panels(fn, lo[s:s + _CHUNK_PANELS], hi[s:s + _CHUNK_PANELS])
                 for s in range(0, n, _CHUNK_PANELS)]
        return tuple(np.concatenate(p) for p in zip(*parts))
    c = 0.5 * (lo + hi)
    hw = 0.5 * (hi - lo)
    nodes = (c[:, None] + hw[:, None] * _XGK[None, :]).reshape(-1)
    vals = np.asarray(fn(nodes))
    if not np.all(np.isfinite(vals)):
        bad = nodes[~np.isfinite(vals)]
        raise NumericalError(f"integrand returned a non-finite value, first at t={bad[0]!r}")
    vals = vals.reshape(n, 15)

    def row_sums(m: np.ndarray, w: np.ndarray) -> np.ndarray:
        if len(starts) == 1:
            return (m @ w) * hw
        return np.concatenate([m[s0:s1] @ w for s0, s1 in pairwise([*starts, n])]) * hw

    k15 = row_sums(vals, _WGK).astype(np.complex128, copy=False)
    d = np.abs(k15 - row_sums(vals[:, 1::2], _WG))
    resabs = row_sums(np.abs(vals), _WGK)
    mean = k15 / np.maximum(2.0 * hw, 1e-300)
    resasc = row_sums(np.abs(vals - mean[:, None]), _WGK)
    with np.errstate(divide="ignore", invalid="ignore"):
        damped = resasc * np.minimum(1.0, (200.0 * d / resasc) ** 1.5)
    e = np.where(resasc > 0.0, damped, d)
    return k15, np.maximum(e, 50.0 * _EPS * resabs), resabs


def _ordered_sum(lo: np.ndarray, values: np.ndarray) -> complex:
    order = np.argsort(lo, kind="stable")
    return complex(values[order].sum())


def _refine(fn, lo: np.ndarray, hi: np.ndarray, val: np.ndarray, err: np.ndarray,
            resabs: np.ndarray, cfg: QuadConfig, mesh_ok: bool) -> QuadResult:
    """The worst-panel-first loop, from a mesh whose panels are evaluated in order."""
    converged = False
    total = complex(val.sum())  # in ascending panel order, as _ordered_sum would sum
    for _ in range(_MAX_ROUNDS):
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
    else:  # the last round refined
        est = float(err.sum())
    return QuadResult(total, est, converged and mesh_ok, len(lo))


def _adaptive(fn, edges: np.ndarray, cfg: QuadConfig, mesh_ok: bool) -> QuadResult:
    lo, hi = edges[:-1], edges[1:]
    return _refine(fn, lo, hi, *_eval_panels(fn, lo, hi), cfg, mesh_ok)


def _osc_cap(osc_frequency: float) -> float:
    """Panel-length cap from the oscillation scale; unbounded when static."""
    if osc_frequency == 0.0:
        return math.inf
    return _OSC_PANEL_FACTOR * 2.0 * math.pi / (1.0 + abs(osc_frequency))


def _subdivide(points: Sequence[float], cap: float, max_panels: int):
    """Split each segment between consecutive points to the panel cap.

    Returns (edges, ok); ok is False when the mesh exceeds the panel
    budget, in which case the caller must flag the result.  A capped mesh
    is then coarsened to fit; without a cap the points are the mesh.
    """
    points = np.asarray(points, dtype=np.float64)
    seg = np.diff(points)
    if not math.isfinite(cap):
        return points, len(seg) <= max_panels
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


def _hot_spot_points(hot_spots: Tuple[HotSpot, ...], a: float, b: float) -> list:
    length = b - a
    pts = []
    for hs in hot_spots:
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


def _meshes(points: List[List[float]], caps: List[float], max_panels: int):
    """``_subdivide`` for many owners at once: (lo, hi, sizes, oks).

    lo and hi hold every owner's panels back to back, sizes[k] is owner
    k's panel count and oks[k] its ``_subdivide`` flag.  The arithmetic is
    ``_subdivide``'s, elementwise over all segments, so each mesh is
    bit-identical to its own call.  An owner without a finite cap, over
    the panel budget, or whose rounded steps need ``np.unique`` is meshed
    by ``_subdivide`` alone.
    """
    if len(points) == 1:
        edges, ok = _subdivide(points[0], caps[0], max_panels)
        return edges[:-1], edges[1:], [len(edges) - 1], [ok]
    nseg = np.array([len(p) - 1 for p in points])
    flat = np.concatenate(points)
    ends = np.cumsum(nseg + 1) - 1             # each owner's last point
    inner = np.ones(len(flat) - 1, dtype=bool)
    inner[ends[:-1]] = False                   # no segment from one owner to the next
    starts = flat[:-1][inner]
    seg = flat[1:][inner] - starts
    caps = np.asarray(caps, dtype=np.float64)
    with np.errstate(divide="ignore", over="ignore"):  # cap may underflow to 0
        counts = np.maximum(1.0, np.ceil(seg / np.repeat(caps, nseg)))
    owner = np.repeat(np.arange(len(points)), nseg)
    plain = np.isfinite(caps) & (np.bincount(owner, counts) <= max_panels)
    counts = np.where(plain[owner], counts, 0.0).astype(np.int64)
    # as in _subdivide: segment i contributes starts[i] + j*step_i, j < counts[i]
    first = np.repeat(np.cumsum(counts) - counts, counts)
    j = np.arange(first.size) - first
    lo = j * np.repeat(seg / np.maximum(counts, 1), counts) + np.repeat(starts, counts)
    sizes = np.bincount(owner, counts, minlength=len(points)).astype(np.int64)
    hi = np.empty_like(lo)
    hi[:-1] = lo[1:]
    hi[np.cumsum(sizes)[plain] - 1] = flat[ends[plain]]
    plain[np.repeat(np.arange(len(points)), sizes)[~(hi > lo)]] = False
    if plain.all():
        return lo, hi, sizes.tolist(), [True] * len(points)
    parts = []
    offsets = np.cumsum(sizes) - sizes
    for k, (p, cap, size, offset) in enumerate(zip(points, caps, sizes, offsets)):
        if plain[k]:
            parts.append((lo[offset:offset + size], hi[offset:offset + size], True))
        else:
            edges, ok = _subdivide(p, float(cap), max_panels)
            parts.append((edges[:-1], edges[1:], ok))
    los, his, oks = zip(*parts)
    return np.concatenate(los), np.concatenate(his), [len(x) for x in los], list(oks)


def _batches(sizes: List[int]):
    """Owner ranges [k0, k1) of at most _BATCH_PANELS panels in all, or of one owner."""
    k0, total = 0, 0
    for k, size in enumerate(sizes):
        if k > k0 and total + size > _BATCH_PANELS:
            yield k0, k
            k0, total = k, 0
        total += size
    if sizes:
        yield k0, len(sizes)


def integrate_many(fn: Callable[[np.ndarray, object], np.ndarray],
                   spans: Sequence[Tuple[float, float, float]],
                   hot_spots: Tuple[HotSpot, ...] = (),
                   cfg: Optional[QuadConfig] = None) -> List[QuadResult]:
    """Integrate many integrals ("owners") in shared sweeps.

    Owner k integrates t -> fn(t, k) over [a, b] with oscillation scale
    ``osc``, where (a, b, osc) = spans[k]; all owners share ``hot_spots``.
    ``fn`` gets k as an int, or, in a sweep over several owners, as an
    int array with the owner of each node.  Each result is bit-identical to
    ``integrate_finite(Integrand(lambda t: fn(t, k), osc, hot_spots), a, b, cfg)``.

    Every mesh is built in one vectorised pass.  The first round then
    evaluates the owners in batches of at most _BATCH_PANELS panels, each
    with one integrand call; an owner is never split across batches.  An
    owner that misses its target goes on alone in the refinement loop.
    """
    cfg = cfg or _DEFAULT_CFG
    if not spans:
        return []
    points, caps, ladders = [], [], {}
    for a, b, osc in spans:
        require_finite("a", a)
        require_above("b", b, a)
        if (a, b) not in ladders:
            ladders[a, b] = sorted(set([a, b] + _hot_spot_points(hot_spots, a, b)))
        points.append(ladders[a, b])
        caps.append(_osc_cap(osc))
    lo, hi, sizes, oks = _meshes(points, caps, cfg.max_panels)
    offsets = list(accumulate(sizes, initial=0))
    results: List[QuadResult] = []
    for k0, k1 in _batches(sizes):
        b0 = offsets[k0]
        owner = k0 if k1 - k0 == 1 else np.repeat(np.arange(k0, k1),
                                                  15 * np.asarray(sizes[k0:k1]))
        val, err, resabs = _eval_panels(lambda t: fn(t, owner), lo[b0:offsets[k1]],
                                        hi[b0:offsets[k1]],
                                        [offsets[k] - b0 for k in range(k0, k1)])
        for k in range(k0, k1):
            p0, p1 = offsets[k], offsets[k + 1]
            results.append(_refine(lambda t, k=k: fn(t, k), lo[p0:p1], hi[p0:p1],
                                   val[p0 - b0:p1 - b0], err[p0 - b0:p1 - b0],
                                   resabs[p0 - b0:p1 - b0], cfg, oks[k]))
    return results


def integrate_finite(f: Integrand, a: float, b: float,
                     cfg: Optional[QuadConfig] = None) -> QuadResult:
    """Integrate ``f`` over the finite interval [a, b].

    The returned error estimate bounds |value - true integral| with high
    confidence; ``converged`` is False when the estimate could not be
    pushed below the configured tolerance within the panel budget (the
    value and estimate returned are still the honest best effort).
    This is ``integrate_many`` for one owner.
    """
    return integrate_many(lambda t, k: f.fn(t), [(a, b, f.osc_frequency)], f.hot_spots, cfg)[0]


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
    cfg = cfg or _DEFAULT_CFG
    big_t = _cutoff(rate, cfg.abs_tol / 2.0)
    # geometric panels beyond t = 1 track the decades of the decay
    head = min(1.0, big_t)
    points = list(np.linspace(0.0, head, 9))
    if big_t > 1.0:
        points += list(np.geomspace(1.0, big_t, max(2, int(4 * math.log2(big_t)) + 1))[1:])
    tail = _tail(rate, big_t)
    spots = _hot_spot_points(g.hot_spots, 0.0, big_t)
    edges, mesh_ok = _subdivide(sorted(set(points + spots)), _osc_cap(g.osc_frequency),
                                cfg.max_panels)
    res = _adaptive(_checked(g.fn, rate), edges, cfg, mesh_ok)
    return QuadResult(res.value, res.err + tail, res.converged, res.panels)
