"""Adaptive Gauss-Kronrod quadrature for the oscillatory Good integrands.

One engine (``_integrals``) runs every integral.  It takes an integrand
fn(t, k) of owners k = 0, 1, ..., each owner's breakpoints and panel cap,
the tolerances (``QuadConfig``) and a nested Gauss-Kronrod pair
(``Rule``), whose difference is the per-panel error estimate.  It splits
each owner's segments into equal panels no longer than its cap, a
fraction of the local oscillation period (``_meshes``: anti-aliasing, a
priori), evaluates every owner's panels in one sweep (``_sweep``), and
ends each owner that meets its target there (``_start``).  The others
refine worst-panel-first (``_rounds``) in lockstep (``core.lockstep``):
each round evaluates the split halves of all of them in one sweep.

Three doors lead to it.  Each validates its inputs, adapts its integrand
to fn(t, k) once and builds each owner's breakpoints and cap:

``integrate_finite``
    One integral of an ``Integrand`` over a finite interval.  Its
    breakpoints are the ends and a geometric ladder toward each declared
    hot spot (the integrand peaks of width ~rho at the endpoints).
``integrate_many``
    Many such integrals ("owners") at once, each with its own interval,
    oscillation scale and hot spots, sharing every sweep.  Up to
    ``_ALONE_OWNERS`` (2) owners it calls ``integrate_finite`` once per
    owner instead, by this module's name, so that a tracer which wraps
    ``integrate_finite`` sees a single point's integrals: one on
    ``good``'s real-axis fold, two rays on its contour.
``integrate_tail``
    The semi-infinite interval [0, inf) for an integrand bounded by the
    envelope exp(-rate t^3) of a declared decay rate, the decay of a cubic
    phase on its steepest-descent ray.  [0, T] runs on the engine, on
    breakpoints that track the decay; the truncated tail is bounded in
    closed form from the envelope, and the returned error includes both.

Every step of a sweep, the weighted row sums included (``np.vecdot``,
which sums each row alone), works panel by panel, so a panel gives the
same bits at any place in a sweep, and each owner's totals run on its own
panels in ascending order.  So a result does not depend on the door it
came through or on the owners that shared its sweeps: every owner of
``integrate_many`` is bit-identical to its own ``integrate_finite`` call.

Two pairs, each with the panel cap it is trusted on, a fraction of the
period 2*pi/(1 + nu) of the oscillation scale nu (``Integrand``), are
chosen by keyword (``rule=``):

``G7K15`` (the default)
    QUADPACK's 7/15-point pair (qk15), exact to degree 22, on panels of a
    quarter of that period: half a period of the fastest phase.
    ``good``'s contour rays (calH, calA) and ``integrate_tail`` run on
    it; so every contour and cubic-tail value, and the calibrated
    constants frozen from them, keep their bits.
``G10K21``
    QUADPACK's 10/21-point pair (qk21; Piessens et al., *QUADPACK*, 1983),
    exact to degree 31, on panels of 0.75 of that period: 1.5 periods of
    the fastest phase.  The real-axis integrals run on it: ``good``'s
    fold (H below X_C, and G), ``good.eval_Q`` and ``anger``'s real axis.
    At that cap it meets its target on the first sweep everywhere it was
    tried: the 7 638 fold integrals of the benchmark's zeros-small-x
    op sets (seeds 1-10), a seeded grid of 120 fold points (x in
    (2, 100), rho in [1e-3, 2]) and ``eval_G(x/2, 1, x)``,
    ``anger_J(x/2, x)``, ``eval_Q(0, 2, x)`` and ``eval_G(x, 1, x)`` at
    x = 1e3, 1e4 and 1e5; at 1.0 period (2 of the fastest phase) 242 of
    the 7 638, 2 of the 120 and all 12 calls refine.  That is 0.47 times
    G7K15's evaluations: 21 per panel where it takes 15 on a third.

Cost of one integral: the integrand runs on 15 or 21 nodes per panel, and
the rest is a fixed set-up that hardly grows with the panel count up to a
few hundred panels: the breakpoints and the mesh, one first sweep
(``_eval_panels``: about 25 numpy calls on arrays of one entry per panel,
four of them ``np.vecdot`` row sums) and the three sums of the
convergence test (``_start``); each refinement round adds a sweep over
the split halves and about 20 more small numpy calls.  A contour ray of
``good`` has 1-45 panels, so the fixed part is most of its cost: the
16-panel ray out of 0 of ``eval_H(5825.7, 0.3)`` takes about 80 us, its
integrand about 22 us (best of 3000 calls; 2-vCPU x86 VM, Python 3.11,
numpy 2.4).  Sharing sweeps pays from
three owners on: timed on ``eval_H_many`` (30 random (x, rho) per size,
best of 60 calls alternating both ways, same VM), a contour point's two
rays ran 10-15% slower shared than one by one, two points' four rays
18-25% faster and 16 rays about 2x faster; on the fold (20 random sets
per size, best of 40 calls), two points ran about 4% faster shared, three
18% and eight 31%.  Every sweep reaches the integrand in chunks of at
most ``_CHUNK_NODES`` (3 840) nodes, 256 G7K15 or 182 G10K21 panels, one
integrand call and four row-sum calls each, so the integrand's
temporaries stay a few hundred kB however long the sweep: a process
running ``eval_G(5e4, 1, 1e5)``, one real-axis integral of 25 001 G10K21
panels, peaks at 31 MB, 29 MB of it the imports.  The row sums still
cost more than a BLAS product: ``np.vecdot`` takes about 8 us for the
real rows of a 256-panel chunk, ``gemv`` about 3 us.

The error estimate is a heuristic (nested-rule difference, conservatively
damped), not a rigorous enclosure; it normally overestimates the true
error, which is the honest side to err on for an oracle.  Ground truth in
tests therefore comes from refinement studies and closed forms.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import accumulate, chain, pairwise
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .core import (DomainError, EnvelopeViolated, NumericalError, PrecisionError,
                   QuadConfig, lockstep, require_above, require_finite)

__all__ = [
    "G7K15",
    "G10K21",
    "HotSpot",
    "Integrand",
    "QuadResult",
    "Rule",
    "integrate_finite",
    "integrate_many",
    "integrate_tail",
]

# QUADPACK's Gauss-Kronrod pairs by halves: the Kronrod nodes in (0, 1] in
# descending order, then 0, with their weights; the Gauss nodes are the
# second, fourth, ... of them, with the weights in the third table
# (qk15: Gauss 7 / Kronrod 15, so 0 is a Gauss node)
_XK15_HALF = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
)
_WK15_HALF = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG7_HALF = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)
# qk21: Gauss 10 / Kronrod 21, so 0 is a Kronrod node only
_XK21_HALF = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.0,
)
_WK21_HALF = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077208643474596,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG10_HALF = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)


class Rule(NamedTuple):
    """A nested Gauss-Kronrod pair on [-1, 1] and the panel cap it is trusted on.

    xgk holds the Kronrod nodes in ascending order and wgk their weights;
    the Gauss nodes are xgk[1::2], with weights wg.  ``factor`` caps a
    panel at factor * 2*pi/(1 + nu) for the oscillation scale nu
    (``_osc_cap``).
    """

    xgk: np.ndarray
    wgk: np.ndarray
    wg: np.ndarray
    factor: float


def _rule(xk: tuple, wk: tuple, wg: tuple, factor: float) -> Rule:
    """The Rule of a pair given by halves (the tables above), each mirrored about 0."""
    gauss_at_0 = len(xk) % 2 == 0  # 0, the last Kronrod node, is then one of the even-numbered
    return Rule(np.array([-v for v in xk[:-1]] + list(xk[::-1])), np.array(wk[:-1] + wk[::-1]),
                np.array((wg[:-1] if gauss_at_0 else wg) + wg[::-1]), factor)


# half a period of the fastest phase per panel: the contour rays and
# integrate_tail, whose values calibration froze into the constants
G7K15 = _rule(_XK15_HALF, _WK15_HALF, _WG7_HALF, 0.25)
# 1.5 periods per panel: the real-axis integrals (module docstring)
G10K21 = _rule(_XK21_HALF, _WK21_HALF, _WG10_HALF, 0.75)

# integrand nodes per call: every sweep is evaluated in chunks of at most this
# many, 256 panels of G7K15 or 182 of G10K21.  Larger chunks gain little speed
# (a zeros window batches 20-40 owners of 12-30 panels), while the integrand's
# temporaries grow with the chunk: at 512 K15 panels they raised a find_zeros
# process's peak RSS by 0.6 MB, at 256 by 0.3 MB.
_CHUNK_NODES = 3840
_MAX_ROUNDS = 500
# integrate_many makes one integrate_finite call per owner up to this many
# owners so that a tracer which wraps integrate_finite by name (the
# benchmark's, which CI checks) counts a single point's integrals; the
# results are the engine's either way, bit for bit
_ALONE_OWNERS = 2
# a lone owner's mesh of fewer panels than this is built in Python floats
# (_small_mesh: 6-18 us for a contour ray, where the vectorised pass takes
# about 60 us); both cost 35-45 us from about 190 panels of a 14-segment
# ladder and 200-250 of one or two segments, beyond which the vectorised
# pass stays near that cost and the Python way grows to ~130 us at 1000 panels
_SMALL_MESH = 192
_DEFAULT_CFG = QuadConfig()  # immutable; built once, not on every call
_EPS = float(np.finfo(np.float64).eps)
# ndarray.sum's pairwise sum, without its Python wrapper: it runs three times per integral
_sum = np.add.reduce
# geometric refinement toward a hot spot stops at panels of length
# _ENDPOINT_SCALE * width (width is the hot-spot scale, e.g. rho)
_ENDPOINT_SCALE = 0.25


@dataclass(frozen=True)
class HotSpot:
    """A point where the integrand peaks, with its characteristic width."""

    location: float
    width: float


@dataclass(frozen=True)
class Integrand:
    """Evaluation contract for the quadrature routines.

    fn
        Vectorized callable mapping an ndarray of abscissae to an array of
        as many real or complex values (else :class:`DomainError`); must
        be finite everywhere on the integration domain for valid
        parameters.
    osc_frequency
        Oscillation scale nu: half the worst-case phase rate.  The mesh
        caps panels at ``rule.factor * 2*pi/(1 + nu)`` for the rule the
        integral runs on, so a panel never spans more than about half
        (G7K15) or one and a half (G10K21) periods of the fastest local
        oscillation.
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


def _chunk_panels(rule: Rule) -> int:
    """Panels of ``rule`` per integrand call: as many as _CHUNK_NODES holds, at least one."""
    return max(1, _CHUNK_NODES // len(rule.xgk))


def _eval_panels(fn, lo: np.ndarray, hi: np.ndarray, owner: Optional[np.ndarray] = None,
                 rule: Rule = G7K15):
    """Return (kronrod, err, resabs) arrays for a batch of panels, on ``rule``.

    The per-panel estimate is the nested-rule difference |Kronrod - Gauss|,
    damped by the standard resasc*(200*d/resasc)**1.5 rule on smooth
    panels and floored at the 50*eps*resabs roundoff level.

    ``fn`` gets the nodes, and with ``owner`` (the owner of each panel,
    for a sweep over several owners) also the owner of each node; it must
    return one value per node (``_one_per_node``).  Every
    step works on each panel alone: the elementwise arithmetic, and the
    four weighted row sums, which ``np.vecdot`` takes row by row.  So a
    panel comes out the same at any place in a batch, and any batch of
    more nodes than _CHUNK_NODES is evaluated in slices of as many panels
    as that budget holds (``_chunk_panels``), one integrand call each,
    which bounds the temporaries.  (A BLAS matrix-vector product is not
    row by row: it can give a row a result that depends on its position
    in the matrix.)

    Finiteness is tested on the weighted row sums of |values|, which the
    estimate needs anyway: a nan or inf value makes its row nan or inf,
    and with non-negative terms nothing can cancel it.  Only a non-finite
    row (a bad value, or finite values whose row sum overflows) pays for
    the elementwise check, which names the first bad node.
    """
    n, size, chunk = len(lo), len(rule.xgk), _chunk_panels(rule)
    if n > chunk:
        parts = [_eval_panels(fn, lo[s:s + chunk], hi[s:s + chunk],
                              None if owner is None else owner[s:s + chunk], rule)
                 for s in range(0, n, chunk)]
        return tuple(np.concatenate(p) for p in zip(*parts))
    c = 0.5 * (lo + hi)
    hw = 0.5 * (hi - lo)
    nodes = (c[:, None] + hw[:, None] * rule.xgk).reshape(-1)
    vals = _one_per_node(fn(nodes) if owner is None else fn(nodes, np.repeat(owner, size)), nodes)
    m = vals.reshape(n, size)
    abs_rows = np.vecdot(rule.wgk, np.abs(m))
    if not math.isfinite(abs_rows.max()):
        bad = nodes[~np.isfinite(vals)]
        if len(bad):
            raise NumericalError(f"integrand returned a non-finite value, first at t={bad[0]!r}")
    kronrod = (np.vecdot(rule.wgk, m) * hw).astype(np.complex128, copy=False)
    d = np.abs(kronrod - np.vecdot(rule.wg, m[:, 1::2]) * hw)
    resabs = abs_rows * hw
    mean = kronrod / np.maximum(2.0 * hw, 1e-300)
    resasc = np.vecdot(rule.wgk, np.abs(m - mean[:, None])) * hw
    with np.errstate(divide="ignore", invalid="ignore"):
        damped = resasc * np.minimum(1.0, (200.0 * d / resasc) ** 1.5)
    e = np.where(resasc > 0.0, damped, d)
    return kronrod, np.maximum(e, 50.0 * _EPS * resabs), resabs


def _one_per_node(values, nodes: np.ndarray) -> np.ndarray:
    """``values`` as an array; DomainError unless it holds one value per node."""
    values = np.asarray(values)
    if values.shape != nodes.shape:
        raise DomainError(f"integrand contract: fn must return one value per node, got shape "
                          f"{values.shape} for {nodes.size} nodes")
    return values


def _ordered_sum(lo: np.ndarray, values: np.ndarray) -> complex:
    order = np.argsort(lo, kind="stable")
    return complex(values[order].sum())


def _estimate(total: complex, err: np.ndarray, resabs: np.ndarray,
              cfg: QuadConfig) -> Tuple[float, float]:
    """(est, target): an integral has converged once its estimate est is at most target."""
    # per-panel estimates are floored at 50*eps*resabs, so the global
    # target keeps a 2x headroom over that floor to guarantee progress
    floor = 100.0 * _EPS * float(_sum(resabs))
    return float(_sum(err)), max(cfg.abs_tol, cfg.rel_tol * abs(total), floor)


def _start(lo: np.ndarray, hi: np.ndarray, first, cfg: QuadConfig, mesh_ok: bool):
    """The QuadResult of a mesh whose first sweep ``first`` meets its target, else ``_rounds``."""
    val, err, resabs = first
    total = complex(_sum(val))  # in ascending panel order, as _ordered_sum would sum
    est, target = _estimate(total, err, resabs, cfg)
    if est <= target:
        return QuadResult(total, est, mesh_ok, len(lo))
    return _rounds(lo, hi, val, err, resabs, total, est, target, cfg, mesh_ok)


def _rounds(lo: np.ndarray, hi: np.ndarray, val: np.ndarray, err: np.ndarray,
            resabs: np.ndarray, total: complex, est: float, target: float,
            cfg: QuadConfig, mesh_ok: bool):
    """The worst-panel-first loop of one integral, from the first sweep of its mesh (``_start``).

    The one refinement loop, as a generator that returns the QuadResult:
    each round it yields the halves (lo, hi) of the panels it splits and
    is sent back their ``_eval_panels`` triple.  The engine
    (``_integrals``) runs the rounds of all its unconverged owners through
    ``core.lockstep``, their halves in one sweep per round.
    """
    converged = False
    for _ in range(_MAX_ROUNDS):
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
        lo_c, hi_c = lo[candidates], hi[candidates]
        mid = 0.5 * (lo_c + hi_c)
        halves_lo, halves_hi = np.concatenate([lo_c, mid]), np.concatenate([mid, hi_c])
        nval, nerr, nres = yield halves_lo, halves_hi
        keep = np.ones(len(lo), dtype=bool)
        keep[candidates] = False
        lo = np.concatenate([lo[keep], halves_lo])
        hi = np.concatenate([hi[keep], halves_hi])
        val = np.concatenate([val[keep], nval])
        err = np.concatenate([err[keep], nerr])
        resabs = np.concatenate([resabs[keep], nres])
        total = _ordered_sum(lo, val)
        est, target = _estimate(total, err, resabs, cfg)
    return QuadResult(total, est, converged and mesh_ok, len(lo))


def _require_osc(osc_frequency: float) -> None:
    """Refuse a nan oscillation scale, whose cap would read as none; +inf gives a cap of 0."""
    if math.isnan(osc_frequency):
        raise DomainError(f"osc_frequency must not be nan, got {osc_frequency!r}")


def _osc_cap(osc_frequency: float, rule: Rule) -> float:
    """``rule``'s panel-length cap from the oscillation scale; unbounded when static.

    Deliberately not error-driven, to avoid aliasing traps at large
    frequencies.
    """
    if osc_frequency == 0.0:
        return math.inf
    return rule.factor * 2.0 * math.pi / (1.0 + abs(osc_frequency))


def _small_mesh(points: Sequence[float], cap: float, max_panels: int):
    """A lone owner's mesh (``_meshes``) in Python floats, for a finite cap > 0: (edges, ok)."""
    seg = [b - a for a, b in pairwise(points)]
    counts = [max(1, math.ceil(s / cap)) for s in seg]
    total = sum(counts)
    if total > max_panels:
        scale = total / max_panels
        counts = [max(1, int(k / scale)) for k in counts]
    steps = [s / k for s, k in zip(seg, counts)]
    edges = [j * step + a for a, step, k in zip(points, steps, counts) for j in range(k)]
    edges.append(points[-1])
    ok = total <= max_panels
    if not all(map(operator.lt, edges, edges[1:])):  # a rounded step overtook a segment end
        return np.unique(edges), ok
    return np.array(edges), ok


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


def _breakpoints(points: List[float], hot_spots: Tuple[HotSpot, ...]) -> List[float]:
    """``points`` and the hot-spot ladders inside [points[0], points[-1]], sorted."""
    return sorted(set(points + _hot_spot_points(hot_spots, points[0], points[-1])))


def _meshes(points: List[List[float]], caps: List[float], max_panels: int):
    """Every owner's mesh: (lo, hi, sizes, oks), as ``_vector_meshes`` defines it.

    A lone owner's mesh without a cap (inf) is its breakpoints, and one of
    fewer than _SMALL_MESH panels comes from ``_small_mesh``; the three
    paths agree bit for bit.
    """
    if len(points) == 1:
        p, cap = points[0], caps[0]
        if not math.isfinite(cap):  # e.g. an integrate_tail ray: 1-2 us
            edges, ok = np.array(p, dtype=np.float64), len(p) - 1 <= max_panels
        elif cap > 0.0 and (p[-1] - p[0]) / cap < _SMALL_MESH:
            edges, ok = _small_mesh(p, cap, max_panels)
        else:
            return _vector_meshes(points, caps, max_panels)
        return edges[:-1], edges[1:], [len(edges) - 1], [ok]
    return _vector_meshes(points, caps, max_panels)


def _vector_meshes(points: List[List[float]], caps: List[float], max_panels: int):
    """Every owner's mesh in one vectorised pass: (lo, hi, sizes, oks).

    Owner k's mesh splits the segments between its breakpoints points[k]
    to the panel-length cap caps[k].  lo and hi hold every owner's panels
    back to back, sizes[k] is owner k's panel count, and oks[k] is False
    when its mesh exceeds the panel budget, in which case it is coarsened
    to fit and the caller must flag the result.

    Segment i of an owner holds points[i] + j*step_i, j < counts[i], with
    counts[i] = ceil(length_i/cap) and step_i = length_i/counts[i]: the
    arithmetic of np.linspace(points[i], points[i + 1], counts[i] + 1),
    elementwise over the segments of all owners, so each mesh is
    bit-identical to its own call.  Each owner is handled alone where
    that arithmetic needs it: without a cap (inf) each segment is one
    panel; counts whose sum int64 may not hold are first cut to
    max_panels + 1; counts over the budget are scaled down to fit it; and
    where a rounded step overtook a segment end, the owner keeps its
    distinct edges in order (np.unique).
    """
    nseg = np.array([len(p) - 1 for p in points])
    flat = np.fromiter(chain.from_iterable(points), np.float64)  # one conversion for all owners
    ends = np.cumsum(nseg + 1) - 1             # each owner's last point
    inner = np.ones(len(flat) - 1, dtype=bool)
    inner[ends[:-1]] = False                   # no segment from one owner to the next
    starts = flat[:-1][inner]
    seg = flat[1:][inner] - starts
    seg0 = np.cumsum(nseg) - nseg              # each owner's first segment
    # a cap may underflow to 0; inf/inf, a segment too long for binary64
    # without a cap, is one panel (fmax drops the nan)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        counts = np.fmax(1.0, np.ceil(seg / np.repeat(caps, nseg)))
    if not counts.sum() < 2.0 ** 62:  # inf, or near what int64 holds, for some owner
        for s0, s1 in zip(seg0, seg0 + nseg):
            if not counts[s0:s1].sum() < 2.0 ** 62:
                counts[s0:s1] = np.minimum(counts[s0:s1], max_panels + 1)
    counts = counts.astype(np.int64)
    totals = np.add.reduceat(counts, seg0)
    oks = totals <= max_panels
    if not oks.all():
        owner = np.repeat(np.arange(len(points)), nseg)
        # Python's int / int: one rounding, also for totals beyond 2**53
        scale = np.array([total / max_panels for total in totals.tolist()])
        counts = np.where(oks[owner], counts,
                          np.maximum(1, (counts / scale[owner]).astype(np.int64)))
    first = np.repeat(np.cumsum(counts) - counts, counts)
    j = np.arange(first.size) - first
    lo = j * np.repeat(seg / counts, counts) + np.repeat(starts, counts)
    sizes = np.add.reduceat(counts, seg0)
    hi = np.empty_like(lo)
    hi[:-1] = lo[1:]
    hi[np.cumsum(sizes) - 1] = flat[ends]
    if not (hi > lo).all():  # a rounded step overtook a segment end
        edges = [np.append(lo[p0:p1], hi[p1 - 1])
                 for p0, p1 in pairwise(accumulate(sizes.tolist(), initial=0))]
        edges = [e if (e[1:] > e[:-1]).all() else np.unique(e) for e in edges]
        lo, hi = np.concatenate([e[:-1] for e in edges]), np.concatenate([e[1:] for e in edges])
        sizes = np.array([len(e) - 1 for e in edges])
    return lo, hi, sizes.tolist(), oks.tolist()


def _sweep(fn, owners: Sequence[int], lo: np.ndarray, hi: np.ndarray, sizes: Sequence[int],
           rule: Rule):
    """[(kronrod, err, resabs) of owner j's panels for each j]; lo and hi hold them back to back.

    owners[j] (ascending) has the next sizes[j] panels.  They are one
    ``_eval_panels`` call, with the owner as an int for a lone owner, else
    as an int array with the owner of each node.  ``_eval_panels``
    evaluates each panel alone, in chunks of at most _CHUNK_NODES nodes
    whose bounds may fall inside an owner, so an owner's panels come out
    as in a call of their own.
    """
    if len(owners) == 1:
        k = owners[0]
        return [_eval_panels(lambda t: fn(t, k), lo, hi, None, rule)]
    kronrod, err, resabs = _eval_panels(fn, lo, hi, np.repeat(owners, sizes), rule)
    return [(kronrod[p0:p1], err[p0:p1], resabs[p0:p1])
            for p0, p1 in pairwise(accumulate(sizes, initial=0))]


def _integrals(fn, points: List[List[float]], caps: List[float], cfg: QuadConfig,
               rule: Rule) -> List[QuadResult]:
    """The engine (module docstring): owner k integrates t -> fn(t, k) over its
    breakpoints points[k], on panels no longer than caps[k]; one QuadResult per owner.
    """
    lo, hi, sizes, oks = _meshes(points, caps, cfg.max_panels)
    results, rounds, p1 = _sweep(fn, range(len(sizes)), lo, hi, sizes, rule), {}, 0
    for k, (size, ok) in enumerate(zip(sizes, oks)):
        p0, p1 = p1, p1 + size
        results[k] = r = _start(lo[p0:p1], hi[p0:p1], results[k], cfg, ok)
        if not isinstance(r, QuadResult):
            rounds[k] = r
    if rounds:
        def sweep(ks: List[int], halves: list) -> list:
            if len(ks) == 1:  # a lone owner's halves, as they are: no copy
                (lo_k, hi_k), = halves
                return _sweep(fn, ks, lo_k, hi_k, [len(lo_k)], rule)
            los, his = zip(*halves)
            return _sweep(fn, ks, np.concatenate(los), np.concatenate(his),
                          [len(h) for h in los], rule)

        for k, r in lockstep(rounds, sweep).items():
            results[k] = r
    return results


def integrate_many(fn: Callable[[np.ndarray, object], np.ndarray],
                   spans: Sequence[Tuple[float, float, float, Tuple[HotSpot, ...]]],
                   cfg: Optional[QuadConfig] = None, *, rule: Rule = G7K15) -> List[QuadResult]:
    """Integrate many integrals ("owners") in shared sweeps.

    Owner k integrates t -> fn(t, k) over [a, b] with oscillation scale
    ``osc`` and hot spots ``spots``, where (a, b, osc, spots) = spans[k].
    ``fn`` gets k as an int, or, in a sweep over several owners, as an
    int array with the owner of each node, in ascending order, and
    returns one value per node.  Each result is bit-identical to
    ``integrate_finite(Integrand(lambda t: fn(t, k), osc, spots), a, b, cfg, rule=rule)``,
    which is the call made for each owner of a call of at most
    _ALONE_OWNERS owners.
    """
    cfg = cfg or _DEFAULT_CFG
    for a, b, osc, _ in spans:
        require_finite("a", a)
        require_above("b", b, a)
        _require_osc(osc)
    if len(spans) <= _ALONE_OWNERS:
        return [integrate_finite(Integrand(lambda t, k=k: fn(t, k), osc, spots), a, b, cfg,
                                 rule=rule)
                for k, (a, b, osc, spots) in enumerate(spans)]
    points, caps, ladders = [], [], {}
    for a, b, osc, spots in spans:
        key = a, b, spots  # one lookup per owner that shares a ladder: HotSpots hash in Python
        points.append(ladders.get(key) or ladders.setdefault(key, _breakpoints([a, b], spots)))
        caps.append(_osc_cap(osc, rule))
    return _integrals(fn, points, caps, cfg, rule)


def integrate_finite(f: Integrand, a: float, b: float,
                     cfg: Optional[QuadConfig] = None, *, rule: Rule = G7K15) -> QuadResult:
    """Integrate ``f`` over the finite interval [a, b] on ``rule``.

    The returned error estimate bounds |value - true integral| with high
    confidence; ``converged`` is False when the estimate could not be
    pushed below the configured tolerance within the panel budget (the
    value and estimate returned are still the honest best effort).
    ``integrate_many`` for one owner is this call.
    """
    require_finite("a", a)
    require_above("b", b, a)
    _require_osc(f.osc_frequency)
    one = f.fn
    return _integrals(lambda t, k: one(t), [_breakpoints([a, b], f.hot_spots)],
                      [_osc_cap(f.osc_frequency, rule)], cfg or _DEFAULT_CFG, rule)[0]


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
    """``fn`` as the engine's fn(t, k), its values checked against the envelope exp(-rate t^3)."""
    def wrapper(t: np.ndarray, k: int) -> np.ndarray:
        v = _one_per_node(fn(t), t)
        env = np.exp(-rate * t ** 3)
        excess = np.abs(v) - 1.1 * env
        if (excess > 0.0).any():
            excess[~(env > 1e-280)] = -np.inf  # skip the check where the envelope underflows
            if (excess > 0.0).any():
                i = int(np.argmax(excess))
                raise EnvelopeViolated(
                    f"|g({t[i]})| = {abs(v[i])} exceeds 1.1 * envelope = {1.1 * env[i]}"
                )
        return v

    return wrapper


def _ray_points(big_t: float) -> List[float]:
    """Breakpoints of [0, T]: ``np.linspace(0, min(1, T), 9)``, then beyond t = 1
    ``np.geomspace(1, T, m)[1:]``, geometric panels that track the decades of the decay.

    Both are written out in their own arithmetic: linspace's j*step + 0
    and geomspace's 10**(j*step) with step = log10(T)/(m - 1), ending on T.
    """
    head = min(1.0, big_t)
    points = [j * (head / 8) for j in range(8)] + [head]
    if big_t > 1.0:
        m = max(2, int(4 * math.log2(big_t)) + 1)
        step = np.log10(big_t) / (m - 1)
        points += np.power(10.0, np.arange(1, m - 1) * step).tolist() + [big_t]
    return points


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
    _require_osc(g.osc_frequency)
    cfg = cfg or _DEFAULT_CFG
    big_t = _cutoff(rate, cfg.abs_tol / 2.0)
    tail = _tail(rate, big_t)
    res, = _integrals(_checked(g.fn, rate), [_breakpoints(_ray_points(big_t), g.hot_spots)],
                      [_osc_cap(g.osc_frequency, G7K15)], cfg, G7K15)
    return QuadResult(res.value, res.err + tail, res.converged, res.panels)
