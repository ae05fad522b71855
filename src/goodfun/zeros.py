"""Zeros of x -> H(x, rho) by sign bracketing at the alternation points.

For large s = x*rho**3 the sign of H(1/6 + k, rho) alternates with k, so
each interval (1/6 + k, 1/6 + k + 1) brackets a zero; asymptotically the
zeros drift toward the cosine zeros at x = m + 2/3.  Each sign change is
refined by Brent's method (R. P. Brent, *Algorithms for Minimization
without Derivatives*, 1973, ch. 4): inverse quadratic or secant steps
where they land well inside the bracket, bisection where they do not.
It needs no derivative; from the 1/8-wide subgrid bracket it reaches
the 1e-10 width in typically 4 steps, where bisection takes 31.

The oracle is ``good._h_many``, which evaluates a batch of points in
shared quadrature sweeps and returns H real: G's fold at gamma = x below
X_C, bit-identical to ``eval_G(x, rho, x)`` (two cosines a node, real
panel sums), and the real part of ``eval_H``'s contour from X_C on.
One batch covers the grid and one the subscan points of every bracket.
Brent's steps are sequential within one bracket, but the brackets are
independent, so every sign change is refined in lockstep: ``_brent`` is
a generator that yields its next point, and ``core.lockstep`` evaluates
the next point of every unfinished search in one batch per round, so
the batches number two plus the longest search's steps: 6 for the three
zeros of rho = 1 on [10, 13].

Grid points whose oracle value is within twice its error estimate are
ambiguous in sign; they are skipped and logged, never forced.  The
oracle's error claim is read only there, at the grid points 1/6 + k, and
in the residual warning below; the subscan and Brent's steps read signs.
So G's under-claim near odd orders at rho below about 1e-4 (its fold's
halves cancel under the 1/rho^2 peak) never reaches the ambiguity test:
a grid point lies at least 1/6 from an odd order.  Intervals
without a confirmed sign change are logged as "no bracket".  Uniqueness
inside an interval is observed, not assumed: each bracket is first
scanned on a coarse subgrid and every sign change found is refined (a
multi-zero interval is logged).  The grid reaches one point beyond each
end of [x_min, x_max] so that zeros near the edges stay bracketed, but
the subgrid is evaluated, and its sign changes refined, only on the
sub-intervals that meet the window.  Each zero comes back as a ``ZeroRecord``.
"""
from __future__ import annotations

import logging
import math
import sys
from dataclasses import dataclass
from itertools import pairwise
from typing import ClassVar, Dict, Generator, List, Optional, Tuple

from .core import DomainError, QuadConfig, lockstep, require_above
# eval_H is not called here but stays importable from this module: the CI
# step "Benchmark tracer installs" checks that the tracer wraps zeros.eval_H
from .good import _h_many, eval_H  # noqa: F401
from .quadrature import QuadResult

__all__ = ["ZeroRecord", "find_zeros"]

logger = logging.getLogger(__name__)

_SUBSCAN = 8  # coarse points per bracket when checking for extra sign changes
_ZERO_TOL = 1e-9        # residual |H(x0)| above _ZERO_TOL + err is logged
_BRACKET_WIDTH = 1e-10  # refinement stops once the bracket is this narrow


@dataclass(frozen=True, slots=True)
class ZeroRecord:
    """A refined zero with its confirming bracket and oracle residual.

    Slotted, with the bracket in two float slots that the ``bracket``
    property pairs again, so that a caller who keeps many records holds
    no tuple per record: 72 bytes a record (192 with its five floats).
    ``method`` is the refinement, always Brent's, so a class constant.
    """

    x_zero: float
    bracket_lo: float
    bracket_hi: float
    rho: float
    residual: float
    method: ClassVar[str] = "brent"

    def __post_init__(self) -> None:
        if not self.bracket_lo < self.bracket_hi:
            raise DomainError(f"bracket must be ordered, got {self.bracket}")
        if not self.bracket_lo <= self.x_zero <= self.bracket_hi:
            raise DomainError(f"x_zero {self.x_zero} outside bracket {self.bracket}")

    @property
    def bracket(self) -> Tuple[float, float]:
        return self.bracket_lo, self.bracket_hi


def _brent(a: float, b: float, ha: QuadResult, hb: QuadResult
           ) -> Generator[float, QuadResult, Tuple[float, QuadResult, int, float]]:
    """Refine the sign change of H between a and b by Brent's method.

    A generator: it yields each point where it needs H and receives H
    there, so that many searches can share one oracle batch per step.

    b is the point with the smaller |H| so far, c the other end of the
    bracket [b, c] across the sign change and a the previous b.  A step
    takes the inverse quadratic (or, through two distinct points, secant)
    estimate when it lies inside the bracket and is at most half the step
    before last; otherwise it bisects; it always moves by at least
    ``tol``.  Stops once the bracket is no wider than _BRACKET_WIDTH (or
    4 eps |x| beyond |x| ~ 1e5, where the floats are that sparse) or H is
    exactly 0 at b.  Returns b, the end of the final bracket with the
    smaller |H|, its oracle result, the number of points evaluated and the
    final bracket width.
    """
    c, hc = a, ha
    d = e = b - a
    calls = 0
    while True:
        if abs(hc.value) < abs(hb.value):
            a, b, c = b, c, b
            ha, hb, hc = hb, hc, hb
        tol = max(0.5 * _BRACKET_WIDTH, 2.0 * sys.float_info.epsilon * abs(b))
        m = 0.5 * (c - b)
        if abs(m) <= tol or hb.value == 0.0:
            break
        fa, fb, fc = ha.value, hb.value, hc.value
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, ha = b, hb
        b += d if abs(d) > tol else math.copysign(tol, m)
        hb = yield b
        calls += 1
        if (hb.value > 0.0) == (hc.value > 0.0):
            c, hc = a, ha
            d = e = b - a
    return b, hb, calls, abs(c - b)


def find_zeros(rho: float, x_min: float, x_max: float,
               cfg: Optional[QuadConfig] = None) -> List[ZeroRecord]:
    """Locate zeros of H(., rho) on [x_min, x_max]; see the module docstring."""
    require_above("rho", rho, 0.0)
    require_above("x_min", x_min, 2.0)
    require_above("x_max", x_max, x_min)
    k_lo = math.ceil(x_min - 1.0 / 6.0)
    k_hi = math.floor(x_max - 1.0 / 6.0)
    if k_hi < k_lo:
        raise DomainError(f"no alternation points 1/6 + k inside [{x_min}, {x_max}]")
    # extend one point beyond each end so zeros near the window edges are
    # still bracketed; results are filtered back to [x_min, x_max]
    if 1.0 / 6.0 + (k_lo - 1) > 2.0:
        k_lo -= 1
    k_hi += 1
    grid = [1.0 / 6.0 + k for k in range(k_lo, k_hi + 1)]

    def meets_window(lo: float, hi: float) -> bool:
        return lo <= x_max and x_min <= hi

    values: List[Optional[QuadResult]] = []
    for x, hv in zip(grid, _h_many(grid, rho, cfg)):
        if abs(hv.value) <= 2.0 * hv.err:
            logger.warning("ambiguous sign at x=%s (|H|=%.3e <= 2*err=%.3e); skipped",
                           x, abs(hv.value), 2.0 * hv.err)
            values.append(None)
        else:
            values.append(hv)

    # coarse subscan of every bracket, all in one batch: a point is
    # evaluated only if one of its sub-intervals meets the window
    pairs = [(xa, fa, xb, fb) for (xa, fa), (xb, fb) in pairwise(zip(grid, values))
             if fa is not None and fb is not None]
    subs = [[xa + (xb - xa) * i / _SUBSCAN for i in range(_SUBSCAN + 1)]
            if (fa.value > 0.0) != (fb.value > 0.0) else None for xa, fa, xb, fb in pairs]
    inner = [[t for t0, t, t1 in zip(sub, sub[1:], sub[2:]) if meets_window(t0, t1)]
             if sub else [] for sub in subs]
    scanned = iter(_h_many([t for points in inner for t in points], rho, cfg))

    # every sign change observed in a bracket is refined, all in lockstep;
    # each pair keeps its sign changes (lo, hi), which key the searches, so
    # that the log reads bracket by bracket whatever order the searches end in
    changes: List[Optional[list]] = []
    searches: Dict[Tuple[float, float], Generator] = {}
    for (xa, fa, xb, fb), sub, points in zip(pairs, subs, inner):
        if sub is None:
            changes.append(None)
            continue
        scan = [(xa, fa)] + [(t, next(scanned)) for t in points] + [(sub[-1], fb)]
        here = []
        for (lo, f_lo), (hi, f_hi) in pairwise(scan):
            if (f_lo.value > 0.0) == (f_hi.value > 0.0):
                continue
            here.append((lo, hi))
            if meets_window(lo, hi):
                searches[lo, hi] = _brent(lo, hi, f_lo, f_hi)
        changes.append(here)
    found = lockstep(searches, lambda _, xs: _h_many(xs, rho, cfg))

    records: List[ZeroRecord] = []
    for (xa, _, xb, _), here in zip(pairs, changes):
        if here is None:
            logger.info("no bracket on (%s, %s): same oracle sign", xa, xb)
            continue
        found_here = 0
        for lo, hi in here:
            if (lo, hi) not in found:
                logger.debug("sign change on (%.12g, %.12g) outside [%s, %s]; not refined",
                             lo, hi, x_min, x_max)
                continue
            x0, hv, calls, width = found[lo, hi]
            logger.debug("zero at x=%.12g: %d oracle calls, final bracket width %.3e",
                         x0, calls, width)
            if not x_min <= x0 <= x_max:
                continue
            residual = abs(hv.value)
            if residual > _ZERO_TOL + hv.err:
                logger.warning("residual %.3e above zero_tol+err at x=%.12g", residual, x0)
            records.append(ZeroRecord(x0, xa, xb, rho, residual))
            found_here += 1
        if found_here > 1:
            logger.warning("interval (%s, %s) contains %d zeros", xa, xb, found_here)
    records.sort(key=lambda r: r.x_zero)
    return records
