"""Zeros of x -> H(x, rho) by sign bracketing at the alternation points.

For large s = x*rho**3 the sign of H(1/6 + k, rho) alternates with k, so
each interval (1/6 + k, 1/6 + k + 1) brackets a zero; asymptotically the
zeros drift toward the cosine zeros at x = m + 2/3.  Brackets are refined
by bisection (the available derivative bound is loose and oracle calls
are cheap, so derivative-based refinement buys nothing).

Grid points whose oracle value is within twice its error estimate are
ambiguous in sign; they are skipped and logged, never forced.  Intervals
without a confirmed sign change are logged as "no bracket".  Uniqueness
inside an interval is observed, not assumed: each bracket is first
scanned on a coarse subgrid and every sign change found is refined (a
multi-zero interval is logged).
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .core import DomainError, QuadConfig, require_above
from .good import eval_H

__all__ = ["ZeroRecord", "find_zeros"]

logger = logging.getLogger(__name__)

_SUBSCAN = 8  # coarse points per bracket when checking for extra sign changes
_ZERO_TOL = 1e-9        # residual |H(x0)| above _ZERO_TOL + err is logged
_BRACKET_WIDTH = 1e-10  # bisection stops once the bracket is this narrow


@dataclass(frozen=True)
class ZeroRecord:
    """A refined zero with its confirming bracket and oracle residual."""

    x_zero: float
    bracket: Tuple[float, float]
    rho: float
    residual: float
    method: str = "bisection"

    def __post_init__(self) -> None:
        lo, hi = self.bracket
        if not lo < hi:
            raise DomainError(f"bracket must be ordered, got {self.bracket}")
        if not lo <= self.x_zero <= hi:
            raise DomainError(f"x_zero {self.x_zero} outside bracket {self.bracket}")


def _bisect(h, lo: float, hi: float, f_lo: float) -> float:
    while hi - lo > _BRACKET_WIDTH:
        mid = 0.5 * (lo + hi)
        f_mid = h(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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

    def h(x: float) -> float:
        return eval_H(x, rho, cfg).h

    values = []
    for x in grid:
        hv = eval_H(x, rho, cfg)
        if abs(hv.h) <= 2.0 * hv.err:
            logger.warning("ambiguous sign at x=%s (|H|=%.3e <= 2*err=%.3e); skipped",
                           x, abs(hv.h), 2.0 * hv.err)
            values.append(None)
        else:
            values.append(hv.h)

    records: List[ZeroRecord] = []
    for (xa, fa), (xb, fb) in zip(zip(grid, values), zip(grid[1:], values[1:])):
        if fa is None or fb is None:
            continue
        if (fa > 0.0) == (fb > 0.0):
            logger.info("no bracket on (%s, %s): same oracle sign", xa, xb)
            continue
        # coarse subscan: refine every sign change observed in the bracket
        sub = [xa + (xb - xa) * i / _SUBSCAN for i in range(_SUBSCAN + 1)]
        fsub = [fa] + [h(t) for t in sub[1:-1]] + [fb]
        found_here = 0
        for i in range(_SUBSCAN):
            if (fsub[i] > 0.0) == (fsub[i + 1] > 0.0):
                continue
            x0 = _bisect(h, sub[i], sub[i + 1], fsub[i])
            if not x_min <= x0 <= x_max:
                continue
            hv = eval_H(x0, rho, cfg)
            residual = abs(hv.h)
            if residual > _ZERO_TOL + hv.err:
                logger.warning("residual %.3e above zero_tol+err at x=%.12g", residual, x0)
            records.append(ZeroRecord(x_zero=x0, bracket=(xa, xb), rho=rho,
                                      residual=residual))
            found_here += 1
        if found_here > 1:
            logger.warning("interval (%s, %s) contains %d zeros", xa, xb, found_here)
    records.sort(key=lambda r: r.x_zero)
    return records
