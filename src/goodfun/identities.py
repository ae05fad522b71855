"""Cross-validation identities tying G, Q, H and the Anger function together.

Three independent routes into the same values:

  * the second-order ODE  G'' - rho^2 G = -J_gamma(-x),
  * the Anger-series expansion of G in powers of exp(-2t), t = log(rho + beta),
  * the exact three-term relation expressing Q through G.

Each one is implemented as an operation whose output an oracle evaluation
must match, which is how the test suite uses them.
"""
from __future__ import annotations

import math
from typing import NamedTuple, Optional

from .anger import anger_J
from .core import (DomainError, EvalResult, QuadConfig, require_above,
                   require_at_least, require_finite)
from .good import eval_G

__all__ = ["SeriesSum", "ode_residual", "series_partial_sum", "q_from_g"]


class SeriesSum(NamedTuple):
    value: float
    tail_bound: float


def ode_residual(gamma: float, rho: float, x: float, h_step: float,
                 cfg: Optional[QuadConfig] = None) -> float:
    """Central-difference residual of G'' - rho^2 G + J_gamma(-x) at x.

    Decays like O(h^2) until the quadrature-noise floor O(err/h^2).
    """
    require_above("h_step", h_step, 0.0)
    g = lambda xx: eval_G(gamma, rho, xx, cfg).value
    second = (g(x + h_step) - 2.0 * g(x) + g(x - h_step)) / (h_step * h_step)
    j = anger_J(gamma, -x, cfg).value
    return abs(second - rho * rho * g(x) + j)


def series_partial_sum(gamma: float, rho: float, x: float, K: int,
                       cfg: Optional[QuadConfig] = None) -> SeriesSum:
    """Partial sum of the Anger series for G_{gamma,rho}(x) through even index K.

        G = (1/(rho beta)) ( J_gamma(-x)
              + sum_{k=2,4,...} exp(-k t) (J_{gamma+k}(-x) + J_{gamma-k}(-x)) ),
        beta = sqrt(1 + rho^2), t = log(rho + beta).

    The geometric tail bound uses |J_nu| <= 1 (immediate from the defining
    integral): tail <= (2/(rho beta)) exp(-(K+2) t) / (1 - exp(-2t)).
    Shifted orders gamma - k may be negative; the Anger integral extends
    verbatim.
    """
    if K < 2 or K % 2 != 0:
        raise DomainError(f"K must be an even integer >= 2, got {K}")
    require_above("rho", rho, 0.0)
    require_finite("gamma", gamma)
    require_finite("x", x)
    beta = math.sqrt(1.0 + rho * rho)
    t = math.log(rho + beta)
    total = anger_J(gamma, -x, cfg).value
    for k in range(2, K + 1, 2):
        w = math.exp(-k * t)
        total += w * (anger_J(gamma + k, -x, cfg).value + anger_J(gamma - k, -x, cfg).value)
    tail = 2.0 / (rho * beta) * math.exp(-(K + 2) * t) / (1.0 - math.exp(-2.0 * t))
    return SeriesSum(value=total / (rho * beta), tail_bound=tail)


def q_from_g(gamma: float, xi: float, x: float,
             cfg: Optional[QuadConfig] = None) -> EvalResult:
    """Q_{gamma,xi}(x) assembled from three G evaluations.

        Q_{gamma,xi}(x) = sqrt(1+rho^2) G_{gamma,rho}(x)
                          + (G_{gamma+1,rho}(x) + G_{gamma-1,rho}(x)) / 2,
        rho = sqrt(xi^2 - 1).

    For gamma < 1 the gamma - 1 term has negative order and is evaluated
    directly from the defining integral.
    """
    require_above("xi", xi, 1.0)
    require_at_least("gamma", gamma, 0.0)
    rho = math.sqrt(xi * xi - 1.0)
    g0 = eval_G(gamma, rho, x, cfg)
    gp = eval_G(gamma + 1.0, rho, x, cfg)
    gm = eval_G(gamma - 1.0, rho, x, cfg)
    beta = math.sqrt(1.0 + rho * rho)
    value = beta * g0.value + 0.5 * (gp.value + gm.value)
    err = beta * g0.error_estimate + 0.5 * (gp.error_estimate + gm.error_estimate)
    return EvalResult(value=value, error_estimate=err, method="identity",
                      converged=g0.converged and gp.converged and gm.converged)
