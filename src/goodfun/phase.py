"""Two-term stationary-phase expansion for a cubic-degenerate endpoint.

For I(x) = int_0^b f(t) exp(i x psi(t)) dt where the phase has a cubic
stationary point at t = 0 in normalized form,

    psi(0) = psi'(0) = psi''(0) = psi''''(0) = 0,   psi'''(0) = 1,
    psi'(t) > 0 on (0, b),

the expansion is

    I(x) = (e^{i pi/6}/3) Gamma(1/3) (6/x)^(1/3) f(0)
         + (e^{i pi/3}/3) Gamma(2/3) (6/x)^(2/3) f'(0)  +  R,

with |R| <= C_engine * B_f / x for x > 2, where B_f is the amplitude
bound package sum(sup|f^(j)|, j=0..2) + int_0^b |f'''|.  The engine is
specialized to this normalization (psi''''(0) = 0 holds for the phases
used in this package); a general phase must be rescaled by the caller.
For x < -2 the expansion is the complex conjugate of the one at |x|.

The hypotheses are asserted numerically by central finite differences
once per problem, when a ``PhaseProblem`` is made, so no expansion of a
problem that fails them exists; the substitution tau(t) = (6 psi(t))^(1/3)
that underlies the result is exposed for testing.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields, replace
from typing import Callable, Optional, Tuple

import numpy as np

from .constants import GAMMA_THIRD, GAMMA_TWO_THIRDS, Constants, get_constants
from .core import (DomainError, EvalResult, HypothesisViolated, require_above,
                   require_at_least)

__all__ = ["AmplitudeBounds", "PhaseProblem", "check_hypotheses",
           "two_term_expansion", "expansion_with_conjugation", "substitution_tau"]

_HYP_TOL = 1e-6


@dataclass(frozen=True)
class AmplitudeBounds:
    """Bound package for the amplitude: sup|f|, sup|f'|, sup|f''|, int|f'''|."""

    sup_f: float
    sup_df: float
    sup_d2f: float
    int_abs_d3f: float

    def __post_init__(self) -> None:
        for f in fields(self):
            require_at_least(f.name, getattr(self, f.name), 0.0)

    def total(self) -> float:
        return self.sup_f + self.sup_df + self.sup_d2f + self.int_abs_d3f


@dataclass(frozen=True)
class PhaseProblem:
    """Amplitude/phase contracts on [0, b].

    ``f`` and ``psi`` must be vectorized callables.  ``psi`` must also be
    evaluable slightly left of 0 (a few finite-difference steps) for the
    hypothesis checks; the phases used in this package are entire, so
    this costs nothing.  ``f_prime0`` is f'(0), supplied by the caller.
    Making a problem runs ``check_hypotheses`` on it, once: a problem
    that fails them raises HypothesisViolated and is never made.
    """

    f: Callable[[np.ndarray], np.ndarray]
    f_prime0: complex
    psi: Callable[[np.ndarray], np.ndarray]
    psi_prime: Callable[[np.ndarray], np.ndarray]
    b: float
    bounds: AmplitudeBounds

    def __post_init__(self) -> None:
        require_above("b", self.b, 0.0)
        check_hypotheses(self)


def _fd_derivatives(psi, scale: float) -> Tuple[float, float, float, float, float]:
    """psi(0) and central-difference psi', psi'', psi''', psi'''' at 0.

    Step sizes grow with the derivative order so that roundoff in the
    difference quotients stays below the 1e-6 check tolerance.
    """
    p0 = float(psi(np.array([0.0]))[0])
    h1 = 6e-6 * scale
    h2 = 1.2e-4 * scale
    h3 = 5e-4 * scale
    h4 = 1.5e-3 * scale

    def at(*ts):
        return psi(np.asarray(ts, dtype=np.float64))

    v = at(-h1, h1)
    d1 = float((v[1] - v[0]) / (2.0 * h1))
    v = at(-h2, 0.0, h2)
    d2 = float((v[2] - 2.0 * v[1] + v[0]) / (h2 * h2))
    v = at(-2 * h3, -h3, h3, 2 * h3)
    d3 = float((v[3] - 2.0 * v[2] + 2.0 * v[1] - v[0]) / (2.0 * h3 ** 3))
    v = at(-2 * h4, -h4, 0.0, h4, 2 * h4)
    d4 = float((v[4] - 4.0 * v[3] + 6.0 * v[2] - 4.0 * v[1] + v[0]) / (h4 ** 4))
    return p0, d1, d2, d3, d4


def check_hypotheses(prob: PhaseProblem) -> None:
    """Raise HypothesisViolated unless the normalized-phase conditions hold to 1e-6."""
    scale = max(1.0, prob.b)
    p0, d1, d2, d3, d4 = _fd_derivatives(prob.psi, scale)
    failures = []
    for name, got, want in (("psi(0)", p0, 0.0), ("psi'(0)", d1, 0.0),
                            ("psi''(0)", d2, 0.0), ("psi'''(0)", d3, 1.0),
                            ("psi''''(0)", d4, 0.0)):
        if abs(got - want) > _HYP_TOL:
            failures.append(f"{name} = {got:.3e}, expected {want}")
    grid = np.linspace(prob.b / 1000.0, prob.b * (1.0 - 1.0 / 1000.0), 999)
    dpsi = np.asarray(prob.psi_prime(grid))
    if np.any(dpsi <= 0.0):
        t_bad = grid[np.argmax(dpsi <= 0.0)]
        failures.append(f"psi'({t_bad:.6g}) = {dpsi[dpsi <= 0.0][0]:.3e} <= 0")
    if failures:
        raise HypothesisViolated("; ".join(failures))


def two_term_expansion(prob: PhaseProblem, x: float,
                       constants: Optional[Constants] = None) -> EvalResult:
    """The expansion at x > 2: its main term, and C_engine * B_f / x as the error."""
    require_above("x", x, 2.0)
    c = get_constants(constants)
    f0 = complex(np.asarray(prob.f(np.array([0.0])))[0])
    main = (cmath.exp(1j * math.pi / 6.0) / 3.0 * GAMMA_THIRD * (6.0 / x) ** (1.0 / 3.0) * f0
            + cmath.exp(1j * math.pi / 3.0) / 3.0 * GAMMA_TWO_THIRDS
            * (6.0 / x) ** (2.0 / 3.0) * prob.f_prime0)
    rest = c.c_phase_engine * prob.bounds.total() / x
    return EvalResult(value=main, error_estimate=rest, method="asymptotic")


def expansion_with_conjugation(prob: PhaseProblem, x: float,
                               constants: Optional[Constants] = None) -> EvalResult:
    """Expansion valid for |x| > 2: at negative x it is the conjugate."""
    if x > 2.0:
        return two_term_expansion(prob, x, constants)
    if x < -2.0:
        res = two_term_expansion(prob, -x, constants)
        return replace(res, value=res.value.conjugate())
    raise DomainError(f"x must satisfy |x| > 2, got {x!r}")


def substitution_tau(psi: Callable[[np.ndarray], np.ndarray], t):
    """tau(t) = (6 psi(t))^(1/3), the diffeomorphism behind the expansion."""
    vals = 6.0 * np.asarray(psi(np.atleast_1d(np.asarray(t, dtype=np.float64))))
    tau = np.cbrt(vals)
    return float(tau[0]) if np.isscalar(t) or np.asarray(t).ndim == 0 else tau
