"""Shared domain types, parameter validation, the result model and the lockstep scheduler.

Every quantity handled by this package is a dimensionless real in binary64;
there is no unit system.  Error estimates are absolute, not relative,
because the function values range over many orders of magnitude (roughly
from ``1/rho**2`` down to ``exp(-2*x*rho)``).

All types here are immutable values and safe to share between threads.
``lockstep`` batches the independent searches of ``zeros`` (Brent's
steps) and ``quadrature`` (refinement rounds), one call per round.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Generator, Hashable, Mapping, Optional, Union

__all__ = [
    "GoodFunError",
    "DomainError",
    "NumericalError",
    "PrecisionError",
    "EnvelopeViolated",
    "HypothesisViolated",
    "QuadConfig",
    "RegimeKind",
    "Regime",
    "EvalResult",
    "require_finite",
    "require_above",
    "require_at_least",
    "require_phase",
    "cos_pi",
    "sin_pi",
    "lockstep",
]


class GoodFunError(Exception):
    """Base class for every error raised by this package."""


class DomainError(GoodFunError, ValueError):
    """A parameter violates its domain constraint; the message names it."""


class NumericalError(GoodFunError, ArithmeticError):
    """A computation produced a non-finite or internally inconsistent value."""


class PrecisionError(GoodFunError):
    """Binary64 cannot honestly represent the requested evaluation."""


class EnvelopeViolated(GoodFunError):
    """A sampled integrand value exceeded its declared decay envelope."""


class HypothesisViolated(GoodFunError):
    """A numerically checked hypothesis of an expansion failed."""


def require_finite(name: str, value: float) -> float:
    """Return ``float(value)``; raise :class:`DomainError` naming it if not finite."""
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


def require_above(name: str, value: float, bound: float) -> float:
    """Return ``float(value)`` if it is finite and > bound strictly."""
    value = require_finite(name, value)
    if not value > bound:
        raise DomainError(f"{name} must be > {bound} strictly, got {value!r}")
    return value


def require_at_least(name: str, value: float, bound: float) -> float:
    """Return ``float(value)`` if it is finite and >= bound."""
    value = require_finite(name, value)
    if not value >= bound:
        raise DomainError(f"{name} must be >= {bound}, got {value!r}")
    return value


def require_phase(what: str, a: float, b: float, length: float) -> None:
    """Raise :class:`PrecisionError` if the phase ``what`` = a*th + b*sin(th) overflows.

    On [0, length] the terms add where a and b share a sign; else each must stay finite.
    """
    ramp = abs(a) * length
    if (ramp + abs(b) if a * b >= 0.0 else max(ramp, abs(b))) == math.inf:
        raise PrecisionError(f"the phase {what} overflows binary64 on [0, {length:.4g}]")


@dataclass(frozen=True, slots=True)
class QuadConfig:
    """Quadrature tolerances and the panel budget.

    abs_tol, rel_tol
        Target absolute / relative error for an integral.
    max_panels
        Hard cap on the number of panels; when hit, results are returned
        with an honest error estimate and ``converged=False``.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_panels: int = 200_000

    def __post_init__(self) -> None:
        if not isinstance(self.max_panels, numbers.Integral):
            raise DomainError(
                f"QuadConfig.max_panels must be an integer, got {self.max_panels!r}")
        for name in ("abs_tol", "rel_tol", "max_panels"):
            require_above(f"QuadConfig.{name}", getattr(self, name), 0.0)


class RegimeKind(Enum):
    """The five asymptotic cases for H(x, rho), keyed by s = x*rho**3 and u = x*rho."""

    LARGE_S = "LARGE_S"                  # s large: x**(-1/3)/rho**2 cosine law
    CRITICAL_S = "CRITICAL_S"            # s of order one: cubic-tail amplitude/phase law
    SMALL_S_LARGE_U = "SMALL_S_LARGE_U"  # s -> 0, u -> infinity: cos(pi x)/(2 rho)
    FINITE_U = "FINITE_U"                # u bounded: (exp(-2u) + cos(pi x))/(2 rho)
    FIXED_POINT = "FIXED_POINT"          # x small: continuity regime, oracle only


@dataclass(frozen=True, slots=True)
class Regime:
    """A regime classification of (x, rho) together with its scaling diagnostics.

    The diagnostics are derived from the caller's x and rho on access, so a
    retained classification holds no numbers of its own.
    """

    kind: RegimeKind
    x: float
    rho: float

    @property
    def u(self) -> float:
        """x * rho."""
        return self.x * self.rho

    @property
    def s(self) -> float:
        """x * rho**3, derived from u so the two diagnostics agree to one rounding."""
        return (self.u * self.rho) * self.rho


_METHODS = ("oracle", "asymptotic", "identity")


@dataclass(frozen=True, slots=True)
class EvalResult:
    """A numeric value with an absolute error estimate and a method tag.

    ``regime`` is only carried by asymptotic results; oracle and identity
    results never have one.
    """

    value: Union[float, complex]
    error_estimate: float
    method: str
    regime: Optional[Regime] = None
    converged: bool = True

    def __post_init__(self) -> None:
        if not (math.isfinite(self.error_estimate) and self.error_estimate >= 0.0):
            raise NumericalError(
                f"error_estimate must be finite and >= 0, got {self.error_estimate!r}"
            )
        if self.method not in _METHODS:
            raise DomainError(f"method must be one of {_METHODS}, got {self.method!r}")
        if self.regime is not None and self.method != "asymptotic":
            raise DomainError("only asymptotic results may carry a regime tag")


def _reduce_mod2(x: float) -> float:
    """x reduced exactly into [-1, 1] modulo 2.

    fmod(x, 2) is exact in binary64, so pi times the result stays accurate
    for huge x where pi*x itself cannot be represented to full precision.
    """
    r = math.fmod(x, 2.0)
    if r > 1.0:
        r -= 2.0
    elif r < -1.0:
        r += 2.0
    return r


def cos_pi(x: float) -> float:
    """cos(pi*x) with exact argument reduction modulo 2."""
    return math.cos(math.pi * _reduce_mod2(x))


def sin_pi(x: float) -> float:
    """sin(pi*x) with exact argument reduction modulo 2."""
    return math.sin(math.pi * _reduce_mod2(x))


def lockstep(tasks: Mapping[Hashable, Generator], answer: Callable[[list, list], list]) -> dict:
    """Run the generators ``tasks`` side by side; return what each returns, by key.

    A task yields a request, is sent the reply, and at last returns its
    result.  Each round makes one ``answer(keys, requests)`` call for the
    tasks not yet done, in the order of ``tasks``, and it returns one
    reply per key, in that order (any other count raises ValueError).  The steps of one task stay sequential; the
    tasks are independent of one another.  A task that returns before it
    yields never reaches ``answer``.
    """
    results, requests = {}, {}

    def send(key: Hashable, reply: object) -> None:
        try:
            requests[key] = tasks[key].send(reply)  # sending None starts a generator
        except StopIteration as stop:
            results[key] = stop.value

    for key in tasks:
        send(key, None)
    while requests:
        keys, asked = list(requests), list(requests.values())
        requests.clear()
        for key, reply in zip(keys, answer(keys, asked), strict=True):
            send(key, reply)
    return results
