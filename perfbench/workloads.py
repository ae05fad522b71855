"""The benchmark's workloads: seeded inputs, the operation, and its check.

Each workload draws a fixed *op set* from the seed: a stratified sample
of its input space whose total cost barely depends on the seed.  The timed
loop runs every op of the set, and reports each op at its fastest run, so
every run measures the same mix; the seed only moves points within their
strata.

An operation calls goodfun's public functions through their modules, so
the tracer's wrappers see the calls.  ``check`` runs after the timed
region and returns the failure causes of one op:

raised         the op raised an exception
not_converged  an oracle result carries converged=False
off_reference  the result disagrees with an independent reference
over_claim     an approximation is further from the oracle than it claims

``gross`` marks results that are wrong rather than mis-estimated (an
exception, a value further from the reference than ``GROSS`` times the
sum of the claimed errors, or a reported zero with no sign change); any
gross failure makes the run incorrect.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from goodfun import calibrate as calibrate_mod
from goodfun import constants as constants_mod
from goodfun import good, regimes, zeros
from goodfun.core import QuadConfig

from .reference import h_reference

GROSS = 100.0          # disagreement, in claimed errors, that counts as wrong
ZERO_DELTA = 1e-6      # offset of the sign check around a reported zero
ZERO_DELTA_GROSS = 1e-3


@dataclass
class Outcome:
    causes: List[str] = field(default_factory=list)
    gross: bool = False
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[np.random.Generator], List[tuple]]
    op: Callable[..., object]
    warmup: tuple
    check: Callable[[tuple, object], Outcome]


def _stratified(rng: np.random.Generator, strata: int, per: int) -> np.ndarray:
    """Positions in [0, 1), shape ``(per, strata)``.

    Each stratum gets one point in each of ``per`` equal bins, jittered
    within its bin; the bins come in a seeded order.
    """
    order = np.argsort(rng.random((strata, per)), axis=1)
    return ((order + rng.random((strata, per))) / per).T


def _log_uniform(u: np.ndarray, lo: float, hi: float) -> np.ndarray:
    return 10.0 ** (math.log10(lo) + u * (math.log10(hi) - math.log10(lo)))


# -- compare-wide-x ------------------------------------------------------
_CMP_STRATA = 7            # half-decades of x from 1e2 to 10**5.5
_CMP_PER_STRATUM = 8       # ops per half-decade in the set
_CMP_CFG = QuadConfig()


def _compare_inputs(rng):
    """56 ops: 8 per half-decade of x, ordered as 8 rounds of the 7 strata."""
    k = np.arange(_CMP_STRATA)
    xs = 10.0 ** (2.0 + 0.5 * (k + _stratified(rng, _CMP_STRATA, _CMP_PER_STRATUM)))
    rhos = _log_uniform(_stratified(rng, _CMP_STRATA, _CMP_PER_STRATUM), 1e-3, 2.0)
    return [(float(x), float(r)) for x, r in zip(xs.ravel(), rhos.ravel())]


def compare_row(x: float, rho: float):
    """One row of ``goodfun compare``, built as cli.cmd_compare builds it."""
    consts = constants_mod.get_constants()
    oracle = good.eval_H(x, rho, _CMP_CFG)
    approx = regimes.h_approx(x, rho, _CMP_CFG, consts)
    regime = regimes.classify(x, rho, consts)
    err_actual = abs(oracle.h - approx.value)
    flag = "" if (oracle.converged and approx.converged) else "TOL"
    return oracle, approx, regime, err_actual, flag


def _check_compare(args, result) -> Outcome:
    x, rho = args
    oracle, approx, regime, err_actual, _ = result
    out = Outcome(detail={"regime": regime.kind.value})
    if not (oracle.converged and approx.converged):
        out.causes.append("not_converged")
    ref = h_reference(x, rho)
    ratio = abs(oracle.h - ref.value) / (oracle.err + ref.err)
    out.detail["ref_ratio"] = ratio
    if ratio > 1.0:
        out.causes.append("off_reference")
    claim = err_actual / approx.error_estimate
    out.detail["claim_ratio"] = claim
    if claim > 1.0:
        out.causes.append("over_claim")
    out.gross = ratio > GROSS or claim > GROSS
    return out


# -- zeros-small-x ---------------------------------------------------------
_ZERO_OPS = 19             # x0 in [3, 60] by bins of width 3
_ZERO_WINDOW = 3.0


def _zeros_inputs(rng):
    """19 ops: a Latin hypercube over (x0, log rho), in x0 order."""
    ux = (np.arange(_ZERO_OPS) + rng.random(_ZERO_OPS)) / _ZERO_OPS
    ur = (rng.permutation(_ZERO_OPS) + rng.random(_ZERO_OPS)) / _ZERO_OPS
    x0s = 3.0 + ux * (60.0 - 3.0)
    rhos = _log_uniform(ur, 0.3, 2.0)
    return [(float(r), float(x0), float(x0) + _ZERO_WINDOW) for x0, r in zip(x0s, rhos)]


def find_zeros_op(rho: float, x_min: float, x_max: float):
    # looked up at call time, so the tracer's wrapper is used when installed
    return zeros.find_zeros(rho, x_min, x_max)


def _sign_change(x0: float, rho: float, delta: float) -> bool:
    lo, hi = h_reference(x0 - delta, rho), h_reference(x0 + delta, rho)
    return (abs(lo.value) > lo.err and abs(hi.value) > hi.err
            and (lo.value > 0.0) != (hi.value > 0.0))


def _check_zeros(args, records) -> Outcome:
    rho, x_min, x_max = args
    out = Outcome(detail={"zeros": len(records)})
    for r in records:
        if not x_min <= r.x_zero <= x_max:
            out.causes.append("off_reference")
            out.gross = True
        elif not _sign_change(r.x_zero, rho, ZERO_DELTA):
            out.causes.append("off_reference")
            out.gross = out.gross or not _sign_change(r.x_zero, rho, ZERO_DELTA_GROSS)
    return out


# -- calibrate-quick -------------------------------------------------------
# calibrate(quick=False) takes 8-13 s on the reference machine, so only two
# or three runs fit in a run of the benchmark and its figures follow the
# machine's slow spells; the quick subgrid runs the same sweeps in 0.2-0.35 s.
CONSTANT_NAMES = ("c_anger_diag", "c_anger_reflected", "c_anger_shifted",
                  "c_phase_engine", "c_h_large", "c_h_small")


def _calibrate_inputs(rng):
    return [(True,)]


def calibrate_op(quick: bool):
    return calibrate_mod.calibrate(quick=quick)


def _check_calibrate(args, fresh) -> Outcome:
    """The subgrid's maxima sit at or below the committed ones, within 10x."""
    committed = constants_mod.load_constants()
    out = Outcome()
    exact = 0
    for name in CONSTANT_NAMES:
        q, f = getattr(fresh, name), getattr(committed, name)
        exact += q == f
        if not f / 10.0 <= q <= f * 1.0001:
            out.causes.append("off_reference")
            out.gross = True
    out.detail["constants_exact"] = exact
    return out


WORKLOADS = {
    w.name: w for w in (
        Workload("compare-wide-x",
                 _compare_inputs, compare_row, (10.0 ** 3.5, 0.1), _check_compare),
        Workload("zeros-small-x",
                 _zeros_inputs, find_zeros_op, (1.0, 10.0, 13.0), _check_zeros),
        Workload("calibrate-quick",
                 _calibrate_inputs, calibrate_op, (True,), _check_calibrate),
    )
}


def ops(workload: Workload, seed: int) -> List[tuple]:
    """The workload's op set for ``seed``: a list of op arguments."""
    return workload.inputs(np.random.default_rng(seed))


def check(workload: Workload, args: tuple, result: object,
          error: Optional[BaseException]) -> Outcome:
    if error is not None:
        return Outcome(causes=["raised"], gross=True,
                       detail={"error": f"{type(error).__name__}: {error}"})
    return workload.check(args, result)
