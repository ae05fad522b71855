"""Every public entry point refuses a bad parameter with a DomainError naming it."""
import math
import re

import numpy as np
import pytest

from goodfun import (AmplitudeBounds, DomainError, EvalResult, Integrand, PrecisionError,
                     QuadConfig, anger_J, anger_diag_asym, anger_reflected_asym,
                     anger_shifted_asym, bounds_H, classify, corollary_path_main, cubic_tail,
                     eval_G, eval_H, eval_Q, expansion_with_conjugation, find_zeros, h_approx,
                     h_asym_large, h_asym_small, i_lambda_asym, i_lambda_oracle,
                     integrate_tail, ode_residual, q_from_g, series_partial_sum,
                     two_term_expansion)
from goodfun.calibrate import good_amplitude_problem, unit_amplitude_problem

_UNIT = unit_amplitude_problem()

# (entry point, valid keyword arguments, {parameter: out-of-range values});
# NaN, +inf and -inf are tried for every listed parameter as well
CASES = [
    (eval_H, {"x": 10.0, "rho": 1.0}, {"x": (), "rho": (0.0, -1.0)}),
    (eval_G, {"gamma": 1.0, "rho": 1.0, "x": 10.0},
     {"gamma": (), "rho": (0.0, -1.0), "x": ()}),
    (eval_Q, {"gamma": 1.0, "xi": 2.0, "x": 10.0},
     {"gamma": (-0.5,), "xi": (1.0, 0.5), "x": ()}),
    (bounds_H, {"x": 10.0, "rho": 1.0}, {"x": (), "rho": (0.0, -1.0)}),
    (h_asym_large, {"x": 10.0, "rho": 1.0}, {"x": (2.0, 1.0), "rho": (0.0, -1.0)}),
    (h_asym_small, {"x": 10.0, "rho": 1e-2}, {"x": (0.0, -1.0), "rho": (0.0, -1.0)}),
    (classify, {"x": 10.0, "rho": 1.0}, {"x": (0.0, -1.0), "rho": (0.0, -1.0)}),
    (h_approx, {"x": 10.0, "rho": 1e-2}, {"x": (0.0, -1.0), "rho": (0.0, -1.0)}),
    (corollary_path_main, {"alpha": 2.0, "eta": 1.0, "rho": 1e-2},
     {"alpha": (0.0, -1.0), "eta": (-1e-3,), "rho": (0.0, -1.0)}),
    (cubic_tail, {"lam": 1.0}, {"lam": (-1.0,)}),
    (i_lambda_oracle, {"lam": 1.0}, {"lam": (0.0, -1.0)}),
    # below lam ~ 1.9e-309 the bound 1/(3 lam) overflows
    (i_lambda_asym, {"lam": 1.0}, {"lam": (0.0, -1.0, 1e-309, 5e-324)}),
    (integrate_tail, {"g": Integrand(lambda t: np.exp(-t ** 3)), "rate": 1.0},
     {"rate": (0.0, -1.0)}),
    (anger_J, {"nu": 1.0, "x": 10.0}, {"nu": (), "x": ()}),
    (anger_diag_asym, {"x": 10.0}, {"x": (2.0, -10.0)}),
    (anger_reflected_asym, {"x": 10.0}, {"x": (2.0, -10.0)}),
    (anger_shifted_asym, {"x": 10.0, "k": 1},
     {"x": (2.0, -10.0), "k": (10 ** 6 + 1, -(10 ** 6 + 1), 1.5, 0.5)}),
    (two_term_expansion, {"prob": _UNIT, "x": 10.0}, {"x": (2.0, -10.0)}),
    (expansion_with_conjugation, {"prob": _UNIT, "x": -10.0}, {"x": (2.0, -2.0, 0.0)}),
    (find_zeros, {"rho": 1.0, "x_min": 10.0, "x_max": 13.0},
     {"rho": (0.0, -1.0), "x_min": (2.0, 1.0), "x_max": (10.0, 9.0)}),
    (q_from_g, {"gamma": 1.0, "xi": 2.0, "x": 1.0},
     {"gamma": (-0.5,), "xi": (1.0, 0.5), "x": ()}),
    (ode_residual, {"gamma": 1.0, "rho": 1.0, "x": 1.0, "h_step": 1e-3},
     {"gamma": (), "rho": (0.0, -1.0), "x": (), "h_step": (0.0, -1.0)}),
    (series_partial_sum, {"gamma": 1.0, "rho": 1.0, "x": 1.0, "K": 2},
     {"gamma": (), "rho": (0.0, -1.0), "x": (), "K": (7, 0, 1.5, 4.0)}),
    # takes eval_H's rho rules; rho = 0 divided by zero and rho = -1 gave rho = 1's bounds
    (good_amplitude_problem, {"rho": 1.0}, {"rho": (0.0, -1.0)}),
    (AmplitudeBounds, {"sup_f": 1.0, "sup_df": 0.0, "sup_d2f": 0.0, "int_abs_d3f": 0.0},
     {"sup_f": (-1.0,), "sup_df": (-1.0,), "sup_d2f": (-1.0,), "int_abs_d3f": (-1.0,)}),
]

PARAMS = [
    pytest.param(fn, kwargs, name, bad, id=f"{fn.__name__}-{name}={bad!r}")
    for fn, kwargs, ranges in CASES
    for name, out_of_range in ranges.items()
    for bad in (math.nan, math.inf, -math.inf, *out_of_range)
]


@pytest.mark.parametrize("fn, kwargs, name, bad", PARAMS)
def test_entry_point_refuses_bad_parameter(fn, kwargs, name, bad):
    with pytest.raises(DomainError, match=rf"^\|?{re.escape(name)}\|? must"):
        fn(**{**kwargs, name: bad})


# every other entry point returns a value with its error as an EvalResult
_OTHER_RESULT_TYPES = {eval_H, bounds_H, classify, find_zeros, i_lambda_oracle, integrate_tail,
                       AmplitudeBounds, good_amplitude_problem, ode_residual}


# (entry point, keyword arguments binary64 cannot serve, what the PrecisionError says)
PRECISION_CASES = [
    # h^2 underflows (the difference quotient divided by zero), or is subnormal
    (ode_residual, {"gamma": 1.0, "rho": 1.0, "x": 1.0, "h_step": 1e-170}, "leaves binary64"),
    (ode_residual, {"gamma": 1.0, "rho": 1.0, "x": 1.0, "h_step": 1e-160}, "leaves binary64"),
    # x +- h rounds to x, and G'' read 0
    (ode_residual, {"gamma": 1.0, "rho": 1.0, "x": 1e6, "h_step": 1e-12}, "rounds away"),
    (ode_residual, {"gamma": 1.0, "rho": 1.0, "x": -1e6, "h_step": 1e-11}, "rounds away"),
    # h^2 overflows, and G'' read 0 again
    (ode_residual, {"gamma": 1.0, "rho": 1.0, "x": 1.0, "h_step": 1e300}, "leaves binary64"),
]


@pytest.mark.parametrize("fn, kwargs, what", [
    pytest.param(fn, kwargs, what,
                 id=f"{fn.__name__}-" + ",".join(f"{k}={v!r}" for k, v in kwargs.items()))
    for fn, kwargs, what in PRECISION_CASES
])
def test_entry_point_refuses_what_binary64_cannot_serve(fn, kwargs, what):
    with pytest.raises(PrecisionError, match=what):
        fn(**kwargs)


@pytest.mark.parametrize("fn, kwargs", [
    pytest.param(fn, kwargs, id=fn.__name__)
    for fn, kwargs, _ in CASES if fn not in _OTHER_RESULT_TYPES
])
def test_entry_point_returns_eval_result(fn, kwargs):
    assert isinstance(fn(**kwargs), EvalResult)


@pytest.mark.parametrize("bad", [30.5, 30.0, "30", math.nan, math.inf])
def test_quad_config_refuses_non_integer_max_panels(bad):
    with pytest.raises(DomainError, match=r"^QuadConfig\.max_panels must"):
        QuadConfig(max_panels=bad)


def test_quad_config_accepts_integer_max_panels():
    # x = 90: the fold's G10K21 mesh needs more than 30 panels (at x = 50 it fits)
    assert eval_H(90.0, 1.0, QuadConfig(max_panels=30)).converged is False


@pytest.mark.parametrize("rho", [1e-200, 5e-7])
def test_good_amplitude_problem_refuses_rho_below_the_floor(rho):
    # at 1e-200, rho^2 underflows to 0 and 1/rho^2 divided by zero
    with pytest.raises(PrecisionError, match="rho"):
        good_amplitude_problem(rho)
