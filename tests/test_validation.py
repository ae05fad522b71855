"""Every public entry point refuses a bad parameter with a DomainError naming it."""
import math
import re

import numpy as np
import pytest

from goodfun import (DomainError, Integrand, QuadConfig, anger_J, anger_diag_asym,
                     anger_reflected_asym, anger_shifted_asym, bounds_H, classify,
                     corollary_path_main, cubic_tail, eval_G, eval_H, eval_Q,
                     find_zeros, h_asym_large, h_asym_small, i_lambda_asym,
                     i_lambda_oracle, integrate_tail, q_from_g, series_partial_sum,
                     two_term_expansion)
from goodfun.calibrate import unit_amplitude_problem

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
    (corollary_path_main, {"alpha": 2.0, "eta": 1.0, "rho": 1e-2},
     {"alpha": (0.0, -1.0), "eta": (-1e-3,), "rho": (0.0, -1.0)}),
    (cubic_tail, {"lam": 1.0}, {"lam": (-1.0,)}),
    (i_lambda_oracle, {"lam": 1.0}, {"lam": (0.0, -1.0)}),
    (i_lambda_asym, {"lam": 1.0}, {"lam": (0.0, -1.0)}),
    (integrate_tail, {"g": Integrand(lambda t: np.exp(-t ** 3)), "rate": 1.0},
     {"rate": (0.0, -1.0)}),
    (anger_J, {"nu": 1.0, "x": 10.0}, {"nu": (), "x": ()}),
    (anger_diag_asym, {"x": 10.0}, {"x": (2.0, -10.0)}),
    (anger_reflected_asym, {"x": 10.0}, {"x": (2.0, -10.0)}),
    (anger_shifted_asym, {"x": 10.0, "k": 1},
     {"x": (2.0, -10.0), "k": (10 ** 6 + 1, -(10 ** 6 + 1), 1.5, 0.5)}),
    (two_term_expansion, {"prob": _UNIT, "x": 10.0}, {"x": (2.0, -10.0)}),
    (find_zeros, {"rho": 1.0, "x_min": 10.0, "x_max": 13.0},
     {"rho": (0.0, -1.0), "x_min": (2.0, 1.0), "x_max": (10.0, 9.0)}),
    (q_from_g, {"gamma": 1.0, "xi": 2.0, "x": 1.0},
     {"gamma": (-0.5,), "xi": (1.0, 0.5), "x": ()}),
    (series_partial_sum, {"gamma": 1.0, "rho": 1.0, "x": 1.0, "K": 2},
     {"gamma": (), "rho": (0.0, -1.0), "x": (), "K": (7, 0, 1.5)}),
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


@pytest.mark.parametrize("bad", [30.5, 30.0, "30", math.nan, math.inf])
def test_quad_config_refuses_non_integer_max_panels(bad):
    with pytest.raises(DomainError, match=r"^QuadConfig\.max_panels must"):
        QuadConfig(max_panels=bad)


def test_quad_config_accepts_integer_max_panels():
    assert eval_H(50.0, 1.0, QuadConfig(max_panels=30)).converged is False
