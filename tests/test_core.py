import math

import pytest

from goodfun import (DomainError, EvalResult, NumericalError, QuadConfig, Regime,
                     RegimeKind)
from goodfun.core import cos_pi, sin_pi


def test_quad_config_rejects_nonpositive():
    with pytest.raises(DomainError):
        QuadConfig(abs_tol=0.0)
    with pytest.raises(DomainError):
        QuadConfig(max_panels=0)


def test_regime_diagnostics_consistent():
    # s must equal u*rho^2 to within one rounding
    for x, rho in [(1e5, 1e-4), (3.7, 0.23), (1e3, 7.0)]:
        r = Regime.diagnostics(RegimeKind.LARGE_S, x, rho)
        u = x * rho
        assert r.u == u
        assert math.isclose(r.s, u * rho * rho, rel_tol=3e-16, abs_tol=0.0)


def test_eval_result_validation():
    with pytest.raises(NumericalError):
        EvalResult(value=1.0, error_estimate=float("inf"), method="oracle")
    with pytest.raises(NumericalError):
        EvalResult(value=1.0, error_estimate=-1e-3, method="oracle")
    with pytest.raises(DomainError):
        EvalResult(value=1.0, error_estimate=0.0, method="magic")
    r = Regime.diagnostics(RegimeKind.LARGE_S, 10.0, 1.0)
    with pytest.raises(DomainError):
        EvalResult(value=1.0, error_estimate=0.0, method="oracle", regime=r)
    ok = EvalResult(value=1.0, error_estimate=0.0, method="asymptotic", regime=r)
    assert ok.regime is r


def test_cos_pi_exact_points():
    assert cos_pi(0.0) == 1.0
    assert cos_pi(1.0) == -1.0
    assert cos_pi(2.0) == 1.0
    # exact reduction keeps huge even integers exact
    assert cos_pi(1e6) == 1.0
    assert cos_pi(6.0 - 1.0 / 6.0) == pytest.approx(math.sqrt(3) / 2, rel=1e-15)
    assert abs(cos_pi(0.5)) < 1e-16
    assert abs(cos_pi(1e6 + 0.5)) < 1e-15


def test_sin_pi_exact_points():
    assert sin_pi(0.0) == 0.0
    assert abs(sin_pi(1e6)) == 0.0
    assert sin_pi(0.5) == 1.0
    assert sin_pi(2.5) == 1.0
    assert sin_pi(-0.5) == -1.0


def test_cos_pi_matches_naive_for_moderate_args():
    for x in [0.123, 1.77, -2.9, 17.0 / 3.0]:
        assert cos_pi(x) == pytest.approx(math.cos(math.pi * x), abs=1e-14)
        assert sin_pi(x) == pytest.approx(math.sin(math.pi * x), abs=1e-14)
