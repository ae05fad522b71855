import math

import pytest

from goodfun import (DomainError, PrecisionError, QuadConfig, eval_G, eval_Q, ode_residual,
                     q_from_g, series_partial_sum)


def test_ode_residual_small_at_canonical_points():
    assert ode_residual(2.0, 1.0, 1.0, 1e-3) < 1e-4
    assert ode_residual(0.0, 1.0, 0.0, 1e-3) < 1e-4


def test_ode_residual_second_order_decay():
    # residual drops ~100x when h drops 10x, until the quadrature floor
    r1 = ode_residual(2.0, 1.0, 1.0, 1e-1)
    r2 = ode_residual(2.0, 1.0, 1.0, 1e-2)
    assert r2 < r1 / 25.0
    assert r1 / r2 < 400.0


def test_ode_residual_rejects_bad_step():
    with pytest.raises(DomainError):
        ode_residual(1.0, 1.0, 1.0, 0.0)


def _tail_bound(rho, K):
    """The geometric bound on the series terms beyond K, from |J_nu| <= 1.

    (2/(rho beta)) e^{-(K+2) t} / (1 - e^{-2t}) with e^{-t} = 1/(rho + beta)
    and 1 - e^{-2t} = 2 rho/(rho + beta): free of cancellation at every rho.
    """
    beta = math.sqrt(1.0 + rho * rho)
    return (beta + rho) ** -(K + 1) / beta / rho / rho


def test_series_exact_at_origin():
    # every shifted Anger term vanishes at x = 0 for nonzero even order
    s = series_partial_sum(0.0, 1.0, 0.0, 10)
    assert abs(s.value - 1.0 / math.sqrt(2.0)) <= 1e-12
    assert s.method == "identity" and s.converged


def test_series_error_is_tail_plus_anger_errors():
    s = series_partial_sum(2.0, 1.0, 3.0, 10)
    tail = _tail_bound(1.0, 10)
    assert tail <= s.error_estimate <= tail + 1e-12


def test_series_increment_within_tail_bound():
    v1 = series_partial_sum(2.0, 1.0, 3.0, 10).value
    v2 = series_partial_sum(2.0, 1.0, 3.0, 12).value
    assert abs(v2 - v1) <= _tail_bound(1.0, 10) + 1e-12


def test_series_matches_oracle_at_k40():
    s = series_partial_sum(2.0, 1.0, 3.0, 40)
    g = eval_G(2.0, 1.0, 3.0)
    assert abs(s.value - g.value) <= _tail_bound(1.0, 40) + 1e-8


@pytest.mark.parametrize("gamma,rho,x", [(0.0, 1.0, 0.0), (2.0, 1.0, 3.0),
                                         (1.0, 0.6, 2.0), (3.0, 2.0, 5.0),
                                         (2.0, 1.0, 50.0)])
def test_series_cauchy_and_convergent(gamma, rho, x):
    previous = None
    for K in (10, 12, 14, 40):
        value, tail = series_partial_sum(gamma, rho, x, K).value, _tail_bound(rho, K)
        if previous is not None:
            prev_value, prev_tail = previous
            assert abs(value - prev_value) <= prev_tail + 1e-12
        previous = (value, tail)
    g = eval_G(gamma, rho, x)
    assert abs(previous[0] - g.value) <= previous[1] + 2.0 * g.error_estimate + 1e-9


def test_series_small_rho_needs_more_terms():
    # slower geometric decay at rho = 0.3, still convergent
    s = series_partial_sum(1.0, 0.3, 2.0, 60)
    g = eval_G(1.0, 0.3, 2.0)
    assert abs(s.value - g.value) <= _tail_bound(0.3, 60) + 1e-8


def test_series_passes_on_an_unconverged_anger_term():
    # one panel of the fold cannot hold the oscillation of J_4(-1) and
    # J_5(-1): those terms are flagged
    s = series_partial_sum(1.0, 1.0, 1.0, 4, QuadConfig(max_panels=1))
    assert not s.converged
    assert s.error_estimate > _tail_bound(1.0, 4) > 0.0086


def test_series_refuses_a_rho_that_vanishes_beside_one():
    # the tail bound ~1/rho^2 overflows below rho ~ 7.5e-155, and 1/(rho beta)
    # too below ~5.6e-309; rho + beta rounding to 1 (rho <~ 1.1e-16) is no limit
    for rho in (7e-155, 1e-200, 1e-310):
        with pytest.raises(PrecisionError, match=f"rho = {rho!r} is too small"):
            series_partial_sum(0.0, rho, 1.0, 2)
    for rho in (7.5e-155, 1e-100, 1e-16):
        s = series_partial_sum(0.0, rho, 1.0, 2)
        assert math.isfinite(s.value) and math.isfinite(s.error_estimate)
        assert s.error_estimate >= (1.0 - 1e-14) * _tail_bound(rho, 2)


@pytest.mark.parametrize("rho", [1.2e-16, 1e-15])
def test_series_claims_its_tail_bound_at_a_tiny_rho(rho):
    # log(rho + beta) rounds to 2.2e-16 at 1.2e-16 and 1 - exp(-2t) cancels:
    # that bound read 0.54 (0.90 at 1e-15) of the accurate one.  The slack
    # is the rounding of the two forms of the bound, a few ulps.
    s = series_partial_sum(0.0, rho, 1.0, 2)
    assert s.error_estimate >= (1.0 - 1e-14) * _tail_bound(rho, 2)


def test_q_from_g_matches_direct_q():
    r = q_from_g(1.0, math.sqrt(2.0), 2.0)
    q = eval_Q(1.0, math.sqrt(2.0), 2.0)
    assert abs(r.value - q.value) <= 1e-10
    assert r.method == "identity"


def test_q_from_g_closed_form_at_origin():
    r = q_from_g(0.0, 2.0, 0.0)
    assert abs(r.value - 1.0 / math.sqrt(3.0)) <= max(r.error_estimate, 1e-12)


def test_q_from_g_near_singular_xi():
    r = q_from_g(5.0, 1.01, 10.0)
    q = eval_Q(5.0, 1.01, 10.0)
    assert abs(r.value - q.value) <= 10.0 * (r.error_estimate + q.error_estimate)


def test_q_from_g_gamma_below_one_uses_negative_order():
    r = q_from_g(0.5, 1.5, 2.0)
    q = eval_Q(0.5, 1.5, 2.0)
    assert abs(r.value - q.value) <= 1e-10


def test_q_from_g_domain():
    with pytest.raises(DomainError):
        q_from_g(1.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        q_from_g(-1.0, 2.0, 0.0)
