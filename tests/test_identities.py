import math

import pytest

from goodfun import DomainError, eval_G, eval_Q, ode_residual, q_from_g, series_partial_sum


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


def test_series_exact_at_origin():
    # every shifted Anger term vanishes at x = 0 for nonzero even order
    value, tail = series_partial_sum(0.0, 1.0, 0.0, 10)
    assert abs(value - 1.0 / math.sqrt(2.0)) <= 1e-12


def test_series_increment_within_tail_bound():
    v1, tail1 = series_partial_sum(2.0, 1.0, 3.0, 10)
    v2, _ = series_partial_sum(2.0, 1.0, 3.0, 12)
    assert abs(v2 - v1) <= tail1 + 1e-12


def test_series_matches_oracle_at_k40():
    value, tail = series_partial_sum(2.0, 1.0, 3.0, 40)
    g = eval_G(2.0, 1.0, 3.0)
    assert abs(value - g.value) <= tail + 1e-8


@pytest.mark.parametrize("gamma,rho,x", [(0.0, 1.0, 0.0), (2.0, 1.0, 3.0),
                                         (1.0, 0.6, 2.0), (3.0, 2.0, 5.0),
                                         (2.0, 1.0, 50.0)])
def test_series_cauchy_and_convergent(gamma, rho, x):
    previous = None
    for K in (10, 12, 14, 40):
        value, tail = series_partial_sum(gamma, rho, x, K)
        if previous is not None:
            prev_value, prev_tail = previous
            assert abs(value - prev_value) <= prev_tail + 1e-12
        previous = (value, tail)
    g = eval_G(gamma, rho, x)
    assert abs(previous[0] - g.value) <= previous[1] + 2.0 * g.error_estimate + 1e-9


def test_series_small_rho_needs_more_terms():
    # slower geometric decay at rho = 0.3, still convergent
    value, tail = series_partial_sum(1.0, 0.3, 2.0, 60)
    g = eval_G(1.0, 0.3, 2.0)
    assert abs(value - g.value) <= tail + 1e-8


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
