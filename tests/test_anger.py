import math

import numpy as np
import pytest

from goodfun import (DomainError, QuadConfig, anger_J, anger_diag_asym,
                     anger_reflected_asym, anger_shifted_asym, load_constants)
from goodfun import anger, good
from goodfun.constants import GAMMA_THIRD, GAMMA_TWO_THIRDS
from goodfun.good import X_C
from goodfun.quadrature import HotSpot, Integrand, integrate_finite

# pinned by independent high-precision quadrature
J_3p2_1p5 = 0.00555158604922521878
J_1000_1000 = 0.0447306729479640409
J_1001_M1000 = -0.0406311171257063004
DIAG_AT_6 = 0.246162703873882771  # sqrt(3) Gamma(1/3) / (6 pi)


def test_j_at_origin():
    r = anger_J(0.0, 0.0)
    assert abs(r.value - 1.0) <= max(r.error_estimate, 1e-14)


def test_j_half_order_at_zero():
    # int of cos(nu th) gives sin(nu pi)/(nu pi)
    r = anger_J(0.5, 0.0)
    assert abs(r.value - 2.0 / math.pi) <= max(r.error_estimate, 1e-14)


@pytest.mark.parametrize("k", [1, -1, 2, -2, 3, 5])
def test_j_integer_orders_vanish_at_zero(k):
    r = anger_J(float(k), 0.0)
    assert abs(r.value) <= max(r.error_estimate, 1e-13)


def test_j_pinned_values():
    r = anger_J(3.2, 1.5)
    assert abs(r.value - J_3p2_1p5) <= max(r.error_estimate, 1e-13)
    r = anger_J(1000.0, 1000.0)
    assert abs(r.value - J_1000_1000) <= max(r.error_estimate, 1e-12)
    r = anger_J(1001.0, -1000.0)
    assert abs(r.value - J_1001_M1000) <= max(r.error_estimate, 1e-12)


def test_diag_formula_value():
    r = anger_diag_asym(6.0)
    assert r.value == pytest.approx(DIAG_AT_6, rel=1e-15)
    assert r.method == "asymptotic"


def test_diag_power_law_scaling():
    assert anger_diag_asym(6000.0).value == pytest.approx(
        0.1 * anger_diag_asym(6.0).value, rel=1e-14)


def test_diag_oracle_comparison():
    x = 1000.0
    j = anger_J(x, x)
    a = anger_diag_asym(x)
    assert abs(j.value - a.value) <= a.error_estimate + j.error_estimate


def test_reflected_cosine_peaks_and_zeros():
    # cos(pi (x - 1/6)) = 1 at x = 1/6 + 2m exactly
    x = 1.0 / 6.0 + 20.0
    r = anger_reflected_asym(x)
    assert r.value == pytest.approx(GAMMA_THIRD / (3 * math.pi) * (6 / x) ** (1 / 3),
                                    rel=1e-15)
    # cos vanishes at x = 2/3 + m
    r = anger_reflected_asym(2.0 / 3.0 + 9.0)
    assert abs(r.value) < 1e-15


def test_reflected_oracle_comparison():
    x = 1000.0
    j = anger_J(x, -x)
    a = anger_reflected_asym(x)
    assert abs(j.value - a.value) <= a.error_estimate + j.error_estimate


def test_phase_reduced_before_shift_at_huge_x():
    # 1e12 is even, so pi (x - 1/6) = pi/12 and pi (x - 1/3) = -pi/12 modulo
    # 2 pi; forming x - 1/6 first would round at ulp(1e12) ~ 1e-4
    x = 1e12 + 0.25
    t1 = GAMMA_THIRD * (6 / x) ** (1 / 3) * math.cos(math.pi / 12)
    t2 = GAMMA_TWO_THIRDS * (6 / x) ** (2 / 3) * math.sin(-math.pi / 12)
    assert anger_reflected_asym(x).value == pytest.approx(t1 / (3 * math.pi), rel=1e-14)
    assert anger_shifted_asym(x, 1).value == pytest.approx(-(t1 + t2) / (3 * math.pi),
                                                          rel=1e-14)


def test_shifted_k0_reduces_to_reflected():
    for x in [10.5, 123.25]:
        assert anger_shifted_asym(x, 0).value == anger_reflected_asym(x).value


@pytest.mark.parametrize("x,k", [(1000.0, 1), (1000.0, -2), (1000.0, 5)])
def test_shifted_oracle_comparison(x, k):
    j = anger_J(x + k, -x)
    a = anger_shifted_asym(x, k)
    assert abs(j.value - a.value) <= a.error_estimate + j.error_estimate


def test_shifted_odd_even_split():
    # the k-odd term cancels in value(x,k) + value(x,-k)
    x = 357.8
    for k in [1, 2, 5]:
        total = anger_shifted_asym(x, k).value + anger_shifted_asym(x, -k).value
        even = 2.0 * (-1.0) ** k * anger_reflected_asym(x).value
        assert total == pytest.approx(even, rel=1e-13, abs=1e-16)


def test_domain_errors():
    for fn in (anger_diag_asym, anger_reflected_asym):
        with pytest.raises(DomainError):
            fn(2.0)
    with pytest.raises(DomainError):
        anger_shifted_asym(1.5, 1)
    with pytest.raises(DomainError):
        anger_shifted_asym(100.0, 10 ** 6 + 1)


def test_diag_remainder_scaling_trend():
    consts = load_constants()
    xs = [1e2, 1e3, 1e4]
    scaled = [x * abs(anger_J(x, x).value - anger_diag_asym(x).value) for x in xs]
    # bounded by the frozen constant (with its 2x margin) and not growing
    assert max(scaled) <= consts.c_anger_diag
    slope = np.polyfit(np.log(xs), np.log(scaled), 1)[0]
    assert slope <= 0.1
    print(f"diagonal remainder constant over sweep: {max(scaled):.4f}")


def test_shifted_remainder_single_constant():
    consts = load_constants()
    worst = 0.0
    for x in [1e2, 1e3]:
        for k in [0, 1, -1, 2, -2, 5, -5]:
            r = abs(anger_J(x + k, -x).value - anger_shifted_asym(x, k).value)
            worst = max(worst, x * r / (1.0 + abs(k) ** 3))
    assert worst <= consts.c_anger_shifted
    print(f"shifted remainder constant over sweep: {worst:.4f}")


# -- the contour used from |x| = X_C on, near the diagonal ------------------

BAND_CASES = [(s * ax, k) for ax in (1e2, 1e3, 1e4) for s in (1, -1)
              for k in (0, 1, -1, 2, -2, 4, -4) if abs(k) <= ax ** (1.0 / 3.0)]


@pytest.mark.parametrize("x,k", BAND_CASES)
def test_contour_agrees_with_real_axis(x, k):
    nu = abs(x) + k
    c = anger_J(nu, x)
    r = anger._real_axis(nu, x, None)
    assert c.converged and r.converged
    assert abs(c.value - r.value) <= c.error_estimate + r.error_estimate
    assert anger_J(-nu, -x) == c


@pytest.mark.parametrize("k", [0, 2, -4])
@pytest.mark.parametrize("sign", [1, -1])
def test_crossover_is_continuous(k, sign):
    x_below = math.nextafter(X_C, 0.0)
    below = anger_J(X_C + k, sign * x_below)
    at = anger_J(X_C + k, sign * X_C)
    assert below == anger._real_axis(X_C + k, sign * x_below, None)
    # |dJ/dx| <= (1/pi) int_0^pi sin th dth = 2/pi
    step = 2.0 / math.pi * (X_C - x_below)
    assert abs(below.value - at.value) <= below.error_estimate + at.error_estimate + step


def _band_edge(x, side):
    """The order farthest from |x| on ``side`` that the contour still takes."""
    edge = abs(x) ** (1.0 / 3.0)
    nu = abs(x) + side * edge
    while abs(nu - abs(x)) > edge:
        nu = math.nextafter(nu, abs(x))
    while abs(math.nextafter(nu, side * math.inf) - abs(x)) <= edge:
        nu = math.nextafter(nu, side * math.inf)
    return nu


@pytest.mark.parametrize("side", [1, -1])
@pytest.mark.parametrize("x", [1e3, -1e3, 1e4])
def test_band_edge_is_continuous(x, side):
    nu_in = _band_edge(x, side)
    nu_out = math.nextafter(nu_in, side * math.inf)
    inside, outside = anger_J(nu_in, x), anger_J(nu_out, x)
    assert outside == anger._real_axis(nu_out, x, None)
    assert inside != anger._real_axis(nu_in, x, None)
    # |dJ/dnu| <= (1/pi) int_0^pi th dth = pi/2
    step = math.pi / 2.0 * abs(nu_out - nu_in)
    assert abs(inside.value - outside.value) <= (inside.error_estimate
                                                 + outside.error_estimate + step)


@pytest.mark.parametrize("x", [1e5, 1e9])
def test_contour_converges_at_large_x(x):
    for j, law in ((anger_J(x, x), anger_diag_asym(x)),
                   (anger_J(x, -x), anger_reflected_asym(x))):
        assert j.converged
        assert abs(j.value - law.value) <= law.error_estimate + j.error_estimate


@pytest.mark.parametrize("k", [0, 5])
@pytest.mark.parametrize("sign", [1, -1])
def test_contour_cost_does_not_grow_with_x(fevals, sign, k):
    # anchored at 1e5: at smaller x the oscillation cap gives the ray into pi
    # more starting panels, and it can take one split less (330 fevals at
    # x = 1e3 against 345 from 1e5 to 1e15)
    ref = fevals(anger_J, 1e5 + k, sign * 1e5)
    for x in (1e7, 1e9):
        assert 0 < fevals(anger_J, x + k, sign * x) <= ref


def _connector_size(x, k, th):
    return np.abs(np.exp(1j * (x * (th + np.sin(th)) + k * th)))


@pytest.mark.parametrize("side", [1, -1])
@pytest.mark.parametrize("x", [X_C, 1e3, 1e5])
def test_anger_connector_bound_dominates_the_segments(x, side):
    # (1/pi) int |integrand| along P0 -> Q -> P1, with |k| at the band edge
    k = side * x ** (1.0 / 3.0)
    p0, w1 = good._contour_ends(x)
    a0, h0, h1, a1 = p0.real, p0.imag, w1.imag, math.pi + w1.real
    cfg = QuadConfig(abs_tol=1e-300)
    up = integrate_finite(Integrand(lambda b: _connector_size(x, k, a0 + 1j * b),
                                    hot_spots=(HotSpot(h0, h1 - h0),)), h0, h1, cfg)
    across = integrate_finite(Integrand(lambda a: _connector_size(x, k, a + 1j * h1),
                                        hot_spots=(HotSpot(a1, a1 - a0),)), a0, a1, cfg)
    assert up.converged and across.converged
    assert (up.value.real + across.value.real) / math.pi <= good._anger_connector_bound(x, k)


@pytest.mark.parametrize("x", [X_C, 1e3, 1e5, 1e7, 1e9])
def test_anger_connector_bound_is_negligible(x):
    edge = x ** (1.0 / 3.0)
    for k in np.linspace(-edge, edge, 21):
        assert good._anger_connector_bound(x, float(k)) < 1e-3 * QuadConfig().abs_tol


# J_nu(1e4) = J_nu(1e4) of Bessel at these integer orders, by mpmath.angerj
# (and mpmath.besselj) at 40 digits; mpmath is not a dependency
J_9999_1E4 = 0.02164689994397242498145547
J_5000_1E4 = 0.005625455697545729569212818


@pytest.mark.parametrize("nu,ref", [(9999.0, J_9999_1E4), (5000.0, J_5000_1E4)])
def test_real_axis_holds_its_claim_at_large_x(nu, ref):
    # on G7K15 panels of a quarter period the claim was the 50-eps floor,
    # 7.1e-15, for actual errors of 1.5e-14 and 1.8e-14
    r = anger._real_axis(nu, 1e4, None)
    assert r.converged
    assert abs(r.value - ref) <= r.error_estimate


def test_real_axis_converges_off_the_band_at_2e5():
    # the fold's 50 001 G10K21 panels (100 001 on [0, pi]) fit the default
    # budget of 200 000; G7K15 on [0, pi] needed about 300 000, was coarsened
    # to the budget and returned converged=False
    r = anger_J(1e5, 2e5)
    assert r.converged and r.error_estimate < 1e-13
