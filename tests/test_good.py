import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goodfun import (DomainError, PrecisionError, QuadConfig, anger_J, bounds_H,
                     eval_G, eval_H, eval_H_many, eval_Q, h_asym_large)
from goodfun import good, quadrature
from goodfun.good import RHO_MIN, X_C

# pinned by independent high-precision quadrature (30-digit working precision)
G_2_1_3 = 0.339022902852306367
H_100_1 = 0.095635495050592326
Q_1_SQRT2_2 = -0.229464177170282094
Q_5_101_10 = 0.994050701889661521


def closed_form_h0(rho: float) -> float:
    return 1.0 / (rho * math.sqrt(1.0 + rho * rho))


@pytest.mark.parametrize("rho", [1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0])
def test_h_at_zero_closed_form(rho):
    hv = eval_H(0.0, rho)
    assert hv.converged
    assert abs(hv.h - closed_form_h0(rho)) <= 1e-10


@pytest.mark.parametrize("x,rho", [(3.5, 0.7), (1e3, 1.0)])
def test_h_equals_g_on_diagonal(x, rho):
    hv = eval_H(x, rho)
    g = eval_G(x, rho, x)
    assert abs(hv.h - g.value) <= hv.err + g.error_estimate + 1e-13


def test_g_pinned_value_and_magnitude_bound():
    r = eval_G(2.0, 1.0, 3.0)
    assert abs(r.value - G_2_1_3) <= max(r.error_estimate, 1e-12)
    # Lemma-style bound min(1/rho^2, pi/(2 rho)) with |cos| <= 1
    assert abs(r.value) <= 1.0


def test_g_rejects_invalid_params():
    with pytest.raises(DomainError):
        eval_G(0.0, -1.0, 0.0)


def test_g_any_order_matches_reflection():
    # negative order is the analytic extension used by the Q-G relation
    r = eval_G(-1.0, math.sqrt(3.0), 0.0)
    r2 = eval_G(1.0, math.sqrt(3.0), 0.0)
    assert abs(r.value - r2.value) <= r.error_estimate + r2.error_estimate + 1e-14


def test_q_closed_forms():
    r = eval_Q(0.0, 2.0, 0.0)
    assert abs(r.value - 1.0 / math.sqrt(3.0)) <= max(r.error_estimate, 1e-12)
    xi = 1e6
    r = eval_Q(0.0, xi, 0.0)
    assert abs(r.value - 1.0 / math.sqrt(xi * xi - 1.0)) <= max(r.error_estimate, 1e-15)


def test_q_pinned_values():
    r = eval_Q(1.0, math.sqrt(2.0), 2.0)
    assert abs(r.value - Q_1_SQRT2_2) <= max(r.error_estimate, 1e-12)
    r = eval_Q(5.0, 1.01, 10.0)
    assert abs(r.value - Q_5_101_10) <= max(r.error_estimate, 1e-11)


def test_q_requires_xi():
    with pytest.raises(DomainError, match="xi"):
        eval_Q(0.0, 1.0, 0.0)


def test_q_refuses_xi_below_the_rho_floor():
    # xi - cos th rounds at ~1e-16 against a peak of width xi - 1: q_from_g's
    # floor sqrt(xi^2 - 1) >= RHO_MIN applies to the direct oracle as well
    with pytest.raises(PrecisionError, match="xi"):
        eval_Q(0.0, 1.0 + 1e-13, 0.0)
    xi = 1.0 + 1e-12
    r = eval_Q(0.0, xi, 0.0)
    assert abs(r.value - 1.0 / math.sqrt((xi - 1.0) * (xi + 1.0))) <= r.error_estimate


def test_h_pinned_value():
    hv = eval_H(100.0, 1.0)
    assert abs(hv.h - H_100_1) <= max(hv.err, 1e-12)


def test_h_complex_relation():
    hv = eval_H(7.3, 0.4)
    assert hv.h == hv.h_complex.real


def test_h_parity_examples():
    a = eval_H(-5.0, 0.3)
    b = eval_H(5.0, 0.3)
    assert abs(a.h - b.h) <= 2.0 * max(a.err, b.err) + 1e-14


@settings(max_examples=25, deadline=None)
@given(x=st.floats(-50.0, 50.0), rho=st.floats(0.05, 10.0))
def test_h_parity_property(x, rho):
    a = eval_H(x, rho)
    b = eval_H(-x, rho)
    assert abs(a.h - b.h) <= a.err + b.err + 1e-13


@pytest.mark.parametrize("rho", [1e-3, 1e-2, 0.1, 1.0, 10.0])
@pytest.mark.parametrize("x", [0.0, 1.0, 10.0, 1e2, 1e3, 1e4])
def test_h_magnitude_bound_grid(rho, x):
    hv = eval_H(x, rho)
    assert abs(hv.h) <= bounds_H(x, rho).b0 + hv.err


@settings(max_examples=20, deadline=None)
@given(x=st.floats(-20.0, 20.0), x0=st.floats(-20.0, 20.0),
       rho=st.floats(0.05, 5.0))
def test_h_lipschitz_in_x(x, x0, rho):
    # Lipschitz constant = the derivative bound pi * min(1/rho^2, pi/(2 rho));
    # the bare min-formula is violated, e.g. at (x, x0, rho) = (0, 0.75, 1)
    a, b = eval_H(x, rho), eval_H(x0, rho)
    lip = bounds_H(x, rho).bx
    assert abs(a.h - b.h) <= lip * abs(x - x0) + 2.0 * (a.err + b.err) + 1e-13


@settings(max_examples=20, deadline=None)
@given(x=st.floats(-20.0, 20.0), rho0=st.floats(0.05, 5.0),
       factor=st.floats(1.001, 3.0))
def test_h_lipschitz_in_rho(x, rho0, factor):
    rho = rho0 * factor
    a, b = eval_H(x, rho), eval_H(x, rho0)
    lip = min((rho + rho0) / (rho * rho0), math.pi) * (rho - rho0) / (rho0 * rho)
    assert abs(a.h - b.h) <= lip + 2.0 * (a.err + b.err) + 1e-13


@pytest.mark.parametrize("rho", [2.0, 10.0])
@pytest.mark.parametrize("x0", [0.0, 2.0, 10.0])
def test_h_anger_comparison(rho, x0):
    # large-rho comparison with the Anger function, remainder <= rho^-4
    hv = eval_H(x0, rho)
    j = anger_J(x0, -x0)
    lhs = abs(hv.h - j.value / (rho * rho))
    assert lhs <= rho ** -4 + 2.0 * (hv.err + j.error_estimate)


def test_bounds_h_formulas():
    b = bounds_H(0.0, 2.0)
    assert b.b0 == 0.25 and b.bx == math.pi * 0.25 and b.brho == 0.25
    b = bounds_H(5.0, 1.0)
    assert b.b0 == 1.0 and b.bx == math.pi and b.brho == 2.0
    # crossover: both branches agree at rho = pi/2
    b = bounds_H(0.0, math.pi / 2.0)
    assert b.b0 == pytest.approx(4.0 / math.pi ** 2, rel=1e-15)


def test_tiny_rho_refused_by_default():
    with pytest.raises(PrecisionError):
        eval_H(1.0, 1e-7)


# -- the complex contour used from |x| = X_C on ------------------------------

@pytest.mark.parametrize("rho", [1e-3, 1e-2, 0.1, 1.0, 2.0])
@pytest.mark.parametrize("x", [1e2, 1e3, 1e4, 1e5])
def test_contour_agrees_with_real_axis(x, rho):
    c, = good._contour([x], rho, None)
    r, = good._real_axis([x], rho, None)
    assert c.converged and r.converged
    assert abs(c.value - r.value) <= c.err + r.err


@pytest.mark.parametrize("x", [3e5, 1e9])
def test_contour_converges_at_large_x(x):
    hv = eval_H(x, 1.0)
    assert hv.converged
    law = h_asym_large(x, 1.0)
    assert abs(hv.h - law.value) <= law.error_estimate + hv.err


@pytest.mark.parametrize("x", [sys.float_info.max, -sys.float_info.max, 1.7e308, -1.7e308])
def test_contour_at_the_largest_floats(x):
    # x is an even integer here, so the large-s law's cos(pi (x - 1/6)) is
    # cos(pi/6); h_asym_large itself loses that phase at such x
    hv = eval_H(x, 1.0)
    law = (math.gamma(1.0 / 3.0) / (3.0 * math.pi) * math.cos(math.pi / 6.0)
           * (6.0 / abs(x)) ** (1.0 / 3.0))
    assert hv.converged and math.isfinite(hv.h) and math.isfinite(hv.err)
    assert abs(hv.h - law) <= hv.err
    # err is dominated by abs_tol, far above |H| ~ 1e-103: check the digits too
    assert abs(hv.h - law) <= 1e-6 * law
    # no term of the connector bound overflows to a silent zero
    assert good._connector_bound(abs(x), 1.0) == pytest.approx(good._connector_bound(1e300, 1.0))


@settings(max_examples=20, deadline=None)
@given(x=st.floats(X_C, 1e7), rho=st.floats(1e-3, 10.0))
def test_contour_parity(x, rho):
    a, b = eval_H(-x, rho), eval_H(x, rho)
    assert a.h == b.h
    assert a.h_complex == b.h_complex.conjugate()
    assert a.err == b.err and a.converged and b.converged


@pytest.mark.parametrize("rho", [1e-3, 0.1, 1.0, 10.0])
def test_crossover_is_continuous(rho):
    below = eval_H(math.nextafter(X_C, 0.0), rho)
    at = eval_H(X_C, rho)
    step = X_C - math.nextafter(X_C, 0.0)
    assert abs(below.h - at.h) <= below.err + at.err + bounds_H(X_C, rho).bx * step


@pytest.mark.parametrize("rho", [1e-3, 1.0])
def test_contour_cost_does_not_grow_with_x(fevals, rho):
    assert fevals(eval_H, 1e7, rho) <= fevals(eval_H, 1e3, rho)


@pytest.mark.parametrize("x", [X_C, 1e3, 1e5, 1e7, 1e9])
def test_connector_bound_is_negligible(x):
    for rho in np.geomspace(RHO_MIN, 100.0, 41):
        assert good._connector_bound(x, float(rho)) < 1e-3 * QuadConfig().abs_tol


# -- eval_H_many: many points in shared quadrature sweeps ---------------------

def _bits(hv):
    return hv.h_complex.real.hex(), hv.h_complex.imag.hex(), hv.err.hex(), hv.converged


# default tolerances; tight ones, so that owners go on into the refinement
# loop; and a panel budget so small that meshes coarsen (converged=False)
_MANY_CFGS = [None, QuadConfig(abs_tol=1e-15, rel_tol=1e-14), QuadConfig(max_panels=30)]
_AT_X_C = [X_C, -X_C, math.nextafter(X_C, 0.0), -math.nextafter(X_C, 0.0)]


@settings(max_examples=30, deadline=None)
@given(xs=st.lists(st.one_of(st.floats(-3.0 * X_C, 3.0 * X_C), st.sampled_from(_AT_X_C)),
                   max_size=8),
       rho=st.floats(RHO_MIN, 2.0), cfg=st.sampled_from(_MANY_CFGS))
def test_eval_H_many_is_eval_H_bit_for_bit(xs, rho, cfg):
    many = eval_H_many(xs, rho, cfg)
    assert [_bits(hv) for hv in many] == [_bits(eval_H(x, rho, cfg)) for x in xs]


def test_eval_H_many_covers_refinement_and_coarsening():
    # the cases the property test samples, pinned: both branches and both
    # signs of x, refined owners (tight tolerances) and coarsened meshes
    xs = [3.5, -40.0, 99.0, X_C, -250.0, 1e4]
    for cfg in _MANY_CFGS[1:]:
        many = eval_H_many(xs, 1e-3, cfg)
        assert [_bits(hv) for hv in many] == [_bits(eval_H(x, 1e-3, cfg)) for x in xs]
    coarse = eval_H_many([50.0, -99.0], 1e-3, _MANY_CFGS[2])
    assert not any(hv.converged for hv in coarse)


@pytest.mark.parametrize("cap", [1, 20])
def test_eval_H_many_does_not_depend_on_the_batch_size(monkeypatch, cap):
    xs = [1.0 / 6.0 + k / 8.0 for k in range(40)] + [150.0, -3e3]
    expected = [_bits(hv) for hv in eval_H_many(xs, 0.5)]
    monkeypatch.setattr(quadrature, "_BATCH_PANELS", cap)
    assert [_bits(hv) for hv in eval_H_many(xs, 0.5)] == expected


def test_eval_H_many_validates_every_point_first(monkeypatch):
    assert eval_H_many([], 1.0) == []
    assert eval_H_many([], -1.0) == []  # like [eval_H(x, -1.0) for x in []]

    def no_integral(*args, **kwargs):
        raise AssertionError("an integral ran before the last point was validated")

    monkeypatch.setattr(good, "integrate_many", no_integral)
    with pytest.raises(DomainError, match="^x"):
        eval_H_many([1.0, 2.0, math.nan], 1.0)
    with pytest.raises(DomainError, match="^x"):
        eval_H_many([150.0, -math.inf], 1.0)
    # the first point's own checks come first, as in eval_H(x, rho)
    with pytest.raises(DomainError, match="^x"):
        eval_H_many([math.nan, 1.0], 1e-7)
    with pytest.raises(PrecisionError):
        eval_H_many([1.0, math.nan], 1e-7)
    with pytest.raises(DomainError, match="^rho"):
        eval_H_many((x for x in [1.0, 2.0]), 0.0)
