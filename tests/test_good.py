import hashlib
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goodfun import (DomainError, PrecisionError, QuadConfig, anger_J, bounds_H,
                     eval_G, eval_H, eval_H_many, eval_Q, h_approx, h_asym_large)
from goodfun import good, quadrature
from goodfun.core import cos_pi, sin_pi
from goodfun.good import RHO_MIN, X_C
from goodfun.identities import q_from_g

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


# the last two sit at rho ~ 1e-3, where calH's fold takes its phase at pi
# under the 1/rho^2 peak and needs it exact (``good._real_fold``)
@pytest.mark.parametrize("x,rho", [(x, rho) for x in (-77.5, 0.5, 3.5, 17.25, 63.0,
                                                      math.nextafter(X_C, 0.0))
                                   for rho in (1e-3, 0.05, 1.0, 2.0)]
                         + [(55.464, 0.001286), (75.667, 0.001417)])
def test_g_on_its_diagonal_matches_the_fold_of_h(x, rho):
    # one fold, two amplitudes: G's real 2 cos P cos M and calH's complex
    # 2 cos M e^{iP}, with their own cosines
    hv = eval_H(x, rho)
    g = eval_G(x, rho, x)
    assert hv.converged and g.converged
    assert abs(hv.h - g.value) <= hv.err + g.error_estimate


# G on its diagonal 3.1e-4 below the odd order 17, at rho = 3.4e-6: the
# fold's halves cancel under the 1/rho^2 peak at u = 0 to ~1e-11 of it.
# Pinned by 30-digit quadrature (mpmath, 45 and 60 digits agree).
G_NEAR_ODD = -16.46165969850036583


def test_g_near_an_odd_order_holds_its_claim():
    # with the phase at pi as cos/sin(pi gamma) factors it read 7.0e-12 off
    # under a claim of 2.2e-13
    x = 16.999690029499867
    r = eval_G(x, 3.430654821215887e-06, x)
    assert r.converged
    assert abs(r.value - G_NEAR_ODD) <= r.error_estimate


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


def _q_unfolded(gamma, xi, x):
    """Q_{gamma,xi}(x) as one integral over the whole of [0, pi], on the fold's rule."""
    def fn(th):
        return np.cos(gamma * th + x * np.sin(th)) / (xi - np.cos(th))

    f = quadrature.Integrand(fn, osc_frequency=0.5 * (gamma + abs(x)),
                             hot_spots=(quadrature.HotSpot(0.0, min(math.sqrt(2 * (xi - 1)), 1)),))
    r = quadrature.integrate_finite(f, 0.0, math.pi, rule=quadrature.G10K21)
    return r.value.real / math.pi, r.err / math.pi


@pytest.mark.parametrize("x", [10.0, 1e3, 1e4])
@pytest.mark.parametrize("gamma,xi", [(0.0, 2.0), (0.0, 1.001), (5.0, 1.5), (50.0, 3.0)])
def test_q_fold_agrees_with_the_unfolded_integral(gamma, xi, x):
    r = eval_Q(gamma, xi, x)
    ref, ref_err = _q_unfolded(gamma, xi, x)
    assert r.converged
    assert abs(r.value - ref) <= r.error_estimate + ref_err


def test_folds_converge_at_1e6_under_the_default_budget():
    # the fold halves the panels of a [0, pi] mesh: Q's 166 668 fit the
    # budget of 200 000, J's 250 000 at |nu| + |x| = 1.5e6 are coarsened to
    # it but keep a claim near their actual error (1.1e-3 unfolded)
    x = 1e6
    q, ref = eval_Q(0.0, 2.0, x), q_from_g(0.0, 2.0, x)
    assert q.converged and ref.converged
    assert abs(q.value - ref.value) <= q.error_estimate + ref.error_estimate
    assert anger_J(x / 2, x).error_estimate < 1e-10


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


def test_bounds_h_refuses_an_underflowing_rho_squared():
    with pytest.raises(PrecisionError, match="underflows"):
        bounds_H(1.0, 1e-170)
    # about the smallest rho whose square is nonzero: the bound on |dH/drho| overflows there
    rho = 1.6e-162
    assert rho * rho > 0.0
    with pytest.raises(PrecisionError, match="overflows"):
        bounds_H(1.0, rho)


# the smallest rho whose bounds are all finite; below it (2/rho) * pi/(2 rho) overflows
_RHO_EDGE = 1.321956475038127e-154


@pytest.mark.parametrize("rho", [1e-160, math.nextafter(_RHO_EDGE, 0.0)])
def test_bounds_h_refuses_an_overflowing_rho_bound(rho):
    with pytest.raises(PrecisionError, match="overflows"):
        bounds_H(1.0, rho)


def test_bounds_h_are_finite_from_the_edge_on():
    b = bounds_H(1.0, _RHO_EDGE)
    assert b.b0 == math.pi / (2.0 * _RHO_EDGE)  # pi/(2 rho) is the bound, as for rho < 2/pi
    assert b.brho == (2.0 / _RHO_EDGE) * b.b0 < math.inf


# the largest rho whose bound on |dH/drho|, 2/rho^3, is a normal double; beyond
# it the bound is subnormal, below its own formula (at 7e107), or 0 (at 1e110)
_RHO_TOP = 4.4794894843556084e102


@pytest.mark.parametrize("rho", [math.nextafter(_RHO_TOP, math.inf), 7e107, 1e110, 1e160])
def test_bounds_h_refuses_an_underflowing_rho_bound(rho):
    with pytest.raises(PrecisionError, match="dH/drho.* underflows"):
        bounds_H(1.0, rho)


def test_bounds_h_are_normal_up_to_the_top_edge():
    b = bounds_H(1.0, _RHO_TOP)
    assert b.b0 == 1.0 / (_RHO_TOP * _RHO_TOP)  # 1/rho^2 is the bound, as for rho > 2/pi
    assert b.brho == (2.0 / _RHO_TOP) * b.b0 >= sys.float_info.min


# from rho ~ 1.34e154 on rho^2 overflows, and the integrals read 0 +- 0,
# though H(5, 1e160) ~ -2.6e-321 is a double
@pytest.mark.parametrize("rho", [1.4e154, 1e160, 1e300])
def test_overflowing_rho_squared_refused_before_any_integral(monkeypatch, rho):
    def no_integral(*args, **kwargs):
        raise AssertionError("an integral ran before rho was refused")

    monkeypatch.setattr(good, "integrate_many", no_integral)
    calls = [lambda: eval_H(5.0, rho), lambda: eval_H(150.0, rho),
             lambda: eval_H_many([5.0, 150.0, -300.0, 50.0], rho),
             lambda: eval_G(2.0, rho, 3.0)]
    for call in calls:
        with pytest.raises(PrecisionError, match=r"rho\^2 overflows"):
            call()


def test_largest_rho_values_keep_their_bits():
    # rho = 1e150, below the rho^2 overflow, on both branches of H and for G
    # (the fold and G on G10K21; their G7K15 values, -0x1.6629905987558p-999
    # + 0x1.039600b92bcc4p-999 i and 0x1.4d58390d427a9p-998, lie within 0.019
    # and 0.030 of these claims)
    near, far = eval_H_many([5.0, 150.0], 1e150)
    g = eval_G(2.0, 1e150, 3.0)
    assert [near.h_complex.real.hex(), near.h_complex.imag.hex(), near.err.hex()] == [
        "-0x1.6629905987559p-999", "0x1.039600b92bcc3p-999", "0x0.00000a6aee244p-1022"]
    # the contour point's error is its rays' plus a connector bound that falls
    # like 1/rho^2, as H does (it read 2^-576 when it fell like 1/rho); on
    # G7K15 rays it read 0x1.cdd9841f7caa8p-1001 - 0x1.0600468f4e1b4p-1001 i
    # +- 0x0.000001e014860p-1022, within 0.0051 of the summed claims
    assert [far.h_complex.real.hex(), far.h_complex.imag.hex(), far.err.hex()] == [
        "0x1.cdd9841f7caa6p-1001", "-0x1.0600468f4e1b3p-1001", "0x0.0000013545bccp-1022"]
    assert [g.value.hex(), g.error_estimate.hex()] == [
        "0x1.4d58390d427abp-998", "0x0.0000042dc2e32p-1022"]
    assert near.converged and far.converged and g.converged


def test_tiny_rho_refused_by_default():
    with pytest.raises(PrecisionError):
        eval_H(1.0, 1e-7)


# -- the complex contour used from |x| = X_C on ------------------------------

def _fold_h(x, rho):
    """calH(x, rho) on the real-axis fold, which eval_H takes below X_C only."""
    r, = good._real_fold([(x, x)], good._calH(rho), (quadrature.HotSpot(0.0, rho),), None)
    return r


@pytest.mark.parametrize("rho", [1e-3, 1e-2, 0.1, 1.0, 2.0])
@pytest.mark.parametrize("x", [1e2, 1e3, 1e4, 1e5])
def test_contour_agrees_with_real_axis(x, rho):
    _, (c,) = good._contours((), [(x, rho)], None)
    r = _fold_h(x, rho)
    assert c.converged and r.converged
    assert abs(c.value - r.value) <= c.err + r.err


@pytest.mark.parametrize("rho", [1e-3, 0.05, 1.0, 2.0])
@pytest.mark.parametrize("x", [X_C, 113.9, 157.25, 201.5, 250.125, 300.0])
def test_fold_agrees_with_the_contour_past_x_c(x, rho):
    r = _fold_h(x, rho)
    _, (c,) = good._contours((), [(x, rho)], None)
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
    assert 0 < fevals(eval_H, 1e7, rho) <= fevals(eval_H, 1e3, rho)


@pytest.mark.parametrize("x", [X_C, 1e3, 1e5, 1e7, 1e9])
def test_connector_bound_is_negligible(x):
    for rho in np.geomspace(RHO_MIN, 100.0, 41):
        assert good._connector_bound(x, float(rho)) < 1e-3 * QuadConfig().abs_tol


def _connector_size(x, rho, th):
    s = np.sin(th)
    return np.abs(np.exp(1j * x * (th + s)) / (rho * rho + s * s))


@pytest.mark.parametrize("rho", [1.0, 10.0, 1e3, 1e22])
@pytest.mark.parametrize("x", [X_C, 1e3, 1e5])
def test_connector_bound_dominates_the_segments(x, rho):
    # (1/pi) int |integrand| along P0 -> Q -> P1, on both sides of the
    # rho at which the bound of the large-rho amplitude takes over
    p0, w1 = good._contour_ends(x)
    a0, h0, h1, a1 = p0.real, p0.imag, w1.imag, math.pi + w1.real
    cfg = QuadConfig(abs_tol=1e-300)
    up = quadrature.integrate_finite(
        quadrature.Integrand(lambda b: _connector_size(x, rho, a0 + 1j * b),
                             hot_spots=(quadrature.HotSpot(h0, h1 - h0),)), h0, h1, cfg)
    across = quadrature.integrate_finite(
        quadrature.Integrand(lambda a: _connector_size(x, rho, a + 1j * h1),
                             hot_spots=(quadrature.HotSpot(a1, a1 - a0),)), a0, a1, cfg)
    assert up.converged and across.converged
    assert (up.value.real + across.value.real) / math.pi <= good._connector_bound(x, rho)


def test_connector_bound_falls_like_h_at_large_rho():
    # like 1/rho^2 once rho^2 - cosh^2(Im P1) bounds the amplitude
    ratios = [good._connector_bound(150.0, rho) * rho * rho for rho in (1e10, 1e20, 1e30)]
    assert ratios[1] == pytest.approx(ratios[0], rel=1e-12)
    assert ratios[2] == pytest.approx(ratios[0], rel=1e-12)
    # it used to claim 7.6e-46 for |H| = 8.4e-46
    hv = eval_H(150.0, 1e22)
    assert hv.converged and 8.4e-46 < abs(hv.h) < 8.5e-46
    assert hv.err < 1e-10 * abs(hv.h)


def _repo_root_on_path():
    """The repository root, importable: ``perfbench`` lives there, beside ``src``."""
    root = str(Path(__file__).resolve().parents[1])
    if root not in sys.path:
        sys.path.insert(0, root)


def _compare_points():
    """The 168 (x, rho) of the benchmark's compare-wide-x sets of seeds 1-3."""
    _repo_root_on_path()
    from perfbench import workloads

    compare = workloads.WORKLOADS["compare-wide-x"]
    return [p for seed in (1, 2, 3) for p in workloads.ops(compare, seed)]


def test_compare_points_keep_their_bits_under_the_large_rho_bound():
    # the 168 eval_H points of the benchmark's compare-wide-x sets of seeds
    # 1-3 (x in [1e2, 10^5.5], rho <= 2), bit for bit as with the connector
    # bound that fell like 1/rho: there that bound is the smaller one.  The
    # G10K21 rays moved each value by at most 0.0070 of the summed claims
    rows = []
    for x, rho in _compare_points():
        hv = eval_H(x, rho)
        rows.append(f"{hv.h_complex.real.hex()} {hv.h_complex.imag.hex()} {hv.err.hex()} "
                    f"{hv.converged}")
    assert len(rows) == 168
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == (
        "ad8bc52e4a3e6401e94556b2eb4b855d2b5676bbc08a415692d43abc95c7d614")


def test_compare_points_keep_their_approx_bits():
    # the approx column of the same 168 points, 117 of them through cubic_tail
    rows = []
    for x, rho in _compare_points():
        a = h_approx(x, rho)
        rows.append(f"{a.value.hex()} {a.error_estimate.hex()} {a.converged}")
    assert len(rows) == 168
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == (
        "3b8cf32f611c2021cb86f337615105ac3c6a94a469646ba60be46fa37cef3bac")


def test_fold_is_within_its_claim_of_the_long_double_reference():
    # perfbench/reference.py integrates H with two Gauss-Legendre rules in
    # long double and shares no code with goodfun.quadrature; on a seeded
    # grid of the fold's range the G10K21 fold must hold its claim against it
    _repo_root_on_path()
    from perfbench.reference import h_reference

    rng = np.random.default_rng(20240523)
    xs = rng.uniform(2.0, 100.0, 120)
    rhos = 10.0 ** rng.uniform(-3.0, math.log10(2.0), 120)
    worst = 0.0
    for x, rho in zip(xs.tolist(), rhos.tolist()):
        hv, ref = eval_H(x, rho), h_reference(x, rho)
        assert hv.converged
        worst = max(worst, abs(hv.h - ref.value) / (hv.err + ref.err))
    assert worst <= 1.0


def test_compare_points_meet_their_target_on_the_first_sweep(monkeypatch):
    # a cost tripwire: the 336 contour rays of the 168 compare points take no
    # refinement round.  On G7K15 at a quarter period they took 143, on
    # G10K21 at the oscillation cap 41
    rounds, real = [], quadrature._rounds

    def counting(*args):
        inner, sent = real(*args), None
        while True:
            try:
                halves = inner.send(sent)
            except StopIteration as stop:
                return stop.value
            rounds.append(len(halves[0]))
            sent = yield halves

    monkeypatch.setattr(quadrature, "_rounds", counting)
    assert all(eval_H(x, rho).converged for x, rho in _compare_points())
    assert len(rounds) == 0


def test_contour_is_within_its_claim_of_the_long_double_reference():
    # as test_fold_is_within_its_claim_of_the_long_double_reference, on a
    # seeded grid of the contour's x in [1e2, 1e4]: the G10K21 rays must
    # hold their claims (the worst point reads 0.059 of its summed claims)
    _repo_root_on_path()
    from perfbench.reference import h_reference

    rng = np.random.default_rng(20261020)
    xs = 10.0 ** rng.uniform(2.0, 4.0, 120)
    rhos = 10.0 ** rng.uniform(-3.0, math.log10(2.0), 120)
    worst = 0.0
    for x, rho in zip(xs.tolist(), rhos.tolist()):
        hv, ref = eval_H(x, rho), h_reference(x, rho)
        assert hv.converged
        worst = max(worst, abs(hv.h - ref.value) / (hv.err + ref.err))
    assert worst <= 1.0


def test_zeros_oracle_is_within_its_claim_of_the_long_double_reference():
    # as test_fold_is_within_its_claim_of_the_long_double_reference, over
    # the same seeded grid, on find_zeros' oracle, which reads H from G's
    # fold: the worst point reads 0.084 of its summed claims (calH's fold 0.055)
    _repo_root_on_path()
    from perfbench.reference import h_reference

    rng = np.random.default_rng(20240523)
    xs = rng.uniform(2.0, 100.0, 120)
    rhos = 10.0 ** rng.uniform(-3.0, math.log10(2.0), 120)
    worst = 0.0
    for x, rho in zip(xs.tolist(), rhos.tolist()):
        (r,), ref = good._h_many([x], rho), h_reference(x, rho)
        assert r.converged
        worst = max(worst, abs(r.value - ref.value) / (r.err + ref.err))
    assert worst <= 1.0


def test_fold_cost_tripwire(fevals):
    # eval_G(5e3, 1, 1e4) is one fold of 2 501 G10K21 panels on its first
    # sweep (7 502 G7K15 panels, 112 530 evaluations, at a quarter period)
    assert fevals(eval_G, 5e3, 1.0, 1e4) == 2501 * 21


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
    # with 30 panels: the G10K21 fold of x = 50 fits its mesh of 26
    coarse = eval_H_many([90.0, -99.0], 1e-3, _MANY_CFGS[2])
    assert not any(hv.converged for hv in coarse)


def _recorded(monkeypatch, name):
    """Record what quadrature.<name> returns, call by call, while it runs as it is."""
    out, real = [], getattr(quadrature, name)

    def recording(*args):
        out.append(real(*args))
        return out[-1]

    monkeypatch.setattr(quadrature, name, recording)
    return out


def _many_is_one_by_one(xs, rho, cfg=None, *logs):
    """Check eval_H_many(xs) against eval_H point by point; the logs as the batch left them."""
    many = eval_H_many(xs, rho, cfg)
    seen = [list(log) for log in logs]
    assert [_bits(hv) for hv in many] == [_bits(eval_H(x, rho, cfg)) for x in xs]
    return seen


def test_fold_points_on_one_layout_share_one_mesh(monkeypatch):
    # 24 fold points 1/8 apart: one ladder and equal segment counts, so the
    # batch's mesh is one lone owner's, copied 24 times
    layouts, meshes = _recorded(monkeypatch, "_layouts"), _recorded(monkeypatch, "_meshes")
    layouts, meshes = _many_is_one_by_one([20.0 + j / 8 for j in range(24)], 0.5, None,
                                          layouts, meshes)
    assert [len(set(keys)) for keys in layouts] == [1]
    assert [len(m[2]) for m in meshes] == [1, 24]  # the layout's mesh, then the batch's


@pytest.mark.parametrize("xs", [[150.0, 300.0, 1e3, 5e3, 2e4], [150.0, 150.0, 1e3]])
def test_contour_rays_of_equal_panel_counts_keep_their_bits(monkeypatch, xs):
    # the rays out of 0 of x = 300 .. 2e4 have 16 panels each on four
    # ladders: one run of equal sizes in _start, on four layouts; a point
    # given twice shares its two rays' layouts
    meshes, = _many_is_one_by_one(xs, 0.5, None, _recorded(monkeypatch, "_meshes"))
    sizes = meshes[-1][2]
    assert len(sizes) == 2 * len(xs) and len(set(sizes)) < len(sizes)


def test_owners_that_refine_out_of_panel_count_order_keep_their_bits(monkeypatch):
    # lockstep must hand the rays to _by_owner in ascending owner order,
    # whatever their panel counts.  On G10K21 only rays into pi still refine
    # at these tolerances: those of x = 7e3, 120, 1e4 and 700 at rho = 0.5,
    # from 3, 5, 3 and 4 panels
    refined, real = [], quadrature._rounds

    def rounds(lo, *args):
        refined.append(len(lo))
        return real(lo, *args)

    monkeypatch.setattr(quadrature, "_rounds", rounds)
    refined, = _many_is_one_by_one([90.0, 7e3, 10.0, 120.0, 60.0, 1e4, 3.0, 700.0, 45.5], 0.5,
                                   QuadConfig(abs_tol=1e-15, rel_tol=1e-14), refined)
    assert len(refined) >= 4 and refined != sorted(refined)


def test_a_batch_longer_than_a_chunk_keeps_its_bits(monkeypatch):
    meshes, = _many_is_one_by_one([88.0 + j / 4 for j in range(12)], 0.5, None,
                                  _recorded(monkeypatch, "_meshes"))
    assert sum(meshes[-1][2]) > quadrature._chunk_panels(quadrature.G10K21)


def test_eval_H_many_checks_rho_once(monkeypatch):
    calls, real = [], good._require_rho
    monkeypatch.setattr(good, "_require_rho", lambda rho: calls.append(rho) or real(rho))
    eval_H_many([3.0, 50.0, 150.0, -1e3], 0.5)
    assert calls == [0.5]


@pytest.mark.parametrize("cap", [1, 20])
def test_eval_H_many_does_not_depend_on_the_batch_size(monkeypatch, cap):
    xs = [1.0 / 6.0 + k / 8.0 for k in range(40)] + [150.0, -3e3]
    expected = [_bits(hv) for hv in eval_H_many(xs, 0.5)]
    monkeypatch.setattr(quadrature, "_CHUNK_NODES", 15 * cap)
    assert [_bits(hv) for hv in eval_H_many(xs, 0.5)] == expected


def test_eval_H_many_makes_one_integrate_call_per_branch(monkeypatch):
    calls, real = [], good.integrate_many

    def counting(fn, spans, cfg=None, **kwargs):
        calls.append(len(spans))
        return real(fn, spans, cfg, **kwargs)

    monkeypatch.setattr(good, "integrate_many", counting)
    near = [0.5, 3.0, -40.0, 99.0]
    eval_H_many(near, 0.3)
    assert calls == [len(near)]  # one fold integral per point
    calls.clear()
    eval_H_many(near + [X_C, -250.0, 1e4], 0.3)
    assert calls == [4, 6]  # then the two contour rays of each point from X_C on


# -- who shares a sweep: integrate_many decides by its owner count ----------

@pytest.fixture
def finite_calls(monkeypatch):
    """The integrate_finite calls made, patched by name in every goodfun module.

    That is how perfbench's tracer wraps it, so these are the integrals the
    tracer sees.
    """
    calls, real = [], quadrature.integrate_finite

    def counting(f, *args, **kwargs):
        calls.append(f)
        return real(f, *args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "goodfun" or name.startswith("goodfun.")):
            for key, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, key, counting)
    return calls


# single-point evaluators: one integrate_many call of one owner (the real-axis
# fold) or of two (the contour rays)
_ONE_POINT = {
    "eval_H fold": lambda cfg: eval_H(50.0, 0.3, cfg),
    "eval_H contour": lambda cfg: eval_H(5825.7, 0.3, cfg),
    "eval_H contour x<0": lambda cfg: eval_H(-250.0, 1e-3, cfg),
    "anger_J contour": lambda cfg: anger_J(1e3, 1e3, cfg),
    "eval_G": lambda cfg: eval_G(2.0, 1.0, 3.0, cfg),
    "eval_Q": lambda cfg: eval_Q(1.0, 2.0, 3.0, cfg),
    "anger_J fold": lambda cfg: anger_J(50.0, 200.0, cfg),
    "eval_H_many fold": lambda cfg: eval_H_many([3.5], 0.5, cfg),
    "eval_H_many contour": lambda cfg: eval_H_many([1e4], 0.5, cfg),
}


@pytest.mark.parametrize("name", sorted(_ONE_POINT))
def test_a_single_point_reaches_integrate_finite_by_name(finite_calls, name):
    _ONE_POINT[name](None)
    assert len(finite_calls) == (2 if "contour" in name else 1)


@pytest.mark.parametrize("xs", [[3.5, -40.0, 60.0], [150.0, -1e4], [0.5, 3.0, 99.0]])
def test_several_points_of_a_branch_share_their_sweeps(finite_calls, xs):
    eval_H_many(xs, 0.5)
    assert finite_calls == []


def test_the_owner_rule_holds_per_branch(finite_calls):
    # one point on each side of X_C: one fold owner, then two contour rays
    eval_H_many([3.5, 250.0], 0.5)
    assert len(finite_calls) == 3


def _result_bits(r):
    if isinstance(r, list):
        return [_bits(hv) for hv in r]
    if hasattr(r, "h_complex"):
        return _bits(r)
    return r.value.hex(), r.error_estimate.hex(), r.converged


@pytest.mark.parametrize("cfg", _MANY_CFGS)
def test_sharing_the_sweeps_of_one_point_moves_no_bit(monkeypatch, finite_calls, cfg):
    # with the threshold at 0 every call shares its sweeps, a single
    # point's two owners too; refinement rounds and coarsened meshes included
    alone = {name: _result_bits(call(cfg)) for name, call in _ONE_POINT.items()}
    finite_calls.clear()
    monkeypatch.setattr(quadrature, "_ALONE_OWNERS", 0)
    shared = {name: _result_bits(call(cfg)) for name, call in _ONE_POINT.items()}
    assert finite_calls == []
    assert shared == alone


def test_zeros_oracle_is_g_below_x_c_and_eval_h_from_it():
    # find_zeros' real oracle on seeded batches that cross X_C: G's fold at
    # gamma = x below it, the real part of eval_H's contour from it on,
    # value, claim and flag bit for bit
    rng = np.random.default_rng(20261021)
    for rho in (10.0 ** rng.uniform(-3.0, math.log10(2.0), 8)).tolist():
        xs = (rng.uniform(2.0, X_C, 4).tolist() + rng.uniform(X_C, 300.0, 4).tolist()
              + _AT_X_C[::2])  # X_C and the double below it
        rng.shuffle(xs)
        got = good._h_many(xs, rho)
        assert len(got) == len(xs)
        for x, r in zip(xs, got):
            if x < X_C:
                g = eval_G(x, rho, x)
                want = g.value, g.error_estimate, g.converged
            else:
                hv = eval_H(x, rho)
                want = hv.h, hv.err, hv.converged
            assert type(r.value) is float
            assert (r.value.hex(), r.err.hex(), r.converged) == (want[0].hex(), want[1].hex(),
                                                                 want[2])


def test_zeros_oracle_validates_as_eval_H_many():
    # one validation path: the first bad point raises what eval_H_many raises
    for xs, rho in [([1.0, math.nan], 1.0), ([150.0, -math.inf], 1.0), ([math.nan, 1.0], 1e-7),
                    ([1.0, 2.0], 1e-7), ([1.0], 0.0)]:
        with pytest.raises(Exception) as many:
            eval_H_many(xs, rho)
        with pytest.raises(many.type, match=re.escape(str(many.value))):
            good._h_many(xs, rho)
    assert good._h_many([], -1.0) == []


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


# The fold integrands of G, Q and J as they were written before _real_fold,
# one closure each, with the phase at th = pi - u as three cosines and sines:
# an independent reference for _real_fold's P +- M form.
def _fold_reference(fn, osc, spots):
    res, = quadrature.integrate_many(fn, [(0.0, math.pi / 2, osc, spots)],
                                     rule=quadrature.G10K21)
    return res.value.real / math.pi, res.err / math.pi, res.converged


def _g_reference(gamma, rho, x):
    rho2, cg, sg = rho * rho, cos_pi(gamma), sin_pi(gamma)

    def fn(u, _k):
        s = np.sin(u)
        w = gamma * u - x * s
        return (np.cos(gamma * u + x * s) + cg * np.cos(w) + sg * np.sin(w)) / (rho2 + s * s)

    return _fold_reference(fn, 0.5 * (abs(gamma) + abs(x)), (quadrature.HotSpot(0.0, rho),))


def _q_reference(gamma, xi, x):
    cg, sg = cos_pi(gamma), sin_pi(gamma)

    def fn(u, _k):
        s, c = np.sin(u), np.cos(u)
        w = gamma * u - x * s
        return (np.cos(gamma * u + x * s) / (xi - c)
                + (cg * np.cos(w) + sg * np.sin(w)) / (xi + c))

    spot = quadrature.HotSpot(0.0, min(math.sqrt(2.0 * (xi - 1.0)), 1.0))
    return _fold_reference(fn, 0.5 * (gamma + abs(x)), (spot,))


def _j_reference(nu, x):
    cn, sn = cos_pi(nu), sin_pi(nu)

    def fn(u, _k):
        s = np.sin(u)
        w = nu * u + x * s
        return np.cos(nu * u - x * s) + cn * np.cos(w) + sn * np.sin(w)

    return _fold_reference(fn, 0.5 * (abs(nu) + abs(x)), ())


def _within_claims(r, ref):
    value, err, converged = ref
    assert r.converged and converged
    assert abs(r.value - value) <= r.error_estimate + err


# _real_fold's P +- M phases round apart from these three-cosine ones: the
# two agree within their summed claims (to 0.026 of them on these points)
@pytest.mark.parametrize("x", [0.5, 10.0, 99.9, 1e3, 1e4])
def test_real_fold_keeps_the_bits_of_each_hand_written_fold(x):
    for rho in (1e-3, 1.0):
        for gamma in (x / 2, -2.0, 2 * x + 0.3):
            _within_claims(eval_G(gamma, rho, x), _g_reference(gamma, rho, x))
    for xi in (1.001, 3.0):
        for gamma in (x / 2, 2 * x + 0.3):  # Q's order is >= 0
            _within_claims(eval_Q(gamma, xi, x), _q_reference(gamma, xi, x))
    for nu in (x / 2, 2 * x):  # off J's band: on the fold at every x
        for sx in (x, -x):
            _within_claims(anger_J(nu, sx), _j_reference(nu, sx))


@pytest.mark.parametrize("arrays", [1, 3])
def test_by_owner_hands_each_function_its_slice_of_every_node_array(arrays):
    def first(*args):
        *nodes, k = args
        return sum(nodes) * 10.0 + k

    def second(*args):
        *nodes, k = args
        return np.prod(nodes, axis=0) - k

    n, rng = 3, np.random.default_rng(7)
    k = np.array([0, 1, 1, 2, 3, 4, 4, 5])
    nodes = [rng.standard_normal(len(k)) for _ in range(arrays)]
    fn = good._by_owner(first, second, n)
    cut = 4  # owners 0-2 are first's, 3-5 second's 0-2
    head, tail = [a[:cut] for a in nodes], [a[cut:] for a in nodes]
    want = np.concatenate([first(*head, k[:cut]), second(*tail, k[cut:] - n)])
    assert np.array_equal(fn(*nodes, k), want)
    # a sweep of one function's owners, and one owner
    assert np.array_equal(fn(*head, k[:cut]), first(*head, k[:cut]))
    assert np.array_equal(fn(*tail, k[cut:]), second(*tail, k[cut:] - n))
    assert np.array_equal(fn(*nodes, 2), first(*nodes, 2))
    assert np.array_equal(fn(*nodes, 4), second(*nodes, 1))
