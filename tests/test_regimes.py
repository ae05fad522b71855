import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from goodfun import (Constants, DomainError, EnvelopeViolated, Integrand, PrecisionError,
                     QuadConfig, RegimeKind, anger_diag_asym, anger_reflected_asym,
                     anger_shifted_asym, classify, corollary_path_main, cubic_tail, eval_H,
                     h_approx, h_asym_large, h_asym_small, i_lambda_asym,
                     i_lambda_oracle, integrate_finite, load_constants, two_term_expansion)
from goodfun import quadrature, regimes
from goodfun.calibrate import good_amplitude_problem
from goodfun.constants import GAMMA_THIRD
from goodfun.core import cos_pi

# cubic-tail values pinned by independent 25-digit rotated-contour quadrature
V_1 = 0.99396795535948065414 + 0.2317768908745141586j
V_6 = 0.69274171773989878034 + 0.25009486236189106268j
V_100 = 0.30081534643599700772 + 0.15633936377889838566j
H_LARGE_6_1 = 0.246162703873882771  # Gamma(1/3)/(3 pi) cos(35 pi/6)
GAMMA_THIRD_OVER_30 = 0.0892979511569249211
CMOD_SCALE_LIMIT = 1.6226514594496686  # 6^(1/3) Gamma(1/3)/3


def test_cubic_tail_at_zero_exact():
    v = cubic_tail(0.0)
    assert v.value == math.pi / 2.0
    assert cmath.phase(v.value) == 0.0 and abs(v.value) == math.pi / 2.0
    assert v.error_estimate == 0.0 and v.method == "asymptotic" and v.converged
    # below lam ~ 4e-52 V is pi/2 within its bound, not a refusal of I(0)
    assert cubic_tail(5e-324).value == math.pi / 2.0


@pytest.mark.parametrize("lam", [5e-324, 1e-320, 1e-306, 1e-100, 1e-52])
def test_cubic_tail_tiny_lambda_within_bound(lam):
    # |V - pi/2| <= 3 (lam/12)^(1/3), from |e^{ia} - 1| <= min(2, |a|)
    v = cubic_tail(lam)
    assert cmath.isfinite(v.value) and 0.0 < v.error_estimate <= 1e-17
    assert abs(v.value - math.pi / 2.0) <= v.error_estimate


@pytest.mark.parametrize("lam,abs_tol", [(1e-310, 1e-12), (1.0, 1e-310), (1.0, 5e-324)])
def test_i_lambda_oracle_refuses_a_cutoff_beyond_binary64(lam, abs_tol):
    # T ~ (log(2/abs_tol)/lam)^(1/3) overflows, or 2/abs_tol does
    with pytest.raises(PrecisionError):
        i_lambda_oracle(lam, QuadConfig(abs_tol=abs_tol))


def test_i_lambda_oracle_tiny_tolerance():
    # eps * 3 * lam underflows to 0 in the ray's cut-off at this tolerance
    lam = 1e-30
    res = i_lambda_oracle(lam, QuadConfig(abs_tol=1e-300))
    assert res.converged and cmath.isfinite(res.value) and math.isfinite(res.err)
    # I(lam) = V(6 lam), within 3 (lam/2)^(1/3) of pi/2
    assert abs(res.value - math.pi / 2.0) <= 3.0 * (lam / 2.0) ** (1.0 / 3.0) + res.err


@pytest.mark.parametrize("lam", [1e30, 1e36, 1e100, 1e300])
def test_i_lambda_oracle_keeps_its_relative_accuracy_at_huge_lambda(lam):
    # the one-term law's rest 1/(3 lam) is ~1e-20 of it and less here
    oracle, law = i_lambda_oracle(lam), i_lambda_asym(lam)
    assert abs(oracle.value - law.value) <= 1e-9 * abs(law.value)
    assert oracle.converged and abs(oracle.value - law.value) <= oracle.err


def test_tail_bounds_hold_where_three_lambda_overflows():
    # 3 lam, and the ray's 3 rate, overflow from lam ~6e307: both bounds read 0 there
    lam = 1e308
    oracle, law = i_lambda_oracle(lam), i_lambda_asym(lam)
    assert law.error_estimate == 1.0 / lam / 3.0 > 0.0
    # the oracle lies ~9.3e-114 from the law, whose rest is ~3e-309
    assert oracle.converged and abs(oracle.value - law.value) <= oracle.err
    # below the overflow every bound keeps its bits
    assert i_lambda_asym(5e307).error_estimate == 1.0 / (3.0 * 5e307)
    assert quadrature._tail(1e300, 1e-100) == math.exp(-1e300 * 1e-300) / (3.0 * 1e300 * 1e-200)


def test_i_lambda_oracle_takes_a_relative_target_below_the_normal_doubles():
    # rel_tol |I| ~ 9e-351 underflows; the tolerance stops at the smallest normal double
    oracle, law = i_lambda_oracle(1e300, QuadConfig(rel_tol=1e-250)), i_lambda_asym(1e300)
    assert oracle.converged and abs(oracle.value - law.value) <= 1e-13 * abs(law.value)


@pytest.mark.parametrize("lam,pin", [(1.0, V_1), (6.0, V_6), (100.0, V_100)])
def test_cubic_tail_pinned_values(lam, pin):
    v = cubic_tail(lam)
    assert abs(v.value - pin) <= max(v.error_estimate, 1e-10)
    assert v.value.real > 0.0
    assert v.method == "oracle" and v.converged


def test_cubic_tail_reconstruction():
    for lam in [0.0, 0.1, 1.0, 6.0, 1e2, 1e4]:
        v = cubic_tail(lam)
        psi = cmath.phase(v.value) / math.pi
        assert abs(v.value - abs(v.value) * cmath.exp(1j * math.pi * psi)) <= 1e-12
        assert v.value.real > 0.0


def test_cubic_tail_large_lambda_trend():
    # |V| lam^(1/3) -> 6^(1/3) Gamma(1/3)/3 and arg(V)/pi -> 1/6
    lams = [1e2, 1e4, 1e6]
    mod_errs, arg_errs = [], []
    for lam in lams:
        v = cubic_tail(lam)
        mod_errs.append(abs(abs(v.value) * lam ** (1 / 3) - CMOD_SCALE_LIMIT))
        arg_errs.append(abs(cmath.phase(v.value) / math.pi - 1.0 / 6.0))
    assert mod_errs[2] < 5e-4 and arg_errs[2] < 1e-3
    assert mod_errs[0] > mod_errs[1] > mod_errs[2]
    assert arg_errs[0] > arg_errs[1] > arg_errs[2]


def test_cubic_tail_psi_arg_continuity():
    lams = np.geomspace(1e-3, 1e4, 40)
    args = [cmath.phase(cubic_tail(float(l)).value) / math.pi for l in lams]
    assert max(abs(b - a) for a, b in zip(args, args[1:])) < 0.2


# tolerances that no tail integral meets within five panels
_STARVED = QuadConfig(abs_tol=1e-20, rel_tol=1e-20, max_panels=5)


@pytest.mark.parametrize("call", [
    lambda cfg: cubic_tail(100.0, cfg),
    lambda cfg: h_asym_small(1e5, 0.1, cfg),
    lambda cfg: h_approx(1e5, 1e-2, cfg),            # CRITICAL_S, s = 0.1
    lambda cfg: corollary_path_main(3.0, 100.0, 0.1, cfg),
], ids=["cubic_tail", "h_asym_small", "h_approx", "corollary_path_main"])
def test_unconverged_cubic_tail_is_passed_on(call):
    assert call(_STARVED).converged is False
    assert call(None).converged is True


def test_cubic_tail_rejects_negative():
    with pytest.raises(DomainError):
        cubic_tail(-1.0)


def test_i_lambda_asym_values():
    r = i_lambda_asym(1000.0)
    assert abs(r.value) == pytest.approx(GAMMA_THIRD_OVER_30, rel=1e-15)
    assert r.error_estimate == pytest.approx(1.0 / 3000.0, rel=1e-15)
    assert cmath.phase(r.value) == pytest.approx(math.pi / 6.0, rel=1e-15)
    assert r.method == "asymptotic" and r.regime is None


@pytest.mark.parametrize("rot", [-regimes._ROT, -1.0, cmath.exp(0.9j * math.pi),
                                 cmath.exp(2j * math.pi / 3.0)])
@pytest.mark.parametrize("lam", [1e-3, 0.05, 1.0, 30.0])
def test_i_lambda_oracle_refuses_a_wrong_rotation(rot, lam, monkeypatch):
    # each puts the denominator's minimum modulus below 1/1.1, so the rotated
    # integrand leaves its envelope exp(-lam t^3) by more than 10% at some t in [0.7, 1]
    monkeypatch.setattr(regimes, "_ROT", rot)
    with pytest.raises(EnvelopeViolated):
        i_lambda_oracle(lam)


# up to 1e300: the ray's cut-off must shrink like lam^(-1/3), or from
# lam ~ 1e20 on every node lands where exp(-lam t^3) underflows
@pytest.mark.parametrize("lam", [1e2] + [10.0 ** k for k in range(3, 301, 9)])
def test_i_lambda_oracle_within_explicit_bound(lam):
    res = i_lambda_oracle(lam)
    law = i_lambda_asym(lam)
    assert res.converged
    assert abs(res.value - law.value) <= law.error_estimate + res.err
    v = cubic_tail(6.0 * lam)  # V(lam) = I(lam/6)
    law = i_lambda_asym(6.0 * lam / 6.0)
    assert v.converged
    assert abs(v.value - law.value) <= law.error_estimate + v.error_estimate


def test_h_asym_large_formula_value():
    r = h_asym_large(6.0, 1.0)
    assert r.value == pytest.approx(H_LARGE_6_1, rel=1e-14)
    assert r.regime.kind is RegimeKind.LARGE_S
    assert r.method == "asymptotic"


def test_h_asym_large_cosine_zeros():
    # cos(pi (x - 1/6)) vanishes at 2/3 + m; the double x nearest it sits
    # delta off, where the law is -(-1)^m P sin(pi delta), |P sin(pi delta)| ~ 1e-15
    for m in [10, 55]:
        x = 2.0 / 3.0 + m
        delta = float(Fraction(x) - Fraction(2, 3) - m)
        expected = -(-1) ** m * (GAMMA_THIRD / (3 * math.pi) * (6 / x) ** (1 / 3)
                                 * math.sin(math.pi * delta))
        assert abs(h_asym_large(x, 1.0).value - expected) < 1e-16


def test_h_asym_large_oracle_comparison():
    x, rho = 1e4, 1.0
    hv = eval_H(x, rho)
    r = h_asym_large(x, rho)
    assert abs(hv.h - r.value) <= r.error_estimate + hv.err


@pytest.mark.parametrize("x", [1e10, 1e12, 1e15])
def test_h_asym_large_oracle_comparison_at_huge_x(x):
    # x - 1/6 rounds at ulp(x) here; the law must reduce x modulo 2 first
    hv = eval_H(x, 1.0)
    r = h_asym_large(x, 1.0)
    assert abs(hv.h - r.value) <= r.error_estimate + hv.err


def test_h_asym_small_tracks_oracle():
    x, rho = 1e4, 1e-3
    hv = eval_H(x, rho)
    r = h_asym_small(x, rho)
    assert abs(hv.h - r.value) <= r.error_estimate + hv.err
    assert r.regime is not None


def test_h_asym_small_critical_point():
    # s = x rho^3 near 0.6 with x moderate: the cubic-tail term carries
    # the value and the remainder stays O(1)
    x = 1e3
    rho = (0.6 / x) ** (1.0 / 3.0)
    hv = eval_H(x, rho)
    r = h_asym_small(x, rho)
    assert 0.59 < r.regime.s < 0.61
    assert abs(hv.h - r.value) <= r.error_estimate + hv.err


def test_h_asym_small_limit_is_case_formula():
    # as s -> 0 the cubic tail tends to pi/2 and the value collapses to
    # (exp(-2 x rho) + cos(pi x))/(2 rho)
    x, rho = 1e3, 1e-5
    r = h_asym_small(x, rho, QuadConfig())
    case = (math.exp(-2 * x * rho) + 1.0) / (2 * rho)  # cos(pi x) = 1, x even
    assert abs(r.value - case) / case < 2e-3


def test_classify_examples():
    assert classify(1e6, 1.0).kind is RegimeKind.LARGE_S
    assert classify(1e6, 1e-4).kind is RegimeKind.SMALL_S_LARGE_U
    assert classify(1e2, 5e-3).kind is RegimeKind.FINITE_U
    assert classify(1.0, 1.0).kind is RegimeKind.FIXED_POINT
    assert classify(1e4, 1e-3).kind is RegimeKind.FINITE_U
    r = classify(1e6, 5e-3)  # s = 0.125, u = 5000
    assert r.kind is RegimeKind.CRITICAL_S
    with pytest.raises(DomainError):
        classify(-1.0, 1.0)


@pytest.mark.parametrize("x,rho", [(10.0 ** 3.5, 0.1), (1e4, 1.0), (1e4, 1e-3)])
def test_a_compare_row_holds_one_regime(x, rho):
    # h_approx, then classify for the row's regime column, as the compare
    # rows are built: both hold one Regime object
    approx = h_approx(x, rho)
    assert classify(x, rho) is approx.regime
    # the same values in other float objects are classified afresh, alike
    again = classify(float(repr(x)), float(repr(rho)))
    assert again == approx.regime and again is not approx.regime


def test_h_asym_large_tags_large_s_outside_its_regime():
    assert classify(1e4, 1e-3).kind is RegimeKind.FINITE_U
    assert h_asym_large(1e4, 1e-3).regime.kind is RegimeKind.LARGE_S


def test_classify_does_not_remember_a_refused_point():
    nan = float("nan")
    for _ in range(2):
        with pytest.raises(DomainError):
            classify(nan, 1.0)


def test_h_approx_routing():
    assert h_approx(1e4, 1.0).regime.kind is RegimeKind.LARGE_S
    small = h_approx(1e4, 1e-3)
    assert small.method == "asymptotic" and small.regime.kind is RegimeKind.FINITE_U
    fixed = h_approx(1.0, 1.0)
    assert fixed.method == "oracle" and fixed.regime is None


@pytest.mark.parametrize("x,rho", [(1.0, 1.0), (2.0, 0.01), (1e4, 1.0), (1e4, 1e-3)])
def test_h_approx_takes_the_callers_oracle(x, rho):
    # a given eval_H value replaces the integral near fixed points and is
    # ignored elsewhere; either way the result is h_approx's own
    assert h_approx(x, rho, oracle=eval_H(x, rho)) == h_approx(x, rho)


@pytest.mark.parametrize("x,rho", [(10.0, 0.3), (1e3, 1.0), (1e4, 1e-3),
                                   (50.0, 0.05), (1.0, 1.0), (2.5, 0.4)])
def test_h_approx_dispatcher_sanity(x, rho):
    hv = eval_H(x, rho)
    r = h_approx(x, rho)
    assert abs(hv.h - r.value) <= r.error_estimate + hv.err


def test_corollary_alpha_2_exact():
    # x = 1e6 is an even integer, cos(pi x) = 1 exactly under mod-2 reduction
    r = corollary_path_main(2.0, 1.0, 1e-3)
    assert r.value == 500.0
    assert r.regime.kind is RegimeKind.SMALL_S_LARGE_U


def test_corollary_alpha_1_eta_zero():
    r = corollary_path_main(1.0, 0.0, 0.125)
    assert r.value == pytest.approx((1.0 + 1.0) / (2.0 * 0.125), rel=1e-15)


def test_corollary_alpha_above_3_matches_large_law():
    x = 1.0 * (1e-2) ** (-4.0)  # the path point as the dispatcher computes it
    r = corollary_path_main(4.0, 1.0, 1e-2)
    expected = h_asym_large(x, 1e-2)
    assert r.value == expected.value
    assert r.error_estimate == expected.error_estimate


def test_corollary_alpha_3_uses_cubic_tail():
    rho = 1e-3
    x = 1.0 * rho ** (-3.0)
    r = corollary_path_main(3.0, 1.0, rho)
    v = cubic_tail(1.0)
    from goodfun.core import cos_pi, sin_pi
    # cos(pi (x - psi)) expanded, each factor reduced exactly modulo 2
    psi = cmath.phase(v.value) / math.pi
    expected = abs(v.value) / (math.pi * rho) * (cos_pi(x) * cos_pi(psi)
                                                 + sin_pi(x) * sin_pi(psi))
    assert r.value == pytest.approx(expected, rel=1e-14)


def test_corollary_below_one():
    rho = 1e-2
    r = corollary_path_main(0.5, 1.0, rho)
    from goodfun.core import cos_pi
    assert r.value == pytest.approx((1.0 + cos_pi(10.0)) / (2 * rho), rel=1e-15)


def test_corollary_domain_errors():
    with pytest.raises(DomainError):
        corollary_path_main(2.0, 1.0, 0.9)  # x = 1.23 <= 2
    with pytest.raises(DomainError):
        corollary_path_main(4.0, 0.0, 1e-2)  # eta = 0 meaningless above 3
    with pytest.raises(DomainError):
        corollary_path_main(-1.0, 1.0, 1e-2)


def test_corollary_refuses_path_point_beyond_binary64():
    # rho**-alpha overflows binary64; the point x is refused, not a crash
    with pytest.raises(DomainError, match="^x must be finite"):
        corollary_path_main(2.0, 1.0, 1e-200)
    with pytest.raises(DomainError, match="^x must be finite"):
        corollary_path_main(0.5, 1e300, 1e-30)  # eta * rho**-alpha overflows


# (x, rho) where C/(x rho^4) leaves binary64: rho**4 overflows; it underflows
# to 0; x rho^4 overflows (an estimate of 0); the quotient overflows
_LARGE_S_BEYOND_BINARY64 = [(3.0, 1e150), (1e305, 1e-100), (1e200, 1e30), (3.0, 1e-78)]


@pytest.mark.parametrize("x, rho", _LARGE_S_BEYOND_BINARY64)
def test_large_law_refuses_a_remainder_beyond_binary64(x, rho):
    with pytest.raises(PrecisionError, match="leaves binary64"):
        h_asym_large(x, rho)


@pytest.mark.parametrize("x, rho", _LARGE_S_BEYOND_BINARY64[:3])
def test_h_approx_refuses_a_large_law_beyond_binary64(x, rho):
    assert classify(x, rho).kind is RegimeKind.LARGE_S  # s >= S_HI or rho >= RHO_CUT
    with pytest.raises(PrecisionError, match="leaves binary64"):
        h_approx(x, rho)


def test_corollary_above_3_refuses_a_remainder_beyond_binary64():
    # x = rho^-3.2 = 1e288, and rho^4 = 1e-360 underflows to 0
    with pytest.raises(PrecisionError, match="leaves binary64"):
        corollary_path_main(3.2, 1.0, 1e-90)


@pytest.mark.parametrize("x, rho", [(3.0, 1e76), (3.0, 1e-77), (1e300, 1e2), (1e4, 2.0)])
def test_large_law_keeps_its_arithmetic_up_to_the_edge(x, rho):
    c = load_constants().c_h_large
    r = h_asym_large(x, rho)
    assert r.error_estimate == c / (x * rho ** 4) and 0.0 < r.error_estimate < math.inf
    assert r.value == (GAMMA_THIRD / (3.0 * math.pi * rho * rho)
                       * cos_pi(math.fmod(x, 2.0) - 1.0 / 6.0) * (6.0 / x) ** (1.0 / 3.0))


# (1e-320, 5e-324): 1/(2 rho) overflows, and the two terms are infinite with
# opposite signs at odd x (a nan); 3e-309 at even x: both terms are finite,
# near 1/(2 rho) each, and their sum overflows
@pytest.mark.parametrize("x, rho", [(3.0, 1e-320), (3.0, 5e-324), (4.0, 3e-309)])
def test_small_law_refuses_1_over_rho_beyond_binary64(x, rho):
    assert classify(x, rho).kind is RegimeKind.FINITE_U
    with pytest.raises(PrecisionError, match="leave binary64"):
        h_asym_small(x, rho)
    with pytest.raises(PrecisionError, match="leave binary64"):
        h_approx(x, rho)


@pytest.mark.parametrize("x, rho", [(3.0, 3e-309), (4.0, 6e-309)])
def test_small_law_keeps_its_arithmetic_up_to_the_edge(x, rho):
    r = h_asym_small(x, rho)
    assert 0.0 <= r.value < math.inf and r.converged


def test_large_law_prefactor_resolution():
    # the doubled prefactor variant is ruled out by the oracle
    x, rho = 1e4, 1.0
    hv = eval_H(x, rho)
    main = h_asym_large(x, rho).value
    assert abs(hv.h - main) < abs(hv.h - 2.0 * main) / 50.0


def test_error_estimates_scale():
    consts = load_constants()
    r = h_asym_large(1e4, 2.0)
    assert r.error_estimate == pytest.approx(consts.c_h_large / (1e4 * 16.0), rel=1e-12)
    r = h_asym_small(1e4, 1e-3)
    assert r.error_estimate >= consts.c_h_small
    # at every constant 1 the error is the remainder scale the calibration divides by
    unit = Constants(1, 1, 1, 1, 1, 1)
    x, rho = 123.25, 0.7
    assert anger_diag_asym(x, unit).error_estimate == pytest.approx(1.0 / x, rel=1e-15)
    assert anger_reflected_asym(x, unit).error_estimate == pytest.approx(1.0 / x, rel=1e-15)
    for k in [0, 1, -2, 5]:
        assert anger_shifted_asym(x, k, unit).error_estimate == pytest.approx(
            (1.0 + abs(k) ** 3) / x, rel=1e-15)
    assert h_asym_large(x, rho, unit).error_estimate == pytest.approx(
        1.0 / (x * rho ** 4), rel=1e-15)
    prob = good_amplitude_problem(rho)
    assert two_term_expansion(prob, x, unit).error_estimate == pytest.approx(
        prob.bounds.total() / x, rel=1e-15)


# measured Im of int_0^inf e^{2 i a t}/(1+t^2) dt, pinned by oscillatory
# high-precision quadrature; the imaginary part is O(1) in the bounded-u
# regime, so only the real-part identity is asserted as a law
POISSON_IM = {0.5: 0.6467611228, 1.0: 0.5159056633, 5.0: 0.1023551772}


@pytest.mark.parametrize("a", [0.5, 1.0, 5.0])
def test_poisson_transform_real_part_and_measured_imaginary(a):
    # by parts, |int_T^inf e^{2 i a t}/(1+t^2) dt| <= 1/(a (1+T^2))
    big_t = 1e3
    g = Integrand(lambda t: np.exp(2j * a * t) / (1.0 + t * t), osc_frequency=2.0 * a)
    res = integrate_finite(g, 0.0, big_t)
    err = res.err + 1.0 / (a * (1.0 + big_t * big_t))
    assert abs(res.value.real - math.pi / 2.0 * math.exp(-2.0 * a)) <= err
    # report the measured imaginary part and pin it as a regression value
    print(f"measured Im at a={a}: {res.value.imag:.10f}")
    assert res.value.imag == pytest.approx(POISSON_IM[a], abs=max(err, 1e-6))
