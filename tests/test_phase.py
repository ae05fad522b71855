import cmath
import math

import numpy as np
import pytest

from goodfun import (AmplitudeBounds, DomainError, HotSpot, HypothesisViolated,
                     Integrand, PhaseProblem, anger_diag_asym,
                     anger_shifted_asym, check_hypotheses,
                     expansion_with_conjugation, integrate_finite,
                     substitution_tau, two_term_expansion)
from goodfun import good
from goodfun.calibrate import good_amplitude_problem
from goodfun.core import cos_pi, sin_pi
from goodfun.good import X_C

# int_0^pi e^{i x (t - sin t)} dt at x = 1000, pinned independently
I_UNIT_1000 = 0.1405255535234515 + 0.0807326791282716j
TAU_AT_PI = 2.66134007898293758  # (6 pi)^(1/3)


def unit_problem(b=math.pi):
    return PhaseProblem(
        f=lambda t: np.ones_like(t, dtype=float), f_prime0=0.0,
        psi=lambda t: t - np.sin(t), psi_prime=lambda t: 1.0 - np.cos(t),
        b=b, bounds=AmplitudeBounds(1.0, 0.0, 0.0, 0.0))


def exp_problem(k: int, b=math.pi):
    return PhaseProblem(
        f=lambda t: np.exp(1j * k * t), f_prime0=1j * k,
        psi=lambda t: t - np.sin(t), psi_prime=lambda t: 1.0 - np.cos(t),
        b=b, bounds=AmplitudeBounds(1.0, abs(k), k * k, math.pi * abs(k) ** 3))


def test_hypotheses_pass_for_canonical_phase():
    check_hypotheses(unit_problem())


def test_hypotheses_reject_quadratic_stationary_point():
    with pytest.raises(HypothesisViolated, match="psi"):
        PhaseProblem(
            f=lambda t: np.ones_like(t, dtype=float), f_prime0=0.0,
            psi=lambda t: t * t, psi_prime=lambda t: 2.0 * t,
            b=1.0, bounds=AmplitudeBounds(1.0, 0.0, 0.0, 0.0))


def test_hypotheses_reject_nonzero_fourth_derivative():
    with pytest.raises(HypothesisViolated, match="''''"):
        PhaseProblem(
            f=lambda t: np.ones_like(t, dtype=float), f_prime0=0.0,
            psi=lambda t: t - np.sin(t) + t ** 4 / 24.0,
            psi_prime=lambda t: 1.0 - np.cos(t) + t ** 3 / 6.0,
            b=1.0, bounds=AmplitudeBounds(1.0, 0.0, 0.0, 0.0))


def test_hypotheses_reject_nonmonotone_phase():
    with pytest.raises(HypothesisViolated, match="<= 0"):
        PhaseProblem(
            f=lambda t: np.ones_like(t, dtype=float), f_prime0=0.0,
            psi=lambda t: t - np.sin(t), psi_prime=lambda t: -np.ones_like(t),
            b=math.pi, bounds=AmplitudeBounds(1.0, 0.0, 0.0, 0.0))


def test_substitution_tau_near_zero():
    psi = lambda t: t - np.sin(t)
    t = 1e-3
    assert abs(substitution_tau(psi, t) / t - 1.0) <= 1e-6


def test_substitution_tau_at_pi():
    psi = lambda t: t - np.sin(t)
    assert substitution_tau(psi, math.pi) == pytest.approx(TAU_AT_PI, rel=1e-15)


def test_substitution_tau_monotone():
    psi = lambda t: t - np.sin(t)
    grid = np.linspace(0.0, math.pi, 1001)
    tau = substitution_tau(psi, grid)
    assert np.all(np.diff(tau) > 0.0)


def test_unit_amplitude_main_term():
    res = two_term_expansion(unit_problem(), 1000.0)
    main = res.value
    from goodfun.constants import GAMMA_THIRD
    expected = cmath.exp(1j * math.pi / 6) / 3 * GAMMA_THIRD * (6 / 1000.0) ** (1 / 3)
    assert main == pytest.approx(expected, rel=1e-15)
    assert res.method == "asymptotic" and res.regime is None and res.converged
    # (1/pi) Re main reproduces the diagonal Anger formula
    assert main.real / math.pi == pytest.approx(anger_diag_asym(1000.0).value,
                                                rel=1e-14)


def test_unit_amplitude_oracle():
    x = 1000.0
    res = integrate_finite(
        Integrand(lambda t: np.exp(1j * x * (t - np.sin(t))), osc_frequency=x),
        0.0, math.pi)
    assert abs(res.value - I_UNIT_1000) <= max(res.err, 1e-11)
    exp = two_term_expansion(unit_problem(), x)
    assert abs(res.value - exp.value) <= exp.error_estimate


def test_exp_amplitude_reproduces_shifted_anger():
    # ((-1)^k/pi) Re{e^{-i pi x} (two-term)} is the shifted-Anger formula
    for x in [123.4, 1000.0]:
        phase = complex(cos_pi(x), -sin_pi(x))
        for k in [1, -2, 5]:
            main = two_term_expansion(exp_problem(k), x).value
            value = (-1.0) ** k / math.pi * (phase * main).real
            assert value == pytest.approx(anger_shifted_asym(x, k).value,
                                          rel=1e-12, abs=1e-15)


def _unfolded_good_integral(calH_fold, x, rho):
    """The engine's int_0^pi exp(i x (t - sin t))/(rho^2 + sin^2 t) dt, and how far it lies
    beyond calH's claim from pi e^{i pi x} conj(calH(x, rho)) (t = pi - u): the oracle
    the calibration sweep takes from the contour, here on the real-axis fold below X_C."""
    rho2 = rho * rho

    def fn(t):
        s = np.sin(t)
        return np.exp(1j * x * (t - s)) / (rho2 + s * s)

    res = integrate_finite(Integrand(fn, osc_frequency=x, hot_spots=(HotSpot(math.pi, rho),)),
                           0.0, math.pi)
    cal = calH_fold(x, rho) if x < X_C else good._contours((), [(x, rho)], None)[1][0]
    via_h = math.pi * complex(cos_pi(x), sin_pi(x)) * cal.value.conjugate()
    return res, abs(res.value - via_h) - math.pi * cal.err


@pytest.mark.parametrize("rho", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("x", [37.3, 1e2, 1e3, 1e4])
def test_good_amplitude_engine_vs_oracle(calH_fold, rho, x):
    exp = two_term_expansion(good_amplitude_problem(rho), x)
    res, off = _unfolded_good_integral(calH_fold, x, rho)
    assert abs(res.value - exp.value) <= exp.error_estimate
    assert off <= res.err


@pytest.mark.parametrize("rho", [1e-3, 0.1])
def test_unfolded_good_integral_claims_its_rounding(calH_fold, rho):
    # 300k G7K15 nodes at x = 1e4, the peak 1/rho^2 at t = pi: the nested
    # rules share the nodes' rounding and claimed 3.5e-11 and 3.5e-13 for
    # errors of 1.6e-9 and 9.1e-13; the rounding level covers them
    res, off = _unfolded_good_integral(calH_fold, 1e4, rho)
    assert res.converged and off <= res.err


def test_first_term_dominance_trend():
    # with f'(0) != 0 the first/second term ratio grows like x^(1/3)
    prob = exp_problem(1)
    ratios = []
    for x in [100.0, 200.0, 400.0, 800.0]:
        from goodfun.constants import GAMMA_THIRD, GAMMA_TWO_THIRDS
        t1 = GAMMA_THIRD / 3 * (6 / x) ** (1 / 3)
        t2 = GAMMA_TWO_THIRDS / 3 * (6 / x) ** (2 / 3)
        ratios.append(t1 / t2)
    growth = [b / a for a, b in zip(ratios, ratios[1:])]
    assert all(abs(g - 2.0 ** (1 / 3)) < 1e-12 for g in growth)


def test_conjugation_symmetry():
    prob = good_amplitude_problem(1.0)
    plus = expansion_with_conjugation(prob, 500.0)
    minus = expansion_with_conjugation(prob, -500.0)
    assert minus.value == plus.value.conjugate()
    assert minus.error_estimate == plus.error_estimate
    assert minus.method == plus.method == "asymptotic"


def test_domain_errors():
    prob = unit_problem()
    with pytest.raises(DomainError):
        two_term_expansion(prob, 2.0)
    with pytest.raises(DomainError):
        expansion_with_conjugation(prob, -1.0)


def test_hypotheses_are_checked_once_per_problem(monkeypatch):
    from goodfun import phase
    checked, real = [], phase.check_hypotheses

    def counting(prob):
        checked.append(prob)
        return real(prob)

    monkeypatch.setattr(phase, "check_hypotheses", counting)
    prob = unit_problem()
    for x in (10.0, 100.0, 1000.0, -50.0):
        expansion_with_conjugation(prob, x)
    assert checked == [prob]
