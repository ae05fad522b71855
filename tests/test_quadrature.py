import math

import numpy as np
import pytest

from goodfun import quadrature
from goodfun import (EnvelopeViolated, HotSpot, Integrand, NumericalError, QuadConfig,
                     anger_J, eval_G, i_lambda_oracle, integrate_finite, integrate_tail)

# closed forms used as oracles below
PI_OVER_SQRT2 = 2.221441469079183123  # int_0^pi dth/(1+sin^2 th) = pi/sqrt(2)
CUBIC_EXP_INTEGRAL = 1.6226514594496686418  # int_0^inf exp(-t^3/6) dt = 6^(1/3) Gamma(4/3)
POISSON_RE = 0.2125841657938181642  # (pi/2) e^{-2}, real part at frequency a=1


def test_sine_antiderivative():
    res = integrate_finite(Integrand(np.sin), 0.0, math.pi)
    assert res.converged
    assert abs(res.value - 2.0) <= max(res.err, 1e-13)


def test_endpoint_peaked_closed_form():
    res = integrate_finite(Integrand(lambda t: 1.0 / (1.0 + np.sin(t) ** 2)),
                           0.0, math.pi)
    assert abs(res.value - PI_OVER_SQRT2) <= max(res.err, 1e-12)


def test_complex_exponential():
    res = integrate_finite(Integrand(lambda t: np.exp(1j * t)), 0.0, math.pi)
    assert abs(res.value - 2.0j) <= max(res.err, 1e-13)


def test_hot_spot_tiny_rho():
    rho = 1e-3
    f = Integrand(lambda t: 1.0 / (rho * rho + np.sin(t) ** 2),
                  hot_spots=(HotSpot(0.0, rho), HotSpot(math.pi, rho)))
    res = integrate_finite(f, 0.0, math.pi)
    exact = math.pi / (rho * math.sqrt(1.0 + rho * rho))
    assert res.converged
    assert abs(res.value - exact) <= max(res.err, 1e-9 * exact)


@pytest.mark.parametrize("rho", [1e-3, 1e-2, 0.1, 1.0, 10.0])
@pytest.mark.parametrize("x", [0.0, 1.0, 10.0, 1e2, 1e3])
def test_refinement_consistency(rho, x):
    # halving abs_tol moves the value by at most the larger error estimate
    rho2 = rho * rho

    def fn(t):
        s = np.sin(t)
        return np.exp(1j * x * (t + s)) / (rho2 + s * s)

    f = Integrand(fn, osc_frequency=abs(x),
                  hot_spots=(HotSpot(0.0, rho), HotSpot(math.pi, rho)))
    r1 = integrate_finite(f, 0.0, math.pi, QuadConfig(abs_tol=1e-10))
    r2 = integrate_finite(f, 0.0, math.pi, QuadConfig(abs_tol=5e-11))
    assert abs(r1.value - r2.value) <= max(r1.err, r2.err)


def test_linearity_on_random_smooth_pairs():
    rng = np.random.default_rng(1234)
    for _ in range(5):
        a1, a2, w1, w2 = rng.uniform(0.5, 3.0, size=4)
        alpha, beta = rng.uniform(-2.0, 2.0, size=2)
        f = lambda t: np.cos(w1 * t) * np.exp(-a1 * t / math.pi)
        g = lambda t: np.sin(w2 * t) / (a2 + t * t)
        h = lambda t: alpha * f(t) + beta * g(t)
        rf = integrate_finite(Integrand(f), 0.0, math.pi)
        rg = integrate_finite(Integrand(g), 0.0, math.pi)
        rh = integrate_finite(Integrand(h), 0.0, math.pi)
        combined = rh.err + abs(alpha) * rf.err + abs(beta) * rg.err
        assert abs(rh.value - (alpha * rf.value + beta * rg.value)) <= combined + 1e-13


def test_nonfinite_integrand_raises():
    bad = Integrand(lambda t: np.where(t < 1.0, np.nan, 1.0))
    with pytest.raises(NumericalError):
        integrate_finite(bad, 0.0, math.pi)


def test_bad_bounds_raise():
    from goodfun import DomainError
    with pytest.raises(DomainError):
        integrate_finite(Integrand(np.sin), 1.0, 1.0)
    with pytest.raises(DomainError):
        integrate_finite(Integrand(np.sin), 0.0, float("inf"))


def test_panel_budget_flag():
    # absurd budget with a fast oscillation: honest flag, value still usable
    f = Integrand(lambda t: np.cos(200.0 * t), osc_frequency=100.0)
    res = integrate_finite(f, 0.0, math.pi, QuadConfig(max_panels=8))
    assert not res.converged


def test_panel_budget_flag_without_an_oscillation_cap():
    # the ray's breakpoints alone (17 panels) exceed a budget of 5
    assert i_lambda_oracle(1 / 6, QuadConfig(max_panels=5)).converged is False
    assert i_lambda_oracle(1 / 6, QuadConfig(max_panels=17)).converged is True
    edges, ok = quadrature._subdivide([0.0, 1.0, 2.0, 3.0], math.inf, 2)
    assert not ok and edges.tolist() == [0.0, 1.0, 2.0, 3.0]
    assert quadrature._subdivide([0.0, 1.0, 2.0, 3.0], math.inf, 3)[1]


def test_tail_poisson_kernel_frequency():
    # real part of int_0^inf e^{2 i t}/(1+t^2) dt is (pi/2) e^{-2}; by parts,
    # |int_T^inf e^{2 i t}/(1+t^2) dt| <= 1/(1+T^2)
    big_t = 1e3
    g = Integrand(lambda t: np.exp(2j * t) / (1.0 + t * t), osc_frequency=2.0)
    res = integrate_finite(g, 0.0, big_t)
    err = res.err + 1.0 / (1.0 + big_t * big_t)
    assert abs(res.value.real - POISSON_RE) <= err
    assert err < 1e-4


def test_tail_cubic_exponential():
    g = Integrand(lambda t: np.exp(-t ** 3 / 6.0))
    res = integrate_tail(g, 1.0 / 6.0)
    assert abs(res.value - CUBIC_EXP_INTEGRAL) <= max(res.err, 1e-12)
    assert res.converged


def _plain_cutoff(c, eps):
    # the cut-off iteration written without its underflow fallback
    t = (max(math.log(1.0 / eps), 1.0) / c) ** (1.0 / 3.0)
    for _ in range(4):
        t = (max(math.log(1.0 / (eps * 3.0 * c * t * t)), 0.5) / c) ** (1.0 / 3.0)
    return t


def test_cubic_cutoff_is_the_plain_formula_where_that_is_finite():
    plain = fallback = 0
    for rate in [10.0 ** k for k in range(-300, 301, 15)]:
        for eps in (5e-13, 5e-301):
            try:
                expected = _plain_cutoff(rate, eps)
            except (ZeroDivisionError, ValueError):
                expected = math.inf
            t = quadrature._cutoff(rate, eps)
            if math.isfinite(expected):
                plain += 1
                assert t == expected, (rate, eps)
            else:
                fallback += 1
            # four fixed-point steps land the tail bound at T on eps, not below it
            assert math.isfinite(t) and quadrature._tail(rate, t) <= 1.001 * eps, (rate, eps)
    assert plain and fallback


def test_envelope_violation_raises():
    g = Integrand(lambda t: 2.0 * np.exp(-t ** 3 / 6.0))
    with pytest.raises(EnvelopeViolated):
        integrate_tail(g, 1.0 / 6.0)


def test_envelope_within_ten_percent_tolerated():
    # 5% over the declared envelope must not raise; the error contract is
    # only guaranteed for honest envelopes, so allow the matching slack
    g = Integrand(lambda t: 1.05 * np.exp(-t ** 3 / 6.0))
    res = integrate_tail(g, 1.0 / 6.0)
    assert abs(res.value - 1.05 * CUBIC_EXP_INTEGRAL) <= 1.1 * res.err


def _subdivide_by_linspace(points, cap, max_panels):
    """The per-segment np.linspace mesh that _subdivide must reproduce."""
    points = np.asarray(points, dtype=np.float64)
    seg = np.diff(points)
    counts = np.maximum(1, np.ceil(seg / cap).astype(np.int64))
    total = int(counts.sum())
    if total > max_panels:
        counts = np.maximum(1, (counts / (total / max_panels)).astype(np.int64))
    edges = [points[:1]]
    for i, n in enumerate(counts):
        edges.append(np.linspace(points[i], points[i + 1], int(n) + 1)[1:])
    return np.unique(np.concatenate(edges)), total <= max_panels


@pytest.mark.parametrize("max_panels", [200_000, 50])
@pytest.mark.parametrize("rho", np.geomspace(1e-6, 100.0, 9))
@pytest.mark.parametrize("x", [0.0, 1.0, 10.0, 63.0, 99.0, 1e3, 1e4])
def test_mesh_is_the_linspace_mesh(x, rho, max_panels):
    # the two halves of the real-axis H fold, as integrate_finite meshes them
    for freq in (abs(x), 0.5 * abs(x)):
        f = Integrand(np.cos, freq, (HotSpot(0.0, float(rho)),))
        points = sorted(set([0.0, math.pi / 2] + quadrature._hot_spot_points(
            f.hot_spots, 0.0, math.pi / 2)))
        cap = quadrature._osc_cap(freq)
        if not math.isfinite(cap):
            continue
        edges, ok = quadrature._subdivide(points, cap, max_panels)
        ref, ref_ok = _subdivide_by_linspace(points, cap, max_panels)
        assert ok == ref_ok
        assert edges.tobytes() == ref.tobytes()


def test_subdivide_caps_counts_beyond_int64():
    # 1.6e30 panels at this cap: the count must not wrap in the int64 cast
    edges, ok = quadrature._subdivide([0.0, 1.5707963], 1e-30, 200_000)
    assert not ok
    assert 2 <= len(edges) <= 200_001 and np.all(np.diff(edges) > 0.0)


@pytest.mark.parametrize("call", [
    lambda cfg: eval_G(1e20, 1.0, 3.0, cfg),      # ~5e19 panels per half
    lambda cfg: anger_J(5e307, 1.5e308, cfg),     # |nu| + |x| overflows: cap 0
], ids=["eval_G", "anger_J"])
def test_mesh_beyond_binary64_counts_is_coarsened_and_flagged(call):
    res = call(QuadConfig(max_panels=1000))
    assert not res.converged
    assert math.isfinite(res.value) and math.isfinite(res.error_estimate)


def _osc_owner(t, k):
    # owner k: exp(i x_k (t + sin t)) / (rho^2 + sin^2 t), x_k in _OWNER_XS
    s = np.sin(t)
    return np.exp(1j * _OWNER_XS[k] * (t + s)) / (1e-4 + s * s)


_OWNER_XS = np.array([0.0, 3.0, 40.0, 90.0, -7.5, 12.0])


@pytest.mark.parametrize("cfg", [QuadConfig(abs_tol=1.0), QuadConfig(),
                                 QuadConfig(abs_tol=1e-15, rel_tol=1e-14),
                                 QuadConfig(max_panels=40)])
def test_integrate_many_is_integrate_finite_per_owner(cfg):
    spans = [(0.0, math.pi / 2, abs(x)) for x in _OWNER_XS[:-1]] + [(-0.5, 2.0, 12.0)]
    spots = (HotSpot(0.0, 1e-2),)
    many = quadrature.integrate_many(_osc_owner, spans, spots, cfg)
    for k, ((a, b, osc), r) in enumerate(zip(spans, many)):
        one = integrate_finite(Integrand(lambda t: _osc_owner(t, k), osc, spots), a, b, cfg)
        assert (r.value.real.hex(), r.value.imag.hex(), r.err.hex(), r.converged, r.panels) == (
            one.value.real.hex(), one.value.imag.hex(), one.err.hex(), one.converged, one.panels)
    assert quadrature.integrate_many(_osc_owner, [], spots, cfg) == []


def test_integrate_many_refines_and_coarsens_per_owner():
    spans = [(0.0, math.pi / 2, abs(x)) for x in _OWNER_XS]
    spots = (HotSpot(0.0, 1e-2),)
    first = quadrature.integrate_many(_osc_owner, spans, spots, QuadConfig(abs_tol=1.0))
    tight = quadrature.integrate_many(_osc_owner, spans, spots,
                                      QuadConfig(abs_tol=1e-15, rel_tol=1e-14))
    assert all(r.converged for r in first)
    assert any(t.panels > f.panels for t, f in zip(tight, first))
    coarse = quadrature.integrate_many(_osc_owner, spans, spots, QuadConfig(max_panels=40))
    assert [r.converged for r in coarse].count(False) >= 2
