import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goodfun import calibrate, constants, good, quadrature
from goodfun import (DomainError, EnvelopeViolated, HotSpot, Integrand, NumericalError,
                     QuadConfig, anger_J, eval_G, eval_H, i_lambda_oracle, integrate_finite,
                     integrate_tail)

# closed forms used as oracles below
PI_OVER_SQRT2 = 2.221441469079183123  # int_0^pi dth/(1+sin^2 th) = pi/sqrt(2)
CUBIC_EXP_INTEGRAL = 1.6226514594496686418  # int_0^inf exp(-t^3/6) dt = 6^(1/3) Gamma(4/3)
POISSON_RE = 0.2125841657938181642  # (pi/2) e^{-2}, real part at frequency a=1


def test_sine_antiderivative():
    res = integrate_finite(Integrand(np.sin), 0.0, math.pi)
    assert res.converged
    assert abs(res.value - 2.0) <= max(res.err, 1e-13)


@pytest.mark.parametrize("rule,kronrod,gauss", [
    (quadrature.G7K15, 22, 13), (quadrature.G10K21, 31, 19)])
def test_rules_are_exact_to_their_degrees(rule, kronrod, gauss):
    # each pair integrates t^d over [-1, 1] to rounding up to its degree and
    # visibly misses the next even degree, so no node or weight is misplaced
    def error(nodes, weights, d):
        return abs(float(np.dot(weights, nodes ** d)) - (2.0 / (d + 1) if d % 2 == 0 else 0.0))

    gauss_nodes = rule.xgk[1::2]
    assert len(rule.xgk) == len(rule.wgk) == 2 * len(rule.wg) + 1
    assert (np.diff(rule.xgk) > 0.0).all() and (rule.xgk == -rule.xgk[::-1]).all()
    assert max(error(rule.xgk, rule.wgk, d) for d in range(kronrod + 1)) < 1e-15
    assert max(error(gauss_nodes, rule.wg, d) for d in range(gauss + 1)) < 1e-15
    # odd powers integrate to 0 by symmetry at any degree
    assert error(rule.xgk, rule.wgk, kronrod + 2 - kronrod % 2) > 1e-13
    assert error(gauss_nodes, rule.wg, gauss + 2 - gauss % 2) > 1e-7


def test_rule_tables_keep_their_bytes():
    # both pairs are mirrored from half tables; these are QUADPACK's values as
    # binary64, the bytes every calibrated constant was frozen with
    tables = b"".join(a.tobytes() for rule in (quadrature.G7K15, quadrature.G10K21)
                      for a in (rule.xgk, rule.wgk, rule.wg))
    assert hashlib.sha256(tables).hexdigest() == (
        "480c78fb903bd809b83334f44e7b927355d63aef873e31b6c03791db8d9ac676")


def test_each_rule_fills_a_chunk_of_3840_nodes():
    assert quadrature._chunk_panels(quadrature.G7K15) == 256
    assert quadrature._chunk_panels(quadrature.G10K21) == 182


@pytest.mark.parametrize("freq", [0.0, 3.0, 250.0])
def test_both_rules_agree_on_a_peaked_oscillation(freq):
    f = Integrand(lambda t: np.exp(1j * freq * t) / (1e-4 + np.sin(t) ** 2), freq,
                  (HotSpot(0.0, 1e-2),))
    k15 = integrate_finite(f, 0.0, 1.5)
    k21 = integrate_finite(f, 0.0, 1.5, rule=quadrature.G10K21)
    assert k15.converged and k21.converged
    assert abs(k15.value - k21.value) <= k15.err + k21.err


def test_endpoint_peaked_closed_form():
    res = integrate_finite(Integrand(lambda t: 1.0 / (1.0 + np.sin(t) ** 2)),
                           0.0, math.pi)
    assert abs(res.value - PI_OVER_SQRT2) <= max(res.err, 1e-12)


def test_complex_exponential():
    res = integrate_finite(Integrand(lambda t: np.exp(1j * t)), 0.0, math.pi)
    assert abs(res.value - 2.0j) <= max(res.err, 1e-13)


@pytest.mark.parametrize("shift", [0.0, 1e6])
def test_a_static_integrand_far_from_0_keeps_its_target(shift):
    # the rounding level follows the phase (2 nu |t|): with no oscillation
    # scale, 1/t on [1e6, 2e6] claims what it does on [1, 1e6 + 1]
    a = 1.0 + shift
    res = integrate_finite(Integrand(lambda t: 1.0 / (t - shift)), a, a + 1e6)
    cfg = QuadConfig()
    assert res.converged
    assert res.err <= max(cfg.abs_tol, cfg.rel_tol * abs(res.value))
    assert abs(res.value - math.log(1e6 + 1.0)) <= res.err


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


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("node", [0, 7, 29])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_single_nonfinite_node_raises_naming_it(bad, node, dtype):
    # [0, 1] at this oscillation scale is two panels, 30 nodes; one of them is bad
    seen = []

    def fn(t):
        seen.append(t[node])
        v = np.ones(len(t), dtype=dtype)
        v[node] = bad
        return v

    with pytest.raises(NumericalError) as exc:
        integrate_finite(Integrand(fn, osc_frequency=2.0), 0.0, 1.0)
    assert str(exc.value).endswith(f"first at t={seen[0]!r}")


@pytest.mark.parametrize("values", [lambda t: 0.5, lambda t: np.exp(-t[1:] ** 3),
                                    lambda t: np.exp(-t ** 3)[:, None]],
                         ids=["scalar", "one-short", "column"])
@pytest.mark.parametrize("door", [
    lambda f: integrate_finite(Integrand(f), 0.0, 1.0),
    lambda f: integrate_tail(Integrand(f), 1.0),
    lambda f: quadrature.integrate_many(lambda t, k: f(t), [(0.0, 1.0, 0.0, ())]),
    lambda f: quadrature.integrate_many(lambda t, k: f(t), [(0.0, 1.0, 0.0, ())] * 3),
], ids=["finite", "tail", "many-alone", "many-shared"])
def test_integrand_must_return_one_value_per_node(door, values):
    with pytest.raises(DomainError, match="^integrand contract: fn must return one value per node"):
        door(values)


def test_every_door_runs_the_one_engine(monkeypatch):
    owners, real = [], quadrature._integrals

    def counting(fn, points, caps, cfg, rule):
        owners.append(len(points))
        return real(fn, points, caps, cfg, rule)

    monkeypatch.setattr(quadrature, "_integrals", counting)
    integrate_finite(Integrand(np.cos), 0.0, 1.0)
    integrate_tail(Integrand(lambda t: np.exp(-t ** 3)), 1.0)
    quadrature.integrate_many(lambda t, k: np.cos(t), [(0.0, 1.0, 0.0, ())] * 2)
    quadrature.integrate_many(lambda t, k: np.cos(t), [(0.0, 1.0, 0.0, ())] * 3)
    assert owners == [1, 1, 1, 1, 3]


def _peak_that_stops(calls):
    """A sharp peak (8 calls to converge) whose second call raises StopIteration."""
    def fn(t, *owner):
        calls.append(len(t))
        if len(calls) > 1:
            raise StopIteration("the integrand's own iterator ran out")
        return 1.0 / (1e-4 + (t - 0.3) ** 2)
    return fn


def test_stop_iteration_from_the_integrand_in_a_refinement_round_propagates():
    # the refinement rounds are generators; the integrand's StopIteration must
    # not be read as their end
    calls = []
    with pytest.raises(StopIteration, match="ran out"):
        integrate_finite(Integrand(_peak_that_stops(calls)), 0.0, 1.0)
    assert len(calls) == 2
    calls.clear()
    with pytest.raises(StopIteration, match="ran out"):
        quadrature.integrate_many(_peak_that_stops(calls), [(0.0, 1.0, 0.0, ())] * 3)
    assert len(calls) == 2


def test_finite_values_whose_sum_overflows_do_not_raise():
    # 27 panels x 15 nodes of 4e307 sum to inf, but every weighted row stays finite
    res = integrate_finite(Integrand(lambda t: np.full(len(t), 4e307), osc_frequency=40.0),
                           0.0, 1.0)
    assert res.converged and res.value == pytest.approx(4e307, rel=1e-14)
    # rows that overflow are checked value by value, and these values are finite
    lo = np.linspace(0.0, 1.0, 4)
    with np.errstate(over="ignore", invalid="ignore"):
        k15, _, _ = quadrature._eval_panels(lambda t: np.full(len(t), 1.7e308), lo[:-1], lo[1:])
    assert np.all(np.isinf(k15.real))


@pytest.mark.parametrize("value", [4e307, 1e308])
def test_an_integral_whose_sum_leaves_binary64_raises(value):
    # finite values on [0, 10] whose panels sum to inf (4e307) or to inf
    # with a nan estimate (1e308)
    f = Integrand(lambda t: np.full_like(t, value), osc_frequency=40.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match="binary64"):
            integrate_finite(f, 0.0, 10.0)


def test_bad_bounds_raise():
    with pytest.raises(DomainError):
        integrate_finite(Integrand(np.sin), 1.0, 1.0)
    with pytest.raises(DomainError):
        integrate_finite(Integrand(np.sin), 0.0, float("inf"))


def test_nan_oscillation_scale_is_refused():
    # a nan cap would read as no cap and mesh like osc_frequency = 0
    nan = Integrand(np.cos, osc_frequency=math.nan)
    with pytest.raises(DomainError, match="^osc_frequency"):
        integrate_finite(nan, 0.0, 10.0)
    for spans in ([(0.0, 10.0, math.nan, ())], [(0.0, 1.0, 2.0, ()), (0.0, 10.0, math.nan, ())]):
        with pytest.raises(DomainError, match="^osc_frequency"):
            quadrature.integrate_many(lambda t, k: np.cos(t), spans)
    with pytest.raises(DomainError, match="^osc_frequency"):
        integrate_tail(Integrand(lambda t: np.exp(-t ** 3), math.nan), 1.0)


def test_panel_budget_flag():
    # absurd budget with a fast oscillation: honest flag, value still usable
    f = Integrand(lambda t: np.cos(200.0 * t), osc_frequency=100.0)
    res = integrate_finite(f, 0.0, math.pi, QuadConfig(max_panels=8))
    assert not res.converged


def test_panel_budget_flag_without_an_oscillation_cap():
    # the ray's breakpoints alone (17 panels) exceed a budget of 5
    assert i_lambda_oracle(1 / 6, QuadConfig(max_panels=5)).converged is False
    assert i_lambda_oracle(1 / 6, QuadConfig(max_panels=17)).converged is True
    for mesh in (_one_owner(quadrature._meshes), _one_owner(quadrature._vector_meshes)):
        edges, ok = mesh([0.0, 1.0, 2.0, 3.0], math.inf, 2)
        assert not ok and edges.tolist() == [0.0, 1.0, 2.0, 3.0]
        assert mesh([0.0, 1.0, 2.0, 3.0], math.inf, 3)[1]
    # a hot-spot ladder's breakpoints exceed it too: the budget is not a hard cap
    peak = Integrand(lambda t: 1.0 / (1e-12 + t * t), hot_spots=(HotSpot(0.0, 1e-6),))
    res = integrate_finite(peak, 0.0, 1.0, QuadConfig(max_panels=5))
    assert res.panels == 23 and not res.converged


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


def _mesh_by_linspace(points, cap, max_panels):
    """The per-segment np.linspace mesh that every mesh builder must reproduce."""
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


def _ray_points_by_numpy(big_t):
    """integrate_tail's breakpoints as np.linspace and np.geomspace give them."""
    points = list(np.linspace(0.0, min(1.0, big_t), 9))
    if big_t > 1.0:
        points += list(np.geomspace(1.0, big_t, max(2, int(4 * math.log2(big_t)) + 1))[1:])
    return np.array(points)


def _recorded_meshes(monkeypatch, *calls):
    """(points, cap, max_panels) of every owner's mesh the calls build, lone or batched."""
    meshes = []
    real = quadrature._meshes

    def recording(points, caps, max_panels):
        meshes.extend((list(p), cap, max_panels) for p, cap in zip(points, caps))
        return real(points, caps, max_panels)

    monkeypatch.setattr(quadrature, "_meshes", recording)
    for call in calls:
        call()
    monkeypatch.undo()
    return meshes


def _one_owner(meshes):
    """``meshes`` (the entry ``_meshes`` or the vectorised pass) of one owner: (edges, ok)."""
    def mesh(points, cap, max_panels):
        lo, hi, sizes, (ok,) = meshes([list(points)], [cap], max_panels)
        assert sizes == [len(lo)] and lo[1:].tobytes() == hi[:-1].tobytes()
        return np.append(lo, hi[-1]), ok
    return mesh


@pytest.mark.parametrize("max_panels", [200_000, 50])
@pytest.mark.parametrize("rho", np.geomspace(1e-6, 100.0, 9))
@pytest.mark.parametrize("x", [0.0, 1.0, 10.0, 63.0, 99.0, 1e3, 1e4])
def test_mesh_is_the_linspace_mesh(x, rho, max_panels, monkeypatch):
    rho = float(rho)
    # the real-axis fold of H (scale |x|) and of G at gamma = 0 (|x|/2), as
    # integrate_finite meshes them on G10K21, and at G7K15's cap
    meshes = []
    for freq in (abs(x), 0.5 * abs(x)):
        f = Integrand(np.cos, freq, (HotSpot(0.0, rho),))
        points = sorted(set([0.0, math.pi / 2] + quadrature._hot_spot_points(
            f.hot_spots, 0.0, math.pi / 2)))
        meshes += [(points, quadrature._osc_cap(freq, rule), max_panels)
                   for rule in (quadrature.G10K21, quadrature.G7K15)]
    # the contour rays of H and of Anger's J (one capped segment, or a hot-spot
    # ladder), lone and in a batch, and the uncapped ray of integrate_tail
    cfg = QuadConfig(max_panels=max_panels)
    x_ray = good.X_C + 100.0 * x
    lam = max(x, 1.0) * rho ** 3 / 6.0
    meshes += _recorded_meshes(monkeypatch, lambda: eval_H(x_ray, rho, cfg),
                               lambda: anger_J(x_ray, x_ray, cfg),
                               lambda: good.eval_H_many([x_ray, x_ray + 0.5], rho, cfg),
                               lambda: i_lambda_oracle(lam, cfg))
    # the ray is cut where its tail bound meets half the absolute tolerance,
    # rel_tol times |I(lam)| ~ Gamma(1/3)/(3 lam^(1/3)) where that is below abs_tol
    tail_tol = min(cfg.abs_tol,
                   cfg.rel_tol * constants.GAMMA_THIRD / (3.0 * lam ** (1.0 / 3.0)))
    tail_points = _ray_points_by_numpy(quadrature._cutoff(lam, tail_tol / 2.0))
    assert np.array(meshes[-1][0]).tobytes() == tail_points.tobytes()
    for points, cap, budget in meshes:
        paths = [_one_owner(quadrature._meshes), _one_owner(quadrature._vector_meshes)]
        if not math.isfinite(cap):  # without a cap the breakpoints are the mesh
            ref, ref_ok = np.array(points), len(points) - 1 <= budget
        else:
            ref, ref_ok = _mesh_by_linspace(points, cap, budget)
            if (points[-1] - points[0]) / cap < 10 * quadrature._SMALL_MESH:
                paths.append(quadrature._small_mesh)  # either path, whatever the size
        for mesh in paths:
            edges, ok = mesh(points, cap, budget)
            assert ok == ref_ok
            assert edges.tobytes() == ref.tobytes()


def test_rounded_steps_that_overtake_a_segment_end_are_dropped():
    # doubles near 1e16 are 2 apart, so steps of 0.5 round onto one another
    points, cap = [1e16, 1e16 + 4.0, 1e16 + 8.0], 0.5
    ref, _ = _mesh_by_linspace(points, cap, 200_000)
    assert len(ref) < 17
    for mesh in (quadrature._small_mesh, _one_owner(quadrature._meshes),
                 _one_owner(quadrature._vector_meshes)):
        edges, ok = mesh(points, cap, 200_000)
        assert ok and edges.tobytes() == ref.tobytes()


def test_mesh_caps_counts_beyond_int64():
    # 1.6e30 panels at this cap: the count must not wrap in the int64 cast
    edges, ok = _one_owner(quadrature._meshes)([0.0, 1.5707963], 1e-30, 200_000)
    assert not ok
    assert 2 <= len(edges) <= 200_001 and np.all(np.diff(edges) > 0.0)
    one, one_ok = _one_owner(quadrature._vector_meshes)([0.0, 1.5707963], 1e-30, 200_000)
    assert not one_ok and one.tobytes() == edges.tobytes()


# owners of one vectorised mesh pass, each needing its own handling: (points, cap)
_MIXED_MESHES = [
    ([0.0, 0.5, 1.5707963], 0.01),                # plain: 158 panels
    ([0.0, 1.0, 2.0, 3.0], math.inf),             # no cap: the breakpoints
    ([0.0, 0.1, 1.5707963], 1e-4),                # about 15 700 panels, coarsened to 1000
    ([0.0, 1.5707963], 1e-30),                    # beyond int64, cut, then coarsened
    ([1e16, 1e16 + 4.0, 1e16 + 8.0], 0.5),        # rounded steps overtake a segment end
]


@pytest.mark.parametrize("shift", range(len(_MIXED_MESHES)))
def test_meshes_of_a_mixed_batch_are_each_owners_own(shift):
    owners = _MIXED_MESHES[shift:] + _MIXED_MESHES[:shift]
    points, caps = [p for p, _ in owners], [c for _, c in owners]
    lo, hi, sizes, oks = quadrature._meshes(points, caps, 1000)
    assert len(lo) == len(hi) == sum(sizes) and np.all(hi > lo)
    offsets = np.cumsum([0] + sizes)
    for (p, cap), p0, p1, ok in zip(owners, offsets, offsets[1:], oks):
        edges, one_ok = _one_owner(quadrature._vector_meshes)(p, cap, 1000)
        assert np.append(lo[p0:p1], hi[p1 - 1]).tobytes() == edges.tobytes()
        assert ok == one_ok
        assert _one_owner(quadrature._meshes)(p, cap, 1000)[0].tobytes() == edges.tobytes()
        if cap > 1e-30:  # the linspace reference's int64 cast wraps beyond int64
            ref, ref_ok = (_mesh_by_linspace(p, cap, 1000) if math.isfinite(cap)
                           else (np.array(p), True))
            assert edges.tobytes() == ref.tobytes() and ok == ref_ok
    assert [ok for (_, cap), ok in zip(owners, oks)] == [
        cap not in (1e-4, 1e-30) for _, cap in owners]


@pytest.mark.parametrize("call", [
    lambda cfg: eval_G(1e20, 1.0, 3.0, cfg),      # ~5e19 panels per half
    lambda cfg: anger_J(1e20, 3.0, cfg),          # ~1.7e19 panels on the fold
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
    spots = (HotSpot(0.0, 1e-2),)
    spans = [(0.0, math.pi / 2, abs(x), spots) for x in _OWNER_XS[:-1]]
    spans.append((-0.5, 2.0, 12.0, spots))
    many = quadrature.integrate_many(_osc_owner, spans, cfg)
    for k, ((a, b, osc, _), r) in enumerate(zip(spans, many)):
        one = integrate_finite(Integrand(lambda t: _osc_owner(t, k), osc, spots), a, b, cfg)
        assert (r.value.real.hex(), r.value.imag.hex(), r.err.hex(), r.converged, r.panels) == (
            one.value.real.hex(), one.value.imag.hex(), one.err.hex(), one.converged, one.panels)
    assert quadrature.integrate_many(_osc_owner, [], cfg) == []


def test_integrate_many_refines_and_coarsens_per_owner():
    spans = [(0.0, math.pi / 2, abs(x), (HotSpot(0.0, 1e-2),)) for x in _OWNER_XS]
    first = quadrature.integrate_many(_osc_owner, spans, QuadConfig(abs_tol=1.0))
    tight = quadrature.integrate_many(_osc_owner, spans,
                                      QuadConfig(abs_tol=1e-15, rel_tol=1e-14))
    assert all(r.converged for r in first)
    assert any(t.panels > f.panels for t, f in zip(tight, first))
    coarse = quadrature.integrate_many(_osc_owner, spans, QuadConfig(max_panels=40))
    assert [r.converged for r in coarse].count(False) >= 2


def test_owners_done_on_their_first_sweep_start_no_rounds(monkeypatch):
    # an owner that meets its target on the first sweep is done there: no
    # refinement generator is made for it
    spans = [(0.0, math.pi / 2, abs(x), (HotSpot(0.0, 1e-2),)) for x in _OWNER_XS]
    cfg = QuadConfig(abs_tol=1.0)
    alone = [integrate_finite(Integrand(lambda t, k=k: _osc_owner(t, k), osc, spots), a, b, cfg)
             for k, (a, b, osc, spots) in enumerate(spans)]
    started, real = [], quadrature._rounds

    def rounds(*args):
        started.append(1)
        return real(*args)

    monkeypatch.setattr(quadrature, "_rounds", rounds)
    many = quadrature.integrate_many(_osc_owner, spans, cfg)
    assert [r.converged for r in many] == [True] * len(spans)
    assert many == alone
    assert started == []


# owners of the lockstep test: (x, r, hot spots) for exp(i x (t + sin t))/(r + sin^2 t)
# on [0, 1.5].  At the test's tolerances, alone, they take 4, 2, 1, 3, 0, 0, 5, 0
# and 1 refinement rounds; the x = 300 mesh has 288 panels, above a chunk's 256;
# the x = 2500 mesh needs about 1900 and is coarsened to the 1000-panel budget.
_LOCKSTEP = [(3.0, 1e-3, ()), (7.5, 1e-2, ()), (12.0, 1e-4, (HotSpot(0.0, 1e-2),)),
             (0.0, 0.1, ()), (300.0, 1.0, (HotSpot(0.0, 1.0),)), (2500.0, 1.0, ()),
             (25.0, 1e-5, ()), (40.0, 1e-3, (HotSpot(0.0, 0.03), HotSpot(1.5, 0.1))),
             (3.0, 1e-5, (HotSpot(0.0, 3e-3),))]
_LOCKSTEP_X = np.array([x for x, _, _ in _LOCKSTEP])
_LOCKSTEP_R = np.array([r for _, r, _ in _LOCKSTEP])
_LOCKSTEP_CFG = QuadConfig(abs_tol=1e-13, rel_tol=1e-12, max_panels=1000)


def _lockstep_owner(t, k):
    s = np.sin(t)
    return np.exp(1j * _LOCKSTEP_X[k] * (t + s)) / (_LOCKSTEP_R[k] + s * s)


def _result_bits(r):
    return r.value.real.hex(), r.value.imag.hex(), r.err.hex(), r.converged, r.panels


@pytest.mark.parametrize("cap", [None, 16])
def test_lockstep_refinement_is_integrate_finite_per_owner(monkeypatch, cap):
    spans = [(0.0, 1.5, x, spots) for x, _, spots in _LOCKSTEP]
    alone, rounds = [], []
    for k, (a, b, osc, spots) in enumerate(spans):
        calls = []
        alone.append(integrate_finite(
            Integrand(lambda t, k=k: calls.append(t.size) or _lockstep_owner(t, k), osc, spots),
            a, b, _LOCKSTEP_CFG))
        rounds.append(len(calls) - 1)
    # the owners cover what lockstep refinement must keep apart
    assert {1, 2, 3, 4} <= set(rounds)
    assert not alone[5].converged and alone[5].panels <= _LOCKSTEP_CFG.max_panels
    assert all(r.converged for k, r in enumerate(alone) if k != 5)

    sweeps, real_sweep = [], quadrature._sweep

    def recording(fn, owners, lo, hi, sizes, rule):
        sweeps.append(list(sizes))
        return real_sweep(fn, owners, lo, hi, sizes, rule)

    monkeypatch.setattr(quadrature, "_sweep", recording)
    if cap is not None:
        monkeypatch.setattr(quadrature, "_CHUNK_NODES", 15 * cap)
    many = quadrature.integrate_many(_lockstep_owner, spans, _LOCKSTEP_CFG)
    assert [_result_bits(r) for r in many] == [_result_bits(r) for r in alone]
    # one sweep call per round: the first, then one per refinement round
    assert len(sweeps) == 1 + max(rounds)
    # an owner split across chunks
    assert max(sweeps[0]) > quadrature._chunk_panels(quadrature.G7K15)
    if cap is not None:  # a round whose halves fill more than one chunk
        assert any(len(s) > 1 and sum(s) > cap for s in sweeps[1:])


@pytest.mark.parametrize("ks", [[4], [5], [0, 6], [4, 5]])
def test_one_or_two_owners_give_the_same_bits_shared(monkeypatch, ks):
    # integrate_many makes one integrate_finite call per owner up to
    # _ALONE_OWNERS owners; at 0 it shares their sweeps.  The owners cover
    # refinement rounds, a mesh split across chunks (x = 300) and a
    # coarsened one (x = 2500)
    spans = [(0.0, 1.5, _LOCKSTEP[k][0], _LOCKSTEP[k][2]) for k in ks]
    ks = np.array(ks)
    finite, real = [], quadrature.integrate_finite

    def counting(*args, **kwargs):
        finite.append(1)
        return real(*args, **kwargs)

    def fn(t, j):
        return _lockstep_owner(t, ks[j])

    monkeypatch.setattr(quadrature, "integrate_finite", counting)
    alone = quadrature.integrate_many(fn, spans, _LOCKSTEP_CFG)
    assert len(finite) == len(ks)
    monkeypatch.setattr(quadrature, "_ALONE_OWNERS", 0)
    shared = quadrature.integrate_many(fn, spans, _LOCKSTEP_CFG)
    assert len(finite) == len(ks)
    assert [_result_bits(r) for r in shared] == [_result_bits(r) for r in alone]


def test_three_owners_share_their_sweeps(monkeypatch):
    monkeypatch.setattr(quadrature, "integrate_finite",
                        lambda *a, **k: pytest.fail("one by one"))
    spans = [(0.0, 1.5, x, spots) for x, _, spots in _LOCKSTEP[:3]]
    assert len(quadrature.integrate_many(_lockstep_owner, spans, _LOCKSTEP_CFG)) == 3


def _panels_by_reference(fn, lo, hi, rule):
    """One owner's (kronrod, err, resabs), in the plain formulas ``_eval_panels`` must keep."""
    c = 0.5 * (lo + hi)
    hw = 0.5 * (hi - lo)
    nodes = (c[:, None] + hw[:, None] * rule.xgk[None, :]).reshape(-1)
    vals = np.asarray(fn(nodes)).reshape(len(lo), len(rule.xgk))
    kronrod = (np.vecdot(rule.wgk, vals) * hw).astype(np.complex128)
    d = np.abs(kronrod - np.vecdot(rule.wg, vals[:, 1::2]) * hw)
    resabs = np.vecdot(rule.wgk, np.abs(vals)) * hw
    mean = kronrod / np.maximum(2.0 * hw, 1e-300)
    resasc = np.vecdot(rule.wgk, np.abs(vals - mean[:, None])) * hw
    with np.errstate(divide="ignore", invalid="ignore"):
        damped = resasc * np.minimum(1.0, (200.0 * d / resasc) ** 1.5)
    err = np.where(resasc > 0.0, damped, d)
    return kronrod, np.maximum(err, 50.0 * np.finfo(np.float64).eps * resabs), resabs


def _hex(arrays):
    return [[float(v).hex() for v in np.asarray(a).view(np.float64)] for a in arrays]


@settings(max_examples=60, deadline=None)
@given(start=st.floats(-10.0, 10.0),
       widths=st.lists(st.floats(1e-6, 2.0), min_size=1, max_size=40),
       cuts=st.sets(st.integers(1, 39), max_size=6),
       freq=st.floats(-300.0, 300.0), rho=st.floats(1e-3, 10.0), complex_valued=st.booleans(),
       chunk=st.integers(1, 40), rule=st.sampled_from([quadrature.G7K15, quadrature.G10K21]))
def test_eval_panels_is_the_plain_formula_bit_for_bit(start, widths, cuts, freq, rho,
                                                      complex_valued, chunk, rule):
    # a random mesh, cut into owners at random panels, evaluated in one batch
    # that is split into chunks of random size; each owner's slice must come
    # out as a plain evaluation of that slice alone
    edges = np.cumsum([start] + widths)
    lo, hi = edges[:-1], edges[1:]
    rho2 = rho * rho

    def fn(t):
        s = np.sin(t)
        if complex_valued:
            return np.exp(1j * freq * t) / (rho2 + s * s)
        return np.cos(freq * t) / (rho2 + s * s)

    with mock.patch.object(quadrature, "_CHUNK_NODES", len(rule.xgk) * chunk):
        got = quadrature._eval_panels(fn, lo, hi, None, rule)
    bounds = [0] + sorted(k for k in cuts if k < len(lo)) + [len(lo)]
    ref = [np.concatenate(parts) for parts in zip(*(
        _panels_by_reference(fn, lo[s0:s1], hi[s0:s1], rule)
        for s0, s1 in zip(bounds, bounds[1:])))]
    assert _hex(got) == _hex(ref)


@pytest.mark.parametrize("complex_valued", [False, True])
def test_eval_panels_rows_do_not_depend_on_their_offset(complex_valued):
    # every panel of a batch, the strided G7 row included, comes out as that
    # panel alone: at each offset the rows start at a different alignment
    lo = np.linspace(0.0, 3.0, 65)
    lo, hi = lo[:-1], lo[1:]

    def fn(t):
        s = np.sin(t)
        v = np.exp(37j * (t + s)) if complex_valued else np.cos(37.0 * (t + s))
        return v / (1e-4 + s * s)

    batch = quadrature._eval_panels(fn, lo, hi)
    for i in range(len(lo)):
        alone = quadrature._eval_panels(fn, lo[i:i + 1], hi[i:i + 1])
        assert _hex(r[i:i + 1] for r in batch) == _hex(alone)


def test_chunked_multi_owner_sweep_is_integrate_finite_per_owner(monkeypatch):
    # a small _CHUNK_NODES splits sweeps of several owners, and the owner of
    # each node goes with its chunk; every owner still comes out as alone
    spans = [(0.0, 1.5, x, spots) for x, _, spots in _LOCKSTEP]
    alone = [integrate_finite(Integrand(lambda t, k=k: _lockstep_owner(t, k), osc, spots),
                              a, b, _LOCKSTEP_CFG)
             for k, (a, b, osc, spots) in enumerate(spans)]
    split, real = [], quadrature._eval_panels

    def recording(fn, lo, hi, owner, rule):
        if owner is not None and len(lo) > quadrature._chunk_panels(rule):
            split.append(len(np.unique(owner)))
        return real(fn, lo, hi, owner, rule)

    monkeypatch.setattr(quadrature, "_eval_panels", recording)
    monkeypatch.setattr(quadrature, "_CHUNK_NODES", 15 * 7)
    many = quadrature.integrate_many(_lockstep_owner, spans, _LOCKSTEP_CFG)
    assert [_result_bits(r) for r in many] == [_result_bits(r) for r in alone]
    assert split and max(split) > 1


@pytest.mark.parametrize("run", [
    lambda: eval_G(5e3, 1.0, 1e4),      # a lone real-axis owner of 2 501 G10K21 panels
    lambda: quadrature.integrate_many(_lockstep_owner, [(0.0, 1.5, x, spots)
                                                         for x, _, spots in _LOCKSTEP],
                                      _LOCKSTEP_CFG),
    lambda: calibrate.calibrate(quick=True),
], ids=["eval_G", "lockstep", "calibrate-quick"])
def test_no_integrand_call_exceeds_the_chunk(monkeypatch, run):
    # every sweep, single or shared, reaches the integrand in chunks of at
    # most _CHUNK_NODES nodes, so its temporaries do not grow with the sweep
    sweeps, nodes, real = [], [], quadrature._eval_panels

    def recording(fn, lo, hi, owner, rule):
        def counted(t, *k):
            nodes.append(len(t))
            return fn(t, *k)

        sweeps.append(len(lo) * len(rule.xgk))
        return real(counted, lo, hi, owner, rule)

    monkeypatch.setattr(quadrature, "_eval_panels", recording)
    run()
    assert max(sweeps) > quadrature._CHUNK_NODES  # some sweep needs more than one chunk
    assert max(nodes) <= quadrature._CHUNK_NODES == 3840
