"""Calibration reads each oracle point once, in batches, and equals its point-by-point form."""
import dataclasses
import math

import pytest

from goodfun import (NumericalError, anger_diag_asym, anger_J, anger_reflected_asym,
                     anger_shifted_asym, eval_H, h_asym_large, h_asym_small, two_term_expansion)
from goodfun import anger, calibrate as cal, good
from goodfun.constants import Constants
from goodfun.core import cos_pi, sin_pi
from goodfun.quadrature import integrate_many


def _calA_pairs(g):
    """Every distinct (x, k) of calA that a calibration on grid g reads."""
    anger_pts = ([(x, x) for x in g["anger_xs"]] + [(x, -x) for x in g["anger_xs"]]
                 + [(x + k, -x) for x in g["shift_xs"] for k in g["shift_ks"]])
    pairs = {(x, 0.0) for x in g["engine_xs"]}
    pairs |= {anger._calA_point(nu, x)[:2] for nu, x in anger_pts
              if anger._on_contour(nu, x)}
    return sorted(pairs)


def _calH_points(g):
    pts = {(x, rho) for rho in g["engine_rhos"] for x in g["engine_xs"]}
    pts |= {(x, rho) for rho in g["large_rhos"] for x in g["large_xs"]}
    pts |= {(x, rho) for x, rho, _ in g["small_pts"]}
    return sorted(pts)


def _bits(r):
    return r.value.real.hex(), r.value.imag.hex(), r.err.hex(), r.converged, r.panels


def test_J_is_read_at_the_exact_shift_that_anger_J_integrates():
    # x + 1 rounds to 1024, so anger_J integrates calA(x, 1 - 2^-43), not calA(x, 1)
    x = 1023.0 + 2.0 ** -43
    g = {"anger_xs": [], "shift_xs": [x], "shift_ks": [1, -2], "engine_rhos": [],
         "engine_xs": [], "large_rhos": [], "large_xs": [], "small_pts": []}
    assert anger._calA_point(x + 1, -x)[1] == 1.0 - 2.0 ** -43
    J, _, _ = cal._oracles(g)
    for k in (1, -2):
        one, table = anger_J(x + k, -x), J(x + k, -x)
        assert (one.value.hex(), one.error_estimate.hex(), one.converged) == (
            table.value.hex(), table.error_estimate.hex(), table.converged)


def test_batched_calA_matches_single_calls_bit_for_bit():
    pairs = _calA_pairs(cal._grids(False)) + [(123.4, 3.5), (5825.7, -0.25), (1e5, 2.0)]
    batched = good._anger_contour(pairs, None, integrate_many)
    for pair, b in zip(pairs, batched):
        one, = good._anger_contour([pair], None)
        assert _bits(b) == _bits(one), pair


def _ratio(oracle, law):
    return abs(oracle - law.value) / law.error_estimate


def _flipped(x, c):
    return math.pi * complex(cos_pi(x), sin_pi(x)) * c.conjugate()


def _reference(quick):
    """calibrate(quick) point by point: one anger_J, eval_H or calA call per read."""
    g, unit = cal._grids(quick), cal._UNIT
    diag = max(_ratio(anger_J(x, x).value, anger_diag_asym(x, unit)) for x in g["anger_xs"])
    refl = max(_ratio(anger_J(x, -x).value, anger_reflected_asym(x, unit))
               for x in g["anger_xs"])
    shift = max(_ratio(anger_J(x + k, -x).value, anger_shifted_asym(x, k, unit))
                for x in g["shift_xs"] for k in g["shift_ks"])
    engine = 0.0
    for rho in g["engine_rhos"]:
        prob = cal.good_amplitude_problem(rho)
        for x in g["engine_xs"]:
            engine = max(engine, _ratio(_flipped(x, eval_H(x, rho).h_complex),
                                        two_term_expansion(prob, x, unit)))
    for x in g["engine_xs"]:
        calA, = good._anger_contour([(x, 0.0)], None)
        engine = max(engine, _ratio(_flipped(x, calA.value),
                                    two_term_expansion(cal.unit_amplitude_problem(), x, unit)))
    large = max(_ratio(eval_H(x, rho).h, h_asym_large(x, rho, unit))
                for rho in g["large_rhos"] for x in g["large_xs"])
    small = 0.0
    for x, rho, kind in g["small_pts"]:
        if kind == "full":
            law = h_asym_small(x, rho, constants=unit).value
        elif kind == "case_ii":
            law = cos_pi(x) / (2.0 * rho)
        else:
            law = (math.exp(-2.0 * (x * rho)) + cos_pi(x)) / (2.0 * rho)
        small = max(small, abs(eval_H(x, rho).h - law))
    return Constants(*(cal._freeze(v) for v in (diag, refl, shift, engine, large, small)))


@pytest.mark.parametrize("quick", [True, False])
def test_calibrate_equals_its_point_by_point_reference(quick):
    fresh, ref = cal.calibrate(quick), _reference(quick)
    assert [v.hex() for v in dataclasses.astuple(fresh)] == [
        v.hex() for v in dataclasses.astuple(ref)]


def test_quick_calibration_integrates_each_point_once(monkeypatch):
    owners, real_finite = [], good.integrate_finite

    def many(fn, spans, *args):
        owners.append(len(spans))
        return integrate_many(fn, spans, *args)

    def finite(f, a, b, cfg=None):
        owners.append(1)
        return real_finite(f, a, b, cfg)

    for mod in (cal, good):
        monkeypatch.setattr(mod, "integrate_many", many)
    for mod in (good, anger):
        monkeypatch.setattr(mod, "integrate_finite", finite)
    g = cal._grids(True)
    cal.calibrate(quick=True)
    n_calA, n_calH = len(_calA_pairs(g)), len(_calH_points(g))
    assert (n_calA, n_calH) == (7, 6)
    # each calA or calH value is two contour rays, and each ray one owner
    assert sum(owners) == 2 * (n_calA + n_calH)


def _unconverged(r):
    return r._replace(converged=False) if hasattr(r, "_replace") else dataclasses.replace(
        r, converged=False)


def test_calibration_refuses_an_unconverged_calA(monkeypatch):
    real = cal._anger_contour

    def spoiled(pairs, cfg, integrate=good._each):
        return [_unconverged(r) if p == (1e3, 0.0) else r
                for p, r in zip(pairs, real(pairs, cfg, integrate))]

    monkeypatch.setattr(cal, "_anger_contour", spoiled)
    with pytest.raises(NumericalError, match=r"^sweep_anger_diag: .*\(1000\.0, 1000\.0\)"):
        cal.calibrate(quick=True)


@pytest.mark.parametrize("x, rho, sweep", [(1e2, 1.0, "sweep_phase_engine"),
                                           (1e4, 1.0, "sweep_h_large"),
                                           (1e3, 5e-4, "sweep_h_small")])
def test_calibration_refuses_an_unconverged_calH(monkeypatch, x, rho, sweep):
    real = cal.eval_H_many

    def spoiled(xs, r):
        return [_unconverged(h) if (p, r) == (x, rho) else h for p, h in zip(xs, real(xs, r))]

    monkeypatch.setattr(cal, "eval_H_many", spoiled)
    with pytest.raises(NumericalError, match=rf"^{sweep}: .*\({x!r}, {rho!r}\)"):
        cal.calibrate(quick=True)


def test_calibration_refuses_an_unconverged_cubic_tail(monkeypatch):
    real = cal.h_asym_small
    monkeypatch.setattr(cal, "h_asym_small", lambda *a, **kw: _unconverged(real(*a, **kw)))
    with pytest.raises(NumericalError, match=r"^sweep_h_small: .*\(10000\.0, 0\.001\)"):
        cal.calibrate(quick=True)


def test_calibration_refuses_an_unconverged_real_axis_anger(monkeypatch):
    # the full grid's (x, k) = (100, +-5) lie off the contour band: plain anger_J calls
    real = cal.anger_J
    monkeypatch.setattr(cal, "anger_J", lambda nu, x: _unconverged(real(nu, x)))
    with pytest.raises(NumericalError, match=r"^sweep_anger_shifted: .*\(105\.0, -100\.0\)"):
        cal.calibrate(quick=False)
