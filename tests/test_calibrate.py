"""Calibration reads each oracle point once, in batches, and equals its point-by-point form.

Its constants are reproduced bit for bit, and the Good amplitude's bound
package is the exact norms.
"""
import dataclasses
import math
import warnings

import numpy as np
import pytest

from goodfun import (DomainError, NumericalError, PrecisionError, anger_diag_asym, anger_J,
                     anger_reflected_asym, anger_shifted_asym, eval_H, h_asym_large, h_asym_small,
                     two_term_expansion)
from goodfun import anger, calibrate as cal, good, load_constants, quadrature
from goodfun.constants import Constants
from goodfun.core import cos_pi, sin_pi


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
    batched, _ = good._contours(pairs, (), None)
    for pair, b in zip(pairs, batched):
        (one,), _ = good._contours([pair], (), None)
        assert _bits(b) == _bits(one), pair


def _ratio(oracle, law):
    return abs(oracle - law.value) / law.error_estimate


def _flipped(x, c):
    return math.pi * complex(cos_pi(x), sin_pi(x)) * c.conjugate()


def _reference(quick):
    """calibrate(quick) point by point: one anger_J, eval_H, calA or calH call per read."""
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
            _, (calH,) = good._contours((), [(x, rho)], None)
            engine = max(engine, _ratio(_flipped(x, calH.value),
                                        two_term_expansion(prob, x, unit)))
    for x in g["engine_xs"]:
        (calA,), _ = good._contours([(x, 0.0)], (), None)
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


def _hex(consts):
    return [v.hex() for v in dataclasses.astuple(consts)]


@pytest.mark.parametrize("quick", [True, False])
def test_calibrate_equals_its_point_by_point_reference(quick):
    assert _hex(cal.calibrate(quick)) == _hex(_reference(quick))


def test_quick_calibration_integrates_each_point_once(monkeypatch):
    owners, real_many, real_finite = [], quadrature.integrate_many, quadrature.integrate_finite

    def many(fn, spans, *args, **kwargs):
        owners.append(len(spans))
        return real_many(fn, spans, *args, **kwargs)

    def finite(f, a, b, cfg=None, **kwargs):
        owners.append(1)
        return real_finite(f, a, b, cfg, **kwargs)

    # every oracle integral of good and anger (the contour rays and the
    # real-axis fold) runs through good's integrate_many, and a call of one
    # or two owners through quadrature's integrate_finite
    monkeypatch.setattr(good, "integrate_many", many)
    monkeypatch.setattr(quadrature, "integrate_finite", finite)
    g = cal._grids(True)
    cal.calibrate(quick=True)
    n_calA, n_calH = len(_calA_pairs(g)), len(_calH_points(g))
    assert (n_calA, n_calH) == (7, 6)
    # each calA or calH value is two contour rays, each ray one owner, and
    # every ray one owner of the same integrate call
    assert owners == [2 * (n_calA + n_calH)] == [26]


def _sweeps(monkeypatch, quick):
    """The number of integrand calls of ``calibrate(quick)``, one per chunk of a sweep.

    A chunk is an ``_eval_panels`` call of at most ``_chunk_panels(rule)``
    panels; a longer call only splits itself into such calls.
    """
    calls, real = [], quadrature._eval_panels

    def counting(fn, lo, hi, owner, rule):
        calls.append(len(lo) <= quadrature._chunk_panels(rule))
        return real(fn, lo, hi, owner, rule)

    monkeypatch.setattr(quadrature, "_eval_panels", counting)
    cal.calibrate(quick=quick)
    return sum(calls)


def test_calibration_sweep_counts(monkeypatch):
    # a cost tripwire.  quick: the batch's 26 rays in one 188-panel G10K21
    # sweep of two chunks, which meets every target (no refinement round),
    # and cubic_tail's one integral.  full: 152 rays in one 923-panel sweep
    # of six chunks, no round, two off-band anger_J and five cubic_tail
    # integrals.  On G7K15 rays they took a 317- and a 1556-panel sweep,
    # two rounds each: 5 and 16.  Integrating each point or each rho apart
    # took 19 and 103.
    assert _sweeps(monkeypatch, True) == 3
    assert _sweeps(monkeypatch, False) == 13


def test_calibration_row_sums_per_sweep(monkeypatch):
    # a cost tripwire: the quick calibration's 3 chunks take four np.vecdot
    # row sums each, whatever their owner count; summing each owner's rows
    # apart took 140 calls (on G7K15 rays, 5 chunks)
    row_sums, real = [], np.vecdot

    def counting(*args, **kwargs):
        row_sums.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "vecdot", counting)
    cal.calibrate(quick=True)
    assert len(row_sums) == 4 * 3


def _unconverged(r):
    return r._replace(converged=False) if hasattr(r, "_replace") else dataclasses.replace(
        r, converged=False)


def _spoil_contours(monkeypatch, pair=None, point=None):
    """Spoil calibration's one contour batch: calA at ``pair``, calH at ``point`` unconverged."""
    real, calls = cal._contours, []

    def spoiled(pairs, points, cfg):
        calls.append(len(pairs) + len(points))
        calA, calH = real(pairs, points, cfg)
        return ([_unconverged(r) if p == pair else r for p, r in zip(pairs, calA)],
                [_unconverged(r) if p == point else r for p, r in zip(points, calH)])

    monkeypatch.setattr(cal, "_contours", spoiled)
    return calls


def test_calibration_refuses_an_unconverged_calA(monkeypatch):
    calls = _spoil_contours(monkeypatch, pair=(1e3, 0.0))
    with pytest.raises(NumericalError, match=r"^sweep_anger_diag: .*\(1000\.0, 1000\.0\)"):
        cal.calibrate(quick=True)
    assert calls == [13]  # every calA and calH point in the one batch


@pytest.mark.parametrize("x, rho, sweep", [(1e2, 1.0, "sweep_phase_engine"),
                                           (1e4, 1.0, "sweep_h_large"),
                                           (1e3, 5e-4, "sweep_h_small")])
def test_calibration_refuses_an_unconverged_calH(monkeypatch, x, rho, sweep):
    calls = _spoil_contours(monkeypatch, point=(x, rho))
    with pytest.raises(NumericalError, match=rf"^{sweep}: .*\({x!r}, {rho!r}\)"):
        cal.calibrate(quick=True)
    assert calls == [13]


@pytest.mark.parametrize("point, error", [((50.0, 1.0), DomainError),
                                          ((math.nan, 1.0), DomainError),
                                          ((1e3, 0.0), DomainError),
                                          ((1e3, 1e-7), PrecisionError)])
def test_calibration_validates_every_calH_point_first(monkeypatch, point, error):
    # as eval_H validates it, plus x >= X_C: the batch integrates on the contour
    monkeypatch.setattr(cal, "_contours", lambda *a: pytest.fail("integrated before checking"))
    g = {"anger_xs": [], "shift_xs": [], "shift_ks": [], "engine_rhos": [], "engine_xs": [],
         "large_rhos": [1.0], "large_xs": [1e3], "small_pts": [(*point, "full")]}
    with pytest.raises(error):
        cal._oracles(g)


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


def _dense_bounds(rho):
    """sup|f'|, sup|f''| and the total variation of f'' of 1/(rho^2 + sin^2 t), on a grid.

    The derivatives come from the chain rule, not from the closed forms:
    with r = 1/D, a = sin(2t) r and b = 2 cos(2t) r, f' = -a r and
    f'' = (2 a^2 - b) r.
    f is symmetric about pi/2, so [0, pi/2] is enough: uniform there, and
    geometric toward t = 0, where the peak of width ~rho sits.  A grid max
    and a sum of |jumps| can only fall below the true values.
    """
    t = np.union1d(np.geomspace(1e-10, 0.5, 50_000), np.linspace(0.0, math.pi / 2.0, 20_000))
    r = 1.0 / (rho * rho + np.sin(t) ** 2)
    a = np.sin(2.0 * t) * r
    f2 = (2.0 * a * a - 2.0 * np.cos(2.0 * t) * r) * r
    return np.max(np.abs(a * r)), np.max(np.abs(f2)), 2.0 * np.sum(np.abs(np.diff(f2)))


@pytest.mark.parametrize("rho", [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 1.41,
                                 math.sqrt(2.0), 1.42, 2.0, 10.0, 1e3])
def test_good_amplitude_bounds_are_the_exact_norms(rho):
    # bound / 1.02 is the exact norm, so it agrees with the dense grid to
    # the grid's resolution and never sits below it by more than that
    b = cal.good_amplitude_problem(rho).bounds
    assert b.sup_f == 1.0 / (rho * rho)
    for name, got, ref in zip(("sup_df", "sup_d2f", "int_abs_d3f"),
                              (b.sup_df, b.sup_d2f, b.int_abs_d3f), _dense_bounds(rho)):
        assert abs(got / 1.02 / ref - 1.0) <= 1e-7, (name, got / 1.02 / ref)


# the bounds a 40 001-point grid on [0, pi] gave at huge rho, to 10 digits
_HUGE_RHO = {
    1e50: (1e-100, 1.02e-200, 2.04e-200, 8.159999983e-200),
    1e77: (1e-154, 1.02e-308, 2.04e-308, 8.159999983e-308),
    1e154: (1e-308, 0.0, 0.0, 0.0),
}


@pytest.mark.parametrize("rho", sorted(_HUGE_RHO))
def test_good_amplitude_bounds_stay_finite_at_huge_rho(rho):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        b = cal.good_amplitude_problem(rho).bounds
    got = (b.sup_f, b.sup_df, b.sup_d2f, b.int_abs_d3f)
    assert all(math.isfinite(v) and v >= 0.0 for v in got)
    # abs=0: a bound is 0 exactly where the grid's was
    assert got == pytest.approx(_HUGE_RHO[rho], rel=1e-6, abs=0.0)


@pytest.mark.parametrize("rho", [1e155, 1e200])
def test_good_amplitude_problem_refuses_a_rho_whose_square_overflows(rho):
    # 1/rho^2 would read 0, and so would every bound: a zero error claim
    # for a non-zero amplitude
    with pytest.raises(PrecisionError, match="rho\\^2 overflows"):
        cal.good_amplitude_problem(rho)


def test_full_calibration_reproduces_the_packaged_file_bit_for_bit():
    assert _hex(cal.calibrate()) == _hex(load_constants())


def test_quick_calibration_reproduces_its_pinned_constants_bit_for_bit():
    # 0.2086, 0.04167, 0.05985, 0.7998, 0.1468 and 19.07, as frozen
    assert _hex(cal.calibrate(quick=True)) == [
        "0x1.ab367a0f9096cp-3", "0x1.555c52e72da13p-5", "0x1.ea4a8c154c987p-5",
        "0x1.997f62b6ae7d6p-1", "0x1.2ca57a786c227p-3", "0x1.311eb851eb852p+4"]
