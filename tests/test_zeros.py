import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest

import goodfun.zeros as zeros_mod
from goodfun import DomainError, ZeroRecord, eval_H, find_zeros, quadrature


def test_three_zeros_on_short_window():
    records = find_zeros(1.0, 10.0, 13.0)
    assert len(records) == 3
    for r, m in zip(records, [10, 11, 12]):
        assert abs(r.x_zero - (m + 2.0 / 3.0)) < 0.05
        assert r.bracket[0] <= r.x_zero <= r.bracket[1]
        assert r.method == "brent"


def test_sign_alternation_at_grid_points():
    rho = 1.0
    values = [eval_H(1.0 / 6.0 + k, rho).h for k in range(20, 25)]
    for a, b in zip(values, values[1:]):
        assert a * b < 0.0


def test_zero_count_per_unit_interval():
    records = find_zeros(1.0, 100.0, 110.0)
    # one zero per alternation interval
    assert len(records) == 10


def test_zeros_increasing_and_separated():
    records = find_zeros(1.0, 20.0, 26.0)
    xs = [r.x_zero for r in records]
    assert xs == sorted(xs)
    assert min(b - a for a, b in zip(xs, xs[1:])) >= 0.5


def test_residuals_meet_tolerance():
    for r in find_zeros(1.0, 15.0, 18.0):
        hv = eval_H(r.x_zero, r.rho)
        assert r.residual <= 1e-9 + hv.err
        assert abs(hv.h) <= 1e-9 + hv.err


def test_drift_toward_cosine_zeros():
    # deviation from m + 2/3 shrinks as x grows at fixed rho
    near = find_zeros(1.0, 10.0, 12.0)[0]
    far = find_zeros(1.0, 1000.0, 1002.0)[0]
    dev_near = abs(near.x_zero - round(near.x_zero - 2.0 / 3.0) - 2.0 / 3.0)
    dev_far = abs(far.x_zero - round(far.x_zero - 2.0 / 3.0) - 2.0 / 3.0)
    assert dev_far < dev_near


def test_ambiguous_sign_skipped_and_logged(monkeypatch, caplog):
    real_h_many = zeros_mod._h_many

    def noisy(xs, rho, cfg=None):
        out = []
        for x, hv in zip(xs, real_h_many(xs, rho, cfg)):
            if abs(x - (11.0 + 1.0 / 6.0)) < 1e-12:
                hv = hv._replace(err=abs(hv.value))
            out.append(hv)
        return out

    monkeypatch.setattr(zeros_mod, "_h_many", noisy)
    with caplog.at_level("WARNING", logger="goodfun.zeros"):
        records = find_zeros(1.0, 10.0, 13.0)
    # both brackets touching the ambiguous point are dropped, not forced
    assert len(records) == 1
    assert any("ambiguous sign" in rec.message for rec in caplog.records)


def test_domain_errors():
    with pytest.raises(DomainError):
        find_zeros(0.0, 10.0, 13.0)
    with pytest.raises(DomainError):
        find_zeros(1.0, 13.0, 10.0)
    with pytest.raises(DomainError):
        find_zeros(1.0, 1.0, 5.0)
    with pytest.raises(DomainError):
        find_zeros(1.0, 10.01, 10.02)  # no alternation points inside


def _oracle_log(monkeypatch, limit=1000):
    """Record the points and the batches (rounds) of the batched oracle
    find_zeros calls; fail past limit points."""
    xs, rounds = [], []
    real_h_many = zeros_mod._h_many

    def logged(batch, rho, cfg=None):
        batch = list(batch)
        xs.extend(batch)
        rounds.append(batch)
        if len(xs) > limit:
            raise AssertionError(f"more than {limit} oracle points")
        return real_h_many(batch, rho, cfg)

    monkeypatch.setattr(zeros_mod, "_h_many", logged)
    return xs, rounds


def test_oracle_calls_per_window(monkeypatch):
    # 5 grid points, 2 + 7 + 7 + 7 subscan points, a few Brent steps per zero
    xs, rounds = _oracle_log(monkeypatch)
    assert len(find_zeros(1.0, 10.0, 13.0)) == 3
    assert len(xs) <= 48
    # one batch for the grid, one for every subscan, then one per Brent step
    # of the three searches run in lockstep
    assert len(rounds) <= 10


def test_row_sums_per_sweep(monkeypatch):
    # a cost tripwire: every chunk of a sweep takes its four weighted row
    # sums in four np.vecdot calls, however many owners it holds.
    # find_zeros(1, 10, 13) evaluates 3 to 23 points per batch in 6 sweeps,
    # one per batch (no owner refines), of one chunk each: the subscans'
    # 138 G10K21 panels fit a chunk of 182 (their 334 G7K15 panels took two).
    # Summing each owner's rows apart took 320 calls.
    sweeps, chunks, row_sums = [], [], []
    real_sweep, real_eval_panels = quadrature._sweep, quadrature._eval_panels
    real_vecdot = np.vecdot

    def sweep(fn, owners, lo, hi, sizes, rule):
        sweeps.append(len(lo))
        return real_sweep(fn, owners, lo, hi, sizes, rule)

    def eval_panels(fn, lo, hi, owner, rule):
        if len(lo) <= quadrature._chunk_panels(rule):  # a longer call splits itself into chunks
            chunks.append(len(lo))
        return real_eval_panels(fn, lo, hi, owner, rule)

    def vecdot(*args, **kwargs):
        row_sums.append(1)
        return real_vecdot(*args, **kwargs)

    monkeypatch.setattr(quadrature, "_sweep", sweep)
    monkeypatch.setattr(quadrature, "_eval_panels", eval_panels)
    monkeypatch.setattr(np, "vecdot", vecdot)
    assert len(find_zeros(1.0, 10.0, 13.0)) == 3
    assert len(sweeps) == 6 and len(chunks) == 6
    assert len(row_sums) == 4 * len(chunks) == 24


def _bisect(h, lo, hi):
    f_lo = h(lo)
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        f_mid = h(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _bisection_zeros(rho, x_min, x_max):
    """Reference: every sign change on the 1/8 subgrid of the alternation
    intervals around the window, bisected to width 1e-10."""
    def h(x):
        return eval_H(x, rho).h

    k_lo = math.ceil(x_min - 1.0 / 6.0) - 1
    k_hi = math.floor(x_max - 1.0 / 6.0) + 1
    pts = [1.0 / 6.0 + k + j / 8.0 for k in range(k_lo, k_hi) for j in range(8)]
    pts.append(1.0 / 6.0 + k_hi)
    values = [h(x) for x in pts]
    zeros = []
    for (lo, f_lo), (hi, f_hi) in zip(zip(pts, values), zip(pts[1:], values[1:])):
        if (f_lo > 0.0) != (f_hi > 0.0):
            x0 = _bisect(h, lo, hi)
            if x_min <= x0 <= x_max:
                zeros.append(x0)
    return zeros


@pytest.mark.parametrize("rho,x_min,x_max", [
    (rho, x0, x0 + 3.0) for rho in (0.3, 1.0, 2.0) for x0 in (3.0, 21.7, 40.3, 57.0)
] + [(0.5, 95.0, 105.0)])
def test_zeros_match_bisection(rho, x_min, x_max):
    records = find_zeros(rho, x_min, x_max)
    reference = _bisection_zeros(rho, x_min, x_max)
    assert len(records) == len(reference) > 0
    for r, x_ref in zip(records, reference):
        assert abs(r.x_zero - x_ref) <= zeros_mod._BRACKET_WIDTH
        lo, hi = eval_H(r.x_zero - 1e-9, rho).h, eval_H(r.x_zero + 1e-9, rho).h
        assert (lo > 0.0) != (hi > 0.0)


def test_out_of_window_sign_changes_not_refined(monkeypatch, caplog):
    # the grid's extension points 9 + 1/6 and 13 + 1/6 bracket the zeros
    # near 9.67 and 12.67, both outside [10, 12.5]
    xs, _ = _oracle_log(monkeypatch)
    with caplog.at_level("DEBUG", logger="goodfun.zeros"):
        records = find_zeros(1.0, 10.0, 12.5)
    assert [round(r.x_zero) for r in records] == [11, 12]
    assert [x for x in xs if x < 10.0 - 1.0 / 8.0] == [9.0 + 1.0 / 6.0]
    assert [x for x in xs if x > 12.5 + 1.0 / 8.0] == [13.0 + 1.0 / 6.0]
    skipped = [r for r in caplog.records if "not refined" in r.message]
    assert len(skipped) == 2
    refined = [r for r in caplog.records if "oracle calls" in r.message]
    assert len(refined) == 2


def test_refinement_ends_where_floats_are_sparser_than_the_bracket_width(monkeypatch):
    # near 1e6 adjacent floats are 1.2e-10 apart, wider than _BRACKET_WIDTH
    xs, _ = _oracle_log(monkeypatch)
    records = find_zeros(1.0, 1e6, 1e6 + 1.5)
    assert len(xs) <= 48
    assert len(records) == 1
    x0 = records[0].x_zero
    assert abs(x0 - (1e6 + 2.0 / 3.0)) < 1e-3
    lo, hi = eval_H(x0 - 1e-9, 1.0).h, eval_H(x0 + 1e-9, 1.0).h
    assert (lo > 0.0) != (hi > 0.0)


def test_zeros_at_a_large_rho_on_the_contour(caplog):
    # |H| ~ 1/rho^2 at rho = 1e30; the contour's error claim falls as fast,
    # so no grid point is ambiguous in sign
    with caplog.at_level("WARNING", logger="goodfun.zeros"):
        records = find_zeros(1e30, 150.0, 153.0)
    assert [round(r.x_zero - 2.0 / 3.0) for r in records] == [150, 151, 152]
    assert all(abs(r.x_zero - (round(r.x_zero - 2.0 / 3.0) + 2.0 / 3.0)) < 1e-3
               for r in records)
    assert caplog.records == []


def test_zeros_keep_their_bits():
    # x_zero, bracket_lo, bracket_hi and residual of the three zeros on [10, 13]
    pins = [("0x1.543341d03cdd8p+3", "0x1.4555555555555p+3", "0x1.6555555555555p+3",
             "0x1.0d56c68bf6a74p-39"),
            ("0x1.743b926a0ed92p+3", "0x1.6555555555555p+3", "0x1.8555555555555p+3",
             "0x1.fc1a128315544p-40"),
            ("0x1.944348266ec03p+3", "0x1.8555555555555p+3", "0x1.a555555555555p+3",
             "0x1.da4ce5cb5b7f7p-40")]
    records = find_zeros(1.0, 10.0, 13.0)
    assert [(r.x_zero.hex(), r.bracket_lo.hex(), r.bracket_hi.hex(), r.residual.hex())
            for r in records] == pins
    assert all(r.rho == 1.0 and r.method == "brent" for r in records)


def test_zeros_cost_tripwire(fevals):
    # 40 fold points (5 on the grid, 23 in subscans, 12 Brent steps) of 6
    # G10K21 panels each, none refined; 8 775 evaluations on G7K15 panels of
    # a quarter period
    assert fevals(find_zeros, 1.0, 10.0, 13.0) == 5040


def test_zero_record_keeps_its_bracket_as_two_floats():
    r = ZeroRecord(x_zero=10.6, bracket_lo=10.1, bracket_hi=11.2, rho=1.0, residual=1e-17)
    assert r.bracket == (10.1, 11.2) and (r.bracket_lo, r.bracket_hi) == r.bracket
    assert r == ZeroRecord(10.6, 10.1, 11.2, 1.0, 1e-17) and r.method == "brent"
    assert r != ZeroRecord(10.6, 10.1, 11.3, 1.0, 1e-17)
    assert hash(r) == hash(ZeroRecord(10.6, 10.1, 11.2, 1.0, 1e-17))
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.x_zero = 10.7
    with pytest.raises(DomainError, match="ordered"):
        ZeroRecord(10.6, 11.2, 10.1, 1.0, 0.0)
    with pytest.raises(DomainError, match="outside"):
        ZeroRecord(11.5, 10.1, 11.2, 1.0, 0.0)


def test_a_retained_zero_record_holds_no_tuple():
    # each record costs its own slots and a list entry; a bracket tuple
    # would add 56 bytes a record
    xs = [10.0 + k / 1024.0 for k in range(1000)]
    los, his = [x - 0.5 for x in xs], [x + 0.5 for x in xs]
    size = sys.getsizeof(ZeroRecord(xs[0], los[0], his[0], 1.0, 0.0))
    assert size == 72
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = [ZeroRecord(x, lo, hi, 1.0, 0.0) for x, lo, hi in zip(xs, los, his)]
        per_record = (tracemalloc.get_traced_memory()[0] - before) / len(kept)
    finally:
        tracemalloc.stop()
    assert size <= per_record <= size + 16
