import math

import pytest

import goodfun.zeros as zeros_mod
from goodfun import DomainError, eval_H, find_zeros


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
    real_eval_H_many = zeros_mod.eval_H_many

    def noisy(xs, rho, cfg=None):
        out = []
        for x, hv in zip(xs, real_eval_H_many(xs, rho, cfg)):
            if abs(x - (11.0 + 1.0 / 6.0)) < 1e-12:
                hv = type(hv)(h_complex=hv.h_complex, err=abs(hv.h), converged=hv.converged)
            out.append(hv)
        return out

    monkeypatch.setattr(zeros_mod, "eval_H_many", noisy)
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
    real_eval_H_many = zeros_mod.eval_H_many

    def logged(batch, rho, cfg=None):
        batch = list(batch)
        xs.extend(batch)
        rounds.append(batch)
        if len(xs) > limit:
            raise AssertionError(f"more than {limit} oracle points")
        return real_eval_H_many(batch, rho, cfg)

    monkeypatch.setattr(zeros_mod, "eval_H_many", logged)
    return xs, rounds


def test_oracle_calls_per_window(monkeypatch):
    # 5 grid points, 2 + 7 + 7 + 7 subscan points, a few Brent steps per zero
    xs, rounds = _oracle_log(monkeypatch)
    assert len(find_zeros(1.0, 10.0, 13.0)) == 3
    assert len(xs) <= 48
    # one batch for the grid, one for every subscan, then one per Brent step
    # of the three searches run in lockstep
    assert len(rounds) <= 10


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
