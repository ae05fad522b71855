"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are the frozen ones from the constants file plus the
stated analytic bounds; nothing here is tuned at test time.
"""
import cmath
import json
import math

import numpy as np
import pytest

from goodfun import (anger_J, anger_shifted_asym,
                     bounds_H, cubic_tail, eval_G, eval_H, eval_Q,
                     find_zeros, h_asym_large, h_asym_small, i_lambda_asym,
                     i_lambda_oracle, load_constants, ode_residual, q_from_g,
                     series_partial_sum)
from goodfun.cli import main as cli_main
from goodfun.core import cos_pi

CONSTS = load_constants()


class _criterion:
    def __init__(self, number: int, name: str):
        self.number = number
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance] criterion {self.number:>2} ({self.name}): {verdict}",
              flush=True)
        return False


def test_criterion_01_closed_form_anchor():
    with _criterion(1, "closed-form anchor H(0, rho)"):
        for rho in [1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0]:
            hv = eval_H(0.0, rho)
            exact = 1.0 / (rho * math.sqrt(1.0 + rho * rho))
            assert abs(hv.h - exact) <= 1e-10, rho


def test_criterion_02_derivative_bounds():
    with _criterion(2, "a-priori bounds on H and its derivatives"):
        hx = 1e-4
        for rho in np.geomspace(1e-2, 10.0, 6):
            hr = 1e-4 * rho
            for x in np.geomspace(1.0, 1e4, 6):
                x, rho = float(x), float(rho)
                b = bounds_H(x, rho)
                hv = eval_H(x, rho)
                assert abs(hv.h) <= b.b0 + 2.0 * hv.err
                p, m = eval_H(x + hx, rho), eval_H(x - hx, rho)
                slack = (p.err + m.err) / hx
                assert abs(p.h - m.h) / (2 * hx) <= b.bx + 2.0 * slack
                p, m = eval_H(x, rho + hr), eval_H(x, rho - hr)
                slack = (p.err + m.err) / hr
                assert abs(p.h - m.h) / (2 * hr) <= b.brho + 2.0 * slack


def test_criterion_03_anger_comparison():
    with _criterion(3, "large-rho Anger comparison, |R| <= rho^-4"):
        for rho in [2.0, 5.0, 10.0, 50.0]:
            for x0 in [0.0, 1.0, 2.0, 5.0, 10.0]:
                hv = eval_H(x0, rho)
                j = anger_J(x0, -x0)
                lhs = abs(hv.h - j.value / (rho * rho))
                assert lhs <= rho ** -4 + 2.0 * (hv.err + j.error_estimate), (rho, x0)


def test_criterion_04_large_s_remainder():
    with _criterion(4, "large-s law: x rho^4 |R| <= C_large and 1/x decay"):
        xs = np.geomspace(1e2, 1e5, 8)
        max_r = np.zeros(len(xs))
        for rho in [0.5, 1.0, 2.0]:
            for j, x in enumerate(xs):
                x = float(x)
                r = abs(eval_H(x, rho).h - h_asym_large(x, rho).value)
                assert x * rho ** 4 * r <= CONSTS.c_h_large, (x, rho)
                max_r[j] = max(max_r[j], r)
        slope = np.polyfit(np.log(xs), np.log(max_r), 1)[0]
        assert slope <= -1.0 + 0.15, slope


def test_criterion_05_small_rho_cases():
    with _criterion(5, "small-rho case formulas, O(1) error, rel <= 1%"):
        # case (ii): u = 10, s = 1e-7
        x, rho = 1e5, 1e-4
        h = eval_H(x, rho).h
        case = cos_pi(x) / (2.0 * rho)
        assert abs(h - case) <= CONSTS.c_h_small
        assert abs(h - case) / abs(case) <= 0.01
        assert abs(case) >= 1e3
        # case (iii): u = 0.5
        x, rho = 1e3, 5e-4
        h = eval_H(x, rho).h
        u = x * rho
        case = (math.exp(-2.0 * u) + cos_pi(x)) / (2.0 * rho)
        assert abs(h - case) <= CONSTS.c_h_small
        assert abs(h - case) / abs(case) <= 0.01
        assert abs(case) >= 1e3


def test_criterion_06_critical_regime():
    with _criterion(6, "critical regime s ~ 1 and polar reconstruction"):
        rho = 1e-2
        for s in [0.5, 1.0, 6.0]:
            x = s / rho ** 3
            h = eval_H(x, rho).h
            approx = h_asym_small(x, rho)
            assert abs(h - approx.value) <= CONSTS.c_h_small, s
            v = cubic_tail(approx.regime.s)
            c_mod, psi_arg = abs(v.value), cmath.phase(v.value) / math.pi
            recon = c_mod * complex(math.cos(math.pi * psi_arg),
                                    math.sin(math.pi * psi_arg))
            assert abs(v.value - recon) <= 1e-12


def test_criterion_07_i_lambda_bound_verbatim():
    with _criterion(7, "I(lam) one-term law with explicit 1/(3 lam) bound"):
        for lam in [10.0, 1e2, 1e3, 1e4]:
            oracle = i_lambda_oracle(lam)
            law = i_lambda_asym(lam)
            assert law.error_estimate == 1.0 / (3.0 * lam)
            assert abs(oracle.value - law.value) <= law.error_estimate + oracle.err, lam


def test_criterion_08_shifted_anger_remainder():
    with _criterion(8, "shifted-Anger two-term law, scaled remainder"):
        for x in [1e2, 1e3, 1e4]:
            for k in [0, 1, -1, 2, -2, 5, -5]:
                j = anger_J(x + k, -x)
                a = anger_shifted_asym(x, k)
                scaled = x * abs(j.value - a.value) / (1.0 + abs(k) ** 3)
                assert scaled <= CONSTS.c_anger_shifted, (x, k)


def test_criterion_09_identities():
    with _criterion(9, "ODE residual, Anger series, Q-G relation"):
        ratios = []
        for gamma in [0.0, 1.0, 2.0]:
            for rho in [0.5, 1.0, 2.0]:
                for x in [0.5, 1.0, 3.0]:
                    assert ode_residual(gamma, rho, x, 1e-3) < 1e-4, (gamma, rho, x)
                    r1 = ode_residual(gamma, rho, x, 1e-1)
                    r2 = ode_residual(gamma, rho, x, 1e-2)
                    ratios.append(r1 / max(r2, 1e-300))
        assert np.median(ratios) >= 20.0  # second-order decay signature
        series = series_partial_sum(2.0, 1.0, 3.0, 40)
        # the geometric tail bound at rho = 1, K = 40, without the Anger errors
        beta = math.sqrt(2.0)
        t = math.log(1.0 + beta)
        tail = 2.0 / beta * math.exp(-42.0 * t) / (1.0 - math.exp(-2.0 * t))
        assert tail <= series.error_estimate and series.converged
        g = eval_G(2.0, 1.0, 3.0)
        assert abs(series.value - g.value) <= tail + 2.0 * (g.error_estimate + 1e-9)
        for xi in [1.01, math.sqrt(2.0), 2.0, 10.0]:
            for gamma in [1.0, 2.0, 5.0]:
                for x in [0.0, 1.0, 10.0, 100.0]:
                    d = abs(q_from_g(gamma, xi, x).value
                            - eval_Q(gamma, xi, x).value)
                    assert d <= 1e-9, (xi, gamma, x)


def test_criterion_10_zeros():
    with _criterion(10, "one zero per alternation interval, residuals, drift"):
        records = find_zeros(1.0, 10.0 + 1.0 / 6.0, 31.0 + 1.0 / 6.0)
        homes = [math.floor(r.x_zero - 1.0 / 6.0) for r in records]
        assert homes == list(range(10, 31))  # exactly one zero per interval
        devs = []
        for r in records:
            hv = eval_H(r.x_zero, 1.0)
            assert abs(hv.h) <= 1e-9 + hv.err
            m = math.floor(r.x_zero - 1.0 / 6.0)
            devs.append(abs(r.x_zero - (m + 2.0 / 3.0)))
        assert np.mean(devs[-5:]) < np.mean(devs[:5])
        assert devs[-1] < devs[0]


def test_criterion_11_overlap_consistency():
    with _criterion(11, "large-s and small-rho laws agree on the overlap"):
        x, rho = 1e5, 0.3
        big = h_asym_large(x, rho)
        small = h_asym_small(x, rho)
        assert abs(big.value - small.value) <= (big.error_estimate
                                                + small.error_estimate)


def test_criterion_12_determinism(tmp_path):
    with _criterion(12, "byte-identical compare tables"):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["compare", "--rho", "1", "--x-range", "1e2:1e3",
                "--points", "10"]
        assert cli_main(args + ["--out", str(a)]) == 0
        assert cli_main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        ma = json.loads((tmp_path / "a.csv.manifest.json").read_text())
        mb = json.loads((tmp_path / "b.csv.manifest.json").read_text())
        assert ma["parameters"] == mb["parameters"]
        assert ma["constants_file_hash"] == mb["constants_file_hash"]
