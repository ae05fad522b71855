"""Tests of the benchmark harness itself.

Run from the checkout root: python3 -m pytest -q perfbench/tests
"""
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import goodfun.good
import goodfun.zeros
from perfbench import workloads
from perfbench.reference import h_reference
from perfbench.tracer import Tracer

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def tracer():
    t = Tracer()
    t.install()
    yield t
    t.uninstall()


# integrand evaluations of the seed code base, counted by hand from its mesh
@pytest.mark.parametrize("x, rho, fevals", [
    (10.0, 1.0, 285),
    (1e3, 1.0, 22_590),
    (1e4, 1e-3, 225_195),
    (1e5, 1.0, 2_250_075),
])
def test_eval_H_fevals_probe(tracer, x, rho, fevals):
    goodfun.good.eval_H(x, rho)
    assert tracer.counts["fevals"] == fevals
    assert tracer.summary()["good.eval_H.calls"] == 1
    assert tracer.summary()["good.eval_H>quadrature.integrate_finite"] == 2


def test_find_zeros_probe(tracer):
    records = goodfun.zeros.find_zeros(1.0, 10.0, 13.0)
    summary = tracer.summary()
    assert len(records) == 3
    assert tracer.counts["zeros_found"] == 3
    assert summary["zeros.find_zeros>good.eval_H"] == 160
    assert summary["zeros.find_zeros.self_s"] < summary["zeros.find_zeros.busy_s"]


def test_uninstall_restores_every_reference():
    original = goodfun.good.eval_H
    t = Tracer()
    t.install()
    assert goodfun.zeros.eval_H is not original
    assert goodfun.zeros.eval_H.__wrapped__ is original
    t.uninstall()
    assert goodfun.zeros.eval_H is original
    assert goodfun.good.eval_H is original


@pytest.mark.parametrize("x, rho", [(10.0, 1.0), (177.8, 1e-3), (1e4, 1e-3), (4e4, 0.5)])
def test_reference_agrees_with_oracle(x, rho):
    oracle = goodfun.good.eval_H(x, rho)
    ref = h_reference(x, rho)
    assert abs(oracle.h - ref.value) <= oracle.err + ref.err


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_depend_only_on_seed(name):
    w = workloads.WORKLOADS[name]
    first, again, other = workloads.ops(w, 7), workloads.ops(w, 7), workloads.ops(w, 8)
    assert first == again
    assert len(first) == len(other)
    assert (first != other) == (name != "calibrate-quick")


def test_compare_set_covers_every_half_decade_equally():
    w = workloads.WORKLOADS["compare-wide-x"]
    op_set = workloads.ops(w, 3)
    for start in range(0, len(op_set), 7):
        strata = [int((math.log10(x) - 2.0) // 0.5) for x, _ in op_set[start:start + 7]]
        assert strata == list(range(7))
    # within a half-decade, each eighth holds exactly one op
    eighths = sorted(int((math.log10(x) - 2.0) // (0.5 / 8)) for x, _ in op_set)
    assert eighths == list(range(56))
    assert all(1e-3 <= rho <= 2.0 for _, rho in op_set)


def test_zeros_set_is_a_latin_hypercube():
    w = workloads.WORKLOADS["zeros-small-x"]
    op_set = workloads.ops(w, 3)
    n = len(op_set)
    x_bins = [int((x0 - 3.0) / (57.0 / n)) for _, x0, _ in op_set]
    r_bins = sorted(int(math.log(rho / 0.3) / (math.log(2.0 / 0.3) / n)) for rho, _, _ in op_set)
    assert x_bins == list(range(n))
    assert r_bins == list(range(n))
    assert all(x1 - x0 == pytest.approx(3.0) for _, x0, x1 in op_set)


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "zeros-small-x",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
