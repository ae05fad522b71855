import math

import pytest

from goodfun import (DomainError, EvalResult, HValue, NumericalError, PrecisionError,
                     QuadConfig, Regime, RegimeKind, anger_J, classify, eval_G, eval_Q,
                     h_approx, load_constants)
from goodfun.core import cos_pi, lockstep, require_phase, sin_pi


def test_quad_config_rejects_nonpositive():
    with pytest.raises(DomainError):
        QuadConfig(abs_tol=0.0)
    with pytest.raises(DomainError):
        QuadConfig(max_panels=0)


def test_regime_diagnostics_consistent():
    # s must equal u*rho^2 to within one rounding
    for x, rho in [(1e5, 1e-4), (3.7, 0.23), (1e3, 7.0)]:
        r = Regime(RegimeKind.LARGE_S, x, rho)
        u = x * rho
        assert r.u == u
        assert math.isclose(r.s, u * rho * rho, rel_tol=3e-16, abs_tol=0.0)


def test_eval_result_validation():
    with pytest.raises(NumericalError):
        EvalResult(value=1.0, error_estimate=float("inf"), method="oracle")
    with pytest.raises(NumericalError):
        EvalResult(value=1.0, error_estimate=-1e-3, method="oracle")
    with pytest.raises(DomainError):
        EvalResult(value=1.0, error_estimate=0.0, method="magic")
    r = Regime(RegimeKind.LARGE_S, 10.0, 1.0)
    with pytest.raises(DomainError):
        EvalResult(value=1.0, error_estimate=0.0, method="oracle", regime=r)
    ok = EvalResult(value=1.0, error_estimate=0.0, method="asymptotic", regime=r)
    assert ok.regime is r


@pytest.mark.parametrize("a, b, length", [
    (1e308, 1e308, 1.0),           # the terms add: 2e308
    (-1e308, -1e308, 1.0),
    (1e308, 0.0, math.pi),         # the ramp alone: pi * 1e308
    (-1e308, 1e308, math.pi),      # the terms cancel, but the ramp overflows
])
def test_require_phase_refuses_overflow(a, b, length):
    with pytest.raises(PrecisionError, match="overflows binary64"):
        require_phase("a*th + b*sin(th)", a, b, length)


@pytest.mark.parametrize("a, b, length", [
    (1e308, -1e308, 1.0),          # they cancel and each term is finite
    (5e307, -1.5e308, math.pi),
    (5e307, 5e307, 1.0),
    (0.0, 1.7e308, math.pi),
])
def test_require_phase_accepts_finite_terms(a, b, length):
    require_phase("a*th + b*sin(th)", a, b, length)


@pytest.mark.parametrize("call", [
    lambda: eval_G(1e308, 1.0, 1e308),
    lambda: eval_G(1e308, 1.0, -1e308),   # the folded right half adds
    lambda: eval_Q(1e308, 2.0, 1e308),
    lambda: anger_J(1e308, 1e308),
    lambda: anger_J(1.5e308, 0.0),
    lambda: anger_J(5e307, 1.5e308),      # nu*u + x*sin u on the folded half
], ids=["eval_G", "eval_G-negative-x", "eval_Q", "anger_J", "anger_J-x=0", "anger_J-fold"])
def test_oracles_refuse_a_phase_beyond_binary64(call):
    # before numpy overflows (a RuntimeWarning, then NumericalError); every
    # real-axis oracle sums both halves of [0, pi] on [0, pi/2], so it is the
    # phase on [0, pi/2] with both terms added that must stay finite
    with pytest.raises(PrecisionError, match="overflows binary64"):
        call()


def test_cos_pi_exact_points():
    assert cos_pi(0.0) == 1.0
    assert cos_pi(1.0) == -1.0
    assert cos_pi(2.0) == 1.0
    # exact reduction keeps huge even integers exact
    assert cos_pi(1e6) == 1.0
    assert cos_pi(6.0 - 1.0 / 6.0) == pytest.approx(math.sqrt(3) / 2, rel=1e-15)
    assert abs(cos_pi(0.5)) < 1e-16
    assert abs(cos_pi(1e6 + 0.5)) < 1e-15


def test_sin_pi_exact_points():
    assert sin_pi(0.0) == 0.0
    assert abs(sin_pi(1e6)) == 0.0
    assert sin_pi(0.5) == 1.0
    assert sin_pi(2.5) == 1.0
    assert sin_pi(-0.5) == -1.0


def test_cos_pi_matches_naive_for_moderate_args():
    for x in [0.123, 1.77, -2.9, 17.0 / 3.0]:
        assert cos_pi(x) == pytest.approx(math.cos(math.pi * x), abs=1e-14)
        assert sin_pi(x) == pytest.approx(math.sin(math.pi * x), abs=1e-14)


def test_result_types_have_no_instance_dict():
    # slotted: a caller that keeps many results pays no per-instance dict
    for obj in (EvalResult(1.0, 0.0, "oracle"), Regime(RegimeKind.LARGE_S, 10.0, 1.0),
                HValue(1.0, 0.0), QuadConfig(), load_constants()):
        assert not hasattr(obj, "__dict__"), type(obj).__name__


def test_regime_keeps_the_callers_numbers():
    # a retained classification references x and rho instead of holding s, u
    x, rho = 1234.5, 0.0625
    for r in (Regime(RegimeKind.FINITE_U, x, rho), classify(x, rho),
              h_approx(x, rho).regime):
        assert r.x is x and r.rho is rho
        assert (r.u, r.s) == (x * rho, x * rho * rho * rho)


def _countdown(n, tag):
    """A task that asks n times, then returns its tag and the replies it got."""
    replies = []
    for i in range(n):
        replies.append((yield (tag, i)))
    return tag, replies


def test_lockstep_answers_each_round_in_one_call():
    tasks = {"c": _countdown(3, "c"), "a": _countdown(1, "a"), "z": _countdown(0, "z"),
             "b": _countdown(2, "b")}
    calls = []

    def answer(keys, requests):
        calls.append((keys, requests))
        return [f"{tag}{i}" for tag, i in requests]

    results = lockstep(tasks, answer)
    # one call per round, with only the unfinished keys, in the given order;
    # "z" returns before it yields and never reaches answer
    assert calls == [(["c", "a", "b"], [("c", 0), ("a", 0), ("b", 0)]),
                     (["c", "b"], [("c", 1), ("b", 1)]),
                     (["c"], [("c", 2)])]
    # tasks that finish in different rounds get their results by key
    assert results == {"a": ("a", ["a0"]), "b": ("b", ["b0", "b1"]),
                       "c": ("c", ["c0", "c1", "c2"]), "z": ("z", [])}


def test_lockstep_of_no_tasks_makes_no_call():
    def answer(keys, requests):
        raise AssertionError("answer called without a task")

    assert lockstep({}, answer) == {}
    assert lockstep({0: _countdown(0, 0)}, answer) == {0: (0, [])}


def test_lockstep_refuses_an_answer_of_the_wrong_length():
    # a task left without its reply would go missing from the results
    with pytest.raises(ValueError):
        lockstep({0: _countdown(1, 0), 1: _countdown(1, 1)}, lambda keys, asked: ["only one"])
