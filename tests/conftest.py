import math

import numpy as np
import pytest

from goodfun import quadrature
from goodfun.core import _reduce_mod2


@pytest.fixture
def fevals(monkeypatch):
    """fevals(call, *args): integrand evaluations call(*args) makes, on any path.

    Every integral, single or shared, evaluates its panels through
    ``quadrature._eval_panels``; a sweep longer than a chunk calls it again
    per chunk with the integrand it was given, which is counted already.
    """
    def count(call, *args):
        n = [0]
        real = quadrature._eval_panels

        def counting(fn, *rest):
            if getattr(fn, "counted", False):  # a chunk of a counted sweep
                return real(fn, *rest)

            def counted(t, *k):
                n[0] += np.size(t)
                return fn(t, *k)

            counted.counted = True
            return real(counted, *rest)

        monkeypatch.setattr(quadrature, "_eval_panels", counting)
        call(*args)
        monkeypatch.undo()
        return n[0]

    return count


def _calH_fold(x, rho, cfg=None):
    """calH(x, rho) = (1/pi) int_0^pi exp(i x (th + sin th))/(rho^2 + sin^2 th) dth on the
    real axis, complex, as a ``QuadResult``.

    Folded by th -> pi - u onto [0, pi/2] as ``good._real_fold`` folds G,
    but with its own phases P = x s + pi r and M = x u - pi r (s = sin u,
    r = x/2 reduced exactly modulo 2) and the amplitude
    2 cos M e^{iP}/(rho^2 + s^2), three trig calls a node.  It shares no
    amplitude with the package, which integrates calH only along the
    contour (``good._contours``), from X_C on: this is the contour's
    real-axis reference, and calH itself below X_C.
    """
    rho2, pi_r = rho * rho, math.pi * _reduce_mod2(0.5 * x)

    def fn(u, _k):
        s = np.sin(u)
        p, m = x * s + pi_r, x * u - pi_r
        a = np.cos(m) * (2.0 / (rho2 + s * s))
        z = np.empty(s.shape, np.complex128)
        z.real, z.imag = a * np.cos(p), a * np.sin(p)
        return z

    (r,) = quadrature.integrate_many(
        fn, [(0.0, math.pi / 2, abs(x), (quadrature.HotSpot(0.0, rho),))],
        cfg, rule=quadrature.G10K21)
    return quadrature.QuadResult(r.value / math.pi, r.err / math.pi, r.converged, r.panels)


@pytest.fixture
def calH_fold():
    """calH_fold(x, rho, cfg=None): calH on the real-axis fold (``_calH_fold``)."""
    return _calH_fold
