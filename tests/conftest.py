import numpy as np
import pytest

from goodfun import quadrature
from goodfun.quadrature import Integrand


@pytest.fixture
def fevals(monkeypatch):
    """fevals(call, *args): integrand evaluations call(*args) makes on the contour.

    A single point's contour rays are an ``integrate_many`` call of two
    owners, which makes one ``integrate_finite`` call per ray.
    """
    def count(call, *args):
        n = [0]
        integrate = quadrature.integrate_finite

        def counting(f, *rest):
            def fn(t):
                n[0] += np.size(t)
                return f.fn(t)
            return integrate(Integrand(fn, f.osc_frequency, f.hot_spots), *rest)

        monkeypatch.setattr(quadrature, "integrate_finite", counting)
        call(*args)
        monkeypatch.undo()
        return n[0]

    return count
