import numpy as np
import pytest

from goodfun import quadrature


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
