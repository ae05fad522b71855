"""goodfun: Good's special functions by quadrature and by asymptotics.

The package evaluates the damped oscillatory integrals

    G_{gamma,rho}(x), Q_{gamma,xi}(x), H(x, rho) = G_{x,rho}(x)

and the Anger function J_nu(x) by adaptive quadrature (the oracle), and
provides the closed-form asymptotic approximations of H and J in every
parameter regime, each carrying an explicit error estimate whose constant
was calibrated against the oracle and frozen.
"""
from .core import (DomainError, EnvelopeViolated, EvalResult, GoodFunError,
                   HypothesisViolated, NumericalError, PrecisionError,
                   QuadConfig, Regime, RegimeKind)
from .constants import Constants, load_constants, save_constants
from .quadrature import (HotSpot, Integrand, QuadResult, integrate_finite,
                         integrate_tail)
from .good import HBounds, HValue, bounds_H, eval_G, eval_H, eval_Q
from .anger import (anger_J, anger_diag_asym, anger_reflected_asym,
                    anger_shifted_asym)
from .phase import (AmplitudeBounds, PhaseProblem, check_hypotheses,
                    expansion_with_conjugation, substitution_tau,
                    two_term_expansion)
from .regimes import (classify, corollary_path_main, cubic_tail, h_approx,
                      h_asym_large, h_asym_small, i_lambda_asym, i_lambda_oracle)
from .identities import ode_residual, q_from_g, series_partial_sum
from .zeros import ZeroRecord, find_zeros

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
