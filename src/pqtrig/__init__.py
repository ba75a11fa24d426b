"""Generalized (p,q)-trigonometric and hyperbolic functions.

For exponents p, q > 1 the package computes arcsin_pq, arccos_pq and
arcsinh_pq (defined by the integrals of (1 -+ t**q)**(-1/p)), their
inverses sin_pq, cos_pq and sinh_pq, the constants half_pi_pq and
m_star_pq, Hölder means, and a lab that mechanically verifies the
inequality, limit and monotonicity claims these functions satisfy.
Each claim is one registered check (``CHECK_NAMES``), asked at one
point with ``check_at`` or over a grid with ``run_sweep``.

Every forward value is a hypergeometric series with a rigorous
truncation bound.  The series kernels exist twice: a hand-written C
extension (``_dequad_c.c``) for speed and a pure-Python twin
(``_dequad_py``) selected automatically when the extension is missing
(or when ``PQTRIG_PURE_PYTHON=1``); see :func:`backend_name`.  The
tanh-sinh integrator ``integrate_singular`` is offered for integrands
given as callables.  A Hölder order is a plain float.
"""

from ._backend import backend_name
from .errors import ComputationError, DomainError, PQTrigError
from .functions import (
    ExtendedValue,
    PQParams,
    arccos_pq,
    arcsin_pq,
    arcsin_series_oracle,
    arcsinh_pq,
    half_pi_pq,
    m_star_pq,
)
from .inequalities import (
    CHECK_NAMES,
    CounterexampleResult,
    F_fn,
    Fstar_fn,
    G_fn,
    GridAxis,
    Gstar_fn,
    InequalityVerdict,
    SweepError,
    SweepReport,
    check_at,
    counterexample_search,
    run_sweep,
)
from .inverse import cos_pq, sin_pq, sinh_pq
from .means import holder_mean
from .quadrature import QuadratureResult, integrate_singular

__version__ = "0.1.0"

__all__ = [
    "CHECK_NAMES",
    "ComputationError",
    "CounterexampleResult",
    "DomainError",
    "ExtendedValue",
    "F_fn",
    "Fstar_fn",
    "G_fn",
    "GridAxis",
    "Gstar_fn",
    "InequalityVerdict",
    "PQParams",
    "PQTrigError",
    "QuadratureResult",
    "SweepError",
    "SweepReport",
    "arccos_pq",
    "arcsin_pq",
    "arcsin_series_oracle",
    "arcsinh_pq",
    "backend_name",
    "check_at",
    "cos_pq",
    "counterexample_search",
    "half_pi_pq",
    "holder_mean",
    "integrate_singular",
    "m_star_pq",
    "run_sweep",
    "sin_pq",
    "sinh_pq",
    "__version__",
]
