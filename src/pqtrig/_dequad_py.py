"""Pure-Python tanh-sinh kernels for the three defining integrals.

These are the hot loops of the whole package; a compiled twin with the
same interface lives in ``_dequad_c.c`` and is preferred at import time.
Both walk the level loop of :func:`._nodes.run_levels` with the same
arithmetic, so they return the same evaluation counts.

Each kernel returns ``(value, error_estimate, evaluations, converged)``.
The error estimate is the absolute difference between the last two
refinement levels, and ``converged`` is True only when it met ``tol``.

The integrands are evaluated in log space from the node's exact distance
to the transformed endpoint, so the algebraic endpoint singularity of
(1 - t**q)**(-1/p) at t = 1 and the slow decay of the half-line integrand
cost no accuracy.  A naive evaluation at the double-precision abscissa
would lose the integral mass sitting closer to the endpoint than one ulp,
which for exponents near -1 is far above 1e-12.

Where a node term overflows (exponents near 1), ``math.pow`` and
``math.exp`` raise ``OverflowError`` while C returns inf; the kernels
map it to inf, so the result is unconverged on both backends.
"""

import math
from math import exp, expm1, log1p

from ._nodes import run_levels

BACKEND = "python"

_PI_HALF = math.pi / 2.0
_LN_HALF = math.log(0.5)


def _softplus(a: float) -> float:
    # log(1 + e**a) without overflow
    if a > 0.0:
        return a + log1p(exp(-a))
    return log1p(exp(a))


def arcsin_quad(p, q, x, tol=1e-12, max_levels=12, max_evals=1000000):
    """Integral of (1 - t**q)**(-1/p) over [0, x], 0 <= x <= 1."""
    if x == 0.0:
        return 0.0, 0.0, 0, True
    alpha, lnx = -1.0 / p, math.log(x)

    def pair(rec):
        # t = x*(1 - omu/2) on the + side, t = x*omu/2 on the - side
        _omu, w, ln_lo, ln_hi, _tau = rec
        try:
            return w * (math.pow(-expm1(q * (lnx + ln_hi)), alpha)
                        + math.pow(-expm1(q * (lnx + ln_lo)), alpha))
        except OverflowError:
            return math.inf

    centre = _PI_HALF * math.pow(-expm1(q * (lnx + _LN_HALF)), alpha)
    return run_levels(pair, centre, 0.5 * x, tol, max_levels, max_evals)


def arcsinh_quad(p, q, x, tol=1e-12, max_levels=12, max_evals=1000000):
    """Integral of (1 + t**q)**(-1/p) over [0, x], x >= 0."""
    if x == 0.0:
        return 0.0, 0.0, 0, True
    alpha, lnx = -1.0 / p, math.log(x)

    def pair(rec):
        _omu, w, ln_lo, ln_hi, _tau = rec
        return w * (exp(alpha * _softplus(q * (lnx + ln_hi)))
                    + exp(alpha * _softplus(q * (lnx + ln_lo))))

    centre = _PI_HALF * exp(alpha * _softplus(q * (lnx + _LN_HALF)))
    return run_levels(pair, centre, 0.5 * x, tol, max_levels, max_evals)


def mstar_quad(p, q, tol=1e-12, max_levels=12, max_evals=1000000):
    """Integral of (1 + t**q)**(-1/p) over [0, inf); requires p < q."""
    alpha = -1.0 / p

    def pair(rec):
        # half-line map t = (1-v)/v, v in (0,1): integrand (1+t**q)**(-1/p) / v**2
        _omu, w, ln_lo, ln_hi, _tau = rec
        try:
            lng = alpha * _softplus(q * (ln_lo - ln_hi)) - 2.0 * ln_hi
            gp = exp(lng) if lng > -745.0 else 0.0
            lng = alpha * _softplus(q * (ln_hi - ln_lo)) - 2.0 * ln_lo
            gm = exp(lng) if lng > -745.0 else 0.0
        except OverflowError:
            return math.inf
        return w * (gp + gm)

    centre = _PI_HALF * exp(alpha * _softplus(0.0) - 2.0 * _LN_HALF)
    return run_levels(pair, centre, 0.5, tol, max_levels, max_evals)
