"""Tanh-sinh quadrature for integrands supplied as plain callables.

``integrate_singular`` handles a finite interval whose integrand may carry
an integrable algebraic singularity (divergence exponent strictly between
-1 and 0) at either endpoint.  ``integrate_improper`` maps [0, inf) onto
[0, 1) with t = u/(1-u) and reuses the same engine.

Abscissae are generated as exact offsets from the endpoints, so an
integrand that is singular at ``a = 0`` can be sampled at distances far
below one ulp of the interval and integrates to near machine precision.
At a nonzero endpoint the offset must be folded into the endpoint value
first, which floors the sampling distance at about one ulp of the
endpoint; the residual error for a singularity of exponent ``-c`` there
is of order ``ulp**(1-c)``.  When full accuracy matters for an integrand
singular at ``b``, rewrite it so the singular point sits at zero (for
example, integrate f(b - s) for s in [0, b - a]).

A node that rounds onto an endpoint is nudged inward by one ulp of the
interval width before the integrand is called.
"""

import math
from typing import Callable, NamedTuple

from ._nodes import run_levels
from ._records import Validated
from .errors import ComputationError, DomainError

_PI_HALF = math.pi / 2.0


class _QuadratureFields(NamedTuple):
    target_abs_tol: float = 1e-12
    max_levels: int = 12
    max_evals: int = 1_000_000


class QuadratureConfig(Validated, _QuadratureFields):
    """Accuracy and budget knobs for the integrators.

    Refinement never goes past level 16: a larger ``max_levels`` is
    clamped, alike by both kernel backends and by :func:`integrate_singular`,
    so the backends walk the same levels for any ``max_levels``.
    """

    __slots__ = ()

    def _check(self):
        if not (self.target_abs_tol > 0.0):
            raise DomainError("target_abs_tol must be positive")
        if self.max_levels < 1:
            raise DomainError("max_levels must be at least 1")
        if self.max_evals < 100:
            raise DomainError("max_evals must be at least 100")


DEFAULT_CONFIG = QuadratureConfig()


class QuadratureResult(NamedTuple):
    """Integral estimate with its level-difference error estimate.

    ``converged`` is True only when ``error_estimate`` met the configured
    absolute tolerance; refinement may also stop at the double-precision
    floor or on budget exhaustion, in which case the caller decides what
    to do with the unconverged value.
    """

    value: float
    error_estimate: float
    evaluations: int
    converged: bool


def integrate_singular(
    f: Callable[[float], float],
    a: float,
    b: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> QuadratureResult:
    """Integrate ``f`` over [a, b] by level-doubling tanh-sinh quadrature.

    ``f`` must be finite on the open interval; an integrable algebraic
    endpoint singularity is permitted and needs no special treatment by
    the caller.  A non-finite value returned by ``f`` raises
    :class:`ComputationError`; running out of refinement levels or of
    evaluation budget returns a result with ``converged=False``.
    """
    if not (a < b):
        raise DomainError(f"need a < b, got a={a!r}, b={b!r}")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("interval endpoints must be finite")
    half = 0.5 * (b - a)
    nudge = math.ulp(b - a)

    def feval(x: float) -> float:
        if x <= a:
            x = a + nudge
            if x <= a:  # interval-width ulp too small to move off this endpoint
                x = math.nextafter(a, b)
        elif x >= b:
            x = b - nudge
            if x >= b:
                x = math.nextafter(b, a)
        fx = f(x)
        if not math.isfinite(fx):
            raise ComputationError(f"integrand returned non-finite value {fx!r} at x={x!r}")
        return fx

    def pair(rec) -> float:
        omu, w, _ln_lo, _ln_hi, _tau = rec
        r = half * omu
        return w * (feval(b - r) + feval(a + r))

    return QuadratureResult(*run_levels(
        pair, _PI_HALF * feval(a + half), half,
        cfg.target_abs_tol, cfg.max_levels, cfg.max_evals,
    ))


def integrate_improper(
    f: Callable[[float], float],
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> QuadratureResult:
    """Integrate ``f`` over [0, inf); the caller guarantees convergence.

    Uses the rational map t = u/(1-u) (Jacobian (1-u)**-2) rather than a
    truncation cutoff, then defers to :func:`integrate_singular` on [0, 1].
    """

    def g(u: float) -> float:
        r = 1.0 - u
        return f(u / r) / (r * r)

    return integrate_singular(g, 0.0, 1.0, cfg)
