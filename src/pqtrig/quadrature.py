"""Tanh-sinh quadrature for integrands supplied as plain callables.

``integrate_singular`` handles a finite interval whose integrand may carry
an integrable algebraic singularity (divergence exponent strictly between
-1 and 0) at either endpoint.  It refines to an absolute error estimate
of 1e-12 over at most 12 levels, which take at most 50,479 evaluations
of the integrand; it takes no configuration.

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

The substitution u = tanh((pi/2) sinh(tau)) maps (-1, 1) to the real
line.  Node quantities depend only on tau, so they are tabulated once
per refinement level and reused by every integral.  Each node record is
``(omu, w, tau)``, where ``omu = 1 - u`` is computed without
cancellation (this is what makes abscissae meaningful exponentially
close to an endpoint) and ``w`` is the du/dtau weight.  Level 0 holds
tau = 1, 2, 3, ...; level m >= 1 holds the new points tau = k * 2**-m
for odd k.  The tau = 0 centre node is handled explicitly (omu = 1,
w = pi/2).  The package's own functions do not use this engine; their
kernels are series (see ``_dequad_py``).
"""

import math
import threading
from typing import Callable, NamedTuple

from .errors import ComputationError, DomainError

_PI_HALF = math.pi / 2.0

# Past this point the weight underflows to zero in double precision.
_TAU_MAX = 6.9
# the absolute error estimate that counts as converged, and the deepest level
_TOL = 1e-12
_LEVELS = 12
_EPS = 2.220446049250313e-16

_tables: dict[int, list[tuple[float, float, float]]] = {}
_lock = threading.Lock()


def _build(level: int) -> list[tuple[float, float, float]]:
    """The node records of one level, tau = 1, 2, ... at level 0 and the
    odd multiples of 2**-level above it."""
    nodes = []
    h, step = (1.0, 1) if level == 0 else (2.0 ** (-level), 2)
    k = 1
    while k * h <= _TAU_MAX:
        tau = k * h
        s = _PI_HALF * math.sinh(tau)
        if 2.0 * s > 1400.0:
            break
        e2 = math.exp(-2.0 * s)
        omu = 2.0 * e2 / (1.0 + e2)
        w = _PI_HALF * math.cosh(tau) * (4.0 * e2 / ((1.0 + e2) * (1.0 + e2)))
        if w == 0.0 or omu == 0.0:
            break
        nodes.append((omu, w, tau))
        k += step
    return nodes


def _level_nodes(level: int) -> list[tuple[float, float, float]]:
    """Node records for one refinement level (built on first use)."""
    table = _tables.get(level)
    if table is None:
        with _lock:
            table = _tables.get(level)
            if table is None:
                table = _tables[level] = _build(level)
    return table


class QuadratureResult(NamedTuple):
    """Integral estimate with its level-difference error estimate.

    ``converged`` is True only when ``error_estimate`` met the absolute
    tolerance of 1e-12; refinement may also stop at the double-precision
    floor or after its 12 levels, in which case the caller decides what
    to do with the unconverged value.
    """

    value: float
    error_estimate: float
    evaluations: int
    converged: bool


def integrate_singular(f: Callable[[float], float], a: float, b: float) -> QuadratureResult:
    """Integrate ``f`` over [a, b] by level-doubling tanh-sinh quadrature.

    ``f`` must be finite on the open interval; an integrable algebraic
    endpoint singularity is permitted and needs no special treatment by
    the caller.  A non-finite value returned by ``f`` raises
    :class:`ComputationError`; an error estimate above 1e-12 after 12
    levels, or one stopped at the double-precision floor, returns a
    result with ``converged=False``.
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

    # level-doubling: stop when the difference of two levels meets the
    # tolerance (converged), at the double-precision floor, or after
    # _LEVELS levels
    raw_tol = _TOL / half if half else math.inf  # half underflows for b - a = 5e-324
    raw = _PI_HALF * feval(a + half)
    evals = 1
    for omu, w, _tau in _level_nodes(0):
        r = half * omu
        c = w * (feval(b - r) + feval(a + r))
        raw += c
        evals += 2
        if abs(c) <= 1e-17 * abs(raw):  # level-0 taus are all >= 1
            break
    h = 1.0
    value = raw
    err = math.inf
    converged = False
    for level in range(1, _LEVELS + 1):
        h *= 0.5
        small = 0
        for omu, w, tau in _level_nodes(level):
            r = half * omu
            c = w * (feval(b - r) + feval(a + r))
            raw += c
            evals += 2
            if abs(c) <= 1e-17 * abs(raw) and tau >= 1.0:
                small += 1
                if small >= 2:
                    break
            else:
                small = 0
        new = raw * h
        err = abs(new - value)
        value = new
        if err <= raw_tol:
            converged = True
            break
        if err <= 8.0 * _EPS * abs(value):
            break
    return QuadratureResult(value * half, err * half, evals, converged)

