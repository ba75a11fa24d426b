"""Inverse functions sin_pq, cos_pq and sinh_pq by safeguarded root finding.

Each inverse solves its monotone defining equation with Newton steps (the
derivative of the defining integral is the integrand itself, so it comes
for free) inside a maintained bracket; a step leaving the bracket falls
back to bisection.  Every forward value F(s) is one series kernel call,
which returns it with a rigorous bound, and the solve stops once the
residual |F(s) - y| is within that bound, with no tolerance of its own.
The solve is ``kernels.solve(fn, ...)``, the inverse of one function
over a column of targets, in C with the GIL released on the compiled
backend: the domain test, the endpoints, the route of every other
target to the inverse of ``kernels.forward(mode, ...)`` (see
``_dequad_py.solve``) and the map from its root to its value.  It routes
by the cached half_pi_pq, half-branch value and m_star_pq, each
certified by ``functions._run_kernel`` like every forward value.  Every
distinct target is solved once, from the same cold start, so a root
depends only on (p, q, y).  :func:`_roots` is one ``kernels.solve``
call; sin_pq, cos_pq and sinh_pq are its one-target calls, and the lab's
sweeps call it once per (p, q) cell, so a sweep's values equal the
scalar calls'.

sin_pq and cos_pq are one solve each: for s in [0, 2**(-1/q)], where
s**q <= 1/2, below the half-branch value arcsin_pq(2**(-1/q)), starting
at or above the root, where arcsin_pq is convex; and from that value up
by the top form (see ``functions``) for t = ln(1/w), w = 1 - s**q, which
maps back without cancellation as sin = exp(log1p(-w)/q) and
cos = w**(1/p) = e**(-t/p).  sinh starts below its root.  When the
bracket collapses to a few ulps the nearest representable root is
returned; ComputationError is raised when ``_MAX_ITERS`` forward values
do not suffice, when its kernel does not certify a forward value, and
when sinh's bracket passes the largest float.
"""

import math
from functools import lru_cache

from ._backend import kernels
from ._records import real
from .errors import ComputationError, DomainError, PQTrigError
from .functions import PQParams, _half_pi, _m_star, _pair, _run_kernel

_MAX_ITERS = 100  # forward values per solve; the most seen is 47, at p, q = 1 + 1e-12


# what each failed status means
_FAILURES = {
    kernels.BUDGET: "did not converge within {iters} iterations",
    kernels.UNCONVERGED: "stopped on an unconverged forward series after {iters} iterations",
    kernels.OVERFLOW: "bracket passed the largest float after {iters} iterations",
}


def _failure(fn, pq, y, top, status, iters, estimate) -> PQTrigError:
    """The error of the target y of a solve of ``fn`` whose domain ends at ``top``."""
    p, q, name = pq.p, pq.q, "sin" if fn == "sincos" else fn
    if status != kernels.DOMAIN:
        reason = _FAILURES[status].format(iters=iters)
        return ComputationError(f"{name}_pq(p={p}, q={q}, y={y!r}) {reason} "
                                f"(last estimate {estimate!r})", partial=estimate)
    if fn != "sinh":
        return DomainError(f"{name}_pq needs y in [0, {top:.12g}] (half_pi for p={p}, q={q}), "
                           f"got {y!r}")
    if not (y >= 0.0):
        return DomainError(f"sinh_pq needs y >= 0, got {y!r}")
    return DomainError(f"sinh_pq needs y below m_star = {top:.12g} for p={p}, q={q}, got {y!r}")


@lru_cache(maxsize=4096)
def _half_branch(p: float, q: float) -> float:
    """arcsin_pq(2**(-1/q)), the value at the top of the bottom half of the
    branch, where sin's solve bracket ends: the top form at w = 1/2."""
    return _run_kernel("top", p, q, math.log(2.0), ("arcsin_pq", math.pow(0.5, 1.0 / q)))


def _roots(fn, pq: PQParams, ys) -> tuple[list, list]:
    """(fn_pq(pq, y) or the PQTrigError it raises, for each y of ``ys``;
    the positions of the errors, ascending), from one ``kernels.solve`` call.

    ``fn`` is "sin", "cos", "sinh" or "sincos", the (sin_pq, cos_pq) pair
    of one root, whose failure carries the sin_pq message.  Each value or
    error is exactly that of a single call at its y, and an error is
    built only at a failed position.
    """
    p, q = pq.p, pq.q
    if fn == "sinh":
        top, split = (_m_star(p, q) if p < q else math.inf), math.inf
    else:
        top, split = _half_pi(p, q), _half_branch(p, q)
    values, failures = kernels.solve(fn, p, q, ys, top, split, _MAX_ITERS)
    for i, status, iters, estimate in failures:
        values[i] = _failure(fn, pq, ys[i], top, status, iters, estimate)
    return values, [rec[0] for rec in failures]


def _one(fn, pq, y):
    (value,), failed = _roots(fn, pq, (y,))
    if failed:
        raise value
    return value


def sin_pq(pq: PQParams, y: float) -> float:
    """Solve arcsin_pq(s) = y for s in [0, 1].

    ``y`` must be a real in [0, half_pi_pq + 1e-12]; sin_pq(0) = 0, and
    sin_pq(y) = 1 exactly for every y >= half_pi_pq.
    """
    return _one("sin", _pair(pq, "sin_pq's pq"), real(y, "sin_pq's y"))


def cos_pq(pq: PQParams, y: float) -> float:
    """Solve arccos_pq(v) = y for v in [0, 1].

    The residual is that of arcsin_pq at the same y, so v is formed from
    the root of the same solve as sin_pq, without cancellation: from
    1 - s**q in the bottom half of the branch, and as e**(-t/p) from the
    root t = ln(1/v**p) of the top half, where v**p < 1/2.  t is resolved
    even where v**p is below the subnormal range: a subnormal v is the
    float nearest e**(-t/p), whose neighbours may straddle y by more than
    the forward's bound, and a v below the subnormal range is 0.0.

    For p > 2 arccos_pq flattens near v = 0 (its slope vanishes like
    v**(p - 2)), so a residual within the forward's bound, about 16 ulps
    of y, fixes v only to about that bound over |arccos_pq'(v)|; no
    float forward value resolves v more finely.
    """
    return _one("cos", _pair(pq, "cos_pq's pq"), real(y, "cos_pq's y"))


def sinh_pq(pq: PQParams, y: float) -> float:
    """Solve arcsinh_pq(s) = y for s >= 0.

    ``y`` must be nonnegative and, when m_star_pq is finite, strictly
    below it.  The solve starts at s = y, a lower bound because the
    integrand is at most 1, and needs no upper bound to begin with;
    arcsinh_pq is unbounded in s even when its limit bounds y, so an
    in-domain y has a finite root.  A root beyond the largest float, or
    one the iteration budget does not reach, raises
    :class:`ComputationError`; every finite root is within reach of the
    forward series.
    """
    return _one("sinh", _pair(pq, "sinh_pq's pq"), real(y, "sinh_pq's y"))
