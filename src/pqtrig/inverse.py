"""Inverse functions sin_pq, cos_pq and sinh_pq by safeguarded root finding.

Each inverse solves its monotone defining equation with Newton steps (the
derivative of the defining integral is the integrand itself, so it comes
for free) inside a maintained bracket; a step leaving the bracket falls
back to bisection.  Every forward value F(s) is one series kernel call,
which returns it with a rigorous bound, and the solve stops once the
residual |F(s) - y| is within that bound, with no tolerance of its own.
The solve is ``kernels.solve(mode, ...)``, the inverse of
``kernels.forward(mode, ...)`` in mode "sin", "top" or "sinh" (see
``_dequad_py.solve`` for the start and the step variables), over a list
of targets, in C with the GIL released on the compiled backend.  The
half-branch value is certified by ``functions._run_kernel`` like every
forward value.  Every target is solved from the same cold start, so a
root depends only on (p, q, y), never on the other targets of its call.
:func:`_roots` checks domains, chooses the formulation of each target,
makes one ``kernels.solve`` call per formulation and maps the solver's
failures to :class:`ComputationError`, returning one table of the
distinct targets; sin_pq, cos_pq and sinh_pq are its one-target calls,
and the lab's sweeps call it once per function for all the targets of a
(p, q) cell, so a sweep's values equal the scalar calls'.

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

_TOP_PAD = 1e-12  # how far the domain of sin_pq and cos_pq reaches above half_pi_pq
_MAX_ITERS = 100  # forward values per solve; the most seen is 47, at p, q = 1 + 1e-12


# what each failed status means
_FAILURES = {
    kernels.BUDGET: "did not converge within {iters} iterations",
    kernels.UNCONVERGED: "stopped on an unconverged forward series after {iters} iterations",
    kernels.OVERFLOW: "bracket passed the largest float after {iters} iterations",
}


def _mapped(fn, pq, roots, mode) -> list:
    """fn_pq from each root of a trigonometric solve: s itself in mode
    "sin", or t = ln(1/w) in mode "top", where 1 - s**q = w."""
    p, q = pq.p, pq.q
    exp, log1p = math.exp, math.log1p
    if mode == "top":
        sin = [exp(log1p(-exp(-t)) / q) for t in roots] if fn != "cos" else None
        cos = [exp(-t / p) for t in roots] if fn != "sin" else None
    else:
        sin = roots
        cos = [exp(log1p(-math.pow(s, q)) / p) for s in roots] if fn != "sin" else None
    return sin if fn == "sin" else cos if fn == "cos" else list(zip(sin, cos))


def _failure(fn, pq, y, value, iters, status) -> ComputationError:
    partial = value[0] if isinstance(value, tuple) else value
    return ComputationError(
        f"{'sin' if fn == 'sincos' else fn}_pq(p={pq.p}, q={pq.q}, y={y!r}) "
        + _FAILURES[status].format(iters=iters)
        + f" (last estimate {partial!r})",
        partial=partial,
    )


@lru_cache(maxsize=4096)
def _half_branch(p: float, q: float) -> float:
    """arcsin_pq(2**(-1/q)), the value at the top of the bottom half of the
    branch, where sin's solve bracket ends: the top form at w = 1/2."""
    return _run_kernel("top", p, q, math.log(2.0), ("arcsin_pq", math.pow(0.5, 1.0 / q)))


def _roots(fn, pq: PQParams, ys) -> dict:
    """{y: fn_pq(pq, y) or the PQTrigError it raises} over the distinct
    targets in ``ys``.

    ``fn`` is "sin", "cos" or "sinh", or "sincos" for (sin_pq, cos_pq)
    pairs that share one root (a failure then carries the sin_pq
    message).  ``ys`` may hold repeats, in any order.  Each formulation
    is one ``kernels.solve`` call over its targets: sin's below the
    half-branch value arcsin_pq(2**(-1/q)), top's from it up.  Each value
    or error is exactly that of a single call at its y: the solves start
    cold, and the domain checks, endpoint values, routing, root mappings
    and messages are those of a single call.
    """
    p, q = pq.p, pq.q
    table = dict.fromkeys(ys)
    bottom, top_half = [], []  # the targets to solve, in the bottom and the top half of a branch
    if fn == "sinh":
        top = _m_star(p, q) if p < q else math.inf  # m_star_pq
        for y in table:
            if not (y >= 0.0):
                table[y] = DomainError(f"sinh_pq needs y >= 0, got {y!r}")
            elif y >= top:
                table[y] = DomainError(
                    f"sinh_pq needs y below m_star = {top:.12g} for p={p}, q={q}, got {y!r}"
                )
            elif y == 0.0:
                table[y] = 0.0
            else:
                bottom.append(y)
        _solve(table, fn, pq, bottom, "sinh")
        return table

    hp = _half_pi(p, q)  # half_pi_pq
    split, reach = _half_branch(p, q), hp + _TOP_PAD
    for y in table:
        if not (0.0 <= y <= reach):
            table[y] = DomainError(
                f"{'sin' if fn == 'sincos' else fn}_pq needs y in [0, {hp:.12g}] "
                f"(half_pi for p={p}, q={q}), got {y!r}"
            )
        elif y == 0.0 or y >= hp:
            sin = 0.0 if y == 0.0 else 1.0
            table[y] = sin if fn == "sin" else 1.0 - sin if fn == "cos" else (sin, 1.0 - sin)
        elif y < split:  # not the split: its root 2**(-1/q) rounds to 1.0 where q > ~1.25e16
            bottom.append(y)
        else:
            top_half.append(y)
    _solve(table, fn, pq, bottom, "sin")
    _solve(table, fn, pq, top_half, "top")
    return table


def _solve(table, fn, pq, ys, mode):
    """One kernels.solve call in ``mode`` over the distinct targets ``ys``;
    stores each value or error in ``table``."""
    if not ys:
        return
    results = kernels.solve(mode, pq.p, pq.q, ys, _MAX_ITERS)
    values = [res[0] for res in results]
    if not (fn == "sinh" or (fn == "sin" and mode == "sin")):  # where the root is not the value
        values = _mapped(fn, pq, values, mode)
    table.update(zip(ys, values))
    if any(res[3] for res in results):
        for y, value, (_root, iters, _terms, status) in zip(ys, values, results):
            if status:
                table[y] = _failure(fn, pq, y, value, iters, status)


def _one(fn, pq, y):
    value = _roots(fn, pq, (y,))[y]
    if isinstance(value, PQTrigError):
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
