"""Inverse functions sin_pq, cos_pq and sinh_pq by safeguarded root finding.

Each inverse solves its monotone defining equation with Newton steps (the
derivative of the defining integral is the integrand itself, so it comes
for free) inside a maintained bracket; a step leaving the bracket falls
back to bisection.  The convergence criterion is the residual in function
space, |F(s) - y| <= tol, and every forward value F(s) is one series
kernel call whose bound certifies it.  The solve itself is
``kernels.solve`` (see ``_dequad_py.solve`` for the start and the step
variables); it takes a list of targets and runs in C with the GIL
released when the compiled backend is active.  Every target is solved
from the same cold start, so a root depends only on (p, q, y) and the
solver settings, never on the other targets of its call.  :func:`_roots`
checks domains, chooses the formulation of each target, makes one
``kernels.solve`` call per formulation and maps the solver's failures to
:class:`ComputationError`; sin_pq, cos_pq and sinh_pq are its one-target
calls, and the lab's sweeps call it once per function for all the
targets of a (p, q) cell, so a sweep's values equal the scalar calls'.

sin_pq and cos_pq are one solve each in the bottom, smooth half of a
trigonometric branch, s in [0, 2**(-1/q)], where s**q <= 1/2.  A target
above the half-branch value arcsin_pq(2**(-1/q)) is reflected onto the
bottom half of the conjugate (q*, p*) branch, whose root V gives
1 - s**q = v**p = V**(p/(p - 1)) <= 1/2 (see ``functions``), so no solve
evaluates its series beyond z = 1/2.  When the bracket collapses to a
few ulps the nearest representable root is returned; ComputationError
is raised on iteration budget exhaustion, when a forward series inside
the solve misses its tolerance, when sinh's bracket passes the largest
float, and where p is so close to 1 that one ulp of the conjugate root V
moves V**(p/(p - 1)) by 1/16 or more, so that it cannot be mapped back.
"""

import math
from functools import lru_cache
from typing import NamedTuple

from ._backend import kernels
from ._records import Validated
from .errors import ComputationError, DomainError, PQTrigError
from .functions import PQParams, _half_pi, _m_star
from .quadrature import DEFAULT_CONFIG

_TOP_PAD = 1e-12


class _InversionFields(NamedTuple):
    tol: float = 1e-12
    max_iters: int = 100


class InversionConfig(Validated, _InversionFields):
    """Residual tolerance and iteration budget for the root finders."""

    __slots__ = ()

    def _check(self):
        if not (self.tol > 0.0):
            raise DomainError("tol must be positive")
        if self.max_iters < 10:
            raise DomainError("max_iters must be at least 10")


DEFAULT_INVERSION = InversionConfig()


def _forward_tol(inv: InversionConfig) -> float:
    """The tolerance of every forward value inside a solve."""
    # the forward values must out-resolve the requested residual, but no
    # series bound goes below its rounding allowance of 16 ulps, so 1e-13
    # (relative above 1) is as far as a forward value is asked to go; a
    # smaller residual tolerance makes the solver polish to the
    # representable root
    return max(min(inv.tol, DEFAULT_CONFIG.target_abs_tol), 1e-13)


# a conjugate root too coarse to map back (see _solve), beside the statuses of kernels.solve
_UNRESOLVED = -1

# what each failed status means
_FAILURES = {
    kernels.BUDGET: "did not converge within {iters} iterations",
    kernels.UNCONVERGED: "stopped on an unconverged forward series after {iters} iterations",
    kernels.OVERFLOW: "bracket passed the largest float after {iters} iterations",
    _UNRESOLVED: "found a conjugate root V after {iters} iterations whose last ulp moves "
                 "V**(p/(p - 1)) by 1/16 or more, so p is too close to 1 to map it back",
}


def _mapped(fn, pq, root, conj):
    """fn_pq from the root of a sin solve: s itself, or V at the conjugate
    exponents if ``conj``, where 1 - s**q = v**p = V**(p/(p - 1))."""
    p, q = pq.p, pq.q
    if conj:
        sin = math.exp(math.log1p(-math.pow(root, p / (p - 1.0))) / q) if fn != "cos" else None
        cos = math.pow(root, 1.0 / (p - 1.0)) if fn != "sin" else None
    else:
        sin = root
        cos = math.exp(math.log1p(-math.pow(root, q)) / p) if fn != "sin" else None
    return sin if fn == "sin" else cos if fn == "cos" else (sin, cos)


def _failure(fn, pq, y, value, iters, status) -> ComputationError:
    partial = value[0] if isinstance(value, tuple) else value
    return ComputationError(
        f"{'sin' if fn == 'sincos' else fn}_pq(p={pq.p}, q={pq.q}, y={y!r}) "
        + _FAILURES[status].format(iters=iters)
        + ("" if partial is None else f" (last estimate {partial!r})"),
        partial=partial,
    )


@lru_cache(maxsize=4096)
def _half_branch(p: float, q: float) -> float:
    """arcsin_pq(2**(-1/q)), the value at the top of the bottom half of the
    branch, where sin's solve bracket ends."""
    return kernels.arcsin_series(p, q, math.exp(-math.log(2.0) / q))[0]


def _roots(fn, pq: PQParams, ys, cfg: InversionConfig = DEFAULT_INVERSION) -> list:
    """fn_pq(pq, y) for every y in ``ys``: a root, or the PQTrigError it raises.

    ``fn`` is "sin", "cos" or "sinh", or "sincos" for (sin_pq, cos_pq)
    pairs that share one root (a failure then carries the sin_pq
    message).  ``ys`` may hold repeats, in any order.  Each formulation
    is one ``kernels.solve`` call over its unique targets.  Each value or
    error is exactly that of a single call at its y: the solves start
    cold, and the domain checks, endpoint values, routing, root mappings
    and messages are those of a single call.
    """
    p, q = pq.p, pq.q
    out: list = [None] * len(ys)
    # target -> indices into ys, at (p, q) and at the conjugate exponents
    direct: dict = {}
    conj: dict = {}
    if fn == "sinh":
        top = _m_star(p, q) if p < q else math.inf  # m_star_pq
        for i, y in enumerate(ys):
            if not (y >= 0.0):
                out[i] = DomainError(f"sinh_pq needs y >= 0, got {y!r}")
            elif y >= top:
                out[i] = DomainError(
                    f"sinh_pq needs y below m_star = {top:.12g} for p={p}, q={q}, got {y!r}"
                )
            elif y == 0.0:
                out[i] = 0.0
            else:
                direct.setdefault(y, []).append(i)
        _solve(out, fn, pq, ys, direct, False, "sinh", p, q, cfg.tol, cfg)
        return out

    # A target at or below the half-branch value has its root in the
    # bottom half of the branch and is solved at (p, q).  Above it,
    # arcsin_pq(s) = hp - c arcsin_{q*,p*}(V), so V is solved at the
    # conjugate exponents for the target (hp - y) / c, with the residual
    # tolerance divided by c to keep it in y-space.
    hp = _half_pi(p, q)  # half_pi_pq
    split = _half_branch(p, q)
    c = p / (p - 1.0) / q
    for i, y in enumerate(ys):
        if not (0.0 <= y <= hp + _TOP_PAD):
            out[i] = DomainError(
                f"{'sin' if fn == 'sincos' else fn}_pq needs y in [0, {hp:.12g}] "
                f"(half_pi for p={p}, q={q}), got {y!r}"
            )
        elif y == 0.0 or y >= hp - _TOP_PAD:
            sin = 0.0 if y == 0.0 else 1.0
            out[i] = sin if fn == "sin" else 1.0 - sin if fn == "cos" else (sin, 1.0 - sin)
        elif y <= split:
            direct.setdefault(y, []).append(i)
        else:
            conj.setdefault((hp - y) / c, []).append(i)
    _solve(out, fn, pq, ys, direct, False, "sin", p, q, cfg.tol, cfg)
    _solve(out, fn, pq, ys, conj, True, "sin", q / (q - 1.0), p / (p - 1.0), cfg.tol / c, cfg)
    return out


def _solve(out, fn, pq, ys, targets, conj, mode, p, q, tol, cfg):
    """One kernels.solve call over the unique ``targets`` (each mapped to
    its indices in ``ys``); stores each target's value or error in ``out``."""
    if not targets:
        return
    ts = list(targets)
    results = kernels.solve(mode, p, q, ts, tol, cfg.max_iters, _forward_tol(cfg))
    plain = fn == "sinh" or (fn == "sin" and not conj)  # the root is the value
    for t, (root, iters, _terms, status) in zip(ts, results):
        if conj and q * math.ulp(root) >= root / 16.0:
            # q is p/(p - 1) here: one ulp of V moves v**p = V**q by 1/16 or
            # more only where p is within a few ulps of 1, and then v**p
            # keeps no digits
            value, status = None, status or _UNRESOLVED
        else:
            value = root if plain else _mapped(fn, pq, root, conj)
        for i in targets[t]:
            out[i] = _failure(fn, pq, ys[i], value, iters, status) if status else value


def _one(fn, pq, y, cfg):
    (value,) = _roots(fn, pq, (y,), cfg)
    if isinstance(value, PQTrigError):
        raise value
    return value


def sin_pq(pq: PQParams, y: float, cfg: InversionConfig = DEFAULT_INVERSION) -> float:
    """Solve arcsin_pq(s) = y for s in [0, 1].

    ``y`` must lie in [0, half_pi_pq] (the top end is tolerance-padded by
    1e-12); sin_pq(0) = 0 and sin_pq(half_pi_pq) = 1 exactly.
    """
    return _one("sin", pq, y, cfg)


def cos_pq(pq: PQParams, y: float, cfg: InversionConfig = DEFAULT_INVERSION) -> float:
    """Solve arccos_pq(v) = y for v in [0, 1].

    The residual is that of arcsin_pq at the same y, so v is formed from
    the root of the same solve as sin_pq, without cancellation: from
    1 - s**q in the bottom half of the branch, and as V**(1/(p - 1)) from
    the conjugate root V in the top half, where v**p < 1/2.

    For p > 2 arccos_pq flattens near v = 0, so the v-resolution implied
    by the residual tolerance degrades like tol / |arccos_pq'|.  A
    tolerance below the forward's rounding (about 1e-15) makes the
    solver polish down to the nearest representable root instead.
    """
    return _one("cos", pq, y, cfg)


def sinh_pq(pq: PQParams, y: float, cfg: InversionConfig = DEFAULT_INVERSION) -> float:
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
    return _one("sinh", pq, y, cfg)
