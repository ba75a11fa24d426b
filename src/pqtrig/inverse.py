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

sin_pq and cos_pq are one solve each: for s in [0, 2**(-1/q)], where
s**q <= 1/2, below the half-branch value arcsin_pq(2**(-1/q)), and above
it by the top form (see ``functions``) for t = ln(1/w), w = 1 - s**q, which
maps back without cancellation as sin = exp(log1p(-w)/q) and
cos = w**(1/p) = e**(-t/p).  When the bracket collapses to a few ulps the
nearest representable root is returned; ComputationError is raised on
iteration budget exhaustion, when its kernel does not certify a forward
value, and when sinh's bracket passes the largest float.
"""

import math
from functools import lru_cache
from typing import NamedTuple

from ._backend import kernels
from ._records import Validated, count
from .errors import ComputationError, DomainError, PQTrigError
from .functions import PQParams, _half_pi, _m_star

_TOP_PAD = 1e-12
_MAX_ITERS = 2**31 - 1


class _InversionFields(NamedTuple):
    tol: float = 1e-12
    max_iters: int = 100


class InversionConfig(Validated, _InversionFields):
    """Residual tolerance and iteration budget for the root finders.

    ``max_iters`` is an integer from 10 to 2**31 - 1, which every
    backend's kernel takes.
    """

    __slots__ = ()

    def _check(self):
        if not (self.tol > 0.0):
            raise DomainError("tol must be positive")
        iters = count(self.max_iters, "max_iters")
        if iters < 10:
            raise DomainError("max_iters must be at least 10")
        if iters > _MAX_ITERS:
            raise DomainError(f"max_iters must be at most {_MAX_ITERS}")


DEFAULT_INVERSION = InversionConfig()


# what each failed status means
_FAILURES = {
    kernels.BUDGET: "did not converge within {iters} iterations",
    kernels.UNCONVERGED: "stopped on an unconverged forward series after {iters} iterations",
    kernels.OVERFLOW: "bracket passed the largest float after {iters} iterations",
}


def _mapped(fn, pq, root, mode):
    """fn_pq from the root of a trigonometric solve: s itself in mode
    "sin", or t = ln(1/w) in mode "top", where 1 - s**q = w."""
    p, q = pq.p, pq.q
    if mode == "top":
        sin = math.exp(math.log1p(-math.exp(-root)) / q) if fn != "cos" else None
        cos = math.exp(-root / p) if fn != "sin" else None
    else:
        sin = root
        cos = math.exp(math.log1p(-math.pow(root, q)) / p) if fn != "sin" else None
    return sin if fn == "sin" else cos if fn == "cos" else (sin, cos)


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
    return kernels.arcsin_top(p, q, math.log(2.0))[0]


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
    # target -> indices into ys, in the bottom and the top half of a branch
    bottom: dict = {}
    top_half: dict = {}
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
                bottom.setdefault(y, []).append(i)
        _solve(out, fn, pq, ys, bottom, "sinh", cfg)
        return out

    hp = _half_pi(p, q)  # half_pi_pq
    split = _half_branch(p, q)
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
            bottom.setdefault(y, []).append(i)
        else:
            top_half.setdefault(y, []).append(i)
    _solve(out, fn, pq, ys, bottom, "sin", cfg)
    _solve(out, fn, pq, ys, top_half, "top", cfg)
    return out


def _solve(out, fn, pq, ys, targets, mode, cfg):
    """One kernels.solve call in ``mode`` over the unique ``targets`` (each
    mapped to its indices in ``ys``); stores each value or error in ``out``."""
    if not targets:
        return
    ts = list(targets)
    results = kernels.solve(mode, pq.p, pq.q, ts, cfg.tol, cfg.max_iters)
    plain = fn == "sinh" or (fn == "sin" and mode == "sin")  # the root is the value
    for t, (root, iters, _terms, status) in zip(ts, results):
        value = root if plain else _mapped(fn, pq, root, mode)
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
    1 - s**q in the bottom half of the branch, and as e**(-t/p) from the
    root t = ln(1/v**p) of the top half, where v**p < 1/2.  t is resolved
    even where v**p is below the subnormal range: a subnormal v is the
    float nearest e**(-t/p), whose neighbours may straddle y by more than
    the tolerance, and a v below the subnormal range is 0.0.

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
