"""Inverse functions sin_pq, cos_pq and sinh_pq by safeguarded root finding.

Each inverse solves its monotone defining equation with Newton steps (the
derivative of the defining integral is the integrand itself, so it comes
for free) inside a maintained bracket; a step leaving the bracket falls
back to bisection.  The convergence criterion is the residual in function
space, |F(s) - y| <= tol, which is what the quadrature can actually
certify.  The solve itself is ``kernels.solve`` (see ``_dequad_py.solve``
for the step variables); it runs in C with the GIL released when the
compiled backend is active.  This module checks domains, chooses the
formulation and maps the solver's failures to :class:`ComputationError`.

sin_pq and cos_pq are one solve each in the bottom, smooth half of a
trigonometric branch.  A target in the top half of the (p, q) branch is
reflected onto the bottom half of the conjugate (q*, p*) branch, whose
root V gives 1 - s**q = v**p = V**(p/(p - 1)) (see ``functions``), so
no solve steps next to the singular end t = 1.  When the bracket
collapses to a few ulps the nearest representable root is returned;
ComputationError is raised on iteration budget exhaustion and when a
forward quadrature inside the solve does not converge.
"""

import math
from dataclasses import dataclass

from ._backend import kernels
from .errors import ComputationError, DomainError
from .functions import PQParams, half_pi_pq, m_star_pq
from .quadrature import DEFAULT_CONFIG, QuadratureConfig

_TOP_PAD = 1e-12


@dataclass(frozen=True)
class InversionConfig:
    """Residual tolerance and iteration budget for the root finders."""

    tol: float = 1e-12
    max_iters: int = 100

    def __post_init__(self):
        if not (self.tol > 0.0):
            raise DomainError("tol must be positive")
        if self.max_iters < 10:
            raise DomainError("max_iters must be at least 10")


DEFAULT_INVERSION = InversionConfig()


def _quad_cfg(inv: InversionConfig) -> QuadratureConfig:
    # the forward evaluations must out-resolve the requested residual, but
    # below ~1e-13 the level-difference estimate cannot certify anything
    # more anyway (a sub-floor residual tolerance just makes the solver
    # polish to the representable root)
    tol = max(min(inv.tol, DEFAULT_CONFIG.target_abs_tol), 1e-13)
    if tol == DEFAULT_CONFIG.target_abs_tol:
        return DEFAULT_CONFIG
    return QuadratureConfig(target_abs_tol=tol)


# what each failed status of kernels.solve means
_FAILURES = {
    kernels.BUDGET: "did not converge within {iters} iterations",
    kernels.UNCONVERGED: "stopped on an unconverged forward quadrature after {iters} iterations",
    kernels.OVERFLOW: "bracket passed the largest float after {iters} iterations",
}


def _solve(mode, p, q, y, top, tol, cfg, qcfg):
    root, iters, _evals, status = kernels.solve(
        mode, p, q, y, top, tol, cfg.max_iters,
        qcfg.target_abs_tol, qcfg.max_levels, qcfg.max_evals,
    )
    return root, iters, status


def _checked(fn, pq, y, root, iters, status):
    """The root of fn_pq(pq, y), or ComputationError for a failed status."""
    if status:
        raise ComputationError(
            f"{fn}_pq(p={pq.p}, q={pq.q}, y={y!r}) "
            + _FAILURES[status].format(iters=iters)
            + f" (last estimate {root!r})",
            partial=root,
        )
    return root


def _trig(fn, pq, y, hp, cfg, qcfg):
    """sin_pq (``fn`` "sin") or cos_pq ("cos") at 0 < y < half_pi_pq.

    Both are s = sin_pq(y), the root of arcsin_pq(s) = y, mapped back:
    cos_pq(y) = (1 - s**q)**(1/p).  The two-term series
    m + m**(q + 1) / (p (q + 1)) underestimates arcsin_pq at the midpoint
    m = 2**(-1/q), so a target at or below it has its root in the bottom
    half of the branch and is solved at (p, q).  Above it, arcsin_pq(s)
    = hp - c arcsin_{q*,p*}(V), so V is solved at the conjugate
    exponents for the target (hp - y) / c, with the residual tolerance
    divided by c to keep it in y-space; 1 - s**q = v**p = V**(p/(p - 1)).
    """
    p, q = pq.p, pq.q
    if y <= (1.0 + 0.5 / (p * (q + 1.0))) * math.pow(0.5, 1.0 / q):
        s, iters, status = _solve("sin", p, q, y, hp, cfg.tol, cfg, qcfg)
        root = s if fn == "sin" else math.exp(math.log1p(-math.pow(s, q)) / p)
    else:
        ps = p / (p - 1.0)
        c = ps / q
        v, iters, status = _solve("sin", q / (q - 1.0), ps, (hp - y) / c, hp / c, cfg.tol / c,
                                  cfg, qcfg)
        if fn == "sin":
            root = math.exp(math.log1p(-math.pow(v, ps)) / q)
        else:
            root = math.pow(v, 1.0 / (p - 1.0))
    return _checked(fn, pq, y, root, iters, status)


def sin_pq(pq: PQParams, y: float, cfg: InversionConfig = DEFAULT_INVERSION) -> float:
    """Solve arcsin_pq(s) = y for s in [0, 1].

    ``y`` must lie in [0, half_pi_pq] (the top end is tolerance-padded by
    1e-12); sin_pq(0) = 0 and sin_pq(half_pi_pq) = 1 exactly.
    """
    qcfg = _quad_cfg(cfg)
    hp = half_pi_pq(pq)
    if not (0.0 <= y <= hp + _TOP_PAD):
        raise DomainError(
            f"sin_pq needs y in [0, {hp:.12g}] (half_pi for p={pq.p}, q={pq.q}), got {y!r}"
        )
    if y == 0.0:
        return 0.0
    if y >= hp - _TOP_PAD:
        return 1.0
    return _trig("sin", pq, y, hp, cfg, qcfg)


def cos_pq(pq: PQParams, y: float, cfg: InversionConfig = DEFAULT_INVERSION) -> float:
    """Solve arccos_pq(v) = y for v in [0, 1].

    The residual is that of arcsin_pq at the same y, so v is formed from
    the root of the same solve as sin_pq, without cancellation: from
    1 - s**q in the bottom half of the branch, and as V**(1/(p - 1)) from
    the conjugate root V in the top half, where v**p < 1/2.

    For p > 2 arccos_pq flattens near v = 0, so the v-resolution implied
    by the residual tolerance degrades like tol / |arccos_pq'|.  A
    tolerance below the quadrature noise floor (about 1e-15) makes the
    solver polish down to the nearest representable root instead.
    """
    qcfg = _quad_cfg(cfg)
    hp = half_pi_pq(pq)
    if not (0.0 <= y <= hp + _TOP_PAD):
        raise DomainError(
            f"cos_pq needs y in [0, {hp:.12g}] (half_pi for p={pq.p}, q={pq.q}), got {y!r}"
        )
    if y == 0.0:
        return 1.0
    if y >= hp - _TOP_PAD:
        return 0.0
    return _trig("cos", pq, y, hp, cfg, qcfg)


def sinh_pq(pq: PQParams, y: float, cfg: InversionConfig = DEFAULT_INVERSION) -> float:
    """Solve arcsinh_pq(s) = y for s >= 0.

    ``y`` must be nonnegative and, when m_star_pq is finite, strictly
    below it.  The solve starts at s = y, a lower bound because the
    integrand is at most 1, and needs no upper bound to begin with;
    arcsinh_pq is unbounded in s even when its limit bounds y, so an
    in-domain y has a finite root.  A root beyond the largest float, one
    so large that the forward quadrature cannot converge there (p >= q,
    or q/p within about 1.005 of 1), or one the iteration budget does not
    reach (q/p within about 1.04 of 1 and y next to m_star), raises
    :class:`ComputationError`.
    """
    qcfg = _quad_cfg(cfg)
    if not (y >= 0.0):
        raise DomainError(f"sinh_pq needs y >= 0, got {y!r}")
    ms = m_star_pq(pq)
    if ms.is_finite and y >= ms.value:
        raise DomainError(
            f"sinh_pq needs y below m_star = {ms.value:.12g} for p={pq.p}, q={pq.q}, got {y!r}"
        )
    if y == 0.0:
        return 0.0
    root, iters, status = _solve("sinh", pq.p, pq.q, y, ms.as_float(), cfg.tol, cfg, qcfg)
    return _checked("sinh", pq, y, root, iters, status)
