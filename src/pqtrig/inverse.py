"""Inverse functions sin_pq, cos_pq and sinh_pq by safeguarded root finding.

Each inverse solves its monotone defining equation with Newton steps (the
derivative of the defining integral is the integrand itself, so it comes
for free) inside a maintained bracket; a step leaving the bracket falls
back to bisection.  The convergence criterion is the residual in function
space, |F(s) - y| <= tol, which is what the quadrature can actually
certify.  The solve itself is ``kernels.solve`` (see ``_dequad_py.solve``
for the step variables); it runs in C with the GIL released when the
compiled backend is active.  This module checks domains and maps the
solver's failures to :class:`ComputationError`.

Near the singular top of the trigonometric branch the derivative of
arcsin_pq is unbounded, so in double precision neighbouring representable
arguments can straddle residuals larger than any reasonable tolerance.
When the bracket collapses to a few ulps the nearest representable root
is returned; ComputationError is raised on iteration budget exhaustion
and when a forward quadrature inside the solve does not converge.
"""

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


def _solve(mode, pq, y, top, cfg, qcfg):
    root, iters, _evals, status = kernels.solve(
        mode, pq.p, pq.q, y, top, cfg.tol, cfg.max_iters,
        qcfg.target_abs_tol, qcfg.max_levels, qcfg.max_evals,
    )
    if status:
        raise ComputationError(
            f"{mode}_pq(p={pq.p}, q={pq.q}, y={y!r}) "
            + _FAILURES[status].format(iters=iters)
            + f" (last estimate {root!r})",
            partial=root,
        )
    return root


def sin_pq(pq: PQParams, y: float, cfg: InversionConfig = DEFAULT_INVERSION) -> float:
    """Solve arcsin_pq(s) = y for s in [0, 1].

    ``y`` must lie in [0, half_pi_pq] (the top end is tolerance-padded by
    1e-12); sin_pq(0) = 0 and sin_pq(half_pi_pq) = 1 exactly.
    """
    qcfg = _quad_cfg(cfg)
    hp = half_pi_pq(pq, qcfg)
    if not (0.0 <= y <= hp + _TOP_PAD):
        raise DomainError(
            f"sin_pq needs y in [0, {hp:.12g}] (half_pi for p={pq.p}, q={pq.q}), got {y!r}"
        )
    if y == 0.0:
        return 0.0
    if y >= hp - _TOP_PAD:
        return 1.0
    return _solve("sin", pq, y, hp, cfg, qcfg)


def cos_pq(pq: PQParams, y: float, cfg: InversionConfig = DEFAULT_INVERSION) -> float:
    """Solve arccos_pq(v) = y for v in [0, 1].

    Computed directly as the inverse of the decreasing composition
    arccos_pq, not through any algebraic relation with sin_pq.

    For p > 2 the composition flattens near v = 0, so the v-resolution
    implied by the residual tolerance degrades like tol / |arccos_pq'|.
    A tolerance below the quadrature noise floor (about 1e-15) makes the
    solver polish down to the nearest representable root instead.
    """
    qcfg = _quad_cfg(cfg)
    hp = half_pi_pq(pq, qcfg)
    if not (0.0 <= y <= hp + _TOP_PAD):
        raise DomainError(
            f"cos_pq needs y in [0, {hp:.12g}] (half_pi for p={pq.p}, q={pq.q}), got {y!r}"
        )
    if y == 0.0:
        return 1.0
    if y >= hp - _TOP_PAD:
        return 0.0
    return _solve("cos", pq, y, hp, cfg, qcfg)


def sinh_pq(pq: PQParams, y: float, cfg: InversionConfig = DEFAULT_INVERSION) -> float:
    """Solve arcsinh_pq(s) = y for s >= 0.

    ``y`` must be nonnegative and, when m_star_pq is finite, strictly
    below it.  The solve starts at s = y, a lower bound because the
    integrand is at most 1, and needs no upper bound to begin with;
    arcsinh_pq is unbounded in s even when its limit bounds y, so an
    in-domain y has a finite root.  A root beyond the largest float, or
    one so large that the forward quadrature cannot converge there (as
    when q/p is near 1 and y lies within about 1e-8 of m_star), raises
    :class:`ComputationError`.
    """
    qcfg = _quad_cfg(cfg)
    if not (y >= 0.0):
        raise DomainError(f"sinh_pq needs y >= 0, got {y!r}")
    ms = m_star_pq(pq, qcfg)
    if ms.is_finite and y >= ms.value:
        raise DomainError(
            f"sinh_pq needs y below m_star = {ms.value:.12g} for p={pq.p}, q={pq.q}, got {y!r}"
        )
    if y == 0.0:
        return 0.0
    return _solve("sinh", pq, y, ms.as_float(), cfg, qcfg)
