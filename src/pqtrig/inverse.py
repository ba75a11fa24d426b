"""Inverse functions sin_pq, cos_pq and sinh_pq by safeguarded root finding.

Each inverse solves its monotone defining equation with Newton steps (the
derivative of the defining integral is the integrand itself, so it comes
for free) inside a maintained bracket; any step leaving the bracket, and
any region where the derivative blows up, falls back to bisection.  The
convergence criterion is the residual in function space, |F(s) - y| <=
tol, which is what the quadrature can actually certify.

Near the singular top of the trigonometric branch the derivative of
arcsin_pq is unbounded, so in double precision neighbouring representable
arguments can straddle residuals larger than any reasonable tolerance.
When the bracket collapses to a few ulps the nearest representable root
is returned; ComputationError is raised only on genuine iteration budget
exhaustion.
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


def _bracketed_newton(F, y, lo, hi, s, increasing, newton_step, cfg, name):
    """Solve F(s) = y for monotone F on the bracket [lo, hi], starting at s.

    ``newton_step(s, resid)`` returns the Newton step (subtracted from s)
    or None where the derivative is unusable; a step leaving the bracket,
    and a None, bisect instead.  Returns s once the residual meets
    ``cfg.tol``, or the bracket midpoint once the bracket has collapsed
    to a few ulps (the nearest representable root).
    """
    for _ in range(cfg.max_iters):
        resid = F(s) - y
        if abs(resid) <= cfg.tol:
            return s
        if (resid < 0.0) if increasing else (resid > 0.0):
            lo = s
        else:
            hi = s
        if hi - lo <= 2.0 * math.ulp(hi):
            return 0.5 * (lo + hi)
        step = newton_step(s, resid)
        s_new = 0.5 * (lo + hi) if step is None else s - step
        if not (lo < s_new < hi):
            s_new = 0.5 * (lo + hi)
        s = s_new
    raise ComputationError(
        f"{name} did not converge within {cfg.max_iters} iterations "
        f"(bracket [{lo!r}, {hi!r}])",
        partial=0.5 * (lo + hi),
    )


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
    p, q = pq.p, pq.q
    qt = qcfg.target_abs_tol

    def arcsin_at(s: float) -> float:
        return kernels.arcsin_quad(p, q, s, qt, qcfg.max_levels, qcfg.max_evals)[0]

    def newton_step(s: float, resid: float):
        sq = math.pow(s, q)
        if 1.0 - sq < 1e-8:
            return None  # derivative (1 - s**q)**(-1/p) blows up
        return resid * math.pow(1.0 - sq, 1.0 / p)

    return _bracketed_newton(arcsin_at, y, 0.0, 1.0, min(1.0, y / hp), True,
                             newton_step, cfg, "sin_pq")


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
    p, q = pq.p, pq.q
    qt = qcfg.target_abs_tol

    def arccos_at(v: float) -> float:
        w = math.pow(-math.expm1(p * math.log(v)), 1.0 / q)
        return kernels.arcsin_quad(p, q, w, qt, qcfg.max_levels, qcfg.max_evals)[0]

    def newton_step(v: float, resid: float):
        vp = math.pow(v, p)
        if vp < 1e-8 or 1.0 - vp < 1e-8:
            return None
        # d/dv arccos_pq(v) = -(p/q) v**(p-2) (1 - v**p)**(1/q - 1)
        deriv = -(p / q) * math.pow(v, p - 2.0) * math.pow(1.0 - vp, 1.0 / q - 1.0)
        return resid / deriv

    # arccos decreases from half_pi at 0 to 0 at 1
    return _bracketed_newton(arccos_at, y, 0.0, 1.0, 0.5, False, newton_step, cfg, "cos_pq")


def sinh_pq(pq: PQParams, y: float, cfg: InversionConfig = DEFAULT_INVERSION) -> float:
    """Solve arcsinh_pq(s) = y for s >= 0.

    ``y`` must be nonnegative and, when m_star_pq is finite, strictly
    below it.  The initial bracket doubles upward from 1 until it
    encloses the root; arcsinh_pq is unbounded in s even when its limit
    bounds y, so the doubling always terminates for in-domain y.
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
    p, q = pq.p, pq.q
    qt = qcfg.target_abs_tol

    def forward(s: float) -> float:
        return kernels.arcsinh_quad(p, q, s, qt, qcfg.max_levels, qcfg.max_evals)[0]

    def newton_step(s: float, resid: float):
        # d/ds arcsinh_pq(s) = (1 + s**q)**(-1/p), in log space to dodge overflow
        lns = math.log(s) if s > 0.0 else -745.0
        A = q * lns
        softplus = A + math.log1p(math.exp(-A)) if A > 0.0 else math.log1p(math.exp(A))
        return resid * math.exp(softplus / p)

    hi = 1.0
    while forward(hi) <= y:
        hi *= 2.0
        if math.isinf(hi):
            raise ComputationError(f"sinh_pq bracket overflow for y={y!r}", partial=hi)
    return _bracketed_newton(forward, y, 0.0, hi, min(hi, y), True, newton_step, cfg, "sinh_pq")
