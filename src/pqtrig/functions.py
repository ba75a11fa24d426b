"""Forward generalized trigonometric and hyperbolic functions.

For an exponent pair p, q > 1 the package computes

    arcsin_pq(x)  = integral of (1 - t**q)**(-1/p) over [0, x],  x in [0, 1]
    half_pi_pq    = arcsin_pq(1), the right edge of the principal branch
    arccos_pq(x)  = arcsin_pq((1 - x**p)**(1/q))
    arcsinh_pq(x) = integral of (1 + t**q)**(-1/p) over [0, x],  x >= 0
    m_star_pq     = the same integral over [0, inf), finite exactly when
                    p < q and +inf otherwise

together with an independent power-series evaluation of arcsin_pq used
as a cross-check.  At p = q = 2 these all reduce to the classical
functions and constants.

The constants are cached per (p, q); the cache is written once and then
only read, so concurrent callers are safe.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from ._backend import kernels
from .errors import ComputationError, DomainError
from .quadrature import DEFAULT_CONFIG, QuadratureConfig


@dataclass(frozen=True)
class PQParams:
    """The exponent pair governing every function; both must exceed 1."""

    p: float
    q: float

    def __post_init__(self):
        if not (math.isfinite(self.p) and self.p > 1.0):
            raise DomainError(f"p must be a finite real exceeding 1, got {self.p!r}")
        if not (math.isfinite(self.q) and self.q > 1.0):
            raise DomainError(f"q must be a finite real exceeding 1, got {self.q!r}")


@dataclass(frozen=True)
class ExtendedValue:
    """A nonnegative real or positive infinity (the range of m_star_pq)."""

    value: Optional[float]  # None encodes positive infinity

    def __post_init__(self):
        if self.value is not None and not (math.isfinite(self.value) and self.value >= 0.0):
            raise DomainError("finite ExtendedValue must be a nonnegative real")

    @classmethod
    def finite(cls, value: float) -> "ExtendedValue":
        return cls(value)

    @classmethod
    def infinite(cls) -> "ExtendedValue":
        return cls(None)

    @property
    def is_finite(self) -> bool:
        return self.value is not None

    def as_float(self) -> float:
        """The value as a float, with infinity mapped to math.inf."""
        return self.value if self.value is not None else math.inf

    def __float__(self) -> float:
        return self.as_float()


def _run_kernel(kernel, *args, what: str):
    value, err, _evals, converged = kernel(*args)
    if not converged:
        raise ComputationError(
            f"{what} did not reach the requested tolerance "
            f"(estimate {value!r}, error estimate {err:.3e})",
            partial=value,
        )
    return value


@lru_cache(maxsize=4096)
def _half_pi_cached(p: float, q: float, tol: float, max_levels: int, max_evals: int) -> float:
    return _run_kernel(
        kernels.arcsin_quad, p, q, 1.0, tol, max_levels, max_evals,
        what=f"half_pi_pq(p={p}, q={q})",
    )


@lru_cache(maxsize=4096)
def _m_star_cached(p: float, q: float, tol: float, max_levels: int, max_evals: int) -> float:
    return _run_kernel(
        kernels.mstar_quad, p, q, tol, max_levels, max_evals,
        what=f"m_star_pq(p={p}, q={q})",
    )


def arcsin_pq(pq: PQParams, x: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """The defining integral on [0, x]; strictly increasing, arcsin_pq(1) = half_pi_pq.

    Where x**q >= 1/2 it is computed from the top of the branch, as
    half_pi_pq minus the integral over [x, 1] with its nodes placed from
    the singular end t = 1.  Raises :class:`DomainError` for x outside
    [0, 1].
    """
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"arcsin_pq needs x in [0, 1], got {x!r}")
    what = f"arcsin_pq(p={pq.p}, q={pq.q}, x={x})"
    if math.pow(x, pq.q) >= 0.5:
        value = _from_top(pq, 1.0 - x, cfg, what)
        if value is not None:
            return value
    return _run_kernel(
        kernels.arcsin_quad, pq.p, pq.q, x,
        cfg.target_abs_tol, cfg.max_levels, cfg.max_evals, what=what,
    )


def _from_top(pq: PQParams, d: float, cfg: QuadratureConfig, what: str) -> Optional[float]:
    """arcsin_pq at 1 - d, as half_pi_pq minus the integral over [1 - d, 1].

    Returns None where half_pi_pq itself cannot be computed (p within
    about 0.04 of 1), so the caller falls back to integrating from 0.
    """
    try:
        hp = half_pi_pq(pq, cfg)
    except ComputationError:
        return None
    return hp - _run_kernel(
        kernels.arcsin_top_quad, pq.p, pq.q, d,
        cfg.target_abs_tol, cfg.max_levels, cfg.max_evals, what=what,
    )


def half_pi_pq(pq: PQParams, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """The constant arcsin_pq(1); always greater than 1."""
    return _half_pi_cached(pq.p, pq.q, cfg.target_abs_tol, cfg.max_levels, cfg.max_evals)


def arccos_pq(pq: PQParams, x: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """arcsin_pq((1 - x**p)**(1/q)); decreasing from half_pi_pq to 0 on [0, 1].

    Where x**p <= 1/2 the argument of arcsin_pq is in the top half of the
    branch, and its distance from 1 is formed directly, as
    -expm1(log1p(-x**p) / q), rather than from (1 - x**p)**(1/q), which
    rounds to 1 for small x.
    """
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"arccos_pq needs x in [0, 1], got {x!r}")
    what = f"arccos_pq(p={pq.p}, q={pq.q}, x={x})"
    xp = math.pow(x, pq.p)
    if xp <= 0.5:
        value = _from_top(pq, -math.expm1(math.log1p(-xp) / pq.q), cfg, what)
        if value is not None:
            return value
    # (1 - x**p)**(1/q) without cancellation for x near 1
    w = 1.0 if x == 0.0 else math.pow(-math.expm1(pq.p * math.log(x)), 1.0 / pq.q)
    return _run_kernel(
        kernels.arcsin_quad, pq.p, pq.q, w,
        cfg.target_abs_tol, cfg.max_levels, cfg.max_evals, what=what,
    )


def arcsinh_pq(pq: PQParams, x: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """The hyperbolic defining integral on [0, x]; strictly increasing in x."""
    if not (x >= 0.0 and math.isfinite(x)):
        raise DomainError(f"arcsinh_pq needs finite x >= 0, got {x!r}")
    return _run_kernel(
        kernels.arcsinh_quad, pq.p, pq.q, x,
        cfg.target_abs_tol, cfg.max_levels, cfg.max_evals,
        what=f"arcsinh_pq(p={pq.p}, q={pq.q}, x={x})",
    )


def m_star_pq(pq: PQParams, cfg: QuadratureConfig = DEFAULT_CONFIG) -> ExtendedValue:
    """Total mass of the hyperbolic integrand on [0, inf).

    Infinite exactly when p >= q; the dichotomy is decided by comparing
    the parameters, never by probing the integral numerically.  A finite
    value always exceeds 1.
    """
    if pq.p >= pq.q:
        return ExtendedValue.infinite()
    return ExtendedValue.finite(
        _m_star_cached(pq.p, pq.q, cfg.target_abs_tol, cfg.max_levels, cfg.max_evals)
    )


def arcsin_series_oracle(pq: PQParams, x: float, n_terms: int) -> float:
    """Partial sum of the power series for arcsin_pq, for cross-checking.

    Termwise integration of the binomial expansion of (1 - t**q)**(-1/p)
    gives

        sum_{n >= 0} ((1/p)_n / n!) * x**(q*n + 1) / (q*n + 1)

    with (a)_n the rising factorial.  Valid for 0 <= x < 1 (the series
    diverges too slowly at x = 1 to be useful); monotone increasing in
    ``n_terms``.  Terms are accumulated until one falls below 1e-17 of
    the partial sum, the double-precision floor.
    """
    if not (0.0 <= x < 1.0):
        raise DomainError(f"series oracle needs x in [0, 1), got {x!r}")
    if n_terms < 1:
        raise DomainError("n_terms must be at least 1")
    if x == 0.0:
        return 0.0
    a = 1.0 / pq.p
    xq = math.pow(x, pq.q)
    coeff = 1.0  # (a)_n / n!
    xpow = x  # x**(q*n + 1)
    total = 0.0
    for n in range(n_terms):
        term = coeff * xpow / (pq.q * n + 1.0)
        total += term
        if term < 1e-17 * total:
            break
        coeff *= (a + n) / (n + 1.0)
        xpow *= xq
    return total
