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

The constants are complete Beta integrals and come in closed form.  The
integrals are taken where their integrands are smooth: with
p* = p/(p - 1) and q* = q/(q - 1), the substitution 1 - t**q = V**p*
maps the top half of the (p, q) branch onto the bottom half of the
(q*, p*) branch (the conjugate-exponent relation),

    half_pi_pq - arcsin_pq(x) = c arcsin_{q*,p*}(V),  c = p* / q,
    V = (1 - x**q)**(1/p*),

and for p < q, with g = q/p - 1, s = t**-g maps the tail of the
hyperbolic integral onto [0, x**-g]:

    m_star_pq - arcsinh_pq(x) = arcsinh_{p,q/g}(x**-g) / g.

The tail form is used where x**-g <= 1/2, where the tail is small enough
beside m_star_pq that the subtraction costs no accuracy; nearer x = 1
the integral over [0, x] is the accurate one.
"""

import math
from functools import lru_cache
from typing import NamedTuple, Optional

from ._backend import kernels
from ._records import Validated
from .errors import ComputationError, DomainError
from .quadrature import DEFAULT_CONFIG, QuadratureConfig


class _PQFields(NamedTuple):
    p: float
    q: float


class PQParams(Validated, _PQFields):
    """The exponent pair governing every function; both must exceed 1."""

    __slots__ = ()

    def _check(self):
        if not (math.isfinite(self.p) and self.p > 1.0):
            raise DomainError(f"p must be a finite real exceeding 1, got {self.p!r}")
        if not (math.isfinite(self.q) and self.q > 1.0):
            raise DomainError(f"q must be a finite real exceeding 1, got {self.q!r}")


class _ExtendedFields(NamedTuple):
    value: Optional[float]  # None encodes positive infinity


class ExtendedValue(Validated, _ExtendedFields):
    """A nonnegative real or positive infinity (the range of m_star_pq)."""

    __slots__ = ()

    def _check(self):
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


def _run_kernel(kernel, p, q, x, tol, cfg, what, base=0.0, scale=1.0):
    """base + scale * kernel(p, q, x); raises with that estimate if unconverged."""
    value, err, _evals, converged = kernel(p, q, x, tol, cfg.max_levels, cfg.max_evals)
    value = base + scale * value
    if not converged:
        raise ComputationError(
            f"{what} did not reach the requested tolerance "
            f"(estimate {value!r}, error estimate {abs(scale) * err:.3e})",
            partial=value,
        )
    return value


def _a_beta(a: float, b: float) -> float:
    # a B(a, b) = Gamma(1 + a) Gamma(b) / Gamma(a + b), so that B(1/q, b) / q
    # needs neither the large lgamma(1/q) nor B itself, which overflows
    # where 1/q or 1/b nears the largest float
    return math.exp(math.lgamma(1.0 + a) + math.lgamma(b) - math.lgamma(a + b))


@lru_cache(maxsize=4096)
def _half_pi(p: float, q: float) -> float:
    # 1 - 1/p as (p - 1)/p: p - 1 is exact
    return _a_beta(1.0 / q, (p - 1.0) / p)


@lru_cache(maxsize=4096)
def _m_star(p: float, q: float) -> float:
    # 1/p - 1/q as (q - p)/p/q: q - p is exact when q < 2 p
    return _a_beta(1.0 / q, (q - p) / p / q)


def half_pi_pq(pq: PQParams) -> float:
    """The constant arcsin_pq(1) = B(1/q, 1 - 1/p) / q; always greater than 1."""
    return _half_pi(pq.p, pq.q)


def m_star_pq(pq: PQParams) -> ExtendedValue:
    """Total mass of the hyperbolic integrand on [0, inf), B(1/q, 1/p - 1/q) / q.

    Infinite exactly when p >= q; the dichotomy is decided by comparing
    the parameters, never by probing the integral numerically.  A finite
    value always exceeds 1.
    """
    if pq.p >= pq.q:
        return ExtendedValue.infinite()
    return ExtendedValue.finite(_m_star(pq.p, pq.q))


def _reflected(pq: PQParams, v: float, cfg: QuadratureConfig, what: str) -> float:
    """half_pi_pq - c arcsin_{q*,p*}(v): arcsin_pq at x with 1 - x**q = v**(p/(p - 1))."""
    p, q = pq.p, pq.q
    return _run_kernel(
        kernels.arcsin_quad, q / (q - 1.0), p / (p - 1.0), v, cfg.target_abs_tol, cfg, what,
        base=half_pi_pq(pq), scale=-p / ((p - 1.0) * q),
    )


def arcsin_pq(pq: PQParams, x: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """The defining integral on [0, x]; strictly increasing, arcsin_pq(1) = half_pi_pq.

    Where x**q >= 1/2 it is half_pi_pq minus the reflected integral at the
    conjugate exponents (see the module docstring), so no quadrature
    node comes near the singular end t = 1.  Raises :class:`DomainError`
    for x outside [0, 1].
    """
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"arcsin_pq needs x in [0, 1], got {x!r}")
    what = f"arcsin_pq(p={pq.p}, q={pq.q}, x={x})"
    if math.pow(x, pq.q) >= 0.5:
        # V = (1 - x**q)**(1 - 1/p), with 1 - x**q formed without cancellation
        v = math.pow(-math.expm1(pq.q * math.log(x)), (pq.p - 1.0) / pq.p)
        return _reflected(pq, v, cfg, what)
    return _run_kernel(kernels.arcsin_quad, pq.p, pq.q, x, cfg.target_abs_tol, cfg, what)


def arccos_pq(pq: PQParams, x: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """arcsin_pq((1 - x**p)**(1/q)); decreasing from half_pi_pq to 0 on [0, 1].

    Where x**p <= 1/2 the argument of arcsin_pq is in the top half of the
    branch, and the reflected integral takes V = x**(p - 1) directly.
    """
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"arccos_pq needs x in [0, 1], got {x!r}")
    what = f"arccos_pq(p={pq.p}, q={pq.q}, x={x})"
    if math.pow(x, pq.p) <= 0.5:
        return _reflected(pq, math.pow(x, pq.p - 1.0), cfg, what)
    # (1 - x**p)**(1/q) without cancellation for x near 1
    w = math.pow(-math.expm1(pq.p * math.log(x)), 1.0 / pq.q)
    return _run_kernel(kernels.arcsin_quad, pq.p, pq.q, w, cfg.target_abs_tol, cfg, what)


def arcsinh_pq(pq: PQParams, x: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """The hyperbolic defining integral on [0, x]; strictly increasing in x.

    Where m_star_pq is finite and x**(1 - q/p) <= 1/2 it is m_star_pq
    minus the tail integral over [x, inf), taken at other exponents (see
    the module docstring), so a huge x costs no accuracy.
    """
    if not (x >= 0.0 and math.isfinite(x)):
        raise DomainError(f"arcsinh_pq needs finite x >= 0, got {x!r}")
    p, q, tol = pq.p, pq.q, cfg.target_abs_tol
    what = f"arcsinh_pq(p={p}, q={q}, x={x})"
    g = (q - p) / p  # q/p - 1, with q - p exact near p = q
    if g > 0.0 and x > 1.0 and math.pow(x, -g) <= 0.5:
        return _run_kernel(
            kernels.arcsinh_quad, p, q / g, math.pow(x, -g), tol * min(g, 1.0), cfg, what,
            base=_m_star(p, q), scale=-1.0 / g,
        )
    return _run_kernel(kernels.arcsinh_quad, p, q, x, tol, cfg, what)


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
