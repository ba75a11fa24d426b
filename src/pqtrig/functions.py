"""Forward generalized trigonometric and hyperbolic functions.

For an exponent pair p, q > 1 the package computes

    arcsin_pq(x)  = integral of (1 - t**q)**(-1/p) over [0, x],  x in [0, 1]
    half_pi_pq    = arcsin_pq(1), the right edge of the principal branch
    arccos_pq(x)  = arcsin_pq((1 - x**p)**(1/q))
    arcsinh_pq(x) = integral of (1 + t**q)**(-1/p) over [0, x],  x >= 0
    m_star_pq     = the same integral over [0, inf), finite exactly when
                    p < q and +inf otherwise

together with the power series of arcsin_pq as a public partial-sum
function.  At p = q = 2 these all reduce to the classical functions and
constants.

The integrals are Gauss hypergeometric functions, and each value is one
series ``kernels.forward(mode, ...)`` with a rigorous truncation bound
(see ``_dequad_py``), which ``_run_kernel`` certifies by a fixed rule or
raises :class:`ComputationError`.  Mode "sin" is taken where x**q <= 1/2
only; above, mode "top" expands the integral in w = 1 - x**q from an
anchor at w = 1/2, taking t = ln(1/w), which ``arccos_pq`` forms as
-p ln x so that a w below the subnormal range is no obstacle.  The
constants are the forms' values at the ends of the branches: half_pi_pq
"top"'s at w = 0, m_star_pq the far form of "sinh" at x = inf.
"""

import math
from functools import lru_cache
from typing import NamedTuple, Optional

from ._backend import kernels
from ._records import Validated, count, real
from .errors import ComputationError, DomainError


class _PQFields(NamedTuple):
    p: float
    q: float


class PQParams(Validated, _PQFields):
    """The exponent pair governing every function; both must exceed 1."""

    __slots__ = ()

    def _check(self):
        p, q = real(self.p, "p"), real(self.q, "q")
        if not (math.isfinite(p) and p > 1.0):
            raise DomainError(f"p must be a finite real exceeding 1, got {self.p!r}")
        if not (math.isfinite(q) and q > 1.0):
            raise DomainError(f"q must be a finite real exceeding 1, got {self.q!r}")


def _pair(value, what: str) -> PQParams:
    """``value``, or DomainError naming ``what`` where it is no PQParams (a
    plain (p, q) tuple included), before anything reads its p or q."""
    if isinstance(value, PQParams):
        return value
    raise DomainError(f"{what} must be a PQParams, got {value!r}")


class _ExtendedFields(NamedTuple):
    value: Optional[float]  # None encodes positive infinity


class ExtendedValue(Validated, _ExtendedFields):
    """A nonnegative real or positive infinity (the range of m_star_pq)."""

    __slots__ = ()

    def _check(self):
        value = self.value if self.value is None else real(self.value, "ExtendedValue")
        if value is not None and not (math.isfinite(value) and value >= 0.0):
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


def _run_kernel(mode, p, q, x, what):
    """kernels.forward(mode, p, q, x)'s value; raises with it if unconverged.

    ``what`` is (function name, argument), which name the call in the
    error message.
    """
    value, bound, _terms, converged = kernels.forward(mode, p, q, x)
    if not converged:
        name, arg = what
        raise ComputationError(
            f"{name}(p={p}, q={q}, x={arg}) did not converge "
            f"(estimate {value!r}, error bound {bound:.3e})",
            partial=value,
        )
    return value


@lru_cache(maxsize=4096)
def _half_pi(p: float, q: float) -> float:
    return _run_kernel("top", p, q, math.inf, ("arcsin_pq", 1.0))


@lru_cache(maxsize=4096)
def _m_star(p: float, q: float) -> float:
    return _run_kernel("sinh", p, q, math.inf, ("arcsinh_pq", math.inf))


def half_pi_pq(pq: PQParams) -> float:
    """The constant arcsin_pq(1) = B(1/q, 1 - 1/p) / q; always at least 1."""
    pq = _pair(pq, "half_pi_pq's pq")
    return _half_pi(pq.p, pq.q)


def m_star_pq(pq: PQParams) -> ExtendedValue:
    """Total mass of the hyperbolic integrand on [0, inf), B(1/q, 1/p - 1/q) / q.

    Infinite exactly when p >= q; the dichotomy is decided by comparing
    the parameters, never by probing the integral numerically.  A finite
    value, the far form of arcsinh_pq at x = inf, is always at least 1.
    """
    pq = _pair(pq, "m_star_pq's pq")
    if pq.p >= pq.q:
        return ExtendedValue.infinite()
    return ExtendedValue.finite(_m_star(pq.p, pq.q))


def arcsin_pq(pq: PQParams, x: float) -> float:
    """The defining integral on [0, x]; strictly increasing, arcsin_pq(1) = half_pi_pq.

    Where x**q >= 1/2 it is the top form at w = 1 - x**q (see the module
    docstring), so the series is never taken beyond z = 1/2.  Raises
    :class:`DomainError` for x outside [0, 1].
    """
    pq, x = _pair(pq, "arcsin_pq's pq"), real(x, "arcsin_pq's x")
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"arcsin_pq needs x in [0, 1], got {x!r}")
    what = ("arcsin_pq", x)
    if math.pow(x, pq.q) >= 0.5:
        # t = ln(1/w), w = 1 - x**q formed without cancellation
        t = -math.log(-math.expm1(pq.q * math.log(x))) if x < 1.0 else math.inf
        return _run_kernel("top", pq.p, pq.q, t, what)
    return _run_kernel("sin", pq.p, pq.q, x, what)


def arccos_pq(pq: PQParams, x: float) -> float:
    """arcsin_pq((1 - x**p)**(1/q)); decreasing from half_pi_pq to 0 on [0, 1].

    Where x**p <= 1/2 the argument of arcsin_pq is in the top half of the
    branch, and the top form takes w = x**p as ln(1/w) = -p ln x, which
    holds where x**p is below the subnormal range.
    """
    pq, x = _pair(pq, "arccos_pq's pq"), real(x, "arccos_pq's x")
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"arccos_pq needs x in [0, 1], got {x!r}")
    what = ("arccos_pq", x)
    if math.pow(x, pq.p) <= 0.5:
        t = -pq.p * math.log(x) if x > 0.0 else math.inf
        return _run_kernel("top", pq.p, pq.q, t, what)
    # (1 - x**p)**(1/q) without cancellation for x near 1
    w = math.pow(-math.expm1(pq.p * math.log(x)), 1.0 / pq.q)
    return _run_kernel("sin", pq.p, pq.q, w, what)


def arcsinh_pq(pq: PQParams, x: float) -> float:
    """The hyperbolic defining integral on [0, x]; strictly increasing in x.

    One series kernel call for every finite x >= 0: the Pfaff form near
    0 and the far form, an expansion in x**-q, beyond (see
    ``_dequad_py``), so a huge x costs no accuracy on either side of
    p = q.  Where m_star_pq is finite the value never exceeds it.
    """
    pq, x = _pair(pq, "arcsinh_pq's pq"), real(x, "arcsinh_pq's x")
    if not (x >= 0.0 and math.isfinite(x)):
        raise DomainError(f"arcsinh_pq needs finite x >= 0, got {x!r}")
    p, q = pq.p, pq.q
    value = _run_kernel("sinh", p, q, x, ("arcsinh_pq", x))
    # far out the series comes within ulps of m_star, and its rounding may
    # put it above the value at x = inf, which the integral never reaches
    return min(value, _m_star(p, q)) if p < q else value


def arcsin_series_oracle(pq: PQParams, x: float, n_terms: int) -> float:
    """Partial sum of the power series for arcsin_pq.

    Termwise integration of the binomial expansion of (1 - t**q)**(-1/p)
    gives

        sum_{n >= 0} ((1/p)_n / n!) * x**(q*n + 1) / (q*n + 1)

    with (a)_n the rising factorial.  Valid for 0 <= x < 1 (the series
    diverges too slowly at x = 1 to be useful); monotone increasing in
    ``n_terms``.  Terms are accumulated until one falls below 1e-17 of
    the partial sum, the double-precision floor.  This is the series
    that the arcsin kernel sums where x**q <= 1/2, so it is no
    independent check of ``arcsin_pq`` there; the test suite checks both
    against a tanh-sinh reference.
    """
    pq = _pair(pq, "arcsin_series_oracle's pq")
    if not (0.0 <= real(x, "series oracle's x") < 1.0):
        raise DomainError(f"series oracle needs x in [0, 1), got {x!r}")
    if count(n_terms, "n_terms") < 1:
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
