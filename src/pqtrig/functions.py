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

The constants are complete Beta integrals and come in closed form.  The
integrals are Gauss hypergeometric functions, and each value is one
call of a series kernel with a rigorous truncation bound (see
``_dequad_py``), which certifies it by a fixed rule or the call raises
:class:`ComputationError`.  The arcsin series is taken where x**q <= 1/2
only: with p* = p/(p - 1) and q* = q/(q - 1), the substitution
1 - t**q = V**p* maps the top half of the (p, q) branch onto the bottom
half of the (q*, p*) branch (the conjugate-exponent relation),

    half_pi_pq - arcsin_pq(x) = c arcsin_{q*,p*}(V),  c = p* / q,
    V = (1 - x**q)**(1/p*),

where V**p* = 1 - x**q <= 1/2.  The arcsinh kernel covers every x up to
the largest float on its own.
"""

import math
from functools import lru_cache
from typing import NamedTuple, Optional

from ._backend import kernels
from ._records import Validated, count
from .errors import ComputationError, DomainError


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


def _run_kernel(kernel, p, q, x, what, base=0.0, scale=1.0):
    """base + scale * kernel(p, q, x); raises with that estimate if unconverged.

    ``what`` is (function name, pq, argument), which name the call in the
    error message.
    """
    value, bound, _terms, converged = kernel(p, q, x)
    value = base + scale * value
    if not converged:
        name, pq, arg = what
        raise ComputationError(
            f"{name}(p={pq.p}, q={pq.q}, x={arg}) did not converge "
            f"(estimate {value!r}, error bound {abs(scale) * bound:.3e})",
            partial=value,
        )
    return value


def _a_beta(a: float, b: float) -> float:
    # a B(a, b) = Gamma(1 + a) Gamma(1 + b) / (b Gamma(a + b)), so that
    # B(1/q, b) / q needs neither the large lgamma(1/q) nor B itself, which
    # overflows where 1/q or 1/b nears the largest float, nor lgamma(b),
    # whose size ln(1/b) cost up to 55 ulps near p = 1 and q/p = 1 (9 ulps
    # this way, against mpmath over 3,000 seeded pairs)
    ln = math.lgamma(1.0 + a) + math.lgamma(1.0 + b) - math.lgamma(a + b)
    if ln < -700.0:  # e**ln would lose digits below the normal range
        return math.exp(ln - math.log(b))
    return math.exp(ln) / b


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


def _reflected(pq: PQParams, v: float, what: tuple) -> float:
    """half_pi_pq - c arcsin_{q*,p*}(v): arcsin_pq at x with 1 - x**q = v**(p/(p - 1)).

    half_pi_pq grows like 1/(p - 1), so the subtraction loses that many
    more digits as p nears 1; where it leaves a value outside
    [x, half_pi_pq], which the integral of a function at least 1 never
    takes, ComputationError is raised.
    """
    p, q = pq.p, pq.q
    hp = half_pi_pq(pq)
    value = _run_kernel(
        kernels.arcsin_series, q / (q - 1.0), p / (p - 1.0), v, what,
        base=hp, scale=-p / ((p - 1.0) * q),
    )
    name, _pq, x = what
    if name == "arccos_pq":  # x = (1 - v**p)**(1/q) with v**p <= 1/2, so x >= 1/2**(1/q)
        x = math.pow(0.5, 1.0 / q)
    if not (x <= value <= hp):
        raise ComputationError(
            f"{name}(p={p}, q={q}, x={what[2]}) is out of reach: p is so close to 1 that "
            f"half_pi_pq - {p / ((p - 1.0) * q):.6g} arcsin at the conjugate exponents "
            f"keeps no digits (estimate {value!r})",
            partial=value,
        )
    return value


def arcsin_pq(pq: PQParams, x: float) -> float:
    """The defining integral on [0, x]; strictly increasing, arcsin_pq(1) = half_pi_pq.

    Where x**q >= 1/2 it is half_pi_pq minus the reflected integral at the
    conjugate exponents (see the module docstring), so the series is
    never taken beyond z = 1/2.  Raises :class:`DomainError` for x
    outside [0, 1].
    """
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"arcsin_pq needs x in [0, 1], got {x!r}")
    what = ("arcsin_pq", pq, x)
    if math.pow(x, pq.q) >= 0.5:
        # V = (1 - x**q)**(1 - 1/p), with 1 - x**q formed without cancellation
        v = math.pow(-math.expm1(pq.q * math.log(x)), (pq.p - 1.0) / pq.p)
        return _reflected(pq, v, what)
    return _run_kernel(kernels.arcsin_series, pq.p, pq.q, x, what)


def arccos_pq(pq: PQParams, x: float) -> float:
    """arcsin_pq((1 - x**p)**(1/q)); decreasing from half_pi_pq to 0 on [0, 1].

    Where x**p <= 1/2 the argument of arcsin_pq is in the top half of the
    branch, and the reflected integral takes V = x**(p - 1) directly.
    """
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"arccos_pq needs x in [0, 1], got {x!r}")
    what = ("arccos_pq", pq, x)
    if math.pow(x, pq.p) <= 0.5:
        return _reflected(pq, math.pow(x, pq.p - 1.0), what)
    # (1 - x**p)**(1/q) without cancellation for x near 1
    w = math.pow(-math.expm1(pq.p * math.log(x)), 1.0 / pq.q)
    return _run_kernel(kernels.arcsin_series, pq.p, pq.q, w, what)


def arcsinh_pq(pq: PQParams, x: float) -> float:
    """The hyperbolic defining integral on [0, x]; strictly increasing in x.

    One series kernel call for every finite x >= 0: the Pfaff form near
    0 and the far form, an expansion in x**-q, beyond (see
    ``_dequad_py``), so a huge x costs no accuracy on either side of
    p = q.  Where m_star_pq is finite the value never exceeds it.
    """
    if not (x >= 0.0 and math.isfinite(x)):
        raise DomainError(f"arcsinh_pq needs finite x >= 0, got {x!r}")
    p, q = pq.p, pq.q
    value = _run_kernel(kernels.arcsinh_series, p, q, x, ("arcsinh_pq", pq, x))
    # far out the series comes within ulps of m_star, and its rounding may
    # put it above the closed form, which the integral never reaches
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
    if not (0.0 <= x < 1.0):
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
