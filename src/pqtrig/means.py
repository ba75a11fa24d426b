"""The Hölder (power) mean of order r of two positive numbers.

    H_r(a, b) = ((a**r + b**r) / 2) ** (1/r)   for r != 0
    H_0(a, b) = sqrt(a * b)

H_r is symmetric, idempotent, homogeneous of degree 1, bounded by
min(a, b) and max(a, b), and strictly increasing in r for a != b.
"""

import math

from ._records import holder_order, real
from .errors import DomainError

# the r != 0 formula is numerically unstable near zero; route to the
# geometric branch below this
_ZERO_BAND = 1e-12


def holder_mean(order: float, a: float, b: float) -> float:
    """H_order(a, b) for positive a, b; always within [min(a,b), max(a,b)].

    ``order`` must be a finite real; 0 encodes the geometric mean.
    """
    r = holder_order(order)
    a, b = real(a, "holder_mean's a"), real(b, "holder_mean's b")
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"holder_mean needs positive arguments, got {a!r}, {b!r}")
    return _holder_mean(r, a, b)


def _holder_mean(r: float, a: float, b: float) -> float:
    """:func:`holder_mean` without its checks, for callers that have made
    them: ``r`` a finite float, ``a`` and ``b`` positive floats."""
    return _holder_means(r, (a,), (b,))[0]


def _holder_means(r: float, a_col, b_col) -> list[float]:
    """[_holder_mean(r, a, b) for a, b in zip(a_col, b_col)] in one loop."""
    log, exp, log1p, ln2 = math.log, math.exp, math.log1p, math.log(2.0)
    geometric, up = abs(r) < _ZERO_BAND, r > 0.0
    out = []
    for a, b in zip(a_col, b_col):
        if a == b:
            out.append(a)
            continue
        if a < b:
            lo, hi = a, b
        else:
            lo, hi = b, a
        if geometric:
            mean = exp(0.5 * (log(a) + log(b)))
        else:
            # factor out the dominant argument so the remaining ratio power
            # is <= 1: the larger one for positive orders, the smaller for
            # negative
            if up:
                m, other = hi, lo
            else:
                m, other = lo, hi
            t = exp(r * (log(other) - log(m)))  # in (0, 1]
            mean = m * exp((log1p(t) - ln2) / r)
        # rounding can step past an argument that is a few ulps from the other
        out.append(lo if mean < lo else hi if mean > hi else mean)
    return out
