"""The Hölder (power) mean of order r of two positive numbers.

    H_r(a, b) = ((a**r + b**r) / 2) ** (1/r)   for r != 0
    H_0(a, b) = sqrt(a * b)

H_r is symmetric, idempotent, homogeneous of degree 1, bounded by
min(a, b) and max(a, b), and strictly increasing in r for a != b.
"""

import math
from itertools import repeat

from ._records import holder_order, real
from .errors import DomainError

_TINY = 2.2250738585072014e-308  # the least normal float

# H_r differs from the geometric mean by about |r| d**2 / 8 relative, with
# d = ln(max/min): below half an ulp the geometric mean is H_r
_GEOMETRIC = 2.0 ** -50


def holder_mean(order: float, a: float, b: float) -> float:
    """H_order(a, b) for positive a, b; always within [min(a,b), max(a,b)].

    ``order`` must be a finite real; 0 encodes the geometric mean.
    """
    r = holder_order(order)
    a, b = real(a, "holder_mean's a"), real(b, "holder_mean's b")
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"holder_mean needs positive arguments, got {a!r}, {b!r}")
    return _holder_means(r, (a,), (b,))[0]


def _gmeans(a_col, b_col) -> list[float]:
    """sqrt(a b) for each pair: a itself where a == b, and sqrt(a) sqrt(b)
    where a b overflows or leaves the normal range."""
    sqrt, inf = math.sqrt, math.inf
    return [a if a == b else sqrt(ab) if _TINY <= (ab := a * b) < inf else sqrt(a) * sqrt(b)
            for a, b in zip(a_col, b_col)]


def _holder_means(r: float, a_col, b_col) -> list[float]:
    """H_r(a, b) for each pair of the columns, in one loop, for a finite
    float ``r`` and positive floats (the checks of :func:`holder_mean`):
    H_r = m exp(log1p(expm1(r d) / 2) / r), with m the larger argument for
    r > 0 and the smaller for r < 0 and d = ln(other/m), which does not
    cancel as r nears 0; the geometric mean where |r| d**2 / 8 is below
    half an ulp."""
    log, exp, expm1, log1p = math.log, math.exp, math.expm1, math.log1p
    up, inf = r > 0.0, math.inf
    out = []
    # at order 0 every mean is geometric; otherwise it is taken where needed
    for a, b, mean in zip(a_col, b_col, _gmeans(a_col, b_col) if r == 0.0 else repeat(None)):
        if a < b:
            lo, hi = a, b
        elif b < a:
            lo, hi = b, a
        else:
            out.append(a)
            continue
        if mean is None:
            # m dominates the power sum, so r d <= 0 and expm1(r d) is in (-1, 0]
            if up:
                m, other = hi, lo
            else:
                m, other = lo, hi
            # one rounding in a normal ratio, where two logarithms would
            # carry theirs into a d near 0
            ratio = other / m
            d = log(ratio) if _TINY <= ratio < inf else log(other) - log(m)
            if abs(r) * d * d < _GEOMETRIC:
                mean = _gmeans((a,), (b,))[0]
            else:
                e = log1p(0.5 * expm1(r * d)) / r  # ln(H_r / m)
                if -708.0 < e < 709.0:
                    mean = m * exp(e)
                else:  # exp(e) leaves the normal range: scale m, apply exp(e/2) twice
                    fm, em = math.frexp(m)
                    half = exp(0.5 * e)
                    fy, ey = math.frexp(fm * half)
                    mean = math.ldexp(fy * half, em + ey)
        # rounding can step past an argument that is a few ulps from the other
        out.append(lo if mean < lo else hi if mean > hi else mean)
    return out
