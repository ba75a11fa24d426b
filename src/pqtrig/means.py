"""The Hölder (power) mean of order r of two positive numbers.

    H_r(a, b) = ((a**r + b**r) / 2) ** (1/r)   for r != 0
    H_0(a, b) = sqrt(a * b)

H_r is symmetric, idempotent, homogeneous of degree 1, bounded by
min(a, b) and max(a, b), and strictly increasing in r for a != b.

The means are the kernels' column ``means(order, a, b)``, which the lab's
cells call; :func:`holder_mean` is its one-pair call.
"""

from ._backend import kernels
from ._records import holder_order, real
from .errors import DomainError


def holder_mean(order: float, a: float, b: float) -> float:
    """H_order(a, b) for positive a, b; always within [min(a,b), max(a,b)].

    ``order`` must be a finite real; 0 encodes the geometric mean.
    """
    r = holder_order(order)
    a, b = real(a, "holder_mean's a"), real(b, "holder_mean's b")
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"holder_mean needs positive arguments, got {a!r}, {b!r}")
    return kernels.means(r, (a,), (b,))[0]
