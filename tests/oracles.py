"""Independent reference implementations used only to check the package.

None of this reuses package code: the Beta values come from a Lanczos
log-gamma written here, the distance of arcsin_pq from the top of its
branch and the tail of arcsinh_pq from an incomplete-Beta power series,
and the smooth-integrand reference is a Romberg integrator.  Keeping these separate from the tanh-sinh path is the whole
point; do not import pqtrig here.
"""

import math

# Lanczos approximation, g = 7, 9 coefficients
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def log_gamma(z: float) -> float:
    """ln Gamma(z) for real z not a nonpositive integer."""
    if z < 0.5:
        # reflection: Gamma(z) Gamma(1-z) = pi / sin(pi z)
        return math.log(math.pi / abs(math.sin(math.pi * z))) - log_gamma(1.0 - z)
    z -= 1.0
    x = _LANCZOS_C[0]
    for i in range(1, len(_LANCZOS_C)):
        x += _LANCZOS_C[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _LN_SQRT_2PI + (z + 0.5) * math.log(t) - t + math.log(x)


def beta(a: float, b: float) -> float:
    return math.exp(log_gamma(a) + log_gamma(b) - log_gamma(a + b))


def beta_half_pi(p: float, q: float) -> float:
    """Closed form of the trigonometric constant: B(1/q, 1 - 1/p) / q."""
    return beta(1.0 / q, 1.0 - 1.0 / p) / q


def beta_m_star(p: float, q: float) -> float:
    """Closed form of the finite hyperbolic constant (p < q): B(1/q, 1/p - 1/q) / q."""
    if not p < q:
        raise ValueError("finite only for p < q")
    return beta(1.0 / q, 1.0 / p - 1.0 / q) / q


def _incomplete_beta(a: float, b: float, z: float, za: float) -> float:
    """B(z; a, b) = z**a * sum_n ((1 - b)_n / n!) z**n / (a + n), given za = z**a.

    The power series converges geometrically for 0 <= z <= 1/2.
    """
    if not 0.0 <= z <= 0.5:
        raise ValueError("the series is used for 0 <= z <= 1/2 only")
    c = 1.0 - b
    coeff, zn, total = 1.0, 1.0, 0.0  # (c)_n / n!, z**n
    for n in range(200):
        term = coeff * zn / (a + n)
        total += term
        if term <= 1e-17 * total:
            break
        coeff *= (c + n) / (n + 1.0)
        zn *= z
    return za * total


def beta_top_gap(p: float, q: float, z: float) -> float:
    """half_pi_pq - arcsin_pq(x) = B(z; 1 - 1/p, 1/q) / q, where z = 1 - x**q.

    Substituting u = 1 - t**q in the integral over [x, 1] gives the
    incomplete Beta function.  The same gap at arccos_pq(v) has z = v**p.
    """
    a = 1.0 - 1.0 / p
    return _incomplete_beta(a, 1.0 / q, z, math.pow(z, a)) / q


def beta_tail(p: float, q: float, x: float) -> float:
    """m_star_pq - arcsinh_pq(x) = B(u; 1/p - 1/q, 1/q) / q for p < q and x >= 1.

    Substituting u = 1 / (1 + t**q) in the integral over [x, inf) gives
    the incomplete Beta function at u <= 1/2; ln u is formed first, so
    x**q may overflow.
    """
    if not (p < q and x >= 1.0):
        raise ValueError("the tail is finite for p < q and taken for x >= 1")
    a = (q - p) / (p * q)
    lnu = -q * math.log(x) - math.log1p(math.exp(-q * math.log(x)))
    return _incomplete_beta(a, 1.0 / q, math.exp(lnu), math.exp(a * lnu)) / q


def romberg(f, a: float, b: float, max_k: int = 18, tol: float = 1e-13) -> float:
    """Romberg integration for integrands smooth on [a, b]."""
    rows = [[0.5 * (b - a) * (f(a) + f(b))]]
    h = b - a
    n = 1
    for k in range(1, max_k + 1):
        h *= 0.5
        n *= 2
        trap = 0.5 * rows[k - 1][0] + h * sum(f(a + (2 * i - 1) * h) for i in range(1, n // 2 + 1))
        row = [trap]
        factor = 1.0
        for j in range(1, k + 1):
            factor *= 4.0
            row.append(row[j - 1] + (row[j - 1] - rows[k - 1][j - 1]) / (factor - 1.0))
        rows.append(row)
        if k >= 4 and abs(row[k] - rows[k - 1][k - 1]) < tol:
            return row[k]
    return rows[-1][-1]
