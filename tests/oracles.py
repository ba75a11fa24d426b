"""Independent reference implementations used only to check the package.

None of this reuses package code or its methods.  The package sums
hypergeometric series; the references here are:

- a Lanczos log-gamma for the Beta constants;
- ``arcsin_ref``, ``arccos_ref`` and ``arcsinh_ref``: the defining
  integrals by a tanh-sinh level loop written here, with the integrands
  evaluated from exact distances to the interval ends, and, for
  arcsinh beyond x = 1, the substitution t = e**u, which leaves the
  closed form (x**e0 - 1)/e0 (taken in 40-digit ``decimal``) minus a
  smooth, exponentially decaying remainder;
- the tail of arcsinh_pq as an incomplete-Beta power series in
  1/(1 + x**q), a different expansion from the package's x**-q series;
- a Romberg integrator for smooth integrands;
- ``holder_mean_ref``: the Hölder mean from its definition in decimal
  arithmetic, with the digits that a**r + b**r loses near r = 0 added to
  the precision.

Do not import pqtrig here.
"""

import decimal
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


def tanh_sinh(f, a: float, b: float, max_level: int = 10) -> float:
    """Integral of ``f`` over [a, b] by level-doubling tanh-sinh quadrature.

    ``f(t, d)`` gets each abscissa t and its distance d = b - t, which is
    exact next to b, so an integrand that is nearly singular beyond b can
    be evaluated there without cancellation.  Levels double until two
    agree to 1e-16 relative, or ``max_level`` is reached.  The nodes' terms
    are added with ``math.fsum``.
    """
    half = 0.5 * (b - a)

    def pair(tau):
        # the two nodes at +-tau, weighted; None once the weight underflows
        s = 0.5 * math.pi * math.sinh(tau)
        e2 = math.exp(-2.0 * s)
        r = half * 2.0 * e2 / (1.0 + e2)  # the distance of each node from its end
        w = 0.5 * math.pi * math.cosh(tau) * 4.0 * e2 / ((1.0 + e2) * (1.0 + e2))
        if w < 1e-300 or r == 0.0:
            return None
        return w * (f(a + r, (b - a) - r) + f(b - r, r))

    terms = [0.5 * math.pi * f(a + half, half)]
    k = 1
    while (c := pair(float(k))) is not None:
        terms.append(c)
        k += 1
    h, value = 1.0, math.fsum(terms)
    for _ in range(max_level):
        h *= 0.5
        k = 1
        while (c := pair(k * h)) is not None:
            terms.append(c)
            k += 2
        new = math.fsum(terms) * h
        if abs(new - value) <= 1e-16 * abs(new):
            return new * half
        value = new
    return value * half


def arcsin_ref(p: float, q: float, x: float) -> float:
    """arcsin_pq(x) for 0 <= x < 1 by quadrature of (1 - t**q)**(-1/p).

    Up to m = 2**(-1/q) the integrand is smooth; beyond it, 1 - t**q is
    formed from the exact distance d = x - t as
    (1 - x**q) + x**q (1 - (1 - d/x)**q), both terms without cancellation.
    """
    if not 0.0 <= x < 1.0:
        raise ValueError("the reference is taken for 0 <= x < 1")
    m = math.pow(0.5, 1.0 / q)
    def low(t, d):  # t**q may underflow, or t round to 0 next to it
        return math.pow(-math.expm1(q * math.log(t)), -1.0 / p) if t > 0.0 else 1.0

    bottom = tanh_sinh(low, 0.0, min(x, m)) if x > 0.0 else 0.0
    if x <= m:
        return bottom
    ex, xq = -math.expm1(q * math.log(x)), math.pow(x, q)

    def top(t, d):
        return math.pow(ex - xq * math.expm1(q * math.log1p(-d / x)), -1.0 / p)

    return bottom + tanh_sinh(top, m, x)


def arccos_ref(p: float, q: float, v: float) -> float:
    """arccos_pq(v) = arcsin_pq(w), 1 - w**q = v**p, for 0 < v <= 1.

    For v**p <= 1/2, w would round next to 1, so the integral is split at
    m = 2**(-1/q) and its part over [m, w] is taken in s = 1 - t**q:
    integral of (s**(-1/p) (1 - s)**(1/q - 1)) / q over [v**p, 1/2], an
    integrand smooth there since v**p bounds s away from 0.  (The package
    sums this part as a power series in s instead.)
    """
    if not 0.0 < v <= 1.0:
        raise ValueError("the reference is taken for 0 < v <= 1")
    vp = math.pow(v, p)
    if vp > 0.5:
        return arcsin_ref(p, q, math.pow(-math.expm1(p * math.log(v)), 1.0 / q))

    def gap(s, d):
        return math.pow(s, -1.0 / p) * math.exp((1.0 / q - 1.0) * math.log1p(-s)) / q

    return arcsin_ref(p, q, math.pow(0.5, 1.0 / q)) + tanh_sinh(gap, vp, 0.5)


def arcsinh_ref(p: float, q: float, x: float) -> float:
    """arcsinh_pq(x) for finite x >= 0.

    Over [0, min(x, 1)] by quadrature of (1 + t**q)**(-1/p).  Beyond 1,
    t = e**u gives, with e0 = 1 - q/p and L = ln x,

        integral over [0, L] of e**(e0 u) (1 - h(u)),
        h(u) = 1 - (1 + e**(-q u))**(-1/p),

    whose first part is (x**e0 - 1)/e0 (L at e0 = 0), taken in 40-digit
    decimal arithmetic so that its size (up to 1e277) costs no digits,
    and whose second part decays like e**((e0 - q) u), e0 - q < -0.1.
    """
    if not (x >= 0.0 and math.isfinite(x)):
        raise ValueError("the reference is taken for finite x >= 0")
    def low(t, d):
        return math.exp(-math.log1p(math.exp(q * math.log(t))) / p) if t > 0.0 else 1.0

    near = tanh_sinh(low, 0.0, min(x, 1.0)) if x > 0.0 else 0.0
    if x <= 1.0:
        return near
    ln_x = math.log(x)
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        e0 = (decimal.Decimal(p) - decimal.Decimal(q)) / decimal.Decimal(p)
        dl = decimal.Decimal(x).ln()
        main = float(((e0 * dl).exp() - 1) / e0) if e0 else float(dl)
    e0f = (p - q) / p

    def rest(u, d):
        return math.exp(e0f * u) * -math.expm1(-math.log1p(math.exp(-q * u)) / p)

    # h(u) <= e**(-q u)/p, so beyond u = 42/(q - e0) the remainder adds
    # less than 1e-17 of the result
    return near + main - tanh_sinh(rest, 0.0, min(ln_x, 42.0 / (q - e0f)))


def holder_mean_ref(r: float, a: float, b: float) -> float:
    """H_r(a, b) = ((a**r + b**r) / 2)**(1/r), and sqrt(a b) at r = 0, for
    floats a, b > 0, correctly rounded to a float.

    Taken in decimal arithmetic from the definition, each power as
    exp(r ln a): a**r + b**r is 2 + r ln(a b) + ..., so near r = 0 its
    logarithm loses about -log10|r| digits, and the precision is 50
    digits beyond those, with an exponent range that holds the powers of
    any pair of floats.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 50 + (0 if r == 0.0 else max(0, -math.floor(math.log10(abs(r)))))
        ctx.Emax, ctx.Emin = decimal.MAX_EMAX, decimal.MIN_EMIN
        da, db = decimal.Decimal(a), decimal.Decimal(b)
        if r == 0.0:
            return float((da * db).sqrt())
        dr = decimal.Decimal(r)
        total = (dr * da.ln()).exp() + (dr * db.ln()).exp()
        return float(((total / 2).ln() / dr).exp())
