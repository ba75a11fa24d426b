"""Pure-Python series kernels for the defining integrals, and the inverse solver.

These are the hot loops of the whole package; a compiled twin with the
same interface lives in ``_dequad_c.c`` and is preferred at import time.
Both sum the same series with the same arithmetic, so they return the
same term counts, and both run :func:`solve` with the same steps.

Both defining integrals are Gauss hypergeometric functions (DLMF 15.4,
15.8; Bhayo and Vuorinen, J. Approx. Theory 164, 2012):

    arcsin_pq(x)  = x F(1/p, 1/q; 1 + 1/q;  x**q),
    arcsinh_pq(x) = x F(1/p, 1/q; 1 + 1/q; -x**q).

With c_n = (1/p)_n / n!, each value is one of four series, every one
with a rigorous truncation bound:

- arcsin, z = x**q: x sum c_n z**n / (1 + q n).  The terms are positive
  and each ratio is below z, so the remainder after a term t is at most
  t z / (1 - z).  The callers take it where z <= 1/2 only.
- arcsin's top half, w = 1 - x**q <= 1/2, by the degenerate 1 - z
  connection of DLMF 15.8 anchored at w = 1/2: with e = (p - 1)/p and
  d_n = (1 - 1/q)_n / n!,

      arcsin_pq(x) = C + (2**-e - w**e) / (e q)
                       - (w**e / q) sum_{n>=1} d_n w**n / (n + e),
      C = H + (2**-e / q) sum_{n>=1} d_n 2**-n / (n + e),

  where H = 2**(-1/q) S and S is the arcsin series at z = 1/2.  The
  middle term is w**e expm1(e ln(1/(2 w))) / (e q) where that exponent
  is at most 1/2, so nothing cancels as p nears 1.  The terms are
  positive with ratios below w <= 1/2, so twice the next term bounds
  each sum.  The kernel takes t = ln(1/w), so a w below the subnormal
  range keeps its power w**e; t = inf gives half_pi_pq.  C is cached
  per (p, q) as S plus a small part, so a constant next to 1 keeps its
  last digits.
- arcsinh, x**q <= (1 + sqrt(5))/2, by Pfaff's transformation (DLMF
  15.8.1): x (1 + x**q)**(-1/q) sum (a)_n / n! z**n / (1 + q n), with
  a = 1 + 1/q - 1/p and z = x**q / (1 + x**q) <= 0.618.  The terms are
  positive, and every ratio after term n is at most
  r = z max(1, (a + n)/(n + 1)), so the remainder is at most t r / (1 - r).
- arcsinh beyond, where w = x**-q < 0.618: with x0 = 2**(1/q) and
  e_n = (p - q)/p - q n, integrating the binomial series of
  t**(-q/p) (1 + t**-q)**(-1/p) from x0 to x gives

      arcsinh_pq(x) = C + x0**e_0 (exp(e_0 ln(x/x0)) - 1) / e_0
                        + x**e_0 sum_{n>=1} (-1)**n c_n w**n / e_n,
      C = arcsinh_pq(x0) - x0**e_0 sum_{n>=1} (-1)**n c_n 2**-n / e_n.

  The middle term is ln(x/x0) at e_0 = 0, x0**e_0 expm1(e_0 ln(x/x0)) / e_0
  where |e_0 ln(x/x0)| <= 1/2, and (x**e_0 - x0**e_0) / e_0 beyond.  Both
  sums alternate with decreasing terms (e_n < 0 for n >= 1), so the next
  term bounds each.  Nothing cancels near p = q, and the same form holds
  on both sides of it; at x = inf it is m_star_pq where p < q.  C
  depends on (p, q) only and takes about 150 terms; it is cached here.
  x**e_0 is formed from e_0 and ln x each carried to about twice the
  precision of a double: rounded to one, the exponent e_0 ln x would
  move x**e_0 by up to |e_0 ln x| ulps, 1e-13 relative near the largest
  float.

The switch at x**q = (1 + sqrt(5))/2 puts both ratios at 0.618 there, so
neither form sums more than about 65 terms; at x**q = 2 the Pfaff form
would take up to 90.

Each kernel returns ``(value, bound, terms, converged)``.  Every series
is summed until its truncation bound falls below half an ulp of its sum.
``bound`` adds a rounding allowance of 16 ulps of the value (the largest
rounding error measured against 40-digit references was 6 ulps), and
``converged`` is the one rule of both backends, bound <= 1e-13
max(1, |value|).  ``terms`` counts the terms summed for the value (C's
excluded).  A series that needs more than ``_MAX_TERMS`` terms (arcsin
near x = 1, which the callers never ask for) stops there, unconverged
unless its bound says otherwise.
"""

import math
from functools import lru_cache
from math import exp, expm1, log, log1p

BACKEND = "python"

_EPS = 2.220446049250313e-16
_HALF_EPS = 0.5 * _EPS
# the rounding allowance of each bound, in ulps of the value
_ROUNDING = 16.0 * _EPS
_CERTIFIED = 1e-13  # converged: bound <= _CERTIFIED max(1, |value|)
_MAX_TERMS = 1000
_LN2 = math.log(2.0)
_LN3 = math.log(3.0)
# arcsinh takes the Pfaff form up to x**q = (1 + sqrt(5))/2 (see above)
_LN_SWITCH = math.log(0.5 + math.sqrt(1.25))
# ln 2 in two parts, the first with 32 significant bits, so that k ln 2 is
# exact in them for every binary exponent k of a double (fdlibm's split)
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
_SQRT_HALF = math.sqrt(0.5)
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitting constant


def _series(a, q, z):
    """sum_{n>=0} (a)_n / n! z**n / (1 + q n) for a > 0 and 0 <= z <= 1.

    Returns (sum, remainder bound, terms), summed until the bound is below
    half an ulp of the sum or ``_MAX_TERMS`` terms were taken (the bound is
    inf where no later ratio is known to stay below 1).
    """
    total = t = u = 1.0
    n = 0
    an = a  # a + n
    while n < _MAX_TERMS:
        n += 1
        m = z * an / n  # u_n / u_{n-1}, and a bound on every later ratio with z
        r = m if m > z else z
        if t * r <= _HALF_EPS * total * (1.0 - r):
            return total, (t * r / (1.0 - r) if r < 1.0 else math.inf), n
        u *= m
        t = u / (1.0 + q * n)
        total += t
        an += 1.0
    m = z * an / (n + 1)
    r = m if m > z else z
    return total, (t * r / (1.0 - r) if r < 1.0 else math.inf), n + 1


def _alternating(b, q, e0, w, scale, base):
    """sum_{n>=1} (-1)**n (b)_n / n! w**n / (e0 - q n) for |w| <= 1/2.

    Returns (sum, next, terms), summed until the next term times ``scale``
    is at most half an ulp of ``base``; its magnitude ``next`` bounds the
    rest for e0 < q, and half of it for the top form's positive terms.
    """
    total = 0.0
    u = 1.0
    n = 0
    stop = _HALF_EPS * base
    while True:
        n += 1
        u *= -w * (b + (n - 1)) / n
        t = u / (e0 - q * n)
        if abs(t) * scale <= stop or n > _MAX_TERMS:
            return total, abs(t), n - 1
        total += t


def arcsin_series(p, q, x):
    """Integral of (1 - t**q)**(-1/p) over [0, x], 0 <= x <= 1, as x F(1/p, 1/q; 1 + 1/q; x**q)."""
    if x == 0.0:
        return 0.0, 0.0, 0, True
    s, rest, n = _series(1.0 / p, q, exp(q * log(x)))
    value = x * s
    bound = x * rest + _ROUNDING * value
    return value, bound, n, bound <= _CERTIFIED * (value if value > 1.0 else 1.0)


@lru_cache(maxsize=4096)
def _top_form(p, q):
    """(e, S, C - S, C's bound) of the top form; S is the series at z = 1/2,
    not the kernel at x = 2**(-1/q), which rounds to 1 beyond q = 1e16."""
    e = (p - 1.0) / p
    s, rest, _n = _series(1.0 / p, q, 0.5)
    pre = expm1(-_LN2 / q)  # 2**(-1/q) - 1
    scale = exp(-e * _LN2) / q  # 2**-e / q
    tail, nxt, _n = _alternating(1.0 - 1.0 / q, -1.0, e, -0.5, scale, s)
    c_lo = pre * s + scale * tail
    return e, s, c_lo, (1.0 + pre) * rest + 2.0 * scale * nxt + _ROUNDING * (s + abs(c_lo))


def arcsin_top(p, q, t):
    """Integral of (1 - u**q)**(-1/p) over [0, x], where 1 - x**q = w = e**-t
    and t >= ln 2, by the top form; at t = inf (x = 1) it is half_pi_pq."""
    e, c, c_lo, bound = _top_form(p, q)
    v = exp(-e * t)  # w**e
    y = e * (t - _LN2)  # e ln(1/(2 w))
    mid = (v * expm1(y) if y <= 0.5 else exp(-e * _LN2) - v) / (e * q)
    scale = v / q
    base = c_lo + mid
    s, nxt, n = _alternating(1.0 - 1.0 / q, -1.0, e, -exp(-t), scale, c + base)
    value = c + (base - scale * s)
    bound += 2.0 * scale * nxt + _ROUNDING * value
    return value, bound, n, bound <= _CERTIFIED * (value if value > 1.0 else 1.0)


def _two_prod(a, b):
    """(a b, its rounding error), exactly, by Dekker's splitting."""
    prod = a * b
    t = _SPLIT * a
    ah = t - (t - a)
    al = a - ah
    t = _SPLIT * b
    bh = t - (t - b)
    bl = b - bh
    return prod, ((ah * bh - prod) + ah * bl + al * bh) + al * bl


@lru_cache(maxsize=4096)
def _far_form(p, q):
    """(e_hi, e_lo, C, C's bound) of the far form of arcsinh_pq, anchored at
    x0 = 2**(1/q); e_hi + e_lo is e_0 = (p - q)/p to about twice the
    precision of a double; e_lo is 0 where |e_0| >= 2**62, since x0 rounds
    to 1 there and every x**e_0 of the far form to 0."""
    d = p - q
    t = d - p
    d_lo = (p - (d - t)) - (q + t)  # p - q - d, exactly (Knuth's TwoSum)
    e0 = d / p
    e_lo = 0.0
    if abs(e0) < 2.0 ** 62:
        sc = 2.0 ** -600  # exact, and keeps Dekker's split of p finite
        prod, err = _two_prod(e0, sc * p)
        e_lo = ((sc * d - prod) - err + sc * d_lo) / (sc * p)
    # arcsinh_pq(x0) by the Pfaff form at x0**q = 2: (2/3)**(1/q) S(a, q, 2/3)
    s, rest, _n = _series(1.0 + 1.0 / q - 1.0 / p, q, 2.0 / 3.0)
    pre = exp((_LN2 - _LN3) / q)
    at_x0 = pre * s
    x0e = exp(e0 * (_LN2 / q))  # x0**e0
    alt, nxt, _n = _alternating(1.0 / p, q, e0, 0.5, x0e, at_x0)
    c = at_x0 - x0e * alt
    return e0, e_lo, c, pre * rest + x0e * nxt + _ROUNDING * (at_x0 + x0e * abs(alt))


def _pow_e0(e0, e_lo, x):
    """x**(e0 + e_lo) to about an ulp, for x >= 1: the exponent
    (e0 + e_lo) ln x is formed to about twice the precision of a double,
    since rounding it to one would move the power by |e0 ln x| ulps.
    The exponent is hi + r; an integer j moves from r to hi, exactly,
    so that neither factor overflows where |e0 ln(m)| is large."""
    m, k = math.frexp(x)
    if m < _SQRT_HALF:
        m, k = 2.0 * m, k - 1
    a = k * _LN2_HI  # exact
    b = k * _LN2_LO + log(m)
    hi, lo = _two_prod(e0, a)
    r = lo + e0 * b + e_lo * a
    j = math.floor(r + 0.5)
    return exp(hi + j) * exp(r - j)


def arcsinh_series(p, q, x):
    """Integral of (1 + t**q)**(-1/p) over [0, x], x >= 0, by the Pfaff form
    where x**q <= 2 and by the far form beyond."""
    if x == 0.0:
        return 0.0, 0.0, 0, True
    lx = log(x)
    if q * lx <= _LN_SWITCH:
        xq = exp(q * lx)
        s, rest, n = _series(1.0 + 1.0 / q - 1.0 / p, q, xq / (1.0 + xq))
        pre = x * exp(-log1p(xq) / q)
        value = pre * s
        bound = pre * rest + _ROUNDING * value
    else:
        e0, e_lo, c, bound = _far_form(p, q)
        lr = lx - _LN2 / q  # ln(x/x0)
        y = e0 * lr
        x0e = exp(e0 * (_LN2 / q))
        # x**e0 = x0e e**y, below the least subnormal where y <= -750
        xe0 = _pow_e0(e0, e_lo, x) if y > -750.0 else 0.0
        if e0 == 0.0:
            mid = lr
        elif -0.5 <= y <= 0.5:
            mid = x0e * expm1(y) / e0
        else:
            mid = (xe0 - x0e) / e0
        base = c + mid
        s, nxt, n = _alternating(1.0 / p, q, e0, exp(-q * lx), xe0, base)
        value = base + xe0 * s
        bound += xe0 * nxt + _ROUNDING * value
    return value, bound, n, bound <= _CERTIFIED * (value if value > 1.0 else 1.0)


# solve() statuses, the same in both backends; ``inverse`` maps every
# failure to ComputationError
SOLVED, BUDGET, UNCONVERGED, OVERFLOW = 0, 1, 2, 3


def _softplus(a: float) -> float:
    # log(1 + e**a) without overflow
    if a > 0.0:
        return a + log1p(exp(-a))
    return log1p(exp(a))


def _exp(a):
    # C's exp: inf on overflow
    try:
        return exp(a)
    except OverflowError:
        return math.inf


def solve(mode, p, q, ys, max_iters):
    """Solve F(s) = y for every target y of one inverse, by Newton steps inside a bracket.

    ``mode`` names the forward: ``"sin"`` (F = arcsin_series on the
    bottom half of the branch, s in [0, 2**(-1/q)], where s**q <= 1/2),
    ``"top"`` (F = arcsin_top on the top half, s = t = ln(1/w) in
    [ln 2, inf), where w = 1 - x**q <= 1/2) or ``"sinh"`` (F =
    arcsinh_series on [0, inf)).  ``ys`` is a sequence of targets, in any
    order and with repeats.  Returns one ``(root, iterations, terms,
    status)`` per target, as :func:`_solve_one` describes; ``terms`` adds
    up the series terms of its forward values.

    Every target is solved from the same cold start, so its result
    depends only on (mode, p, q, y, max_iters) and equals that of a
    one-target call.  The compiled twin, ``_dequad_c.solve``, takes
    the same steps; it solves a whole list with the GIL released and
    computes each form's constant once per call.
    """
    if mode not in ("sin", "sinh", "top"):
        raise ValueError(f"unknown solve mode {mode!r}")
    bottom = _LN2 if mode == "top" else 0.0
    top = exp(-_LN2 / q) if mode == "sin" else math.inf
    return [_solve_one(mode, p, q, y, bottom, top, max_iters) for y in ys]


def _solve_one(mode, p, q, y, bottom, top, max_iters):
    """One target of :func:`solve`.

    The bracket opens at [``bottom``, ``top``].  sin steps in s from at
    or above its root: ``top`` = 2**(-1/q) where y >= top, else one
    Newton step from y on the series' first terms g = s + s**(q + 1) /
    (p (q + 1)) + c2 s**(2q + 1) / (2q + 1), c2 = (1/p)(1/p + 1)/2.  As
    g <= F is convex with g(y) >= y, that step is at or above the root,
    and F is convex on [0, top], so no Newton step passes below it.  top
    starts from the top form without its tail, at or above the root (at
    ``bottom``, below it, where that start leaves its range), and steps
    in w**e = e**(-e t), where F is concave and nearly linear, so Newton
    approaches the root from above.  sinh starts at s = y, below the root
    since its integrand is at most 1, and steps in s up to s = 1 and in
    s**(1 - q/p) (ln s where p = q) above, where F approaches its
    power-law tail.  A step that leaves the bracket is replaced: with no
    upper bound yet, s is squared above 2 and doubled below; with one,
    the bracket is bisected geometrically where sinh's s >= 1, and
    arithmetically otherwise.

    The solve stops once |F(s) - y| is within the bound that the kernel
    returned with F(s), below which the residual is rounding noise, or
    returns the bracket midpoint once the bracket has collapsed to a few
    ulps (the nearest representable root).  Returns ``(root, iterations,
    terms, status)``: ``status`` is SOLVED, BUDGET (``max_iters`` forward
    calls did not suffice; ``root`` is the bracket midpoint), UNCONVERGED
    (a forward value was not certified; ``root`` is its argument) or
    OVERFLOW (the bracket passed the largest float).
    """
    lo, hi = bottom, top
    if mode == "sinh":
        s, forward = y, arcsinh_series
    elif mode == "top":
        forward = arcsin_top
        e, c, c_lo, _bound = _top_form(p, q)
        # w**e = 2**-e - (y - C) e q, as t = ln(1/w)
        g = ((y - c) - c_lo) * e * q * exp(e * _LN2)
        s = _LN2 - log1p(-g) / e if 0.0 < g < 1.0 else bottom
    elif y >= top:
        s, forward = top, arcsin_series
    else:
        forward, z = arcsin_series, math.pow(y, q)  # < 1/2, so nothing below overflows
        v = 0.5 / p * (1.0 / p + 1.0) * z * z
        s = y - y * (z / (p * (q + 1.0)) + v / (2.0 * q + 1.0)) / (1.0 + z / p + v)
    terms = 0
    for it in range(1, max_iters + 1):
        v, bound, n, ok = forward(p, q, s)
        terms += n
        if not ok:
            return s, it, terms, UNCONVERGED
        resid = v - y
        if abs(resid) <= bound:
            return s, it, terms, SOLVED
        if resid < 0.0:
            lo = s
        else:
            hi = s
        if hi < math.inf and hi - lo <= 2.0 * math.ulp(hi):
            return 0.5 * (lo + hi), it, terms, SOLVED

        # the Newton step; nan where its variable leaves its range
        s_new = math.nan
        if mode == "sin":
            # dF/ds = (1 - s**q)**(-1/p)
            s_new = s - resid * math.pow(1.0 - math.pow(s, q), 1.0 / p)
        elif mode == "top":
            # in v = w**e: v + resid e q (1 - w)**(1 - 1/q) = v (1 + g)
            g = resid * e * q * _exp((1.0 - 1.0 / q) * log1p(-exp(-s)) + e * s)
            if g > -1.0:
                s_new = s - log1p(g) / e
        elif s <= 1.0:
            # dF/ds = (1 + s**q)**(-1/p)
            s_new = s - resid * exp(log1p(math.pow(s, q)) / p)
        else:
            # in x = s**a, a = 1 - q/p: dF/dx = (1 + s**-q)**(-1/p) / a
            a, lns = 1.0 - q / p, math.log(s)
            g_step = resid * exp(_softplus(-q * lns) / p)
            if a == 0.0:
                s_new = s * _exp(-g_step)
            else:
                g_step *= a * _exp(-a * lns)  # the relative step in x
                if g_step < 1.0:
                    s_new = s * _exp(log1p(-g_step) / a)
        if not (lo < s_new < hi):
            if hi == math.inf:
                s_new = lo * lo if lo > 2.0 else 2.0 * lo
            else:
                s_new = math.sqrt(lo) * math.sqrt(hi) if mode == "sinh" and s >= 1.0 else math.nan
                if not (lo < s_new < hi):
                    s_new = 0.5 * (lo + hi)
        if s_new == math.inf:
            return lo, it, terms, OVERFLOW
        s = s_new
    return (0.5 * (lo + hi) if hi < math.inf else lo), max_iters, terms, BUDGET
