"""Pure-Python series kernels for the defining integrals, and the inverse solver.

These are the hot loops of the whole package; a compiled twin with the
same interface lives in ``_dequad_c.c`` and is preferred at import time.
Both sum the same series with the same arithmetic, so they return the
same term counts, and both run :func:`solve` with the same steps.

Both defining integrals are Gauss hypergeometric functions (DLMF 15.4,
15.8; Bhayo and Vuorinen, J. Approx. Theory 164, 2012):

    arcsin_pq(x)  = x F(1/p, 1/q; 1 + 1/q;  x**q),
    arcsinh_pq(x) = x F(1/p, 1/q; 1 + 1/q; -x**q).

With c_n = (1/p)_n / n!, each value is one of three series, every one
with a rigorous truncation bound:

- arcsin, z = x**q: x sum c_n z**n / (1 + q n).  The terms are positive
  and each ratio is below z, so the remainder after a term t is at most
  t z / (1 - z).  The callers take it where z <= 1/2 only; the top half
  of the branch is the same series at the conjugate exponents (see
  ``functions``).
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
  on both sides of it.  C depends on (p, q) only and takes about 150
  terms; it is cached here.  x**e_0 is formed from e_0 and ln x each
  carried to about twice the precision of a double: rounded to one, the
  exponent e_0 ln x would move x**e_0 by up to |e_0 ln x| ulps, 1e-13
  relative near the largest float.

The switch at x**q = (1 + sqrt(5))/2 puts both ratios at 0.618 there, so
neither form sums more than about 65 terms; at x**q = 2 the Pfaff form
would take up to 90.

Each kernel returns ``(value, bound, terms, converged)``.  Every series
is summed until its truncation bound falls below half an ulp of its sum,
so the value does not depend on ``tol``.  ``bound`` is the truncation
bound plus a rounding allowance of 16 ulps of the value (the largest
rounding error measured against 40-digit references was 6 ulps), so a
tolerance below it is never met.  ``converged`` means
bound <= tol max(1, |value|), so ``tol`` is absolute below |value| = 1
and relative above it.  ``terms`` counts the terms summed for the value (C's
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
    """sum_{n>=1} (-1)**n (b)_n / n! w**n / (e0 - q n) for 0 <= w <= 1/2, e0 < q.

    Returns (sum, bound, terms): the terms are summed until the next one,
    times ``scale``, is at most half an ulp of ``base``; that term's
    magnitude is the bound.
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


def arcsin_series(p, q, x, tol=1e-12):
    """Integral of (1 - t**q)**(-1/p) over [0, x], 0 <= x <= 1, as x F(1/p, 1/q; 1 + 1/q; x**q)."""
    if x == 0.0:
        return 0.0, 0.0, 0, True
    s, rest, n = _series(1.0 / p, q, exp(q * log(x)))
    value = x * s
    bound = x * rest + _ROUNDING * value
    return value, bound, n, bound <= tol * (value if value > 1.0 else 1.0)


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
    precision of a double."""
    d = p - q
    t = d - p
    d_lo = (p - (d - t)) - (q + t)  # p - q - d, exactly (Knuth's TwoSum)
    e0 = d / p
    prod, err = _two_prod(e0, p)
    e_lo = ((d - prod) - err + d_lo) / p
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


def arcsinh_series(p, q, x, tol=1e-12):
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
        xe0 = _pow_e0(e0, e_lo, x)
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
    return value, bound, n, bound <= tol * (value if value > 1.0 else 1.0)


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


def solve(mode, p, q, ys, tol, max_iters, qtol=1e-12):
    """Solve F(s) = y for every target y of one inverse, by Newton steps inside a bracket.

    ``mode`` names the forward: ``"sin"`` (F = arcsin_series on the
    bottom half of the branch, s in [0, 2**(-1/q)], where s**q <= 1/2;
    ``inverse`` reflects the top half onto the bottom half of the
    conjugate exponents) or ``"sinh"`` (F = arcsinh_series on
    [0, inf)).  ``ys`` is a sequence of targets, in any order and with
    repeats.  ``tol`` bounds the residual, and ``qtol`` is every
    forward's ``tol``.  Returns one ``(root, iterations, terms, status)``
    per target, as :func:`_solve_one` describes; ``terms`` adds up the
    series terms of its forward values.

    Every target is solved from the same cold start, so its result
    depends only on (mode, p, q, y, tol, max_iters, qtol) and equals that
    of a one-target call.  The compiled twin, ``_dequad_c.solve``, takes
    the same steps; it solves a whole list with the GIL released and
    computes sinh's far-form constant once per call.
    """
    if mode not in ("sin", "sinh"):
        raise ValueError(f"unknown solve mode {mode!r}")
    top = exp(-_LN2 / q) if mode == "sin" else math.inf  # the bracket's top
    return [_solve_one(mode, p, q, y, top, tol, max_iters, qtol) for y in ys]


def _solve_one(mode, p, q, y, top, tol, max_iters, qtol):
    """One target of :func:`solve`.

    The bracket opens at [0, ``top``].  The cold start of sin is the
    inverse of the two-term series F = s + s**(q + 1) / (p (q + 1)) + ...,
    at most ``top`` = 2**(-1/q), and it steps in s.  sinh starts at s = y,
    a lower bound since its integrand is at most 1, and steps in s up to
    s = 1 and in s**(1 - q/p) (ln s where p = q) above, where F
    approaches its power-law tail.  A step that leaves the bracket is
    replaced: with no upper bound yet, s is squared above 2 and doubled
    below; with one, the bracket is bisected geometrically where sinh's
    s >= 1, and arithmetically otherwise.

    The solve stops on a residual |F(s) - y| <= ``tol``, or returns the
    bracket midpoint once the bracket has collapsed to a few ulps (the
    nearest representable root).  Returns ``(root, iterations, terms,
    status)``: ``status`` is SOLVED, BUDGET (``max_iters`` forward calls
    did not suffice; ``root`` is the bracket midpoint), UNCONVERGED (a
    forward series missed ``qtol``; ``root`` is its argument) or OVERFLOW
    (sinh's bracket passed the largest float).
    """
    lo, hi = 0.0, top
    if mode == "sinh":
        s, forward = y, arcsinh_series
    else:
        s, forward = y - math.pow(y, q + 1.0) / (p * (q + 1.0)), arcsin_series
        if not (0.0 < s < top):
            s = top
    terms = 0
    for it in range(1, max_iters + 1):
        v, _bound, n, ok = forward(p, q, s, qtol)
        terms += n
        if not ok:
            return s, it, terms, UNCONVERGED
        resid = v - y
        if abs(resid) <= tol:
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
        if s_new == s:  # a step below one ulp: the neighbouring float toward the root
            s_new = math.nextafter(s, hi if resid < 0.0 else lo)
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
