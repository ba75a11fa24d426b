"""Closed-form references for checking benchmark outputs.

Everything here comes from ``scipy.special`` and imports neither pqtrig
nor the repository's tests, so a fault in the package cannot hide in its
own reference.  With a = 1/q and b = 1 - 1/p:

    arcsin_pq(x)  = B(a, b) I_{x^q}(a, b) / q            (substitute u = t^q)
    arccos_pq(v)  = B(a, b) I_{1-v^p}(a, b) / q
    arcsinh_pq(x) = x 2F1(1/p, 1/q; 1 + 1/q; -x^q)
    half_pi_pq    = B(1/q, 1 - 1/p) / q
    m_star_pq     = B(1/q, 1/p - 1/q) / q                 (finite for p < q)

The 2F1 is summed here as a series of positive terms after substituting
u = t^q / (1 + t^q) on [0, 1] and v = 1 / (1 + t^q) on [1, x]; both stay
in [0, 1/2], so the series converges geometrically for every p, q and x.
``scipy.special.hyp2f1`` itself is not used: for x^q > 1 and p close to
q its transformation to 1/z cancels and loses up to 3e-11.

Where the Beta argument z exceeds 1/2, I_z(a, b) is taken as
1 - I_{1-z}(b, a) with 1 - z formed by ``expm1``, which keeps full
absolute accuracy next to the singular end of the branch.

Inverses are checked through the residual of the forward formula.  Where
the solver returns the nearest representable root because its bracket
collapsed, a residual can exceed the tolerance even though no float does
better; the check then accepts an argument whose neighbouring floats put
the forward value on both sides of the target.
"""

import numpy as np
from scipy import special

# Agreement required of the package's forward values; the package targets
# an absolute error estimate of 1e-12 and the references are accurate to
# about 1e-13 (measured against mpmath in test_oracle.py).
FORWARD_ABS = 5e-12
FORWARD_REL = 1e-12
# The solvers stop on a residual of 1e-12 measured with the package's own
# forward, which is itself within FORWARD_ABS of the truth.
INVERSE_ABS = 1e-12 + FORWARD_ABS
# Neighbouring floats examined by the straddle test, on each side.
STRADDLE_ULPS = 4


def half_pi(p, q):
    return special.beta(1.0 / q, 1.0 - 1.0 / p) / q


def m_star(p, q):
    """Finite hyperbolic constant; ``inf`` where p >= q."""
    p, q = np.broadcast_arrays(np.asarray(p, float), np.asarray(q, float))
    out = np.full(p.shape, np.inf)
    ok = p < q
    # 1/p - 1/q as (q - p) / (p q): q - p is exact when q < 2 p
    out[ok] = special.beta(1.0 / q[ok], (q[ok] - p[ok]) / (p[ok] * q[ok])) / q[ok]
    return out if out.ndim else float(out)


def _beta_part(p, q, z, w):
    """half_pi * I_z(1/q, 1 - 1/p), given z and w = 1 - z both to full precision."""
    a, b = 1.0 / q, 1.0 - 1.0 / p
    return half_pi(p, q) * np.where(
        z <= 0.5, special.betainc(a, b, np.minimum(z, 0.5)), special.betaincc(b, a, np.minimum(w, 0.5))
    )


def arcsin(p, q, x):
    with np.errstate(divide="ignore"):
        return _beta_part(p, q, np.power(x, q), -np.expm1(q * np.log(x)))


def arccos(p, q, v):
    with np.errstate(divide="ignore"):
        return _beta_part(p, q, -np.expm1(p * np.log(v)), np.power(v, p))


_SERIES_TERMS = 64  # each term gains at least a factor 2


def _rising_terms(s):
    """Coefficients (s)_k / k! of (1 - u)**-s, k = 0 .. _SERIES_TERMS - 1."""
    c = [np.ones_like(s)]
    for k in range(_SERIES_TERMS - 1):
        c.append(c[-1] * (s + k) / (k + 1))
    return c


def _power_gap(e, ln_hi, ln_lo):
    """(exp(e ln_hi) - exp(e ln_lo)) / e, stable as e -> 0."""
    d = ln_hi - ln_lo  # >= 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # factor out the larger power so the expm1 argument is negative
        rising = -np.exp(e * ln_hi) * np.expm1(-e * d) / e
        falling = np.exp(e * ln_lo) * np.expm1(e * d) / e
    return np.where(e > 0.0, rising, np.where(e < 0.0, falling, d))


def arcsinh(p, q, x):
    p, q, x = np.broadcast_arrays(*(np.asarray(v, float) for v in (p, q, x)))
    alpha, beta = (q - p) / (p * q), 1.0 / q
    with np.errstate(divide="ignore"):
        lz = q * np.log(x)  # ln x**q
    ln_half = np.log(0.5)
    # [0, min(x, 1)]: u = t^q / (1 + t^q) in [0, 1/2] turns the integrand
    # into u^(beta-1) (1-u)^(alpha-1) / q; expand (1-u)^(alpha-1) termwise
    ln_u = -np.logaddexp(0.0, -np.minimum(lz, 0.0))
    head = np.zeros(x.shape)
    for k, c in enumerate(_rising_terms(1.0 - alpha)):
        head += c * np.exp((beta + k) * ln_u) / (beta + k)
    # [1, x]: v = 1 / (1 + t^q) in (0, 1/2] gives v^(alpha-1) (1-v)^(beta-1) / q
    ln_v = -np.logaddexp(0.0, np.maximum(lz, 0.0))
    tail = np.zeros(x.shape)
    for k, c in enumerate(_rising_terms(1.0 - beta)):
        tail += c * _power_gap(alpha + k, ln_half, ln_v)
    out = (head + tail) / q
    return out if out.ndim else float(out)


def _invert(forward, p, q, y, half_line=False):
    """Bisection for the root of an increasing ``forward`` on [0, 1], to one ulp.

    On the half line the bracket first doubles from [0, 1] until it holds
    the root.
    """
    p, q, y = np.broadcast_arrays(*(np.asarray(v, float) for v in (p, q, y)))
    lo = np.zeros(y.shape)
    hi = np.ones(y.shape)
    while half_line:
        short = forward(p, q, hi) < y
        if not short.any():
            break
        hi = np.where(short, 2.0 * hi, hi)
    for _ in range(1100):
        mid = 0.5 * (lo + hi)
        open_ = (mid > lo) & (mid < hi)
        if not open_.any():
            break
        below = forward(p, q, mid) < y
        lo = np.where(open_ & below, mid, lo)
        hi = np.where(open_ & ~below, mid, hi)
    out = 0.5 * (lo + hi)
    return out if out.ndim else float(out)


def sin(p, q, y):
    return _invert(arcsin, p, q, y)


def cos(p, q, y):
    # arccos decreases, so invert its negation
    return _invert(lambda p, q, v: -arccos(p, q, v), p, q, -np.asarray(y, float))


def sinh(p, q, y):
    """Root of arcsinh_pq(s) = y; y must lie below m_star_pq."""
    return _invert(arcsinh, p, q, y, half_line=True)


def incomplete_gamma_integral(c, b):
    """Integral of x^-c e^-x over [0, b], for c < 1."""
    return special.gamma(1.0 - c) * special.gammainc(1.0 - c, b)


def forward_ok(value, ref, extra_rel=0.0):
    """Elementwise: does a package forward value agree with its reference?

    ``extra_rel`` widens the relative tolerance for values printed to
    fewer digits.
    """
    value, ref = np.asarray(value, float), np.asarray(ref, float)
    return np.abs(value - ref) <= FORWARD_ABS + (FORWARD_REL + extra_rel) * np.abs(ref)


def inverse_ok(forward, p, q, s, y, lo, hi, rel_width=0.0):
    """Elementwise check of inverse results ``s`` for targets ``y``.

    ``forward(p, q, s)`` is the reference forward function; [lo, hi] is
    the branch the result must lie in.  A result passes on a small
    residual, or when the forward values at the points ``STRADDLE_ULPS``
    floats (or ``rel_width`` relative, for printed values) below and
    above it bracket ``y`` within the forward tolerance.
    """
    p, q, s, y = np.broadcast_arrays(*(np.atleast_1d(np.asarray(a, float)) for a in (p, q, s, y)))
    inside = (s >= lo) & (s <= hi)
    resid = np.abs(forward(p, q, s) - y)
    ok = inside & (resid <= INVERSE_ABS + FORWARD_REL * np.abs(y))
    todo = inside & ~ok
    if todo.any():
        st = s[todo]
        width = np.maximum(np.spacing(np.abs(st)) * STRADDLE_ULPS, rel_width * np.abs(st))
        hi_t = hi if np.isscalar(hi) else np.asarray(hi)[todo]
        fb = forward(p[todo], q[todo], np.clip(st - width, lo, hi_t))
        fa = forward(p[todo], q[todo], np.clip(st + width, lo, hi_t))
        yt = y[todo]
        slack = FORWARD_ABS + FORWARD_REL * np.abs(yt)
        ok[todo] = (np.minimum(fb, fa) <= yt + slack) & (np.maximum(fb, fa) >= yt - slack)
    return ok
