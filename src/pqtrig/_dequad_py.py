"""Pure-Python tanh-sinh kernels for the defining integrals, and the inverse solver.

These are the hot loops of the whole package; a compiled twin with the
same interface lives in ``_dequad_c.c`` and is preferred at import time.
Both walk the level loop of :func:`._nodes.run_levels` with the same
arithmetic, so they return the same evaluation counts, and both run
:func:`solve` with the same steps.

Each kernel returns ``(value, error_estimate, evaluations, converged)``.
The error estimate is the absolute difference between the last two
refinement levels, and ``converged`` is True only when it met ``tol``.
``arcsin_top_quad`` is the top-of-branch mode: it integrates over
[1 - d, 1] and takes the distance d from the singular end t = 1.

The integrands are evaluated in log space from the node's exact distance
to the transformed endpoint, so the algebraic endpoint singularity of
(1 - t**q)**(-1/p) at t = 1 and the slow decay of the half-line integrand
cost no accuracy.  A naive evaluation at the double-precision abscissa
would lose the integral mass sitting closer to the endpoint than one ulp,
which for exponents near -1 is far above 1e-12.

Where a node term overflows (exponents near 1), ``math.pow`` and
``math.exp`` raise ``OverflowError`` while C returns inf; the kernels
map it to inf, so the result is unconverged on both backends.  The
top-of-branch mode forms each term in log space and cannot overflow.
"""

import math
from math import exp, expm1, log1p

from ._nodes import run_levels

BACKEND = "python"

_PI_HALF = math.pi / 2.0
_LN_HALF = math.log(0.5)
# below this ln r, ln(1 - (1 - r)**q) = ln(q r) to double precision
_LN_TINY = -40.0


def _softplus(a: float) -> float:
    # log(1 + e**a) without overflow
    if a > 0.0:
        return a + log1p(exp(-a))
    return log1p(exp(a))


def arcsin_quad(p, q, x, tol=1e-12, max_levels=12, max_evals=1000000):
    """Integral of (1 - t**q)**(-1/p) over [0, x], 0 <= x <= 1."""
    if x == 0.0:
        return 0.0, 0.0, 0, True
    alpha, lnx = -1.0 / p, math.log(x)

    def pair(rec):
        # t = x*(1 - omu/2) on the + side, t = x*omu/2 on the - side
        _omu, w, ln_lo, ln_hi, _tau, _ln_w = rec
        try:
            return w * (math.pow(-expm1(q * (lnx + ln_hi)), alpha)
                        + math.pow(-expm1(q * (lnx + ln_lo)), alpha))
        except OverflowError:
            return math.inf

    centre = _PI_HALF * math.pow(-expm1(q * (lnx + _LN_HALF)), alpha)
    return run_levels(pair, centre, 0.5 * x, tol, max_levels, max_evals)


def arcsinh_quad(p, q, x, tol=1e-12, max_levels=12, max_evals=1000000):
    """Integral of (1 + t**q)**(-1/p) over [0, x], x >= 0."""
    if x == 0.0:
        return 0.0, 0.0, 0, True
    alpha, lnx = -1.0 / p, math.log(x)

    def pair(rec):
        _omu, w, ln_lo, ln_hi, _tau, _ln_w = rec
        return w * (exp(alpha * _softplus(q * (lnx + ln_hi)))
                    + exp(alpha * _softplus(q * (lnx + ln_lo))))

    centre = _PI_HALF * exp(alpha * _softplus(q * (lnx + _LN_HALF)))
    return run_levels(pair, centre, 0.5 * x, tol, max_levels, max_evals)


def mstar_quad(p, q, tol=1e-12, max_levels=12, max_evals=1000000):
    """Integral of (1 + t**q)**(-1/p) over [0, inf); requires p < q."""
    alpha = -1.0 / p

    def pair(rec):
        # half-line map t = (1-v)/v, v in (0,1): integrand (1+t**q)**(-1/p) / v**2
        _omu, w, ln_lo, ln_hi, _tau, _ln_w = rec
        try:
            lng = alpha * _softplus(q * (ln_lo - ln_hi)) - 2.0 * ln_hi
            gp = exp(lng) if lng > -745.0 else 0.0
            lng = alpha * _softplus(q * (ln_hi - ln_lo)) - 2.0 * ln_lo
            gm = exp(lng) if lng > -745.0 else 0.0
        except OverflowError:
            return math.inf
        return w * (gp + gm)

    centre = _PI_HALF * exp(alpha * _softplus(0.0) - 2.0 * _LN_HALF)
    return run_levels(pair, centre, 0.5, tol, max_levels, max_evals)


def arcsin_top_quad(p, q, d, tol=1e-12, max_levels=12, max_evals=1000000):
    """Integral of (1 - t**q)**(-1/p) over [1 - d, 1], 0 <= d <= 1.

    The nodes are offsets r = 1 - t from the singular end, and each node
    term is exp(ln w + ln(d/2) + alpha ln(1 - (1 - r)**q)): the weight,
    the interval's half-width and the integrand are joined in log space,
    so none of them overflows or underflows apart from the others.
    """
    if d == 0.0:
        return 0.0, 0.0, 0, True
    alpha, lnd, lnq = -1.0 / p, math.log(d), math.log(q)
    lnh = lnd + _LN_HALF

    def lng(lnr):
        # ln(1 - (1 - r)**q) at r = e**lnr; for tiny r it is ln(q r)
        if lnr < _LN_TINY:
            return lnq + lnr
        r = exp(lnr)
        if r >= 1.0:
            return 0.0
        return math.log(-expm1(q * log1p(-r)))

    def pair(rec):
        _omu, _w, ln_lo, ln_hi, _tau, ln_w = rec
        return (exp(ln_w + lnh + alpha * lng(lnd + ln_hi))
                + exp(ln_w + lnh + alpha * lng(lnd + ln_lo)))

    centre = _PI_HALF * exp(lnh + alpha * lng(lnh))
    return run_levels(pair, centre, 1.0, tol, max_levels, max_evals)


# solve() statuses, the same in both backends; ``inverse`` maps every
# failure to ComputationError
SOLVED, BUDGET, UNCONVERGED, OVERFLOW = 0, 1, 2, 3


def _exp(a):
    # C's exp: inf on overflow
    try:
        return exp(a)
    except OverflowError:
        return math.inf


def solve(mode, p, q, y, top, tol, max_iters, qtol=1e-12, max_levels=12, max_evals=1000000):
    """Solve F(s) = y for one inverse by Newton steps inside a bracket.

    ``mode`` names the inverse: ``"sin"`` (F = arcsin_pq, increasing on
    [0, 1]), ``"cos"`` (F = arccos_pq, decreasing on [0, 1]) or
    ``"sinh"`` (F = arcsinh_pq on [0, inf)).  ``top`` is half_pi_pq for
    the first two and unused by ``"sinh"``; ``tol`` bounds the residual,
    and the last three arguments go to every forward quadrature.

    Newton steps in the variable in which F is nearly linear at the end
    the root approaches.  In the top half of the trigonometric branch F
    is evaluated as top - arcsin_top_quad(distance from the top), and the
    steps are in w = (1 - s**q)**(1 - 1/p) for sin and z = v**(p - 1)
    for cos; below it, in s for sin and w = (1 - v**p)**(1/q) for cos.
    sinh starts at s = y, a lower bound since its integrand is at most
    1, steps in s up to s = 1 and in s**(1 - q/p) (ln s where p = q)
    above, where F approaches its power-law tail; with no upper bound
    yet, a failed step doubles s instead of bisecting.

    The solve stops on a residual |F(s) - y| <= ``tol``, or returns the
    bracket midpoint once the bracket has collapsed to a few ulps (the
    nearest representable root).  Returns ``(root, iterations,
    evaluations, status)``: ``status`` is SOLVED, BUDGET (``max_iters``
    forward calls did not suffice; ``root`` is the bracket midpoint),
    UNCONVERGED (a forward quadrature missed ``qtol``; ``root`` is its
    argument) or OVERFLOW (sinh's bracket passed the largest float).
    The compiled twin is ``_dequad_c.solve``.
    """
    if mode not in ("sin", "cos", "sinh"):
        raise ValueError(f"unknown solve mode {mode!r}")
    rest = top - y  # the target's distance from the top of the branch
    if mode == "sinh":
        lo, hi, s = 0.0, math.inf, y
    else:
        lo, hi = 0.0, 1.0
        # Start from models of arcsin_pq.  Near the top, F = hp - c w with
        # c >= p / ((p - 1) q), so this w bounds the root's from above;
        # nearer 0, F = s + s**(q + 1) / (p (q + 1)) + ...
        w = rest * (p - 1.0) / p * q
        u = math.pow(w, p / (p - 1.0)) if w < 1.0 else 1.0  # 1 - s**q, or v**p
        if u <= 0.5:
            s = exp(log1p(-u) / q) if mode == "sin" else math.pow(w, 1.0 / (p - 1.0))
        else:
            s = y - math.pow(y, q + 1.0) / (p * (q + 1.0))
            s = min(max(s, exp(log1p(-u) / q) if u < 1.0 else 0.0), math.pow(0.5, 1.0 / q))
            if mode == "cos":
                s = exp(log1p(-math.pow(s, q)) / p)
    evals = 0
    for it in range(1, max_iters + 1):
        # the residual F(s) - y; `upper` marks the top-of-branch form
        if mode == "sin":
            sq = math.pow(s, q)
            upper = sq >= 0.5
            if upper:
                value, _err, n, ok = arcsin_top_quad(p, q, 1.0 - s, qtol, max_levels, max_evals)
                resid = rest - value
            else:
                value, _err, n, ok = arcsin_quad(p, q, s, qtol, max_levels, max_evals)
                resid = value - y
        elif mode == "cos":
            vp = math.pow(s, p)
            upper = vp <= 0.5
            if upper:
                # 1 - (1 - v**p)**(1/q), which does not round to 0 for tiny v
                d = -expm1(log1p(-vp) / q)
                value, _err, n, ok = arcsin_top_quad(p, q, d, qtol, max_levels, max_evals)
                resid = rest - value
            else:
                w = math.pow(-expm1(p * math.log(s)), 1.0 / q)
                value, _err, n, ok = arcsin_quad(p, q, w, qtol, max_levels, max_evals)
                resid = value - y
        else:
            value, _err, n, ok = arcsinh_quad(p, q, s, qtol, max_levels, max_evals)
            resid = value - y
        evals += n
        if not ok:
            return s, it, evals, UNCONVERGED
        if abs(resid) <= tol:
            return s, it, evals, SOLVED
        if (resid > 0.0) if mode == "cos" else (resid < 0.0):
            lo = s
        else:
            hi = s
        if hi < math.inf and hi - lo <= 2.0 * math.ulp(hi):
            return 0.5 * (lo + hi), it, evals, SOLVED

        # the Newton step; nan where its variable leaves its range
        s_new = math.nan
        if mode == "sin" and upper:
            # dF/dw = -p / ((p - 1) q s**(q - 1))
            w = math.pow(-expm1(q * math.log(s)), 1.0 - 1.0 / p)
            w += resid * (p - 1.0) / p * q * math.pow(s, q - 1.0)
            if 0.0 < w < 1.0:
                s_new = exp(log1p(-math.pow(w, p / (p - 1.0))) / q)
        elif mode == "sin":
            s_new = s - resid * math.pow(1.0 - sq, 1.0 / p)
        elif mode == "cos" and upper:
            # dF/dz = -p / (q (p - 1)) (1 - v**p)**(1/q - 1)
            z = math.pow(s, p - 1.0)
            z += resid * q * (p - 1.0) / p * math.pow(1.0 - vp, 1.0 - 1.0 / q)
            if 0.0 < z < 1.0:
                s_new = math.pow(z, 1.0 / (p - 1.0))
        elif mode == "cos":
            # dF/dw = 1 / v
            w -= resid * s
            if 0.0 <= w < 1.0:
                s_new = exp(log1p(-math.pow(w, q)) / p)
        elif s <= 1.0:
            # dF/ds = (1 + s**q)**(-1/p)
            s_new = s - resid * exp(log1p(math.pow(s, q)) / p)
        else:
            # in x = s**a, a = 1 - q/p: dF/dx = (1 + s**-q)**(-1/p) / a
            a, lns = 1.0 - q / p, math.log(s)
            g = resid * exp(_softplus(-q * lns) / p)
            if a == 0.0:
                s_new = s * _exp(-g)
            else:
                g *= a * _exp(-a * lns)  # the relative step in x
                if g < 1.0:
                    s_new = s * _exp(log1p(-g) / a)
        if not (lo < s_new < hi):
            s_new = 0.5 * (lo + hi) if hi < math.inf else 2.0 * lo
        if s_new == math.inf:
            return lo, it, evals, OVERFLOW
        s = s_new
    return (0.5 * (lo + hi) if hi < math.inf else lo), max_iters, evals, BUDGET
