"""Pure-Python tanh-sinh kernels for the defining integrals, and the inverse solver.

These are the hot loops of the whole package; a compiled twin with the
same interface lives in ``_dequad_c.c`` and is preferred at import time.
Both walk the level loop of :func:`._nodes.run_levels` with the same
arithmetic, so they return the same evaluation counts, and both run
:func:`solve` with the same steps, its Gauss-Kronrod steps included.

Each kernel returns ``(value, error_estimate, evaluations, converged)``.
The error estimate is the absolute difference between the last two
refinement levels, and ``converged`` is True only when it met ``tol``.
There are two kernels, one per defining integral over [0, x]; the
singular top of the trigonometric branch and the tail of the hyperbolic
integral are the same kernels at other exponents (see ``functions``).

The integrands are evaluated in log space from the node's exact distance
to the transformed endpoint, so the algebraic endpoint singularity of
(1 - t**q)**(-1/p) at t = 1 costs no accuracy.  A naive evaluation at
the double-precision abscissa would lose the integral mass sitting
closer to the endpoint than one ulp, which for exponents near -1 is far
above 1e-12.

Where a node term overflows (exponents near 1), ``math.pow`` raises
``OverflowError`` while C returns inf; the kernels map it to inf, so the
result is unconverged on both backends.
"""

import math
from math import exp, expm1, log1p

from ._nodes import run_levels

BACKEND = "python"

_PI_HALF = math.pi / 2.0
_LN_HALF = math.log(0.5)


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
        _omu, w, ln_lo, ln_hi, _tau = rec
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
        _omu, w, ln_lo, ln_hi, _tau = rec
        return w * (exp(alpha * _softplus(q * (lnx + ln_hi)))
                    + exp(alpha * _softplus(q * (lnx + ln_lo))))

    centre = _PI_HALF * exp(alpha * _softplus(q * (lnx + _LN_HALF)))
    return run_levels(pair, centre, 0.5 * x, tol, max_levels, max_evals)


# solve() statuses, the same in both backends; ``inverse`` maps every
# failure to ComputationError
SOLVED, BUDGET, UNCONVERGED, OVERFLOW = 0, 1, 2, 3

# solve() extrapolates the cubic through two roots no farther than this many
# times their spacing: each root carries an error of up to ``tol`` in y,
# which the cubic amplifies by about (distance / spacing)**3
_HERMITE_REACH = 16.0

# The Gauss-Kronrod G7/K15 rule of QUADPACK's qk15 on [-1, 1]: the Kronrod
# abscissae from the outermost in (the odd ones are the Gauss abscissae, the
# last is the centre), the K15 weights, and the G7 weights of the odd
# abscissae and the centre.
_XK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
       0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
       0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
       0.207784955007898467600689403773245, 0.0)
_WK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
       0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
       0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
       0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975, 0.417959183673469387755102040816327)

# a K15 step of the forward replaces its full quadrature only if it spans at
# most this share of its distance from t = 0 (and, for sin, from t = 1), the
# singular points of the integrand, and its error estimate is at most this
# share of the forward's tolerance
_STEP_REACH = 0.5
_STEP_TOL = 100.0
# A full quadrature of sinh over [0, s] anchors steps only up to this s:
# beyond it that quadrature can report convergence while off by more than
# its tolerance (against mpmath, over 600 seeded pairs with q/p in
# [0.5, 1.02]: 7 of 590 converged values at s in [1e5, 1e6] and 52 of 474
# in [1e7, 1e8], none below 1e5), and a chain of steps would carry that
# error to every root after it.
_DIRECT_REACH = 1e4


def _k15(mode, p, q, a, b):
    """K15 of the forward's integrand over [a, b], 0 < a <= b, and its error
    estimate |K15 - G7|; (inf, inf) where a node term overflows."""
    alpha = -1.0 / p
    h = 0.5 * (b - a)
    c = a + h  # (a + b) / 2 would overflow near the largest float
    ts = [c] + [c + sign * h * x for x in _XK[:7] for sign in (-1.0, 1.0)]
    try:
        if mode == "sin":
            fs = [math.pow(-expm1(q * math.log(t)), alpha) for t in ts]
        else:
            fs = [exp(alpha * _softplus(q * math.log(t))) for t in ts]
    except OverflowError:
        return math.inf, math.inf
    k, g = _WK[7] * fs[0], _WG[3] * fs[0]
    for i in range(7):
        f = fs[2 * i + 1] + fs[2 * i + 2]
        k += _WK[i] * f
        if i & 1:
            g += _WG[i >> 1] * f
    return k * h, abs(k - g) * h


def _exp(a):
    # C's exp: inf on overflow
    try:
        return exp(a)
    except OverflowError:
        return math.inf


def solve(mode, p, q, ys, top, tol, max_iters, qtol=1e-12, max_levels=12, max_evals=1000000):
    """Solve F(s) = y for every target y of one inverse, by Newton steps inside a bracket.

    ``mode`` names the forward: ``"sin"`` (F = arcsin_quad on [0, 1],
    meant for roots in the bottom, smooth half of the branch, where
    s**q <= 1/2; ``inverse`` reflects the top half onto the bottom half
    of the conjugate exponents) or ``"sinh"`` (F = arcsinh_pq on
    [0, inf)).  ``ys`` is a strictly ascending sequence of targets
    (ValueError otherwise).  ``top`` is m_star_pq for ``"sinh"`` (inf
    where it diverges) and unused by ``"sin"``; ``tol`` bounds the
    residual, and the last three arguments go to every forward
    quadrature.  Returns one ``(root, iterations, evaluations, status)``
    per target, as :func:`_solve_one` describes.

    Each target starts from the roots solved before it.  With none, the
    start is the cold one of :func:`_solve_one`.  With one, (y1, s1), it
    is the Newton predictor s1 + (y - y1) ds/dy(s1), where ds/dy =
    (1 - s**q)**(1/p) for sin and (1 + s**q)**(1/p) for sinh.  With two
    or more, it is the cubic Hermite extrapolation through the last two
    SOLVED (y, s, ds/dy), or the Newton predictor from the last one where
    y lies more than 16 of their spacings beyond it (two targets an ulp
    apart would make the cubic meaningless).  A start that is not
    finite, not above the last root, or at least 1 for sin falls back to
    the cold start.  The bracket still opens at [0, 1] or [0, inf), so
    every root is certified by its own residual, and a one-target list
    is exactly one cold solve.

    The forward values continue from one another across the whole list.
    The call keeps an anchor, the last forward value it computed.  A full
    tanh-sinh quadrature sets it; after that, a forward value is the
    anchor's plus the integral of the integrand from the anchor to the
    new s by the 15-point Gauss-Kronrod rule (K15, 15 evaluations), and
    becomes the anchor in turn.  A step is taken only where it is short
    against the integrand's singular points, |s - s_a| <= min(s, s_a) / 2
    and, for sin, also |s - s_a| <= (1 - max(s, s_a)) / 2, and kept only
    where its error estimate |K15 - G7| is at most ``qtol`` / 100 and the
    estimates added up along the chain, from the anchor's quadrature on,
    stay within ``qtol``; otherwise a full quadrature (sinh's tail form
    included) replaces it and becomes the new anchor.  A sinh quadrature
    over [0, s] with s above 1e4 anchors no step, because it can report
    convergence while off by more than its tolerance there; the call then
    has no anchor until its next trusted quadrature.  The returned
    evaluation counts include 15 per step tried.  Over the lab's
    ``sweep-c`` rounds of seeds 301-303 a round takes 1,992 forward
    values, 1,892 of them steps, none rejected, and 35,078 integrand
    evaluations where full quadratures alone took 210,960.  The compiled
    twin is ``_dequad_c.solve``.
    """
    if mode not in ("sin", "sinh"):
        raise ValueError(f"unknown solve mode {mode!r}")
    for a, b in zip(ys, ys[1:]):
        if not (b > a):
            raise ValueError("solve() targets must be strictly ascending")
    out = []
    known = []  # the last two SOLVED (y, s, ds/dy)
    anchor = []  # see _solve_one
    for y in ys:
        start = math.nan
        if known:
            ya, sa, da = known[0]
            yb, sb, db = known[-1]
            u, h = y - yb, yb - ya
            if len(known) == 1 or u > _HERMITE_REACH * h:
                start = sb + u * db
            else:
                # the cubic Hermite extrapolation through the last two roots
                m = (sb - sa) / h
                c2 = (da + 2.0 * db - 3.0 * m) / h
                c3 = (da + db - 2.0 * m) / h / h
                start = sb + u * (db + u * (c2 + u * c3))
            if not (sb < start < math.inf) or (mode == "sin" and start >= 1.0):
                start = math.nan
        res = _solve_one(mode, p, q, y, top, tol, max_iters, qtol, max_levels, max_evals, start,
                         anchor)
        out.append(res)
        if res[3] == SOLVED:
            s = res[0]
            if mode == "sin":
                d = math.pow(1.0 - math.pow(s, q), 1.0 / p)
            else:  # C's log(0.0) is -inf
                d = _exp(_softplus(q * math.log(s) if s > 0.0 else -math.inf) / p)
            known = [known[-1], (y, s, d)] if known else [(y, s, d)]
    return out


def _solve_one(mode, p, q, y, top, tol, max_iters, qtol, max_levels, max_evals, start, anchor):
    """One target of :func:`solve`, from ``start`` unless it is nan.

    The cold start of sin is the inverse of the two-term series
    F = s + s**(q + 1) / (p (q + 1)) + ..., at most 2**(-1/q), and it
    steps in s.  sinh starts at s = y, a lower bound since its integrand
    is at most 1, and steps in s up to s = 1 and in s**(1 - q/p) (ln s
    where p = q) above, where F approaches its power-law tail.  Where
    m_star is finite and s**-g <= 1/2, with g = q/p - 1, F(s) is m_star
    minus the tail integral, arcsinh_quad(p, q/g, s**-g) / g, as in
    ``functions.arcsinh_pq``.  Each forward value is a step from
    ``anchor`` or a full quadrature, as :func:`solve` describes;
    ``anchor`` is ``[s, v, tail, err]``, F(s) = v (``tail`` false) or
    m_star + v (true), or empty where there is none to step from, and
    this updates it in place.  A step that leaves the bracket is
    replaced: with no upper bound yet, s is squared above 2 and doubled
    below; with one, the bracket is bisected geometrically where sinh's
    s >= 1, and arithmetically otherwise.

    The solve stops on a residual |F(s) - y| <= ``tol``, or returns the
    bracket midpoint once the bracket has collapsed to a few ulps (the
    nearest representable root).  Returns ``(root, iterations,
    evaluations, status)``: ``status`` is SOLVED, BUDGET (``max_iters``
    forward calls did not suffice; ``root`` is the bracket midpoint),
    UNCONVERGED (a forward quadrature missed ``qtol``; ``root`` is its
    argument) or OVERFLOW (sinh's bracket passed the largest float).
    """
    rest = top - y  # the target's distance from the limit of F
    g = (q - p) / p  # the tail exponent, q/p - 1 (q - p is exact near p = q)
    if mode == "sinh":
        lo, hi, s = 0.0, math.inf, y
    else:
        lo, hi = 0.0, 1.0
        s, mid = y - math.pow(y, q + 1.0) / (p * (q + 1.0)), math.pow(0.5, 1.0 / q)
        if not (0.0 < s < mid):
            s = mid
    if start == start:
        s = start
    evals = 0
    for it in range(1, max_iters + 1):
        # the residual F(s) - y, where F(s) = v, or top + v in the tail form:
        # the anchor's v plus a K15 step where the guard allows one, else a
        # full quadrature, which becomes the anchor where it is trusted
        stepped = False
        if anchor:
            sa, va, tail, ea = anchor
            a, b = (s, sa) if s < sa else (sa, s)
            if 0.0 < a and b - a <= _STEP_REACH * a and (
                    mode == "sinh" or b - a <= _STEP_REACH * (1.0 - b)):
                inc, e = _k15(mode, p, q, a, b)
                evals += 15
                stepped = e <= qtol / _STEP_TOL and ea + e <= qtol
                if stepped:
                    v = va + inc if s > sa else va - inc
                    anchor[:] = s, v, tail, ea + e
        if not stepped:
            tail = mode == "sinh" and top < math.inf and s > 1.0 and math.pow(s, -g) <= 0.5
            if mode == "sin":
                v, err, n, ok = arcsin_quad(p, q, s, qtol, max_levels, max_evals)
            elif tail:
                value, err, n, ok = arcsinh_quad(p, q / g, math.pow(s, -g), qtol * min(g, 1.0),
                                                 max_levels, max_evals)
                v, err = -(value / g), err / g
            else:
                v, err, n, ok = arcsinh_quad(p, q, s, qtol, max_levels, max_evals)
            evals += n
            if not ok:
                return s, it, evals, UNCONVERGED
            trusted = mode == "sin" or tail or s <= _DIRECT_REACH
            anchor[:] = (s, v, tail, err) if trusted else ()
        resid = rest + v if tail else v - y
        if abs(resid) <= tol:
            return s, it, evals, SOLVED
        if resid < 0.0:
            lo = s
        else:
            hi = s
        if hi < math.inf and hi - lo <= 2.0 * math.ulp(hi):
            return 0.5 * (lo + hi), it, evals, SOLVED

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
            return lo, it, evals, OVERFLOW
        s = s_new
    return (0.5 * (lo + hi) if hi < math.inf else lo), max_iters, evals, BUDGET
