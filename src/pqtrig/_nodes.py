"""Lazy tanh-sinh node tables and the level loop of the pure-Python integrators.

The substitution u = tanh((pi/2) sinh(tau)) maps (-1, 1) to the real line.
Node quantities depend only on tau, so they are tabulated once per
refinement level and reused by every integral.

Each node record is a tuple

    (omu, w, ln_half_omu, ln_one_minus_half_omu, tau)

where ``omu = 1 - u`` is computed without cancellation (this is what makes
abscissae meaningful exponentially close to an endpoint), ``w`` is the
du/dtau weight, and the two logarithms are ln(omu/2) and ln(1 - omu/2),
both evaluated stably.  Level 0 holds tau = 1, 2, 3, ...; level m >= 1
holds the new points tau = k * 2**-m for odd k.  The tau = 0 centre node
is handled explicitly by the integrators (omu = 1, w = pi/2).

:func:`run_levels` is the one level-doubling loop: the pure-Python kernels
of ``_dequad_py`` and ``quadrature.integrate_singular`` supply only their
integrand, and the compiled kernel in ``_dequad_c.c`` repeats the loop
operation for operation.
"""

import math
import threading

_PI_HALF = math.pi / 2.0

# Past this point the weight underflows to zero in double precision.
TAU_MAX = 6.9
# Deeper refinement levels are clamped; the double-precision floor stops
# refinement far earlier.
MAX_LEVEL = 16
_EPS = 2.220446049250313e-16

_tables: dict[int, list[tuple[float, float, float, float, float]]] = {}
_lock = threading.Lock()


def _node(tau: float):
    s = _PI_HALF * math.sinh(tau)
    if 2.0 * s > 1400.0:
        return None
    e2 = math.exp(-2.0 * s)
    omu = 2.0 * e2 / (1.0 + e2)
    w = _PI_HALF * math.cosh(tau) * (4.0 * e2 / ((1.0 + e2) * (1.0 + e2)))
    if w == 0.0 or omu == 0.0:
        return None
    ln_half_omu = -2.0 * s - math.log1p(e2)
    ln_1m_half_omu = math.log1p(-0.5 * omu)
    return (omu, w, ln_half_omu, ln_1m_half_omu, tau)


def _build(level: int):
    nodes = []
    if level == 0:
        h, k, step = 1.0, 1, 1
    else:
        h, k, step = 2.0 ** (-level), 1, 2
    while k * h <= TAU_MAX:
        rec = _node(k * h)
        if rec is None:
            break
        nodes.append(rec)
        k += step
    return nodes


def level_nodes(level: int):
    """Node records for one refinement level (built on first use)."""
    table = _tables.get(level)
    if table is None:
        with _lock:
            table = _tables.get(level)
            if table is None:
                table = _build(level)
                _tables[level] = table
    return table


def run_levels(pair, centre, half, tol, max_levels, max_evals):
    """Level-doubling tanh-sinh sum over an interval of half-width ``half``.

    ``pair(rec)`` returns the weighted integrand sum over the two nodes at
    +-tau of one node record and ``centre`` the weighted tau = 0 term, both
    for the unit half-width.  Refinement stops when the difference of two
    levels meets ``tol`` (``converged``), at the double-precision floor, on
    exhausting ``max_evals``, or after ``min(max_levels, MAX_LEVEL)``
    levels.  Returns ``(value, error_estimate, evaluations, converged)``
    scaled to the interval.
    """
    # a subnormal x can make half 0.0; C's tol / 0.0 is inf
    raw_tol = tol / half if half else math.inf
    raw = centre
    evals = 1
    for rec in level_nodes(0):
        c = pair(rec)
        raw += c
        evals += 2
        if abs(c) <= 1e-17 * abs(raw):  # level-0 taus are all >= 1
            break
    h = 1.0
    value = raw
    err = math.inf
    converged = False
    for level in range(1, min(max_levels, MAX_LEVEL) + 1):
        h *= 0.5
        small = 0
        for rec in level_nodes(level):
            c = pair(rec)
            raw += c
            evals += 2
            if abs(c) <= 1e-17 * abs(raw) and rec[4] >= 1.0:
                small += 1
                if small >= 2:
                    break
            else:
                small = 0
        new = raw * h
        err = abs(new - value)
        value = new
        if err <= raw_tol:
            converged = True
            break
        if err <= 8.0 * _EPS * abs(value) or evals >= max_evals:
            break
    return value * half, err * half, evals, converged
