"""The ``scatter-c`` inputs: single calls at fresh exponent pairs.

One round holds ``PER_FN`` calls of each public forward, inverse and
constant function plus ``PER_QUAD`` calls of ``integrate_singular``, in a
seeded random order.  Every call draws its own (p, q) uniformly from
(1, 10]^2, so no cache or batch can help.

Two known faults fail at a fixed, natural share of every round
(F1 and F2 in the README).  Their calls come from a stream that depends
only on the round number, never on the seed, and the seeded calls are
drawn outside the fault bands and a margin around them, so that exactly
the same number of calls fails in every round of every run.
"""

import math
import random

PER_FN = 225
PER_QUAD = 15
# F1: half_pi_pq (and sin_pq, cos_pq through it) fails for 1 < p <= ~1.04.
# Its share of p uniform on (1, 10] is 0.04 / 9 = 1 call in 225.
F1_CALLS = {"half_pi": 1, "sin": 1, "cos": 1}
F1_P = (1.005, 1.03)
# F2: m_star_pq (and sinh_pq through it) fails for 1 < q/p <= ~1.04.
# Its share of (p, q) uniform on (1, 10]^2 is 2.35%, 5 calls in 225.
F2_CALLS = {"m_star": 5, "sinh": 5}
F2_RATIO = (1.005, 1.03)
# seeded draws keep this far from the fault bands
SAFE_P = 1.05
SAFE_RATIO = 1.05
# arcsin_pq(x) can report convergence while off by up to ~1e-10 when
# 1 - x < ~2e-4 (about one such call in 1e5), and the reference check
# rejects it; a failure that only some seeds hit cannot be counted, so
# every argument at which a call evaluates arcsin_pq stays TOP_GAP below 1:
# arcsin_pq arguments and sin_pq roots directly, arccos_pq arguments and
# cos_pq roots v through w = (1 - v**p)**(1/q).  This also keeps cos_pq out
# of its pure-bisection region (v**p < 1e-8), where it can run out of
# iterations, and keeps the rounding of w (about 1e-16 / v) negligible.
# See the FOUND lines in CHANGES.md.
TOP_GAP = 1e-3
SINH_ARG_CAP = 5.0  # the lab's cap on hyperbolic arguments
ARCSINH_X_CAP = 10.0  # the lab's lemma22 scale
ARG_TOP = 0.99  # inner grids stop 1% short of an open end


def _beta(a: float, b: float) -> float:
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def half_pi(p: float, q: float) -> float:
    """B(1/q, 1 - 1/p) / q, accurate enough to set argument ranges."""
    return _beta(1.0 / q, 1.0 - 1.0 / p) / q


def m_star(p: float, q: float) -> float:
    return _beta(1.0 / q, 1.0 / p - 1.0 / q) / q if p < q else math.inf


def arcsin_below_top(p: float, q: float, e: float) -> float:
    """arcsin_pq(w) where 1 - w**q = e, for small e.

    half_pi minus the integral over [w, 1]; with u = 1 - t**q that is the
    series sum_k ((1 - 1/q)_k / k!) e**(k + 1 - 1/p) / (q (k + 1 - 1/p)).
    """
    coeff, total = 1.0, 0.0
    for k in range(40):
        total += coeff * e ** (k + 1.0 - 1.0 / p) / (k + 1.0 - 1.0 / p)
        coeff *= (k + 1.0 - 1.0 / q) / (k + 1.0)
    return half_pi(p, q) - total / q


def top_gap_e(q: float) -> float:
    """1 - w**q at w = 1 - TOP_GAP."""
    return -math.expm1(q * math.log1p(-TOP_GAP))


def v_floor(p: float, q: float) -> float:
    """The v at which (1 - v**p)**(1/q) = 1 - TOP_GAP."""
    return top_gap_e(q) ** (1.0 / p)


FUNCTIONS = ("arcsin", "arccos", "arcsinh", "sin", "cos", "sinh", "half_pi", "m_star")


def draw_pq(rng: random.Random, fn: str) -> tuple[float, float]:
    while True:
        p = 10.0 - 9.0 * rng.random()
        q = 10.0 - 9.0 * rng.random()
        if fn in F1_CALLS and p <= SAFE_P:
            continue
        if fn in F2_CALLS and 1.0 < q / p <= SAFE_RATIO:
            continue
        return p, q


def draw_arg(rng: random.Random, fn: str, p: float, q: float) -> float:
    u = rng.random()
    if fn == "arcsin":
        return u * (1.0 - TOP_GAP)
    if fn == "arccos":
        lo = v_floor(p, q)
        return lo + (1.0 - lo) * u
    if fn == "arcsinh":
        return u * ARCSINH_X_CAP
    if fn in ("sin", "cos"):
        # arcsin_pq(1 - TOP_GAP), which is also arccos_pq at v_floor
        return u * arcsin_below_top(p, q, top_gap_e(q))
    if fn == "sinh":
        return u * ARG_TOP * min(m_star(p, q), SINH_ARG_CAP)
    return math.nan


def _fault_calls(round_index: int) -> list[tuple]:
    rng = random.Random(f"faults-{round_index}")
    calls = []
    for fn, n in F1_CALLS.items():
        for _ in range(n):
            p = F1_P[0] + (F1_P[1] - F1_P[0]) * rng.random()
            q = 10.0 - 9.0 * rng.random()
            calls.append((fn, p, q, rng.random() * half_pi(p, q), "F1"))
    for fn, n in F2_CALLS.items():
        for _ in range(n):
            p = 1.1 + 8.0 * rng.random()
            q = p * (F2_RATIO[0] + (F2_RATIO[1] - F2_RATIO[0]) * rng.random())
            y = rng.random() * ARG_TOP * min(m_star(p, q), SINH_ARG_CAP)
            calls.append((fn, p, q, y, "F2"))
    return calls


def make_round(rng: random.Random, round_index: int) -> list[tuple]:
    """Calls ``(fn, p, q, arg, fault)`` of one round; ``fault`` is "" or F1/F2."""
    calls = _fault_calls(round_index)
    for fn in FUNCTIONS:
        n = PER_FN - F1_CALLS.get(fn, 0) - F2_CALLS.get(fn, 0)
        for _ in range(n):
            p, q = draw_pq(rng, fn)
            calls.append((fn, p, q, draw_arg(rng, fn, p, q), ""))
    for _ in range(PER_QUAD):
        # x**-c e**-x on [0, b]: singular at 0 for c > 0
        calls.append(("quad", 0.9 * rng.random(), 0.0, 0.5 + 4.5 * rng.random(), ""))
    rng.shuffle(calls)
    return calls
