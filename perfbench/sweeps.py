"""The ``sweep-c`` and ``sweep-c-mt`` inputs: every check on fresh (p, q) blocks.

One round runs each of the lab's ten checks once, at an order where the
paper proves it, plus ``gm-sin`` at a positive order, where the correct
report contains counterexamples.  Each sweep gets its own block: the p
and q axes keep the same span but shift by a seeded offset, and the
inner fraction axes move by a seeded amount, so every round costs about
the same while no solve argument has been seen before.

The block avoids the two constant faults (F1: p <= ~1.04, F2:
1 < q/p <= ~1.04, see the README) and includes cells with p >= q, where
m_star is infinite.
"""

import random
from typing import NamedTuple, Optional

P_SPAN = (1.3, 2.6)
Q_SPAN = (1.8, 3.9)
SHIFT = 0.05


class Sweep(NamedTuple):
    check: str
    order: Optional[float]
    axes: tuple  # (name, lo, hi, n) per axis, p and q first
    proven: bool


# (check, order, inner axis names, inner points per axis)
CHECKS = (
    ("lemma21", None, ("x",), 16),
    ("lemma22", None, ("x",), 16),
    ("lemma23", None, (), 0),
    ("thm11-sin", None, ("r", "s"), 8),
    ("thm11-sinh", None, ("r", "s"), 8),
    ("gm-sin", -1.0, ("r", "s"), 8),
    ("gm-sinh", 1.0, ("r", "s"), 8),
    ("double-angle", None, ("x",), 64),
    ("f-monotone", -0.5, ("x",), 16),
    ("fstar-monotone", 0.5, ("x",), 16),
)
COUNTEREXAMPLE_CHECK = ("gm-sin", 1.0, ("r", "s"), 8)
PROBE_CHECKS = ("f-monotone", "fstar-monotone")


def make_sweep(rng: random.Random, spec, proven: bool) -> Sweep:
    check, order, inner, n = spec
    lo = 0.01 + 0.01 * rng.random()
    hi = 0.99 - 0.01 * rng.random()
    if check == "double-angle":  # the identity holds at (4/3, 4) only
        pq_axes = (("p", 4.0 / 3.0, 4.0 / 3.0, 1), ("q", 4.0, 4.0, 1))
    else:
        dp, dq = SHIFT * rng.random(), SHIFT * rng.random()
        pq_axes = (("p", P_SPAN[0] + dp, P_SPAN[1] + dp, 2),
                   ("q", Q_SPAN[0] + dq, Q_SPAN[1] + dq, 2))
    return Sweep(check, order, pq_axes + tuple((a, lo, hi, n) for a in inner), proven)


def make_round(rng: random.Random) -> list[Sweep]:
    return [make_sweep(rng, spec, True) for spec in CHECKS] + [
        make_sweep(rng, COUNTEREXAMPLE_CHECK, False)
    ]


def expected_verdicts(sweep: Sweep) -> int:
    cells = sweep.axes[0][3] * sweep.axes[1][3]
    inner = [a[3] for a in sweep.axes[2:]]
    if sweep.check in PROBE_CHECKS:
        return cells * (inner[0] - 1)
    count = cells
    for n in inner:
        count *= n
    return count
