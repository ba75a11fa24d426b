"""Recompute the lab's verdicts from the closed-form references.

Each check's two sides are rebuilt from the statements in the package's
``inequalities`` module docstring (the paper's lemmas and theorems), with
every (p, q)-function taken from :mod:`oracle`.  A verdict agrees when
both of its sides match the recomputed ones within the verdict's own
tolerance, and its ``satisfied`` flag matches unless the recomputed
margin is itself within that tolerance of zero.
"""

import math

import oracle

# checks whose margin is rhs - lhs; every other check uses lhs - rhs
_UPPER = {"thm11-sinh", "gm-sinh"}


def holder_mean(order: float, a: float, b: float) -> float:
    if order == 0.0:
        return math.sqrt(a * b)
    return ((a**order + b**order) / 2.0) ** (1.0 / order)


def sides(check: str, order, at) -> tuple[float, float]:
    """(lhs, rhs) of one verdict, from its recorded point ``at``."""
    p, q = at["p"], at["q"]
    if check == "lemma21":
        x = at["x"]
        xq = x**q
        rhs = p * x * (1.0 - xq) ** (1.0 - 1.0 / p) / ((q - p) * xq + p)
        return float(oracle.arcsin(p, q, x)), rhs
    if check == "lemma22":
        x = at["x"]
        xq = x**q
        rhs = ((p - q) * xq + p) / (p * (1.0 + xq) ** (1.0 - 1.0 / p))
        return x / float(oracle.arcsinh(p, q, x)), rhs
    if check == "lemma23":
        return float(oracle.m_star(p, q)), 1.0
    if check in ("thm11-sin", "gm-sin", "thm11-sinh", "gm-sinh"):
        inv = oracle.sin if check.endswith("-sin") else oracle.sinh
        r, s = at["r"], at["s"]
        lhs = float(inv(p, q, math.sqrt(r * s)))
        a, b = float(inv(p, q, r)), float(inv(p, q, s))
        return lhs, holder_mean(0.0 if check.startswith("thm11") else order, a, b)
    if check == "double-angle":
        x = at["x"]
        sx, cx = float(oracle.sin(p, q, x)), float(oracle.cos(p, q, x))
        rhs = 2.0 * sx * cx ** (1.0 / 3.0) / math.sqrt(1.0 + 4.0 * sx**4 * cx ** (4.0 / 3.0))
        return float(oracle.sin(p, q, 2.0 * x)), rhs
    if check == "f-monotone":  # F increasing: lhs = F(x_hi), rhs = F(x_lo)
        def f(x):
            return x ** (1.0 - order) / (float(oracle.arcsin(p, q, x)) * (1.0 - x**q) ** (1.0 / p))
        return f(at["x_hi"]), f(at["x_lo"])
    if check == "fstar-monotone":  # F* decreasing: lhs = F*(x_lo), rhs = F*(x_hi)
        def f(x):
            return x ** (1.0 - order) / (float(oracle.arcsinh(p, q, x)) * (1.0 + x**q) ** (1.0 / p))
        return f(at["x_lo"]), f(at["x_hi"])
    raise ValueError(f"no reference for check {check!r}")


def disagreement(check: str, order, at, lhs, rhs, tolerance, satisfied):
    """None when the verdict agrees with the references, else a message."""
    ref_lhs, ref_rhs = sides(check, order, at)
    if math.isinf(ref_lhs) or math.isinf(lhs):
        same = math.isinf(ref_lhs) and math.isinf(lhs)
        return None if same and satisfied else f"{check} at {dict(at)}: lhs {lhs} vs {ref_lhs}"
    if abs(lhs - ref_lhs) > tolerance or abs(rhs - ref_rhs) > tolerance:
        return (f"{check} at {dict(at)}: sides ({lhs!r}, {rhs!r}) "
                f"vs reference ({ref_lhs!r}, {ref_rhs!r}), tolerance {tolerance:.3g}")
    margin = ref_rhs - ref_lhs if check in _UPPER else ref_lhs - ref_rhs
    if check == "double-angle":
        margin = -abs(ref_lhs - ref_rhs)
    if abs(margin) > tolerance and (margin >= -tolerance) != satisfied:
        return f"{check} at {dict(at)}: satisfied={satisfied} but reference margin {margin!r}"
    return None
