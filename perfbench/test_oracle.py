"""Spot checks of the benchmark's closed-form references against mpmath.

Run with ``python -m pytest perfbench/test_oracle.py``.
"""

import math
import random

import mpmath
import numpy as np
import pytest

import oracle

mpmath.mp.dps = 40
RNG = random.Random(20121)


def _pq(lo=1.05, hi=10.0):
    return lo + (hi - lo) * RNG.random(), lo + (hi - lo) * RNG.random()


def mp_beta_part(p, q, z):
    a, b = 1 / mpmath.mpf(q), 1 - 1 / mpmath.mpf(p)
    return mpmath.betainc(a, b, 0, z) / q


def mp_arcsinh(p, q, x):
    P, Q, X = mpmath.mpf(p), mpmath.mpf(q), mpmath.mpf(x)
    return X * mpmath.hyp2f1(1 / P, 1 / Q, 1 + 1 / Q, -X**Q)


CASES = [_pq() for _ in range(40)] + [(p, p * (1 + 0.002 * RNG.random())) for p, _ in
                                      (_pq() for _ in range(10))]


@pytest.mark.parametrize("p,q", CASES)
def test_constants_match_beta(p, q):
    P, Q = mpmath.mpf(p), mpmath.mpf(q)
    assert oracle.half_pi(p, q) == pytest.approx(float(mpmath.beta(1 / Q, 1 - 1 / P) / Q),
                                                 rel=1e-14)
    if p < q:
        ref = float(mpmath.beta(1 / Q, 1 / P - 1 / Q) / Q)
        assert oracle.m_star(p, q) == pytest.approx(ref, rel=1e-14)
    else:
        assert oracle.m_star(p, q) == math.inf


@pytest.mark.parametrize("p,q", CASES)
def test_arcsin_and_arccos(p, q):
    for x in (RNG.random(), 1 - 1e-9 * RNG.random(), 1e-3 * RNG.random(), 1.0):
        ref = mp_beta_part(p, q, mpmath.mpf(x) ** q)
        assert float(oracle.arcsin(p, q, x)) == pytest.approx(float(ref), abs=1e-14)
        # arccos_pq(v) = arcsin_pq((1 - v**p)**(1/q))
        ref = mp_beta_part(p, q, 1 - mpmath.mpf(x) ** p)
        assert float(oracle.arccos(p, q, x)) == pytest.approx(float(ref), abs=1e-14)


@pytest.mark.parametrize("p,q", CASES)
def test_arcsinh(p, q):
    for x in (0.0, RNG.random(), 1.0, 10 * RNG.random(), 50 * RNG.random(), 1e6):
        assert oracle.arcsinh(p, q, x) == pytest.approx(float(mp_arcsinh(p, q, x)), rel=1e-13)


def _brackets(forward, s, y, lo, hi):
    """forward at the floats next to s lies on both sides of y."""
    a = forward(float(np.nextafter(s, lo)))
    b = forward(float(np.nextafter(s, hi)))
    return min(a, b) <= y + 1e-15 and max(a, b) >= y - 1e-15


@pytest.mark.parametrize("p,q", CASES[:12])
def test_inverses_within_one_float(p, q):
    y = RNG.random() * oracle.half_pi(p, q)
    s = oracle.sin(p, q, y)
    assert _brackets(lambda t: float(mp_beta_part(p, q, mpmath.mpf(t) ** q)), s, y, 0.0, 1.0)
    v = oracle.cos(p, q, y)
    assert _brackets(lambda t: float(mp_beta_part(p, q, 1 - mpmath.mpf(t) ** p)), v, y, 0.0, 1.0)
    y = RNG.random() * min(oracle.m_star(p, q), 5.0)
    s = oracle.sinh(p, q, y)
    assert _brackets(lambda t: float(mp_arcsinh(p, q, t)), s, y, 0.0, np.inf)


def test_classical_case():
    assert oracle.half_pi(2.0, 2.0) == pytest.approx(math.pi / 2, rel=1e-15)
    assert oracle.arcsinh(2.0, 2.0, 3.0) == pytest.approx(math.asinh(3.0), rel=1e-15)
    assert oracle.sin(2.0, 2.0, 1.0) == pytest.approx(math.sin(1.0), rel=1e-15)
    assert oracle.cos(2.0, 2.0, 1.0) == pytest.approx(math.cos(1.0), rel=1e-14)
    assert oracle.sinh(2.0, 2.0, 2.0) == pytest.approx(math.sinh(2.0), rel=1e-15)


def test_incomplete_gamma_integral():
    for c, b in ((0.0, 1.0), (0.5, 2.0), (0.85, 4.5)):
        ref = mpmath.gammainc(1 - mpmath.mpf(c), 0, b)
        assert oracle.incomplete_gamma_integral(c, b) == pytest.approx(float(ref), rel=1e-14)


def test_inverse_check_accepts_collapsed_bracket_and_rejects_wrong_roots():
    # near the top of the branch no float solves arcsin_pq(s) = y to 1e-12
    p, q = 1.06, 7.8
    s = float(np.nextafter(1.0, 0.0))
    y = 0.5 * (float(oracle.arcsin(p, q, s)) + float(oracle.arcsin(p, q, 1.0)))
    assert oracle.inverse_ok(oracle.arcsin, p, q, s, y, 0.0, 1.0)
    assert not oracle.inverse_ok(oracle.arcsin, p, q, 0.9, y, 0.0, 1.0)
    y = 0.7
    s = oracle.sin(p, q, y)
    assert oracle.inverse_ok(oracle.arcsin, p, q, s, y, 0.0, 1.0)
    assert not oracle.inverse_ok(oracle.arcsin, p, q, s * (1 + 1e-9), y, 0.0, 1.0)
