"""Tests for the forward functions, constants and the series oracle."""

import math
import random
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqtrig import functions
from pqtrig import (
    ComputationError,
    DomainError,
    ExtendedValue,
    PQParams,
    arccos_pq,
    arcsin_pq,
    arcsin_series_oracle,
    arcsinh_pq,
    half_pi_pq,
    m_star_pq,
)

from conftest import pq_grid
from oracles import (
    arccos_ref,
    arcsin_ref,
    arcsinh_ref,
    beta,
    beta_half_pi,
    beta_m_star,
    beta_tail,
    romberg,
)


class TestParams:
    @pytest.mark.parametrize("p,q", [(1.0, 2.0), (0.5, 2.0), (2.0, 1.0), (math.nan, 2.0), (2.0, math.inf)])
    def test_rejects_out_of_range(self, p, q):
        with pytest.raises(DomainError):
            PQParams(p, q)

    def test_frozen_and_hashable(self):
        pq = PQParams(2.0, 3.0)
        assert hash(pq) == hash(PQParams(2.0, 3.0))
        with pytest.raises(AttributeError):
            pq.p = 4.0


class TestExtendedValue:
    def test_finite(self):
        v = ExtendedValue.finite(1.5)
        assert v.is_finite and v.value == 1.5 and float(v) == 1.5

    def test_infinite(self):
        v = ExtendedValue.infinite()
        assert not v.is_finite and v.value is None and math.isinf(v.as_float())

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            ExtendedValue.finite(-1.0)


class TestArcsin:
    def test_classical_half(self, classic):
        assert arcsin_pq(classic, 0.5) == pytest.approx(math.pi / 6.0, abs=1e-12)

    def test_zero(self):
        for pq in (PQParams(2, 2), PQParams(1.25, 5), PQParams(5, 1.25)):
            assert arcsin_pq(pq, 0.0) == 0.0

    def test_matches_series_oracle(self):
        pq = PQParams(4.0 / 3.0, 4.0)
        assert arcsin_pq(pq, 0.9) == pytest.approx(
            arcsin_series_oracle(pq, 0.9, 400), abs=1e-10
        )

    def test_at_one_equals_half_pi(self):
        for pq in pq_grid():
            assert arcsin_pq(pq, 1.0) == pytest.approx(half_pi_pq(pq), abs=1e-13)

    @pytest.mark.parametrize("x", [-0.1, 1.0000001, math.nan])
    def test_domain(self, x, classic):
        with pytest.raises(DomainError):
            arcsin_pq(classic, x)

    def test_strictly_increasing(self):
        for pq in pq_grid():
            values = [arcsin_pq(pq, i / 100.0) for i in range(101)]
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_derivative_matches_integrand(self):
        # central difference of the integral recovers the integrand
        h = 6e-6
        for pq in (PQParams(2, 2), PQParams(1.25, 5), PQParams(5, 1.25), PQParams(4 / 3, 4)):
            for i in range(200):
                x = 0.01 + (0.95 - 0.01) * i / 199.0
                fd = (arcsin_pq(pq, x + h) - arcsin_pq(pq, x - h)) / (2.0 * h)
                exact = math.pow(1.0 - math.pow(x, pq.q), -1.0 / pq.p)
                assert abs(fd - exact) / exact <= 1e-6

    def test_no_early_stop_below_the_top(self):
        # integrated from 0, the level-difference estimate can stop here
        # after 37 evaluations, claiming convergence while off by 1.25e-8;
        # the integrand is smooth on [0, x], so Romberg is a sound reference
        pq = PQParams(2.4507948009209013, 3.224400290890534)
        x = 0.9593184085406066
        ref = romberg(lambda t: math.pow(1.0 - math.pow(t, pq.q), -1.0 / pq.p), 0.0, x)
        assert arcsin_pq(pq, x) == pytest.approx(ref, abs=1e-13)


class TestTopOfBranch:
    """Next to the singular top, against the tanh-sinh reference."""

    @pytest.mark.parametrize("pq", pq_grid(), ids=lambda pq: f"p{pq.p}-q{pq.q}")
    def test_arcsin_near_one(self, pq):
        for k in range(1, 15):
            x = 1.0 - 10.0 ** -k
            assert arcsin_pq(pq, x) == pytest.approx(arcsin_ref(pq.p, pq.q, x), abs=1e-13), x

    @pytest.mark.parametrize("pq", pq_grid(), ids=lambda pq: f"p{pq.p}-q{pq.q}")
    def test_arccos_near_zero(self, pq):
        # (1 - v**p)**(1/q) rounds for small v, by about 1e-16 / v, so both
        # take the gap to the top from v directly
        for k in range(1, 13):
            v = 10.0 ** -k
            assert arccos_pq(pq, v) == pytest.approx(arccos_ref(pq.p, pq.q, v), abs=1e-13), v


class TestHalfPi:
    def test_classical(self, classic):
        assert half_pi_pq(classic) == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_four_thirds_four(self):
        assert half_pi_pq(PQParams(4.0 / 3.0, 4.0)) == pytest.approx(1.8540746773, abs=1e-9)

    def test_beta_oracle_spot_values(self):
        assert half_pi_pq(PQParams(5.0, 1.25)) == pytest.approx(
            beta(0.8, 0.8) / 1.25, abs=1e-10
        )
        assert half_pi_pq(PQParams(4.0 / 3.0, 4.0)) == pytest.approx(
            beta(0.25, 0.25) / 4.0, abs=1e-10
        )

    def test_beta_oracle_grid(self):
        for pq in pq_grid():
            assert abs(half_pi_pq(pq) - beta_half_pi(pq.p, pq.q)) <= 1e-10

    def test_exceeds_one(self):
        for pq in pq_grid():
            assert half_pi_pq(pq) > 1.0

    def test_unreachable_tolerance_raises_with_partial(self):
        # a forward value that its kernel does not certify (bound <= 1e-13
        # max(1, |value|)) raises with the estimate.  At q = 1.06e299,
        # (1 - x**p)**(1/q) rounds to 1, where the series stops at z = 1
        # with an infinite bound
        with pytest.raises(ComputationError, match="did not converge") as err:
            arccos_pq(PQParams(2.0, 1.0599853493818049e299), 0.9999999999999999)
        assert err.value.partial == 1.0

    def test_at_least_one_at_extreme_exponents(self, backend):
        # the closed Beta forms gave 0.9999999999999994 for
        # half_pi_pq(PQParams(2, 1e17)) and m_star_pq(PQParams(2, 1e100)),
        # and arcsin_pq(PQParams(2, 1e17), 1.0) raised; the top form's
        # anchor is the series at z = 1/2 itself, not the kernel at
        # x = 2**(-1/q), which rounds to 1 beyond q of about 1e16
        for p in (1.0 + 2.0 ** -52, 1.5, 2.0, 1e10, 1e300):
            for q in (1e16, 1e17, 1e100, 1e300, 1.7976931348623157e308):
                pq = PQParams(p, q)
                hp = half_pi_pq(pq)
                assert hp >= 1.0, (p, q)
                assert arcsin_pq(pq, 1.0) == arccos_pq(pq, 0.0) == hp, (p, q)
                ms = m_star_pq(pq)
                assert not ms.is_finite or ms.value >= 1.0, (p, q)

    def test_thread_safe_cache(self):
        pq = PQParams(3.0, 2.0)
        with ThreadPoolExecutor(max_workers=8) as pool:
            values = list(pool.map(lambda _: half_pi_pq(pq), range(32)))
        assert len(set(values)) == 1


class TestClosedFormConstants:
    """Against mpmath's Beta function at 30 digits, p or q/p next to 1 included."""

    @pytest.mark.parametrize("p,q,value", [
        (1.01, 2.0, 51.189788478599281732),
        (1.001, 10.0, 101.08451247420707232),
        (1.04, 1.5, 17.816548393829539263),
        (1.001, 1.001, 1000.0016416511235894),
        (5.0, 1.002, 1.2496560232903812203),
    ])
    def test_half_pi(self, p, q, value):
        assert half_pi_pq(PQParams(p, q)) == pytest.approx(value, rel=1e-14)

    @pytest.mark.parametrize("p,q,value", [
        (2.0, 2.05, 40.702080664724942381),
        (1.01, 1.02, 101.03185907466910854),
        (5.0, 5.2, 25.944662269444568406),
        (1.5, 1.55, 30.515377485083915252),
        (2.0, 3.0, 2.8043642106509085224),
    ])
    def test_m_star(self, p, q, value):
        assert m_star_pq(PQParams(p, q)).value == pytest.approx(value, rel=1e-14)

    def test_no_overflow_at_extreme_exponents(self):
        # B(1/q, b) is about q + 1/b here, at or beyond the largest float
        for pq in (PQParams(1.0 + 1e-15, 1e300), PQParams(1.0000000000000002, 1.7976931348623157e308)):
            assert half_pi_pq(pq) == pytest.approx(1.0, rel=1e-12)
        assert m_star_pq(PQParams(1e200, 1.0000000000000001e200)).value == pytest.approx(
            1e200 / (1.0000000000000001e200 - 1e200), rel=1e-12)
        assert m_star_pq(PQParams(1.6999999999999991e308, 1.7e308)).value > 1.0


class TestArccos:
    def test_endpoints(self):
        for pq in (PQParams(2, 2), PQParams(1.5, 3), PQParams(4, 1.5)):
            assert arccos_pq(pq, 1.0) == 0.0
            assert arccos_pq(pq, 0.0) == pytest.approx(half_pi_pq(pq), abs=1e-13)

    def test_classical_half(self, classic):
        assert arccos_pq(classic, 0.5) == pytest.approx(math.pi / 3.0, abs=1e-12)

    def test_decreasing(self):
        pq = PQParams(1.5, 4.0)
        values = [arccos_pq(pq, i / 50.0) for i in range(51)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_domain(self, classic):
        with pytest.raises(DomainError):
            arccos_pq(classic, 1.5)


class TestArcsinh:
    def test_classical_one(self, classic):
        assert arcsinh_pq(classic, 1.0) == pytest.approx(math.log(1.0 + math.sqrt(2.0)), abs=1e-12)

    def test_zero(self):
        assert arcsinh_pq(PQParams(3, 1.5), 0.0) == 0.0

    def test_against_romberg(self):
        # smooth integrand; Romberg is a fully independent path
        pq = PQParams(2.0, 4.0)
        ref = romberg(lambda t: (1.0 + t ** 4) ** -0.5, 0.0, 3.0)
        assert arcsinh_pq(pq, 3.0) == pytest.approx(ref, abs=1e-10)

    def test_negative_rejected(self, classic):
        with pytest.raises(DomainError):
            arcsinh_pq(classic, -1e-9)

    def test_below_m_star_when_finite(self):
        pq = PQParams(2.0, 4.0)
        ms = m_star_pq(pq).value
        for x in (0.5, 2.0, 50.0, 1e4):
            assert arcsinh_pq(pq, x) < ms

    @pytest.mark.parametrize("seed", range(4))
    def test_far_out_for_p_at_least_q(self, seed):
        # the integral over [0, x] raised or missed its tolerance far out for
        # p >= q; the series takes every x = 10**k up to the largest float,
        # within 1e-13 of the reference (checked at every 11th k here)
        rng = random.Random(seed)
        pairs = [(2.396723667394034, 2.3982272534592433)] if seed == 0 else []
        while len(pairs) < 17:
            p, q = 1.001 + 8.999 * rng.random(), 1.001 + 8.999 * rng.random()
            pairs.append((max(p, q), min(p, q)))
        for p, q in pairs:
            pq = PQParams(p, q)
            values = [arcsinh_pq(pq, 10.0 ** k) for k in range(309)]
            assert all(b > a for a, b in zip(values, values[1:]))
            for k in range(0, 309, 11):
                ref = arcsinh_ref(p, q, 10.0 ** k)
                assert values[k] == pytest.approx(ref, rel=1e-13), (p, q, k)

    def test_far_out_is_m_star(self):
        # integrated over [0, x], this is 6.5e-13 with converged=True
        assert arcsinh_pq(PQParams(2.0, 3.0), 1e90) == pytest.approx(2.8043642106509085, rel=1e-14)

    @pytest.mark.parametrize("pq", [PQParams(2.0, 3.0), PQParams(1.3, 4.0), PQParams(9.0, 9.9),
                                    PQParams(5.0, 5.1), PQParams(1.01, 1.1)],
                             ids=lambda pq: f"p{pq.p}-q{pq.q}")
    def test_tail_against_incomplete_beta(self, pq):
        ms = beta_m_star(pq.p, pq.q)
        for k in range(0, 301, 10):
            x = 10.0 ** k
            assert arcsinh_pq(pq, x) == pytest.approx(ms - beta_tail(pq.p, pq.q, x), abs=2e-12), x

    @settings(max_examples=300, deadline=None)
    @given(p=st.floats(1.001, 10.0), r=st.floats(1.0001, 10.0), lx=st.floats(-3.0, 300.0),
           step=st.floats(1e-3, 10.0))
    def test_monotone_and_bounded_far_out(self, p, r, lx, step):
        pq = PQParams(p, p * r)
        ms = m_star_pq(pq).value
        try:
            lo, hi = arcsinh_pq(pq, 10.0 ** lx), arcsinh_pq(pq, 10.0 ** min(lx + step, 300.0))
        except ComputationError:
            # the tail form is used where x**(1 - q/p) <= 1/2; with q/p this
            # close to 1 the integral over [0, x] is taken further out and
            # may not converge there
            assert r < 1.01
            return
        assert 0.0 <= lo <= hi <= ms

    def test_derivative_matches_integrand(self):
        for pq in (PQParams(2, 2), PQParams(1.25, 5), PQParams(5, 1.25)):
            for i in range(200):
                x = 0.01 + (10.0 - 0.01) * i / 199.0
                h = 6e-6 * (1.0 + x)
                fd = (arcsinh_pq(pq, x + h) - arcsinh_pq(pq, x - h)) / (2.0 * h)
                exact = math.pow(1.0 + math.pow(x, pq.q), -1.0 / pq.p)
                assert abs(fd - exact) / exact <= 1e-6


class TestMStar:
    def test_divergent_exactly_when_p_at_least_q(self):
        for pq in pq_grid():
            ms = m_star_pq(pq)
            assert ms.is_finite == (pq.p < pq.q)

    def test_classical_divergent(self, classic):
        assert not m_star_pq(classic).is_finite

    def test_beta_oracle(self):
        assert m_star_pq(PQParams(2.0, 4.0)).value == pytest.approx(
            beta(0.25, 0.25) / 4.0, abs=1e-10
        )
        assert m_star_pq(PQParams(1.5, 3.0)).value == pytest.approx(
            beta(1.0 / 3.0, 1.0 / 3.0) / 3.0, abs=1e-10
        )
        for pq in pq_grid():
            if pq.p < pq.q:
                assert abs(m_star_pq(pq).value - beta_m_star(pq.p, pq.q)) <= 1e-9

    def test_finite_values_exceed_one(self):
        for pq in pq_grid():
            ms = m_star_pq(pq)
            if ms.is_finite:
                assert ms.value > 1.0
        assert m_star_pq(PQParams(1.1, 1.2)).value > 1.0


class TestSeriesOracle:
    def test_classical_maclaurin(self, classic):
        assert arcsin_series_oracle(classic, 0.5, 60) == pytest.approx(math.pi / 6.0, abs=1e-10)

    def test_zero(self):
        assert arcsin_series_oracle(PQParams(3, 2), 0.0, 10) == 0.0

    def test_agrees_with_quadrature(self):
        # the tanh-sinh reference, not arcsin_pq, whose kernel sums this
        # same series where x**q <= 1/2
        pq = PQParams(3.0, 2.0)
        assert arcsin_series_oracle(pq, 0.7, 200) == pytest.approx(
            arcsin_ref(3.0, 2.0, 0.7), abs=1e-10
        )

    def test_grid_agreement(self):
        for pq in pq_grid():
            for x in (0.1, 0.5, 0.9):
                ref = arcsin_ref(pq.p, pq.q, x)
                assert abs(arcsin_series_oracle(pq, x, 400) - ref) <= 1e-9
                assert abs(arcsin_pq(pq, x) - ref) <= 1e-9

    def test_monotone_in_terms(self):
        pq = PQParams(1.5, 2.0)
        partials = [arcsin_series_oracle(pq, 0.8, n) for n in (1, 2, 5, 10, 50)]
        assert all(b >= a for a, b in zip(partials, partials[1:]))

    def test_domain(self, classic):
        with pytest.raises(DomainError):
            arcsin_series_oracle(classic, 1.0, 100)
        with pytest.raises(DomainError):
            arcsin_series_oracle(classic, 0.5, 0)


def test_oracle_sanity_against_stdlib():
    # the test-side log-gamma itself, cross-checked against the C library
    from oracles import log_gamma

    for z in (0.1333, 0.25, 0.5, 0.8, 1.0, 1.6, 3.7, 12.0):
        assert log_gamma(z) == pytest.approx(math.lgamma(z), abs=1e-12)


EXPONENTS = st.floats(1.001, 10.0)


def _near_q(draw_q):
    # q/p within 1e-9..1e-2 of 1 (and p = q) as often as q anywhere
    return st.one_of(draw_q, st.just(1.0), st.floats(-9.0, -2.0).map(lambda e: 1.0 + 10.0 ** e),
                     st.floats(-9.0, -2.0).map(lambda e: 1.0 - 10.0 ** e))


class TestAccuracyAgainstTheReference:
    """Against the tanh-sinh reference of ``tests/oracles.py``, which shares
    no method with the series kernels, for p, q in [1.001, 10], and for p
    down to one ulp above 1 in the trigonometric branch."""

    @settings(max_examples=300, deadline=None)
    @given(p=st.one_of(EXPONENTS, st.floats(-52.0, -10.0).map(lambda k: 1.0 + 2.0 ** k)),
           q=EXPONENTS, u=st.floats(0.0, 1.0), lg=st.floats(-15.0, 0.0))
    def test_arcsin_and_arccos(self, p, q, u, lg):
        # both halves of the branch within 1e-14 relative: the top form
        # keeps its digits as p nears 1, where half_pi_pq grows like
        # 1/(p - 1) (the conjugate route's error grew with it, to 0.38
        # relative at p - 1 of about 1e-15)
        pq = PQParams(p, q)
        for x in (u * math.pow(0.5, 1.0 / q), 1.0 - 10.0 ** lg):
            ref = arcsin_ref(p, q, x)
            assert abs(arcsin_pq(pq, x) - ref) <= 1e-14 * max(1.0, ref), x
        v = 10.0 ** (lg * 0.8)  # down to 1e-12
        ref = arccos_ref(p, q, v)
        assert abs(arccos_pq(pq, v) - ref) <= 1e-14 * max(1.0, ref), v

    def test_arcsin_one_ulp_above_p_one(self):
        # the conjugate route returned 1.5 here
        pq = PQParams(1.0000000000000002, 2.0)
        assert abs(arcsin_pq(pq, 0.99) - 2.6466524123622452) <= 1e-14

    @settings(max_examples=300, deadline=None)
    @given(p=EXPONENTS, ratio=_near_q(st.floats(0.1, 10.0)), lx=st.floats(-5.0, 308.25))
    def test_arcsinh(self, p, ratio, lx):
        q = p * ratio
        x = 10.0 ** lx
        if not (1.001 <= q <= 10.0 and x < 1.7976931348623157e308):
            return
        ref = arcsinh_ref(p, q, x)
        assert arcsinh_pq(PQParams(p, q), x) == pytest.approx(ref, rel=1e-13, abs=1e-13)
