"""Tests for the inverse functions."""

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqtrig import (
    ComputationError,
    DomainError,
    PQParams,
    PQTrigError,
    arccos_pq,
    arcsin_pq,
    arcsinh_pq,
    cos_pq,
    half_pi_pq,
    m_star_pq,
    sin_pq,
    sinh_pq,
)

from pqtrig import inverse
from pqtrig._backend import kernels
from pqtrig.inverse import _roots

from conftest import frac_grid, pq_grid
from oracles import arccos_ref, arcsin_ref, arcsinh_ref


class TestSin:
    def test_classical(self, classic):
        assert sin_pq(classic, math.pi / 6.0) == pytest.approx(0.5, abs=1e-10)

    def test_endpoints(self):
        for pq in (PQParams(2, 2), PQParams(1.25, 5), PQParams(5, 1.25)):
            assert sin_pq(pq, 0.0) == 0.0
            assert sin_pq(pq, half_pi_pq(pq)) == 1.0

    def test_round_trip_from_y(self):
        pq = PQParams(3.0, 1.5)
        s = sin_pq(pq, 0.8)
        assert arcsin_pq(pq, s) == pytest.approx(0.8, abs=1e-10)

    def test_monotone(self, classic):
        hp = half_pi_pq(classic)
        ys = [f * hp for f in frac_grid(40)]
        values = [sin_pq(classic, y) for y in ys]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_domain_error_names_interval(self, classic):
        with pytest.raises(DomainError, match="1.5707963"):
            sin_pq(classic, 2.0)
        with pytest.raises(DomainError):
            sin_pq(classic, -0.1)

    def test_near_top_is_graceful(self, classic):
        hp = half_pi_pq(classic)
        s = sin_pq(classic, hp * (1.0 - 1e-9))
        assert s == pytest.approx(math.sin(hp * (1.0 - 1e-9)), abs=1e-12)

    def test_root_next_to_one(self, classic):
        # a top solve for 1 - s**2 of about 2.5e-18, whose nearest float is
        # s = 1; a solve stepping in s next to 1 cannot step below the
        # bracket's top and bisects
        hp = half_pi_pq(classic)
        assert sin_pq(classic, hp * (1.0 - 1e-9)) == 1.0

    def test_budget_exhaustion(self, backend, monkeypatch):
        # this sinh solve, whose root is near 4.8e5, takes more than 3
        # forward values: a kernel solve given 3 stops with BUDGET and the
        # bracket midpoint, and inverse, given the same budget, raises it as
        # ComputationError with that estimate
        pq = PQParams(1.467633684721445, 1.723962961368573)
        y = 5.71395605204422
        ((root, iters, _terms, status),) = backend.solve("sinh", pq.p, pq.q, [y], 3)
        assert (iters, status) == (3, backend.BUDGET)
        assert backend.solve("sinh", pq.p, pq.q, [y], 100)[0][3] == backend.SOLVED
        monkeypatch.setattr(inverse, "_MAX_ITERS", 3)
        with pytest.raises(ComputationError, match="within 3 iterations") as err:
            sinh_pq(pq, y)
        assert err.value.partial == root

    @pytest.mark.parametrize("p,q,y", [
        (1.000001, 3.4365388968378525, 1.0),
        (1.0 + 1e-10, 3.4365388968378525, 2.0),
        (1.0000000000000002, 3.4365388968378525, 3.5),
    ])
    def test_round_trips_next_to_p_one(self, backend, p, q, y):
        # the conjugate-exponent route missed the 1e-12 residual here by
        # 7.4e-10 and 1.3e-6, one ulp of its root moving 1 - s**q by
        # p/(p - 1) ulps, and at p one ulp above 1 it could not map its root
        # back at all; the top solve's root is t = ln(1/(1 - s**q)) itself
        pq = PQParams(p, q)
        s, c = sin_pq(pq, y), cos_pq(pq, y)
        assert abs(arcsin_ref(p, q, s) - y) <= 1e-12
        assert abs(arccos_ref(p, q, c) - y) <= 1e-12


class TestCos:
    def test_classical(self, classic):
        assert cos_pq(classic, math.pi / 3.0) == pytest.approx(0.5, abs=1e-10)
        assert cos_pq(classic, 0.7) == pytest.approx(math.cos(0.7), abs=1e-10)

    def test_endpoints(self):
        for pq in (PQParams(2, 2), PQParams(4.0 / 3.0, 4.0)):
            assert cos_pq(pq, 0.0) == 1.0
            assert cos_pq(pq, half_pi_pq(pq)) == 0.0

    def test_round_trip_from_y(self):
        pq = PQParams(4.0 / 3.0, 4.0)
        v = cos_pq(pq, 0.5)
        assert arccos_pq(pq, v) == pytest.approx(0.5, abs=1e-10)

    def test_decreasing(self):
        pq = PQParams(1.5, 3.0)
        hp = half_pi_pq(pq)
        values = [cos_pq(pq, f * hp) for f in frac_grid(30)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_root_next_to_zero(self):
        # the root is near 1.9e-22, far too deep for bisection in v to
        # reach within the iteration budget; the tanh-sinh reference of
        # arccos_pq(v) takes the gap to the top as an integral in 1 - t**q
        pq = PQParams(1.069151055122807, 1.8533323187443222)
        hp = half_pi_pq(pq)
        y = 0.9707777342598066 * hp
        v = cos_pq(pq, y)
        assert 0.0 < v < 1e-20
        assert arccos_ref(pq.p, pq.q, v) == pytest.approx(y, abs=5e-12)

    def test_roots_below_the_normal_range(self, backend):
        # by mpmath, the root here has ln(v**p) = -745.506, below the least
        # subnormal, and v = 4.461e-322, which keeps two digits: its
        # neighbouring floats straddle y by about 1e-5.  The top solve's
        # root t = ln(1/v**p) is resolved all the same, so cos_pq returns
        # the subnormal nearest e**(-t/p), never 0, within its budget
        pq = PQParams(1.007526403616098, 3.9487676838225623)
        y = 34.679658140146735
        ((t, _iters, _terms, status),) = inverse.kernels.solve("top", pq.p, pq.q, [y], 100)
        assert status == inverse.kernels.SOLVED
        assert t == pytest.approx(745.506, abs=1e-3)
        assert cos_pq(pq, y) == pytest.approx(4.461e-322, rel=0.01)
        # here v = 4.4e-327 is below the subnormal range and rounds to 0,
        # while s = 1 - 1.4e-326/q rounds to 1
        pq = PQParams(1.002, 1.3)
        ((_t, _iters, _terms, status),) = inverse.kernels.solve("top", pq.p, pq.q, [300.0], 100)
        assert status == inverse.kernels.SOLVED
        assert _roots("sincos", pq, [300.0]) == {300.0: (1.0, 0.0)}
        assert (sin_pq(pq, 300.0), cos_pq(pq, 300.0)) == (1.0, 0.0)

    @pytest.mark.parametrize("p,q,root", [(1000.0, 2.0, 0.973395), (50.0, 50.0, 0.61602),
                                          (3.0, 1.0000001, 8.165e-7)])
    def test_roots_within_the_pad_below_half_pi(self, backend, p, q, root):
        # every y within 1e-12 below half_pi_pq returned the endpoint 0.0.
        # The slope of arccos_pq at these roots is at most 2.4e-6, so the
        # rounding of a forward value near half_pi_pq moves v by up to 3e-4
        # relative: the check is that the tanh-sinh reference of arccos_pq
        # maps v back to y within a few ulps
        pq = PQParams(p, q)
        y = half_pi_pq(pq) - 1e-12
        v = cos_pq(pq, y)
        assert v == pytest.approx(root, rel=1e-3)
        assert abs(arccos_ref(p, q, v) - y) <= 1e-14

    def test_consistent_with_sin_composition(self):
        # cos_pq solves arccos_pq(v) = y, whose defining composition
        # inverts algebraically to v = (1 - sin_pq(y)**q)**(1/p); both
        # routes must land on the same number
        for pq in (PQParams(2, 2), PQParams(1.5, 4), PQParams(3, 2)):
            hp = half_pi_pq(pq)
            for f in (0.1, 0.5, 0.9):
                y = f * hp
                via_sin = math.pow(1.0 - math.pow(sin_pq(pq, y), pq.q), 1.0 / pq.p)
                assert cos_pq(pq, y) == pytest.approx(via_sin, abs=1e-9)


class TestSinh:
    def test_classical(self, classic):
        assert sinh_pq(classic, 1.0) == pytest.approx(math.sinh(1.0), abs=1e-10)

    def test_zero(self):
        assert sinh_pq(PQParams(2, 4), 0.0) == 0.0

    def test_round_trip_from_y(self):
        pq = PQParams(2.0, 4.0)
        s = sinh_pq(pq, 1.5)
        assert arcsinh_pq(pq, s) == pytest.approx(1.5, abs=1e-10)

    def test_domain_error_cites_m_star(self):
        with pytest.raises(DomainError, match="1.854"):
            sinh_pq(PQParams(2.0, 4.0), 2.0)

    def test_unbounded_domain_when_divergent(self, classic):
        assert sinh_pq(classic, 5.0) == pytest.approx(math.sinh(5.0), abs=1e-8)

    def test_near_finite_top(self):
        pq = PQParams(2.0, 4.0)
        ms = m_star_pq(pq).value
        y = ms - 1e-4
        s = sinh_pq(pq, y)
        assert s > 100.0
        assert arcsinh_pq(pq, s) == pytest.approx(y, abs=1e-10)

    def test_monotone(self):
        pq = PQParams(1.25, 1.5)
        ms = m_star_pq(pq).value
        values = [sinh_pq(pq, f * min(ms, 5.0)) for f in frac_grid(30)]
        assert all(b > a for a, b in zip(values, values[1:]))


    def test_unconverged_forward_raises(self):
        # for p > q m_star is infinite and the root of this y is near 4e16,
        # which the forward series reaches and certifies
        pq = PQParams(3.0, 2.0)
        s = sinh_pq(pq, 1e6)
        assert 1e16 < s < 1e17
        assert arcsinh_ref(pq.p, pq.q, s) == pytest.approx(1e6, rel=1e-13)
        # a forward value that its kernel does not certify ends the solve
        # instead, which must not use that value: at q = 1.06e299 sin's cold
        # start for a y above the bracket top 2**(-1/q) is that top, which
        # rounds to 1, where the series stops at z = 1 with an infinite bound
        p, q = 2.0, 1.0599853493818049e299
        ((root, iters, _terms, status),) = kernels.solve("sin", p, q, [1.5], 100)
        assert (root, iters, status) == (1.0, 1, kernels.UNCONVERGED)
        assert kernels.arcsin_series(p, q, root)[3] is False
        table = {}
        inverse._solve(table, "sin", PQParams(p, q), [1.5], "sin")
        assert isinstance(table[1.5], ComputationError) and table[1.5].partial == 1.0
        assert "stopped on an unconverged forward series after 1 iterations" in str(table[1.5])

    def test_root_beyond_the_largest_float_fails_fast(self):
        # q/p near 1 and y next to m_star put the root near e**21000; the
        # unbounded search doubled s for 100 iterations (265,594 node
        # evaluations) and reported an exhausted budget.  Squaring s ends it
        # within a few forward quadratures: here at s ~ 3.5e182, where the
        # integral over [0, s] no longer converges
        pq = PQParams(2.0198897016765383, 2.0227308151081775)
        y = 711.6489984813728  # m_star - 6.4e-11
        with pytest.raises(ComputationError, match=r"after (\d+) iterations") as err:
            sinh_pq(pq, y)
        assert int(re.search(r"after (\d+) iterations", str(err.value)).group(1)) <= 20
        # and where the tail form covers the far end, as the bracket passing
        # the largest float
        pq = PQParams(2.0, 2.004)
        with pytest.raises(ComputationError, match="passed the largest float") as err:
            sinh_pq(pq, m_star_pq(pq).value - 6.4e-11)
        assert int(re.search(r"after (\d+) iterations", str(err.value)).group(1)) <= 20

    def test_root_next_to_finite_top(self):
        # the root is near 1e90; m_star minus the tail integral resolves it
        pq = PQParams(9.0, 9.9)
        y = m_star_pq(pq).value - 1e-8
        s = sinh_pq(pq, y)
        assert 1e89 < s < 1e91
        assert arcsinh_pq(pq, s) == pytest.approx(y, abs=1e-12)


class TestRoundTrips:
    # Grids span [0.02, 0.95] of each domain: beyond that, float64
    # representability itself caps the achievable round-trip accuracy
    # (adjacent representable s values near the singular top straddle more
    # than 1e-9 in y-space for exponents near 1; likewise the w-channel of
    # arccos quantizes v near 0 for p > 2).

    @pytest.mark.parametrize("pq", pq_grid(), ids=lambda pq: f"p{pq.p}-q{pq.q}")
    def test_both_ways_all_pairs(self, pq):
        hp = half_pi_pq(pq)
        ms = m_star_pq(pq)
        cap = min(ms.value, 5.0) if ms.is_finite else 5.0
        for f in frac_grid(12, lo=0.02, hi=0.95):
            x = f
            assert abs(sin_pq(pq, arcsin_pq(pq, x)) - x) <= 1e-9
            assert abs(arcsin_pq(pq, sin_pq(pq, f * hp)) - f * hp) <= 1e-9
            assert abs(cos_pq(pq, arccos_pq(pq, x)) - x) <= 1e-9
            assert abs(arccos_pq(pq, cos_pq(pq, f * hp)) - f * hp) <= 1e-9
            assert abs(sinh_pq(pq, arcsinh_pq(pq, f * 5.0)) - f * 5.0) <= 1e-9
            assert abs(arcsinh_pq(pq, sinh_pq(pq, f * cap)) - f * cap) <= 1e-9


class TestDoubleAngle:
    def test_identity_at_four_thirds_four(self):
        # sin(2x) = 2 sin(x) cos(x)**(1/3) / (1 + 4 sin(x)**4 cos(x)**(4/3))**(1/2)
        pq = PQParams(4.0 / 3.0, 4.0)
        quarter = 0.5 * half_pi_pq(pq)
        for i in range(1, 26):
            x = quarter * i / 26.0
            lhs = sin_pq(pq, 2.0 * x)
            s, c = sin_pq(pq, x), cos_pq(pq, x)
            rhs = 2.0 * s * c ** (1.0 / 3.0) / math.sqrt(1.0 + 4.0 * s ** 4 * c ** (4.0 / 3.0))
            assert abs(lhs - rhs) <= 1e-8


@pytest.mark.parametrize("solve", [sin_pq, cos_pq, sinh_pq])
def test_nan_is_a_domain_error(solve):
    with pytest.raises(DomainError):
        solve(PQParams(2.0, 3.0), math.nan)


@pytest.mark.parametrize("p,q", [(1.5, 1.2486629536330718e16),
                                 (1.018272186166234, 3.052930388671308e17)])
def test_the_half_branch_value_goes_to_the_top_solve(backend, p, q):
    # 2**(-1/q) rounds to 1.0 here, so the half-branch value is 1.0 and
    # half_pi_pq the float above it: as a sin target, y = 1.0 put the
    # series at x = 1, where sin_pq raised and cos_pq leaked a ValueError
    pq = PQParams(p, q)
    assert inverse._half_branch(p, q) == 1.0 < half_pi_pq(pq)
    s, c = sin_pq(pq, 1.0), cos_pq(pq, 1.0)
    assert 0.0 < c < 1.0 and _roots("sincos", pq, [1.0]) == {1.0: (s, c)}
    assert arcsin_pq(pq, s) == pytest.approx(1.0, abs=5e-14)
    assert arccos_pq(pq, c) == pytest.approx(1.0, abs=5e-14)


def _straddles(forward, s, y, slack, sign):
    """Whether floats a few ulps either side of s put forward(.) - y on both sides."""
    below, above = s, s
    for _ in range(4):
        below, above = max(math.nextafter(below, 0.0), 0.0), min(math.nextafter(above, 1.0), 1.0)
    fb, fa = sign * forward(below), sign * forward(above)
    return fb <= sign * y + slack and fa >= sign * y - slack


@settings(max_examples=400, deadline=None)
@given(p=st.floats(1.001, 10.0), q=st.floats(1.001, 10.0), fn=st.sampled_from(["sin", "cos"]),
       data=st.data())
def test_trig_roots_everywhere(p, q, fn, data):
    # each solve returns a root that meets the forward within tolerance, or
    # the nearest representable one (next to the singular end, neighbouring
    # floats straddle the target), or a cos root below the normal range
    pq = PQParams(p, q)
    hp = half_pi_pq(pq)
    y = data.draw(st.one_of(
        st.floats(0.0, 1.0).map(lambda f: f * hp),
        st.floats(0.0, 1e-10).map(lambda e: max(hp - e, 0.0)),
        st.floats(0.0, 1e-10),
    ), label="y")
    solve, forward, sign = (sin_pq, arcsin_pq, 1.0) if fn == "sin" else (cos_pq, arccos_pq, -1.0)
    try:
        root = solve(pq, y)
    except PQTrigError:
        return
    assert 0.0 <= root <= 1.0
    if fn == "cos" and root < 2.2250738585072014e-308:
        return
    slack = 1e-12 + 1e-15 * hp
    assert (abs(forward(pq, root) - y) <= 2e-12 + 1e-15 * hp
            or _straddles(lambda s: forward(pq, s), root, y, slack, sign)), (root, y)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except PQTrigError as err:
        return type(err), str(err)


@settings(max_examples=300, deadline=None)
@given(p=st.floats(1.001, 10.0), q=st.floats(1.001, 10.0),
       fn=st.sampled_from(["sin", "cos", "sinh"]), data=st.data())
def test_one_target_roots_is_the_scalar_call(p, q, fn, data):
    pq = PQParams(p, q)
    top = m_star_pq(pq).as_float() if fn == "sinh" else half_pi_pq(pq)
    y = data.draw(st.one_of(
        st.floats(-1.0, 1.1).map(lambda f: f * min(top, 20.0)),
        st.floats(0.0, 1e-10).map(lambda e: top - e),
        st.just(math.nan),
    ), label="y")
    scalar = {"sin": sin_pq, "cos": cos_pq, "sinh": sinh_pq}[fn]
    table = _roots(fn, pq, [y])
    assert list(table) == [y]
    got = table[y]
    got = (type(got), str(got)) if isinstance(got, PQTrigError) else got
    assert repr(got) == repr(_outcome(scalar, pq, y))


@pytest.mark.parametrize("pq", [PQParams(2, 2), PQParams(1.5, 4), PQParams(4, 1.5)],
                         ids=lambda pq: f"p{pq.p}-q{pq.q}")
def test_block_roots_share_and_certify(pq):
    # one block over both halves of the branch, with repeats, endpoints and
    # out-of-domain targets: the table holds each distinct target once, and
    # each entry is what the scalar call gives or raises, to within the
    # solve tolerance; sin and cos share one root
    hp = half_pi_pq(pq)
    ys = [f * hp for f in frac_grid(25)] + [0.0, hp, 0.3 * hp, -1.0, 2.0 * hp]
    both = _roots("sincos", pq, ys)
    sin_block, cos_block = _roots("sin", pq, ys), _roots("cos", pq, ys)
    assert list(both) == list(sin_block) == list(cos_block) == list(dict.fromkeys(ys))
    for y in ys:
        pair, s, c = both[y], sin_block[y], cos_block[y]
        if isinstance(pair, PQTrigError):
            assert (type(pair), str(pair)) == _outcome(sin_pq, pq, y)
            assert (type(c), str(c)) == _outcome(cos_pq, pq, y)
            continue
        assert pair == (s, c)
        assert abs(arcsin_pq(pq, s) - y) <= 2e-12 or s == sin_pq(pq, y)
        assert c == pytest.approx(cos_pq(pq, y), abs=1e-9)


@settings(max_examples=300, deadline=None)
@given(p=st.floats(1.001, 10.0),
       ratio=st.one_of(st.floats(0.1, 10.0), st.just(1.0),
                       st.floats(-9.0, -2.0).map(lambda e: 1.0 + 10.0 ** e),
                       st.floats(-9.0, -2.0).map(lambda e: 1.0 - 10.0 ** e)),
       f=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_sinh_residuals_against_the_reference(p, ratio, f):
    # each root meets the tanh-sinh reference within 1e-13 relative, or its
    # neighbouring floats straddle y; a root is missing only where it lies
    # beyond the largest float
    q = p * ratio
    if not 1.001 <= q <= 10.0:
        return
    pq = PQParams(p, q)
    y = f * min(m_star_pq(pq).as_float(), 1e3)
    try:
        s = sinh_pq(pq, y)
    except ComputationError as err:
        assert "passed the largest float" in str(err)
        assert arcsinh_ref(p, q, 1.7976931348623157e308) < y * (1.0 + 1e-13)
        return
    slack = 1e-13 * max(1.0, y)
    assert (abs(arcsinh_ref(p, q, s) - y) <= slack
            or arcsinh_ref(p, q, s * (1.0 - 4e-16)) <= y + slack
            and arcsinh_ref(p, q, s * (1.0 + 4e-16)) >= y - slack), (s, y)
