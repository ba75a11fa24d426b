"""Tests for the Hölder mean."""

import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pqtrig import DomainError, holder_mean
from pqtrig.means import _gmeans, _holder_means

from oracles import holder_mean_ref

positive = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False)
moderate = st.floats(min_value=1e-2, max_value=1e2, allow_nan=False, allow_infinity=False)
orders = st.floats(min_value=-30.0, max_value=30.0, allow_nan=False, allow_infinity=False)


def test_geometric():
    assert holder_mean(0.0, 4.0, 9.0) == pytest.approx(6.0, abs=1e-14)


def test_arithmetic():
    assert holder_mean(1.0, 2.0, 4.0) == pytest.approx(3.0, abs=1e-14)


def test_harmonic():
    assert holder_mean(-1.0, 2.0, 4.0) == pytest.approx(8.0 / 3.0, abs=1e-14)


def test_order_is_a_finite_float():
    assert holder_mean(2.0, 3.0, 3.0) == 3.0
    for order in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError, match="Hölder order must be a finite real"):
            holder_mean(order, 3.0, 3.0)


@pytest.mark.parametrize("a,b", [(0.0, 1.0), (-2.0, 3.0), (1.0, -1.0)])
def test_rejects_nonpositive(a, b):
    with pytest.raises(DomainError):
        holder_mean(1.0, a, b)


@given(orders, positive, positive)
@settings(deadline=None)
def test_symmetry(r, a, b):
    assert holder_mean(r, a, b) == holder_mean(r, b, a)


@given(orders, positive)
@settings(deadline=None)
def test_idempotence(r, a):
    assert holder_mean(r, a, a) == a


@given(orders, positive, positive)
@example(0.0, 1.0000000000000002e-06, 1e-06)  # the geometric mean rounded past max(a, b)
@settings(deadline=None)
def test_bounds(r, a, b):
    m = holder_mean(r, a, b)
    assert min(a, b) <= m <= max(a, b)


@given(positive, positive)
@settings(deadline=None)
def test_monotone_in_order(a, b):
    assume(abs(a - b) > 1e-3 * max(a, b))
    grid = (-2.0, -1.0, 0.0, 0.5, 1.0, 2.0)
    values = [holder_mean(r, a, b) for r in grid]
    assert all(v2 > v1 for v1, v2 in zip(values, values[1:]))


@pytest.mark.parametrize("lam", [0.5, 3.0])
def test_homogeneity_tight(lam):
    # 4-ulp agreement at sweep-scale magnitudes
    for r in (-2.0, -1.0, 0.0, 0.5, 1.0, 2.0):
        for a, b in ((2.0, 4.0), (0.3, 0.7), (1.0, 9.0)):
            lhs = holder_mean(r, lam * a, lam * b)
            rhs = lam * holder_mean(r, a, b)
            assert abs(lhs - rhs) <= 4 * math.ulp(rhs)


@pytest.mark.parametrize("lam", [0.5, 3.0])
@given(orders, moderate, moderate)
@settings(deadline=None)
def test_homogeneity_fuzz(lam, r, a, b):
    lhs = holder_mean(r, lam * a, lam * b)
    rhs = lam * holder_mean(r, a, b)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_continuity_at_zero():
    for a, b in ((4.0, 9.0), (0.3, 7.0), (2.0, 2.5)):
        g = math.sqrt(a * b)
        assert abs(holder_mean(1e-6, a, b) - g) <= 1e-5 * g
        assert abs(holder_mean(-1e-6, a, b) - g) <= 1e-5 * g


def test_extreme_orders_stay_finite():
    for r in (50.0, -50.0):
        m = holder_mean(r, 0.0157, 1.0)
        assert math.isfinite(m)
        assert 0.0157 <= m <= 1.0
    # +/- 50 approaches max/min
    assert holder_mean(50.0, 2.0, 5.0) == pytest.approx(5.0, rel=0.05)
    assert holder_mean(-50.0, 2.0, 5.0) == pytest.approx(2.0, rel=0.05)


def test_the_column_mean_is_the_scalar_mean_bit_for_bit():
    # one column per order over every pair: equal arguments, pairs of
    # neighbouring floats, the extremes of the normal and the subnormal
    # range, and seeded pairs log-uniform on [1e-300, 1e300]
    rng = random.Random(22)
    tiny, huge = 2.2250738585072014e-308, 1.7976931348623157e308
    pairs = [(a, a) for a in (5e-324, tiny, 0.3, 1.0, 7.5, huge)]
    pairs += [(1.0, math.nextafter(1.0, 2.0)), (math.nextafter(0.5, 0.0), 0.5),
              (tiny, huge), (huge, tiny), (5e-324, 1.0), (1e290, 5e-324), (tiny, 1.0),
              (1.0, huge)]
    pairs += [(10.0 ** rng.uniform(-300, 300), 10.0 ** rng.uniform(-300, 300))
              for _ in range(300)]
    orders = [0.0, 1e-13, -1e-13, 9.99e-13, -9.99e-13, 1e-12, -1e-12, 1e-11, -1e-11,
              0.5, -0.5, 1.0, -1.0, 2.0, -3.0, 30.0, -30.0]
    orders += [rng.uniform(-40.0, 40.0) for _ in range(20)]
    a_col, b_col = [a for a, _ in pairs], [b for _, b in pairs]
    for r in orders:
        column = _holder_means(r, a_col, b_col)
        assert [m.hex() for m in column] == [holder_mean(r, a, b).hex() for a, b in pairs], r


def test_the_geometric_mean_of_equal_arguments_is_the_argument():
    # a mean check's lhs argument on the diagonal is r itself; where r*r
    # leaves the normal range, sqrt(r) sqrt(r) gave 9.999999999999999e+299
    # for 1e300
    col = [5e-324, 1e-310, 2.2250738585072014e-308, 1e-200, 0.3, 1.0, 1e200, 1e300,
           1.7976931348623157e308]
    assert _gmeans(col, col) == col


# every order's regime: the geometric mean, each decade of tiny orders
# where the old formula cancelled, and both extremes
REF_ORDERS = [0.0] + [sign * 10.0 ** -k for k in (300, 250, 200, 150, 100, 50, 30, 20, 16, 14,
                                                    12, 10, 8, 6, 4) for sign in (1.0, -1.0)]
REF_ORDERS += [0.5, -0.5, 1.0, -1.0, 30.0, -30.0]
_HUGE = 1.7976931348623157e308


def _ref_pairs(lo_exp, hi_exp, seed, extra):
    rng = random.Random(seed)
    return extra + [(10.0 ** rng.uniform(lo_exp, hi_exp), 10.0 ** rng.uniform(lo_exp, hi_exp))
                    for _ in range(24)]


@pytest.mark.parametrize("order", REF_ORDERS)
def test_holder_mean_is_within_1e_14_of_the_decimal_reference_on_moderate_pairs(order):
    # log1p(t) - ln 2 from t near 1 cancelled near order 0: 8e-5 relative
    # at |r| = 1e-12, where holder_mean(1e-12, 0.3, 0.9) was 0.5196562
    pairs = _ref_pairs(-10.0, 10.0, 23, [(0.3, 0.9), (1e-10, 1e10), (1e10, 1e-10),
                                          (1.0, math.nextafter(1.0, 2.0)), (2.0, 3.0)])
    for a, b in pairs:
        ref = holder_mean_ref(order, a, b)
        assert abs(holder_mean(order, a, b) - ref) <= 1e-14 * ref, (a, b)


@pytest.mark.parametrize("order", REF_ORDERS)
def test_holder_mean_is_within_1e_12_of_the_decimal_reference_on_any_pair(order):
    # an overflow of exp raised OverflowError at extreme ratios; a result
    # below the normal range is held to one step of the subnormal grid
    tiny = 2.2250738585072014e-308
    pairs = _ref_pairs(-323.3, 308.25, 24, [
        (5e-324, _HUGE), (_HUGE, 5e-324), (tiny, _HUGE), (5e-324, 1.0), (1e-310, 1.0),
        (5e-324, 1e-320), (math.nextafter(_HUGE, 0.0), _HUGE), (1e-300, 1e300)])
    for a, b in pairs:
        ref = holder_mean_ref(order, a, b)
        assert abs(holder_mean(order, a, b) - ref) <= 1e-12 * ref + 5e-324, (a, b)


@pytest.mark.parametrize("order", REF_ORDERS)
def test_holder_mean_of_close_pairs_is_within_1e_15_of_the_decimal_reference(order):
    # d = ln(other/m) from the ratio: ln(other) - ln(m) would carry the
    # rounding of two logarithms of up to 23 into a d near 0
    rng = random.Random(25)
    for x in (10.0 ** rng.uniform(-10.0, 10.0) for _ in range(24)):
        a, b = x, x * (1.0 + rng.uniform(-1e-3, 1e-3))
        ref = holder_mean_ref(order, a, b)
        assert abs(holder_mean(order, a, b) - ref) <= 1e-15 * ref, (a, b)


def test_an_extreme_ratio_next_to_order_zero_is_a_float():
    # raised OverflowError, no PQTrigError
    assert holder_mean(-1e-12, 5e-324, _HUGE) == pytest.approx(2.98e-8, rel=1e-3)
