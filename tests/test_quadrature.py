"""Tests for the generic tanh-sinh engine."""

import math

import pytest

from pqtrig import ComputationError, DomainError, integrate_singular

from conftest import PQ_VALUES
from oracles import beta, beta_half_pi


def flipped_root_integrand(p, q):
    """(1 - (1-s)**q)**(-1/p): the defining integrand reflected so its
    singular point sits at s = 0, where the engine samples accurately."""

    def f(s):
        return math.pow(-math.expm1(q * math.log1p(-s)), -1.0 / p)

    return f


class TestIntegrateSingular:
    def test_constant(self):
        res = integrate_singular(lambda t: 1.0, 0.0, 1.0)
        assert res.converged
        assert res.value == pytest.approx(1.0, abs=1e-13)

    def test_classical_arcsin_naive_form(self):
        # singular at the *right* endpoint evaluated naively: accuracy is
        # floored by representability near t = 1 (see module docstring)
        res = integrate_singular(lambda t: (1.0 - t * t) ** -0.5, 0.0, 1.0)
        assert res.value == pytest.approx(math.pi / 2.0, abs=1e-7)

    def test_classical_arcsin_flipped_form(self):
        res = integrate_singular(flipped_root_integrand(2.0, 2.0), 0.0, 1.0)
        assert res.converged
        assert res.value == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_quartic_root_singularity_vs_beta(self):
        # same integral as (1 - t**4)**(-3/4) on [0, 1]
        res = integrate_singular(flipped_root_integrand(4.0 / 3.0, 4.0), 0.0, 1.0)
        assert res.converged
        assert res.value == pytest.approx(beta(0.25, 0.25) / 4.0, abs=1e-10)
        assert res.value == pytest.approx(1.8540746773, abs=1e-9)

    @pytest.mark.parametrize("p", PQ_VALUES)
    @pytest.mark.parametrize("q", PQ_VALUES)
    def test_beta_identity_grid(self, p, q):
        res = integrate_singular(flipped_root_integrand(p, q), 0.0, 1.0)
        assert res.converged
        assert abs(res.value - beta_half_pi(p, q)) <= 1e-10

    @pytest.mark.parametrize("alpha", [-1.0, 2.0, 10.0])
    @pytest.mark.parametrize(
        "f",
        [flipped_root_integrand(2.0, 3.0), math.exp, lambda t: 1.0 / (1.0 + t * t)],
        ids=["root-singular", "exp", "rational"],
    )
    def test_linearity(self, alpha, f):
        base = integrate_singular(f, 0.0, 1.0)
        scaled = integrate_singular(lambda s: alpha * f(s), 0.0, 1.0)
        assert abs(scaled.value - alpha * base.value) <= 2e-12

    @pytest.mark.parametrize("c", [0.25, 0.5, 0.9])
    def test_interval_additivity(self, c):
        # (1 - t**3)**(-1/2) on [0, 1], reflected; the singular piece is
        # the one containing s = 0
        f = flipped_root_integrand(2.0, 3.0)
        whole = integrate_singular(f, 0.0, 1.0).value
        left = integrate_singular(f, 0.0, c).value
        right = integrate_singular(f, c, 1.0).value
        assert abs(left + right - whole) <= 4e-12

    def test_interior_singularity_free_interval(self):
        res = integrate_singular(math.exp, 0.0, 1.0)
        assert res.converged
        assert res.value == pytest.approx(math.e - 1.0, abs=1e-12)

    def test_nan_is_hard_error(self):
        with pytest.raises(ComputationError):
            integrate_singular(lambda t: math.nan, 0.0, 1.0)

    def test_inf_is_hard_error(self):
        with pytest.raises(ComputationError):
            integrate_singular(lambda t: math.inf if t > 0.5 else 1.0, 0.25, 0.75)

    def test_bad_interval(self):
        with pytest.raises(DomainError):
            integrate_singular(lambda t: 1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            integrate_singular(lambda t: 1.0, 0.0, math.inf)

    def test_unreachable_tolerance_reports_not_converged(self):
        # the naive right-endpoint form stalls above the fixed 1e-12 within
        # its 12 levels (estimate 8.0e-12), and says so
        res = integrate_singular(lambda t: (1.0 - t * t) ** -0.5, 0.0, 1.0)
        assert not res.converged
        assert 1e-12 < res.error_estimate < 1e-11
        assert res.evaluations <= 50_479
        assert res.value == pytest.approx(math.pi / 2.0, abs=1e-6)

    def test_converged_respects_tolerance_invariant(self):
        res = integrate_singular(flipped_root_integrand(2.0, 2.0), 0.0, 1.0)
        assert res.converged
        assert res.error_estimate <= 1e-12

    def test_concurrent_use(self):
        from concurrent.futures import ThreadPoolExecutor

        f = flipped_root_integrand(1.5, 2.5)
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda _: integrate_singular(f, 0.0, 1.0).value, range(32)))
        assert len(set(results)) == 1

