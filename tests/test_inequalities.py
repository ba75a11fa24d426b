"""Tests for the inequality lab: margins, probes, search and sweep runner."""

import math
from functools import partial

import pytest

from pqtrig import (
    ComputationError,
    DomainError,
    F_fn,
    F_monotonicity_probe,
    Fstar_fn,
    Fstar_monotonicity_probe,
    G_fn,
    GridAxis,
    Gstar_fn,
    InequalityVerdict,
    PQParams,
    PQTrigError,
    counterexample_search,
    double_angle_margin,
    gm_general_sin_margin,
    gm_general_sinh_margin,
    lemma21_margin,
    lemma22_margin,
    lemma23_check,
    run_sweep,
    thm11_sin_margin,
    thm11_sinh_margin,
)

from pqtrig.inequalities import CHECKS

from conftest import pq_grid
from oracles import arcsinh_ref


class TestLemma21:
    def test_classical_midpoint(self, classic):
        v = lemma21_margin(classic, 0.5)
        # closed forms at p = q = 2
        assert v.lhs == pytest.approx(math.pi / 6.0, abs=1e-10)
        assert v.rhs == pytest.approx(0.5 * math.sqrt(0.75), abs=1e-12)
        assert v.margin == pytest.approx(math.pi / 6.0 - 0.5 * math.sqrt(0.75), abs=1e-10)
        assert v.satisfied

    def test_both_sides_vanish_at_origin(self, classic):
        v = lemma21_margin(classic, 1e-6)
        assert 0.0 <= v.margin < 1e-6
        assert v.satisfied

    def test_strict_positivity_spot(self):
        assert lemma21_margin(PQParams(1.5, 4.0), 0.9).margin > 0.0

    def test_grid_strictly_positive(self):
        for pq in pq_grid():
            for i in range(1, 50):
                assert lemma21_margin(pq, 0.02 * i).margin > 1e-12

    def test_domain(self, classic):
        for x in (0.0, 1.0, -0.5):
            with pytest.raises(DomainError):
                lemma21_margin(classic, x)


class TestLemma22:
    def test_classical_at_one(self, classic):
        v = lemma22_margin(classic, 1.0)
        assert v.lhs == pytest.approx(1.0 / math.log(1.0 + math.sqrt(2.0)), abs=1e-10)
        assert v.rhs == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
        assert v.margin > 0.0
        assert "region" not in v.at  # p >= q has no sign change

    def test_sign_change_point(self):
        # at x0 the bound's numerator vanishes
        pq = PQParams(2.0, 4.0)
        v = lemma22_margin(pq, 1.0)  # x0 = (2/2)**(1/4) = 1
        assert v.rhs == pytest.approx(0.0, abs=1e-15)
        assert v.at["region"] == "at_x0"
        assert v.margin == pytest.approx(v.lhs, abs=1e-15)

    def test_above_sign_change_trivial(self):
        pq = PQParams(2.0, 4.0)
        v = lemma22_margin(pq, 3.0)
        assert v.rhs < 0.0 < v.lhs
        assert v.at["region"] == "above_x0"
        assert v.satisfied

    def test_below_sign_change(self):
        pq = PQParams(2.0, 4.0)
        v = lemma22_margin(pq, 0.5)
        assert v.at["region"] == "below_x0"
        assert v.margin > 0.0

    def test_grid_strictly_positive(self):
        for pq in pq_grid():
            for i in range(1, 101):
                assert lemma22_margin(pq, 0.1 * i).margin > 1e-12

    def test_domain(self, classic):
        with pytest.raises(DomainError):
            lemma22_margin(classic, 0.0)


class TestLemma23:
    def test_divergent_satisfied(self, classic):
        v = lemma23_check(classic)
        assert math.isinf(v.lhs) and v.satisfied
        assert math.isinf(v.at["m_star"])

    def test_finite_value(self):
        v = lemma23_check(PQParams(2.0, 4.0))
        assert v.lhs == pytest.approx(1.854, abs=1e-3)
        assert v.margin > 0.0

    def test_close_exponents(self):
        v = lemma23_check(PQParams(1.1, 1.2))
        assert v.lhs > 1.0 and v.satisfied


class TestTheorem11:
    def test_sin_equality_on_diagonal(self):
        for pq in (PQParams(2, 2), PQParams(1.5, 3), PQParams(4, 1.5)):
            r = 0.7 * (1.5 if pq.p == 2 else 1.0)
            v = thm11_sin_margin(pq, r, r)
            assert abs(v.margin) <= 1e-9

    def test_sin_classical_value(self, classic):
        v = thm11_sin_margin(classic, 0.3, 1.2)
        expected = math.sin(0.6) - math.sqrt(math.sin(0.3) * math.sin(1.2))
        assert v.margin == pytest.approx(expected, abs=1e-9)
        assert v.margin > 0.03

    def test_sin_near_the_top(self):
        pq = PQParams(1.5, 3.0)
        from pqtrig import half_pi_pq

        hp = half_pi_pq(pq)
        v = thm11_sin_margin(pq, 0.1, hp - 1e-3)
        assert v.margin >= -1e-9

    def test_sinh_equality_on_diagonal(self):
        for pq in (PQParams(2, 2), PQParams(2, 4)):
            v = thm11_sinh_margin(pq, 1.0, 1.0)
            assert abs(v.margin) <= 1e-9

    def test_sinh_classical_value(self, classic):
        v = thm11_sinh_margin(classic, 0.5, 2.0)
        expected = math.sqrt(math.sinh(0.5) * math.sinh(2.0)) - math.sinh(1.0)
        assert v.margin == pytest.approx(expected, abs=1e-9)
        assert v.margin > 0.19

    def test_sinh_near_finite_top(self):
        v = thm11_sinh_margin(PQParams(2.0, 4.0), 0.2, 1.8)
        assert v.margin >= -1e-9

    def test_domain(self, classic):
        with pytest.raises(DomainError):
            thm11_sin_margin(classic, 0.0, 1.0)
        with pytest.raises(DomainError):
            thm11_sinh_margin(PQParams(2, 4), 0.5, 1.9)


class TestGeneralizedMeans:
    def test_order_zero_reduces_to_theorem(self, classic):
        v0 = gm_general_sin_margin(classic, 0.0, 0.3, 1.2)
        vt = thm11_sin_margin(classic, 0.3, 1.2)
        assert v0.margin == pytest.approx(vt.margin, abs=1e-14)
        h0 = gm_general_sinh_margin(classic, 0.0, 0.5, 2.0)
        ht = thm11_sinh_margin(classic, 0.5, 2.0)
        assert h0.margin == pytest.approx(ht.margin, abs=1e-14)

    def test_lower_order_weakens_sin_rhs(self, classic):
        v_neg = gm_general_sin_margin(classic, -1.0, 0.3, 1.2)
        v_zero = gm_general_sin_margin(classic, 0.0, 0.3, 1.2)
        assert v_neg.margin >= v_zero.margin

    def test_margin_monotone_in_order(self, classic):
        margins = [
            gm_general_sin_margin(classic, r, 0.4, 1.1).margin
            for r in (-2.0, -1.0, 0.0, 0.5, 1.0, 2.0)
        ]
        assert all(m2 <= m1 for m1, m2 in zip(margins, margins[1:]))

    def test_higher_order_strengthens_sinh_rhs(self, classic):
        v2 = gm_general_sinh_margin(classic, 2.0, 0.5, 2.0)
        v0 = gm_general_sinh_margin(classic, 0.0, 0.5, 2.0)
        assert v2.margin >= v0.margin

    @pytest.mark.parametrize("order", [0.0, 1.0, 3.0])
    def test_sinh_mean_inequality_holds_for_nonnegative_orders(self, order):
        report = run_sweep(
            "gm-sinh",
            [
                GridAxis("p", 1.25, 5.0, 3),
                GridAxis("q", 1.25, 5.0, 3),
                GridAxis("r", 0.01, 0.99, 8),
                GridAxis("s", 0.01, 0.99, 8),
            ],
            order=order,
        )
        assert not report.errors
        assert report.all_satisfied

    def test_positive_order_violated_somewhere(self, classic):
        res = counterexample_search(classic, 1.0, budget=2500)
        assert res.violating is not None
        # translate the witness into sine space and check the margin there
        from pqtrig import arcsin_pq

        w = res.violating
        r, s = arcsin_pq(classic, w.x), arcsin_pq(classic, w.y)
        v = gm_general_sin_margin(classic, 1.0, r, s)
        assert v.margin < 0.0
        assert not v.satisfied


class TestProofMachinery:
    def test_G_limit_at_zero(self, classic):
        assert G_fn(classic, 1e-6) == pytest.approx(-1.0, abs=1e-3)

    def test_G_blows_up_at_one(self, classic):
        assert G_fn(classic, 0.999) > 10.0

    def test_G_classical_midpoint(self, classic):
        expected = (0.25 / (2.0 * 0.75)) * 2.0 - 0.5 / (math.asin(0.5) * math.sqrt(0.75))
        assert G_fn(classic, 0.5) == pytest.approx(expected, abs=1e-10)

    def test_G_range_lower_bound(self):
        for pq in (PQParams(2, 2), PQParams(1.25, 5), PQParams(5, 1.25)):
            for i in range(1, 40):
                assert G_fn(pq, i / 40.0) > -1.0

    def test_Gstar_limit_at_zero(self, classic):
        assert Gstar_fn(classic, 1e-6) == pytest.approx(1.0, abs=1e-3)

    def test_Gstar_classical_value(self, classic):
        expected = 1.0 / (math.log(1.0 + math.sqrt(2.0)) * math.sqrt(2.0)) + 0.5
        assert Gstar_fn(classic, 1.0) == pytest.approx(expected, abs=1e-10)

    def test_Gstar_exceeds_one(self):
        assert Gstar_fn(PQParams(3.0, 2.0), 5.0) > 1.0
        for pq in (PQParams(2, 2), PQParams(1.25, 5), PQParams(5, 1.25)):
            for x in (0.01, 0.1, 1.0, 3.0, 10.0, 40.0):
                assert Gstar_fn(pq, x) > 1.0

    def test_domains(self, classic):
        with pytest.raises(DomainError):
            G_fn(classic, 1.0)
        with pytest.raises(DomainError):
            Gstar_fn(classic, 0.0)


class TestMonotonicityProbes:
    @pytest.mark.parametrize("order", [-2.0, -0.5, 0.0])
    def test_F_increasing_for_nonpositive_order(self, classic, order):
        report = F_monotonicity_probe(classic, order, 100)
        assert report.all_satisfied
        assert report.worst_margin > 0.0

    def test_F_not_monotone_for_positive_order(self, classic):
        report = F_monotonicity_probe(classic, 1.0, 100)
        assert not report.all_satisfied
        assert report.counterexamples

    @pytest.mark.parametrize("order", [0.0, 1.0, 3.0])
    def test_Fstar_decreasing_for_nonnegative_order(self, classic, order):
        report = Fstar_monotonicity_probe(classic, order, 100, x_max=20.0)
        assert report.all_satisfied

    def test_Fstar_not_decreasing_for_negative_order(self, classic):
        report = Fstar_monotonicity_probe(classic, -1.0, 100, x_max=20.0)
        assert not report.all_satisfied

    @pytest.mark.parametrize("pq", [PQParams(1.25, 5.0), PQParams(5.0, 1.25), PQParams(3.0, 3.0)])
    def test_threshold_orders_beyond_classical_pair(self, pq):
        assert F_monotonicity_probe(pq, 0.0, 60).all_satisfied
        assert Fstar_monotonicity_probe(pq, 0.0, 60, x_max=20.0).all_satisfied

    def test_grid_validation(self, classic):
        with pytest.raises(DomainError):
            F_monotonicity_probe(classic, 0.0, 5)


class TestCounterexampleSearch:
    @pytest.mark.parametrize("order", [0.5, 1.0, 2.0])
    def test_finds_both_witnesses(self, classic, order):
        res = counterexample_search(classic, order, budget=2500)
        assert res.violating is not None and res.violating.margin < -1e-11
        assert res.satisfying is not None and res.satisfying.margin > 1e-11

    def test_tiny_positive_order(self, classic):
        res = counterexample_search(classic, 0.01, budget=2500)
        assert res.violating is not None
        assert res.satisfying is not None

    def test_witnesses_off_diagonal(self, classic):
        res = counterexample_search(classic, 1.0, budget=900)
        for w in (res.violating, res.satisfying):
            assert abs(w.x - w.y) > 1e-9

    def test_rejects_nonpositive_order(self, classic):
        with pytest.raises(DomainError):
            counterexample_search(classic, 0.0)

    def test_rejects_small_budget(self, classic):
        with pytest.raises(DomainError):
            counterexample_search(classic, 1.0, budget=99)


class TestDoubleAngleCheck:
    def test_identity_margin(self):
        pq = PQParams(4.0 / 3.0, 4.0)
        v = double_angle_margin(pq, 0.4)
        assert v.satisfied
        assert abs(v.lhs - v.rhs) <= 1e-8

    def test_domain(self):
        pq = PQParams(4.0 / 3.0, 4.0)
        with pytest.raises(DomainError):
            double_angle_margin(pq, 2.0)


@pytest.mark.parametrize("lo,hi", [(0.01, 0.99), (0.05, 1.0), (1.25, 5.0), (-3.0, 7.1)])
def test_grid_axis_values_run_from_lo_to_hi_exactly(lo, hi):
    # lo + (hi - lo) * (n - 1) / (n - 1) can round below hi:
    # GridAxis("s", 0.05, 1.0, 7) ended at 0.9999999999999999
    for n in range(2, 60):
        values = GridAxis("x", lo, hi, n).values()
        assert (len(values), values[0], values[-1]) == (n, lo, hi)
        assert values == sorted(values)


class TestRunSweep:
    def test_empty_axes_rejected(self):
        with pytest.raises(DomainError):
            run_sweep("lemma21", [])

    def test_unknown_check_rejected(self):
        with pytest.raises(DomainError):
            run_sweep("nope", [GridAxis("p", 2, 2, 1), GridAxis("q", 2, 2, 1)])

    def test_axis_names_enforced(self):
        with pytest.raises(DomainError):
            run_sweep(
                "lemma21",
                [GridAxis("q", 2, 2, 1), GridAxis("p", 2, 2, 1), GridAxis("x", 0.1, 0.9, 5)],
            )

    def test_thm11_sin_all_satisfied(self):
        report = run_sweep(
            "thm11-sin",
            [
                GridAxis("p", 2.0, 2.0, 1),
                GridAxis("q", 3.0, 3.0, 1),
                GridAxis("r", 0.01, 0.99, 5),
                GridAxis("s", 0.01, 0.99, 5),
            ],
        )
        assert len(report.verdicts) == 25
        assert report.all_satisfied
        assert report.worst_margin >= -1e-9
        assert not report.counterexamples

    def test_row_major_and_deterministic(self):
        axes = [
            GridAxis("p", 1.5, 2.5, 2),
            GridAxis("q", 2.0, 3.0, 2),
            GridAxis("x", 0.1, 0.9, 3),
        ]
        r1 = run_sweep("lemma21", axes)
        r2 = run_sweep("lemma21", axes)
        assert [v.at for v in r1.verdicts] == [v.at for v in r2.verdicts]
        assert [v.margin for v in r1.verdicts] == [v.margin for v in r2.verdicts]
        ps = [v.at["p"] for v in r1.verdicts]
        assert ps == sorted(ps)

    def test_threads_preserve_order_and_values(self):
        axes = [
            GridAxis("p", 1.5, 5.0, 3),
            GridAxis("q", 1.5, 5.0, 3),
            GridAxis("r", 0.01, 0.99, 4),
            GridAxis("s", 0.01, 0.99, 4),
        ]
        serial = run_sweep("thm11-sinh", axes)
        threaded = run_sweep("thm11-sinh", axes, threads=4)
        assert [v.margin for v in serial.verdicts] == [v.margin for v in threaded.verdicts]
        assert [v.at for v in serial.verdicts] == [v.at for v in threaded.verdicts]

    def test_per_point_errors_recorded_not_fatal(self):
        # the top fraction 1.0 maps onto the closed endpoint of lemma21's
        # open domain, so those points must fail and be recorded
        report = run_sweep(
            "lemma21",
            [
                GridAxis("p", 2.0, 2.0, 1),
                GridAxis("q", 2.0, 2.0, 1),
                GridAxis("x", 0.5, 1.0, 3),
            ],
        )
        assert len(report.errors) == 1
        assert len(report.verdicts) == 2
        assert not report.all_satisfied or report.errors  # exit-1 signal for the CLI

    @pytest.mark.parametrize("threads", [0, 2])
    def test_bug_in_a_point_check_is_raised_not_recorded(self, monkeypatch, threads):
        from pqtrig import inequalities

        def broken(pq, args, order, tol):
            raise ZeroDivisionError("bug in a point check")

        monkeypatch.setattr(inequalities.CHECKS["lemma21"], "cell", broken)
        axes = [GridAxis("p", 2.0, 2.0, 1), GridAxis("q", 2.0, 2.0, 1), GridAxis("x", 0.1, 0.9, 3)]
        with pytest.raises(ZeroDivisionError):
            run_sweep("lemma21", axes, threads=threads)

    def test_gm_sin_positive_order_finds_violations(self, classic):
        report = run_sweep(
            "gm-sin",
            [
                GridAxis("p", 2.0, 2.0, 1),
                GridAxis("q", 2.0, 2.0, 1),
                GridAxis("r", 0.01, 0.99, 12),
                GridAxis("s", 0.01, 0.99, 12),
            ],
            order=1.0,
        )
        assert not report.all_satisfied
        assert report.counterexamples

    def test_gm_requires_order(self):
        with pytest.raises(DomainError):
            run_sweep(
                "gm-sin",
                [
                    GridAxis("p", 2.0, 2.0, 1),
                    GridAxis("q", 2.0, 2.0, 1),
                    GridAxis("r", 0.01, 0.99, 3),
                    GridAxis("s", 0.01, 0.99, 3),
                ],
            )

    def test_order_is_checked_for_every_check_and_recorded_where_used(self):
        inner = [GridAxis("r", 0.1, 0.9, 3), GridAxis("s", 0.1, 0.9, 3)]
        axes = [GridAxis("p", 2.0, 2.0, 1), GridAxis("q", 3.0, 3.0, 1)]
        assert run_sweep("thm11-sin", axes + inner, order=0.5).order is None
        assert run_sweep("lemma23", axes, order=0.5).order is None
        assert run_sweep("gm-sin", axes + inner, order=0.5).order == 0.5
        with pytest.raises(DomainError):
            run_sweep("lemma23", axes, order=math.nan)

    def test_probe_sweep(self, classic):
        report = run_sweep(
            "fstar-monotone",
            [
                GridAxis("p", 2.0, 2.0, 1),
                GridAxis("q", 2.0, 2.0, 1),
                GridAxis("x", 0.01, 0.99, 50),
            ],
            order=0.0,
            x_max=20.0,
        )
        assert report.all_satisfied
        assert len(report.verdicts) == 49

    def test_probe_grid_below_ten_raises_before_any_cell(self):
        axes = [GridAxis("p", 1.25, 5.0, 3), GridAxis("q", 1.25, 5.0, 4),
                GridAxis("x", 0.01, 0.99, 4)]
        for check in ("f-monotone", "fstar-monotone"):
            with pytest.raises(DomainError,
                               match=f"^{check} needs at least 10 values on axis 'x', got 4$"):
                run_sweep(check, axes, order=0.0)

    @pytest.mark.parametrize("check,order,x_max", [("f-monotone", -0.5, 1.0),
                                                   ("fstar-monotone", 0.5, 20.0)])
    def test_probe_sweep_honours_its_inner_axis(self, check, order, x_max):
        x = GridAxis("x", 0.4, 0.6, 10)
        report = run_sweep(check, [GridAxis("p", 2.0, 3.0, 2), GridAxis("q", 3.0, 3.0, 1), x],
                           order=order, x_max=x_max)
        xs = [f * x_max for f in x.values()]
        pairs = list(zip(xs, xs[1:]))
        assert [(v.at["x_lo"], v.at["x_hi"]) for v in report.verdicts] == pairs * 2
        assert report.grid[2] == x
        assert report.all_satisfied and not report.errors

    def test_probe_records_a_failure_at_one_x_for_the_pairs_that_use_it(self, monkeypatch):
        from pqtrig import ComputationError, inequalities

        def arcsin_failing_at_half(pq, x):
            if x == 0.5:
                raise ComputationError("no convergence at 0.5")
            return arcsin_pq(pq, x)

        arcsin_pq = inequalities.arcsin_pq
        monkeypatch.setattr(inequalities, "arcsin_pq", arcsin_failing_at_half)
        # x on 0.25..0.75 in 11 values: pairs 4 and 5 of each cell use 0.5
        x = GridAxis("x", 0.25, 0.75, 11)
        xs = x.values()
        assert xs[5] == 0.5
        report = run_sweep("f-monotone", [GridAxis("p", 2.0, 3.0, 2), GridAxis("q", 3.0, 3.0, 1),
                                          x], order=-0.5)
        assert [e.index for e in report.errors] == [4, 5, 14, 15]
        assert [e.at for e in report.errors[:2]] == [
            {"p": 2.0, "q": 3.0, "x_lo": xs[4], "x_hi": 0.5},
            {"p": 2.0, "q": 3.0, "x_lo": 0.5, "x_hi": xs[6]},
        ]
        assert {e.message for e in report.errors} == {"ComputationError: no convergence at 0.5"}
        kept = [(lo, hi) for lo, hi in zip(xs, xs[1:]) if 0.5 not in (lo, hi)]
        assert [(v.at["x_lo"], v.at["x_hi"]) for v in report.verdicts] == kept * 2
        assert report.all_satisfied

    def test_lemma23_needs_no_inner_axis(self):
        report = run_sweep(
            "lemma23", [GridAxis("p", 1.25, 5.0, 3), GridAxis("q", 1.25, 5.0, 3)]
        )
        assert len(report.verdicts) == 9
        assert report.all_satisfied

    def test_double_angle_sweep(self):
        report = run_sweep(
            "double-angle",
            [
                GridAxis("p", 4.0 / 3.0, 4.0 / 3.0, 1),
                GridAxis("q", 4.0, 4.0, 1),
                GridAxis("x", 0.01, 0.99, 8),
            ],
        )
        assert report.all_satisfied


# every check, with axes that give each cell a few points (the inner
# fraction 1.0 lands on an open domain's endpoint, so some points fail)
SWEEPS = [
    ("lemma21", None, (("x", 0.05, 1.0, 5),)),
    ("lemma22", None, (("x", 0.05, 1.0, 5),)),
    ("lemma23", None, ()),
    ("thm11-sin", None, (("r", 0.05, 1.0, 4), ("s", 0.05, 1.0, 4))),
    ("thm11-sinh", None, (("r", 0.05, 0.95, 4), ("s", 0.05, 0.95, 4))),
    ("gm-sin", 1.0, (("r", 0.05, 0.95, 4), ("s", 0.05, 0.95, 4))),
    ("gm-sinh", 1.0, (("r", 0.05, 0.95, 4), ("s", 0.05, 0.95, 4))),
    ("double-angle", None, (("x", 0.05, 1.0, 6),)),
    ("f-monotone", -0.5, (("x", 0.01, 0.99, 12),)),
    ("fstar-monotone", 0.5, (("x", 0.01, 0.99, 12),)),
]

SCALAR = {
    "lemma21": lambda pq, at, order: lemma21_margin(pq, at["x"]),
    "lemma22": lambda pq, at, order: lemma22_margin(pq, at["x"]),
    "lemma23": lambda pq, at, order: lemma23_check(pq),
    "thm11-sin": lambda pq, at, order: thm11_sin_margin(pq, at["r"], at["s"]),
    "thm11-sinh": lambda pq, at, order: thm11_sinh_margin(pq, at["r"], at["s"]),
    "gm-sin": lambda pq, at, order: gm_general_sin_margin(pq, order, at["r"], at["s"]),
    "gm-sinh": lambda pq, at, order: gm_general_sinh_margin(pq, order, at["r"], at["s"]),
    "double-angle": lambda pq, at, order: double_angle_margin(pq, at["x"]),
}


def _sweep_axes(check, inner):
    if check == "double-angle":
        pq_axes = [GridAxis("p", 4.0 / 3.0, 4.0 / 3.0, 1), GridAxis("q", 4.0, 4.0, 1)]
    else:
        pq_axes = [GridAxis("p", 1.5, 3.0, 2), GridAxis("q", 1.25, 4.0, 2)]
    return pq_axes + [GridAxis(*a) for a in inner]


@pytest.mark.parametrize("check,order,inner", [s for s in SWEEPS if s[0] in SCALAR],
                         ids=[s[0] for s in SWEEPS if s[0] in SCALAR])
def test_block_verdicts_match_scalar_checks(check, order, inner):
    # a cell is solved as one block, but each root depends only on
    # (p, q, y): every verdict is the scalar check's, bit for bit, and
    # each recorded error is the one the scalar raises
    report = run_sweep(check, _sweep_axes(check, inner), order=order)
    assert report.verdicts
    for v in report.verdicts:
        assert v == SCALAR[check](PQParams(v.at["p"], v.at["q"]), v.at, order)
    for e in report.errors:
        with pytest.raises(DomainError) as err:
            SCALAR[check](PQParams(e.at["p"], e.at["q"]), e.at, order)
        assert e.message == f"DomainError: {err.value}"


@pytest.mark.parametrize("check,order,inner", SWEEPS, ids=[s[0] for s in SWEEPS])
def test_threads_map_cells_to_the_same_report(check, order, inner):
    axes = _sweep_axes(check, inner)
    serial = run_sweep(check, axes, order=order, x_max=20.0)
    threaded = run_sweep(check, axes, order=order, x_max=20.0, threads=2)
    assert threaded.verdicts == serial.verdicts
    assert threaded.errors == serial.errors
    assert serial.verdicts


def test_sweep_errors_keep_their_row_major_index():
    # 2 x 2 cells of 3 points; the last point of each cell is the open
    # domain's endpoint x = 1
    report = run_sweep("lemma21", [GridAxis("p", 1.5, 3.0, 2), GridAxis("q", 1.25, 4.0, 2),
                                   GridAxis("x", 0.5, 1.0, 3)])
    assert [e.index for e in report.errors] == [2, 5, 8, 11]
    assert report.errors[1].at == {"p": 1.5, "q": 4.0, "x": 1.0}
    assert report.errors[1].message == "DomainError: lemma21 needs x in (0, 1), got 1.0"


# ---------------------------------------------------------------------------
# each cell's column pass against the scalar checks, point by point, on
# grids that put out-of-domain and in-domain points into the same cell


def _probe_pair(check, pq, at, order):
    """One probe verdict from F_fn or Fstar_fn, raising the error of the
    first value it reads."""
    fn, increasing = (F_fn, True) if check == "f-monotone" else (Fstar_fn, False)
    first, second = (at["x_hi"], at["x_lo"]) if increasing else (at["x_lo"], at["x_hi"])
    lhs = fn(pq, order, first)
    rhs = fn(pq, order, second)
    return InequalityVerdict.make(lhs, rhs, lhs - rhs, {**at, "order": order})


POINT = {**SCALAR, "f-monotone": partial(_probe_pair, "f-monotone"),
         "fstar-monotone": partial(_probe_pair, "fstar-monotone")}

# the top fraction 1.0 puts r or s on half_pi (sin), on m_star where it is
# below the cap (sinh at p = 1.5, q = 4) and x on 1 (lemma21, f-monotone)
# or on half_pi / 2 (double-angle)
_RS = (("r", 0.25, 1.0, 4), ("s", 0.25, 1.0, 4))
EDGE_SWEEPS = [
    ("lemma21", None, (("x", 0.2, 1.0, 5),), True),
    ("lemma22", None, (("x", 0.2, 1.0, 5),), False),
    ("lemma23", None, (), False),
    ("thm11-sin", None, _RS, True),
    ("thm11-sinh", None, _RS, True),
    ("gm-sin", -1.0, _RS, True),
    ("gm-sin", 0.0, _RS, True),
    ("gm-sin", 1.0, _RS, True),
    ("gm-sinh", 1.0, _RS, True),
    ("gm-sinh", -2.0, _RS, True),
    ("double-angle", None, (("x", 0.2, 1.0, 5),), True),
    ("f-monotone", -0.5, (("x", 0.1, 1.0, 10),), True),
    ("fstar-monotone", 0.5, (("x", 0.1, 1.0, 10),), False),
]
_X_MAX = 20.0


def _scalar_report(check, axes, order):
    """The verdicts, and the (index, at, message) of the errors, that the
    scalar checks give at each point of the grid, in row-major order."""
    entry = CHECKS[check]
    verdicts, errors, index = [], [], 0
    for p in axes[0].values():
        for q in axes[1].values():
            pq = PQParams(p, q)
            scale = entry.scale(pq, _X_MAX)
            for pt in entry.points([[f * scale for f in ax.values()] for ax in axes[2:]]):
                at = {"p": p, "q": q, **dict(zip(entry.args, pt))}
                try:
                    verdicts.append(POINT[check](pq, at, order))
                except PQTrigError as exc:
                    errors.append((index, at, f"{type(exc).__name__}: {exc}"))
                index += 1
    return verdicts, errors


@pytest.mark.parametrize("check,order,inner,mixed", EDGE_SWEEPS,
                         ids=[f"{s[0]}-{s[1]}" for s in EDGE_SWEEPS])
def test_column_cells_are_the_scalar_checks_where_some_points_fail(
        backend, check, order, inner, mixed):
    axes = _sweep_axes(check, inner)
    report = run_sweep(check, axes, order=order, x_max=_X_MAX)
    verdicts, errors = _scalar_report(check, axes, order)
    assert report.verdicts == verdicts
    assert [(e.index, e.at, e.message) for e in report.errors] == errors
    assert report.verdicts and bool(report.errors) == mixed


@pytest.mark.parametrize("check,order", [("thm11-sin", None), ("gm-sin", 1.0),
                                         ("gm-sinh", 1.0), ("double-angle", None)])
def test_a_failed_root_is_the_error_of_each_point_that_reads_it(
        backend, monkeypatch, check, order):
    # the roots at the inner fractions 0.5, 0.75 and 1.0 fail in every
    # cell; a point that reads one gets the error of the first it reads,
    # in row-major order among the points that the domain test rejects
    from pqtrig import inequalities

    roots = inequalities._roots

    def failing(fn, pq, ys):
        table = roots(fn, pq, ys)
        for f in (0.5, 0.75, 1.0):
            bad = f * CHECKS[check].scale(pq, _X_MAX)
            if bad in table:
                table[bad] = ComputationError(f"no root at fraction {f}")
        return table

    monkeypatch.setattr(inequalities, "_roots", failing)
    inner = (("x", 0.125, 1.0, 8),) if check == "double-angle" else _RS
    axes = _sweep_axes(check, inner)
    report = run_sweep(check, axes, order=order, x_max=_X_MAX)
    verdicts, errors = _scalar_report(check, axes, order)
    assert report.verdicts == verdicts
    assert [(e.index, e.at, e.message) for e in report.errors] == errors
    kinds = {e.message.partition(":")[0] for e in report.errors}
    assert kinds == {"DomainError", "ComputationError"} and report.verdicts
    # points that read two failed roots: double-angle reads sin_pq(2x)
    # before sin_pq(x), a mean check r before s
    pq = PQParams(axes[0].values()[0], axes[1].values()[0])
    scale = CHECKS[check].scale(pq, _X_MAX)
    reads = {(0.5,): 1.0} if check == "double-angle" else {(0.5, 0.75): 0.5, (0.75, 0.5): 0.75}
    message = {tuple(e.at.values()): e.message for e in report.errors}
    for fractions, first in reads.items():
        at = (pq.p, pq.q, *(f * scale for f in fractions))
        assert message[at] == f"ComputationError: no root at fraction {first}"


class TestOverflowStaysInTheErrorContract:
    """Calls whose x**q overflows a float: each returns a number or raises a
    PQTrigError, where OverflowError used to escape."""

    def test_fstar_far_out(self):
        # F* = x**(1 - ord) / (arcsinh_pq(x) (1 + x**q)**(1/p)), in log space
        pq, x = PQParams(2.0, 3.0), 1e120
        lx = math.log(x)
        ref = math.exp(0.5 * lx - math.log(arcsinh_ref(2.0, 3.0, x)) - 1.5 * lx)
        assert Fstar_fn(pq, 0.5, x) == pytest.approx(ref, rel=1e-12)

    def test_gstar_far_out(self):
        # the first term vanishes and the second tends to q/p
        assert Gstar_fn(PQParams(2.0, 3.0), 1e120) == pytest.approx(1.5, rel=1e-15)

    def test_lemma22_far_out(self):
        # rhs = ((p - q) x**q + p) / (p (1 + x**q)**(1 - 1/p)), about
        # -x**(q/p) / 2 = -5e179 here
        v = lemma22_margin(PQParams(2.0, 3.0), 1e120)
        assert v.rhs == pytest.approx(-0.5 * 1e180, rel=1e-12)
        assert v.satisfied and v.lhs > 0.0

    def test_a_true_overflow_raises(self):
        # 10**401 / (arcsinh_pq(10) 10**1.5) is beyond the largest float
        with pytest.raises(ComputationError, match="overflows a float"):
            Fstar_fn(PQParams(2.0, 3.0), -400.0, 10.0)

    def test_thm11_sinh_names_its_argument(self):
        # sqrt(r) sqrt(s) where r s overflows: the root of sinh_pq at 1e300
        # lies beyond the largest float for p > q
        with pytest.raises(ComputationError, match=r"y=9\.99.*e\+299\) bracket passed"):
            thm11_sinh_margin(PQParams(3.0, 2.0), 1e300, 1e300)


BAD_TOLERANCES = [math.nan, -1.0, math.inf]


def _no_solves(*args, **kwargs):
    raise AssertionError("a value was computed before the arguments were checked")


@pytest.mark.parametrize("tolerance", BAD_TOLERANCES)
def test_scalar_check_rejects_a_tolerance_that_is_not_finite_and_nonnegative(
        tolerance, monkeypatch):
    # nan used to make lemma21 report satisfied=False at a proven point
    monkeypatch.setattr("pqtrig.inequalities.arcsin_pq", _no_solves)
    with pytest.raises(DomainError, match="tolerance must be a finite number >= 0"):
        lemma21_margin(PQParams(2.0, 3.0), 0.5, tolerance=tolerance)


@pytest.mark.parametrize("tolerance", BAD_TOLERANCES)
def test_sweep_rejects_a_tolerance_that_is_not_finite_and_nonnegative(tolerance, monkeypatch):
    # inf used to make a gm-sin order-1 sweep report all satisfied, hiding
    # its counterexamples
    monkeypatch.setattr("pqtrig.inequalities._roots", _no_solves)
    with pytest.raises(DomainError, match="tolerance must be a finite number >= 0"):
        run_sweep("gm-sin", _sweep_axes("gm-sin", SWEEPS[5][2]), order=1.0, tolerance=tolerance)


def test_a_zero_tolerance_is_accepted():
    assert lemma21_margin(PQParams(2.0, 3.0), 0.5, tolerance=0.0).satisfied


@pytest.mark.parametrize("x_max", [math.inf, math.nan, 0.0, -1.0])
def test_sweep_rejects_an_x_max_that_is_not_finite_and_positive(x_max, monkeypatch):
    # inf used to record one error per point
    monkeypatch.setattr("pqtrig.inequalities.arcsinh_pq", _no_solves)
    with pytest.raises(DomainError, match="x_max must be finite and positive"):
        run_sweep("fstar-monotone", _sweep_axes("fstar-monotone", SWEEPS[9][2]), order=0.5,
                  x_max=x_max)
    with pytest.raises(DomainError, match="x_max must be finite and positive"):
        Fstar_monotonicity_probe(PQParams(2.0, 3.0), 0.5, 10, x_max)


_PQ23 = PQParams(2.0, 3.0)
# each public entry that takes a Hölder order, called with the order given
TAKES_AN_ORDER = {
    "run_sweep": lambda order: run_sweep("gm-sin", _sweep_axes("gm-sin", SWEEPS[5][2]),
                                         order=order),
    "run_sweep-lemma21": lambda order: run_sweep("lemma21", _sweep_axes("lemma21", SWEEPS[0][2]),
                                                 order=order),
    "F_monotonicity_probe": lambda order: F_monotonicity_probe(_PQ23, order, 10),
    "Fstar_monotonicity_probe": lambda order: Fstar_monotonicity_probe(_PQ23, order, 10),
    "F_fn": lambda order: F_fn(_PQ23, order, 0.5),
    "Fstar_fn": lambda order: Fstar_fn(_PQ23, order, 0.5),
    "gm_general_sin_margin": lambda order: gm_general_sin_margin(_PQ23, order, 0.5, 0.7),
    "gm_general_sinh_margin": lambda order: gm_general_sinh_margin(_PQ23, order, 0.5, 0.7),
    "counterexample_search": lambda order: counterexample_search(_PQ23, order, 100),
}


@pytest.mark.parametrize("order", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", TAKES_AN_ORDER)
def test_an_order_that_is_not_finite_raises_before_anything_is_computed(
        entry, order, monkeypatch):
    # F_fn and Fstar_fn returned nan at a nan order, so the probes listed
    # counterexamples to a proven claim, and the gm checks recorded one
    # error per point
    for name in ("arcsin_pq", "arcsinh_pq", "half_pi_pq", "m_star_pq", "_roots"):
        monkeypatch.setattr(f"pqtrig.inequalities.{name}", _no_solves)
    with pytest.raises(DomainError, match="Hölder order must be a finite real, got "):
        TAKES_AN_ORDER[entry](order)
