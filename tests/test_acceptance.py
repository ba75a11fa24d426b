"""Acceptance suite: one criterion per test, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import json
import math

from pqtrig import (
    G_fn,
    GridAxis,
    Gstar_fn,
    PQParams,
    arccos_pq,
    arcsin_pq,
    arcsin_series_oracle,
    arcsinh_pq,
    cos_pq,
    counterexample_search,
    half_pi_pq,
    m_star_pq,
    run_sweep,
    sin_pq,
    sinh_pq,
)
from pqtrig.cli import CSV_HEADER, main as cli_main

from conftest import PQ_VALUES, frac_grid, pq_grid
from oracles import arcsin_ref, beta_half_pi, beta_m_star

CLASSIC = PQParams(2.0, 2.0)


def report(num, name, ok, detail=""):
    print(f"[AC{num:02d}] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"AC{num} {name}: {detail}"


def linspace(lo, hi, n):
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def test_ac01_classical_equivalence():
    worst = 0.0
    for x in linspace(0.0, 1.0, 500):
        worst = max(worst, abs(arcsin_pq(CLASSIC, x) - math.asin(x)))
        worst = max(worst, abs(arccos_pq(CLASSIC, x) - math.acos(x)))
    for y in linspace(0.0, math.pi / 2.0, 500):
        worst = max(worst, abs(sin_pq(CLASSIC, y) - math.sin(y)))
        worst = max(worst, abs(cos_pq(CLASSIC, y) - math.cos(y)))
    for x in linspace(0.0, 10.0, 500):
        worst = max(worst, abs(arcsinh_pq(CLASSIC, x) - math.asinh(x)))
    for y in linspace(0.0, 3.0, 500):
        worst = max(worst, abs(sinh_pq(CLASSIC, y) - math.sinh(y)))
    report(1, "classical-case equivalence at (2,2)", worst <= 1e-10, f"worst |err| = {worst:.3e}")


def test_ac02_beta_identity_oracle():
    worst_hp = 0.0
    worst_ms = 0.0
    for pq in pq_grid():
        worst_hp = max(worst_hp, abs(half_pi_pq(pq) - beta_half_pi(pq.p, pq.q)))
        if pq.p < pq.q:
            worst_ms = max(worst_ms, abs(m_star_pq(pq).value - beta_m_star(pq.p, pq.q)))
    ok = worst_hp <= 1e-10 and worst_ms <= 1e-9
    report(2, "Beta-identity oracle over the 5x5 grid", ok,
           f"worst half_pi err = {worst_hp:.3e}, worst m_star err = {worst_ms:.3e}")


def test_ac03_series_oracle_equivalence():
    # arcsin_pq and the public series oracle against the tanh-sinh
    # reference, which shares no method with the series kernels
    worst = 0.0
    for pq in pq_grid():
        for x in linspace(0.05, 0.9, 10):
            ref = arcsin_ref(pq.p, pq.q, x)
            worst = max(worst, abs(arcsin_pq(pq, x) - ref),
                        abs(arcsin_series_oracle(pq, x, 400) - ref))
    report(3, "series-oracle equivalence for x <= 0.9", worst <= 1e-9, f"worst = {worst:.3e}")


def test_ac04_round_trips():
    # grids span [0.02, 0.95] of each domain; closer to the corners,
    # adjacent representable arguments straddle more than 1e-9 on the
    # other side, so no float64 method can round-trip tighter there
    worst = 0.0
    fracs = frac_grid(50, lo=0.02, hi=0.95)
    for pq in pq_grid():
        hp = half_pi_pq(pq)
        ms = m_star_pq(pq)
        cap = min(ms.value, 5.0) if ms.is_finite else 5.0
        for f in fracs:
            worst = max(worst, abs(sin_pq(pq, arcsin_pq(pq, f)) - f))
            worst = max(worst, abs(arcsin_pq(pq, sin_pq(pq, f * hp)) - f * hp))
            worst = max(worst, abs(cos_pq(pq, arccos_pq(pq, f)) - f))
            worst = max(worst, abs(arccos_pq(pq, cos_pq(pq, f * hp)) - f * hp))
            worst = max(worst, abs(sinh_pq(pq, arcsinh_pq(pq, f * 5.0)) - f * 5.0))
            worst = max(worst, abs(arcsinh_pq(pq, sinh_pq(pq, f * cap)) - f * cap))
    report(4, "round trips over 50-point grids", worst <= 1e-9, f"worst = {worst:.3e}")


def _theorem_sweep(check):
    worst = math.inf
    worst_diag = 0.0
    n_points = 0
    for p in PQ_VALUES:
        for q in PQ_VALUES:
            rep = run_sweep(
                check,
                [GridAxis("p", p, p, 1), GridAxis("q", q, q, 1),
                 GridAxis("r", 0.01, 0.99, 15), GridAxis("s", 0.01, 0.99, 15)],
            )
            assert not rep.errors, rep.errors
            n_points += len(rep.verdicts)
            worst = min(worst, rep.worst_margin)
            for v in rep.verdicts:
                if v.at["r"] == v.at["s"]:
                    worst_diag = max(worst_diag, abs(v.margin))
    return worst, worst_diag, n_points


def test_ac05_theorem_geometric_mean_inequalities():
    worst_sin, diag_sin, n_sin = _theorem_sweep("thm11-sin")
    worst_sinh, diag_sinh, n_sinh = _theorem_sweep("thm11-sinh")
    ok = (
        worst_sin >= -1e-9 and worst_sinh >= -1e-9
        and diag_sin <= 1e-9 and diag_sinh <= 1e-9
        and n_sin == n_sinh == 25 * 225
    )
    report(5, "geometric-mean inequalities for sin and sinh", ok,
           f"worst margins {worst_sin:.3e}/{worst_sinh:.3e}, "
           f"diagonal |margin| {diag_sin:.2e}/{diag_sinh:.2e}")


def test_ac06_rational_bounds():
    from pqtrig import check_at

    worst21 = math.inf
    worst22 = math.inf
    sides_covered = True
    for pq in pq_grid():
        for i in range(1, 50):
            worst21 = min(worst21, check_at("lemma21", pq, 0.02 * i).margin)
        regions = set()
        for i in range(1, 101):
            v = check_at("lemma22", pq, 0.1 * i)
            worst22 = min(worst22, v.margin)
            if "region" in v.at:
                regions.add(v.at["region"])
        if pq.p < pq.q:
            sides_covered &= {"below_x0", "above_x0"} <= regions
    ok = worst21 > 1e-12 and worst22 > 1e-12 and sides_covered
    report(6, "rational bounds for arcsin and arcsinh", ok,
           f"min margins {worst21:.3e}/{worst22:.3e}, both x0 sides covered: {sides_covered}")


def test_ac07_m_star_dichotomy():
    ok = True
    detail = []
    for pq in pq_grid():
        ms = m_star_pq(pq)
        if ms.is_finite != (pq.p < pq.q):
            ok = False
            detail.append(f"(p={pq.p}, q={pq.q}) finite={ms.is_finite}")
        if ms.is_finite and not ms.value > 1.0:
            ok = False
            detail.append(f"(p={pq.p}, q={pq.q}) m*={ms.value}")
    report(7, "m_star finite exactly when p < q, and then > 1", ok, "; ".join(detail))


def test_ac08_sharpness_of_order_zero():
    ok = True
    detail = []
    for order in (0.5, 1.0, 2.0):
        res = counterexample_search(CLASSIC, order, budget=40000)
        found = res.violating is not None and res.satisfying is not None
        ok &= found
        if found:
            detail.append(f"ord {order}: margins {res.violating.margin:.2e}/{res.satisfying.margin:.2e}")
        else:
            detail.append(f"ord {order}: witness missing")
    for order in (-1.0, 0.0):
        rep = run_sweep(
            "gm-sin",
            [GridAxis("p", 2.0, 2.0, 1), GridAxis("q", 2.0, 2.0, 1),
             GridAxis("r", 0.01, 0.99, 40), GridAxis("s", 0.01, 0.99, 40)],
            order=order,
        )
        ok &= rep.all_satisfied and not rep.errors
        detail.append(f"ord {order}: worst {rep.worst_margin:.2e}")
    report(8, "sharpness threshold at order zero", ok, "; ".join(detail))


def test_ac09_proof_machinery():
    ok = abs(G_fn(CLASSIC, 1e-6) + 1.0) <= 1e-3
    detail = [f"G(1e-6)+1 = {G_fn(CLASSIC, 1e-6) + 1.0:.2e}"]
    for pq in (CLASSIC, PQParams(1.25, 5.0), PQParams(5.0, 1.25)):
        for i in range(1, 40):
            ok &= G_fn(pq, i / 40.0) > -1.0
        for x in (0.01, 0.1, 1.0, 5.0, 20.0):
            ok &= Gstar_fn(pq, x) > 1.0

    def probe(check, order):
        axes = [GridAxis("p", 2.0, 2.0, 1), GridAxis("q", 2.0, 2.0, 1),
                GridAxis("x", 0.01, 0.99, 100)]
        return run_sweep(check, axes, order=order, x_max=20.0).all_satisfied

    for order in (-2.0, -0.5, 0.0):
        ok &= probe("f-monotone", order)
    ok &= not probe("f-monotone", 1.0)
    for order in (0.0, 1.0, 3.0):
        ok &= probe("fstar-monotone", order)
    ok &= not probe("fstar-monotone", -1.0)
    report(9, "proof machinery: G, G*, F, F*", ok, "; ".join(detail))


def test_ac10_double_angle_identity():
    pq = PQParams(4.0 / 3.0, 4.0)
    quarter = 0.5 * half_pi_pq(pq)
    worst = 0.0
    for i in range(1, 26):
        x = quarter * i / 26.0
        lhs = sin_pq(pq, 2.0 * x)
        s, c = sin_pq(pq, x), cos_pq(pq, x)
        rhs = 2.0 * s * math.pow(c, 1.0 / 3.0) / math.sqrt(
            1.0 + 4.0 * s ** 4 * math.pow(c, 4.0 / 3.0)
        )
        worst = max(worst, abs(lhs - rhs))
    report(10, "double-angle identity at (4/3, 4)", worst <= 1e-8, f"worst = {worst:.3e}")


def test_ac11_cli_contract(tmp_path, capsys):
    ok = True
    detail = []

    code = cli_main(["verify", "--check", "thm11-sin", "--p", "2", "--q", "3", "--grid", "8"])
    ok &= code == 0
    detail.append(f"verify ok -> {code}")

    code = cli_main(["verify", "--check", "gm-sin", "--order", "1",
                     "--p", "2", "--q", "2", "--grid", "12"])
    ok &= code == 1
    detail.append(f"violations -> {code}")

    code = cli_main(["verify", "--check", "no-such-check", "--p", "2", "--q", "2"])
    ok &= code == 2
    detail.append(f"usage -> {code}")
    capsys.readouterr()

    args = ["sweep", "--check", "thm11-sin", "--p-range", "1.5:3:2",
            "--q-range", "1.5:3:2", "--grid", "6", "--format", "csv"]
    f1, f2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    ok &= cli_main([*args, "--output", str(f1)]) == 0
    ok &= cli_main([*args, "--output", str(f2)]) == 0
    b1, b2 = f1.read_bytes(), f2.read_bytes()
    ok &= b1 == b2
    detail.append(f"byte-identical csv: {b1 == b2}")
    ok &= b1.decode().splitlines()[0] == CSV_HEADER

    jf = tmp_path / "run.json"
    ok &= cli_main([*args[:-2], "--format", "json", "--output", str(jf)]) == 0
    obj = json.loads(jf.read_text())
    ok &= obj["all_satisfied"] is True
    detail.append("json round-trips")

    report(11, "CLI exit codes, CSV determinism, JSON", ok, "; ".join(detail))
