"""Agreement between the compiled and pure-Python series kernels."""

import math
import os
import subprocess
import sys
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pqtrig
from pqtrig import backend_name, functions, inverse
from pqtrig import _dequad_py as pure
from pqtrig.errors import PQTrigError

from oracles import arcsin_ref, beta_half_pi, beta_tail

compiled = pytest.importorskip(
    "pqtrig._dequad_c", reason="compiled kernel extension not built"
)

PAIRS = [(1.25, 1.25), (1.25, 5.0), (2.0, 2.0), (4.0 / 3.0, 4.0), (5.0, 1.25), (3.0, 2.0)]


def test_backend_identifiers():
    assert pure.BACKEND == "python"
    assert compiled.BACKEND == "c"
    assert backend_name() in ("c", "python")
    for status in ("SOLVED", "BUDGET", "UNCONVERGED", "OVERFLOW"):
        assert getattr(compiled, status) == getattr(pure, status)


def _public(module):
    """The names a kernel module defines for its callers."""
    return {
        name for name, value in vars(module).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
        and getattr(value, "__module__", module.__name__) == module.__name__
    }


def test_backends_export_the_same_names():
    # a mode added to or deleted from one twin only fails here
    assert _public(compiled) == _public(pure) == {
        "BACKEND", "arcsin_series", "arcsinh_series", "solve",
        "SOLVED", "BUDGET", "UNCONVERGED", "OVERFLOW",
    }


def test_env_var_forces_pure(monkeypatch):
    import importlib

    from pqtrig import _backend

    monkeypatch.setenv("PQTRIG_PURE_PYTHON", "1")
    reloaded = importlib.reload(_backend)
    try:
        assert reloaded.backend_name() == "python"
    finally:
        monkeypatch.delenv("PQTRIG_PURE_PYTHON")
        importlib.reload(_backend)


def test_missing_extension_falls_back(monkeypatch):
    import importlib
    import sys

    import pqtrig
    from pqtrig import _backend

    monkeypatch.delenv("PQTRIG_PURE_PYTHON", raising=False)
    # a None entry makes the import machinery raise ImportError; the
    # package attribute must go too or `from . import` short-circuits
    monkeypatch.setitem(sys.modules, "pqtrig._dequad_c", None)
    monkeypatch.delattr(pqtrig, "_dequad_c")
    reloaded = importlib.reload(_backend)
    try:
        assert reloaded.backend_name() == "python"
    finally:
        monkeypatch.undo()
        importlib.reload(_backend)


def _agree(vc, vp):
    """Two kernel results (value, bound, terms, converged) agree: the same
    terms and verdict, values within 1e-15 relative."""
    assert vc[2:] == vp[2:], (vc, vp)
    assert vc[0] == pytest.approx(vp[0], rel=1e-15, abs=0.0), (vc, vp)
    assert vc[1] == pytest.approx(vp[1], rel=1e-12, abs=0.0), (vc, vp)


@pytest.mark.parametrize("p,q", PAIRS)
@pytest.mark.parametrize("x", [0.0, 5e-324, 1e-6, 0.25, 0.9, 0.999999, 1.0])
def test_arcsin_kernels_agree(p, q, x):
    # beyond x**q = 1/2, where the callers never take it, the series still
    # agrees, converged or stopped at its term cap
    _agree(compiled.arcsin_series(p, q, x), pure.arcsin_series(p, q, x))


@pytest.mark.parametrize("p,q", PAIRS)
@pytest.mark.parametrize("x", [0.0, 5e-324, 0.5, 1.0, 10.0, 1e4])
def test_arcsinh_kernels_agree(p, q, x):
    vc, vp = compiled.arcsinh_series(p, q, x), pure.arcsinh_series(p, q, x)
    _agree(vc, vp)
    assert vc[3]


@pytest.mark.parametrize("p,q", [(1.25, 1.5), (2.0, 4.0), (1.1, 1.2), (3.0, 5.0)])
def test_mstar_kernels_agree(p, q):
    # where m_star is finite, the far form of arcsinh_pq approaches it:
    # m_star minus the tail, an incomplete-Beta series in 1/(1 + x**q)
    ms = functions._m_star(p, q)
    for x in (2.0, 1e3, 1e90, 1e300):
        vc, vp = compiled.arcsinh_series(p, q, x), pure.arcsinh_series(p, q, x)
        _agree(vc, vp)
        assert vc[0] == pytest.approx(ms - beta_tail(p, q, x), rel=2e-15)


@pytest.mark.parametrize("p,q", PAIRS + [(1.1, 3.0), (10.0, 1.01)])
def test_arcsin_kernels_reach_the_singular_end(p, q):
    # the series itself does not reach t = 1, where the integrand diverges:
    # at x = 1 it stops unconverged at its term cap on both backends.  The
    # top half of the branch is the series at the conjugate exponents,
    # which arcsin_pq takes on either backend up to the singular end
    vc, vp = compiled.arcsin_series(p, q, 1.0), pure.arcsin_series(p, q, 1.0)
    assert vc[2:] == vp[2:] and vc[3] is False
    pq = pqtrig.PQParams(p, q)
    hp = beta_half_pi(p, q)
    below = math.nextafter(1.0, 0.0)
    for backend in (compiled, pure):
        assert _outcome(backend, pqtrig.arcsin_pq, pq, 1.0) == pytest.approx(hp, rel=1e-12)
        assert _outcome(backend, pqtrig.arcsin_pq, pq, below) == pytest.approx(
            arcsin_ref(p, q, below), rel=1e-14)


def test_evaluation_counts_match():
    # the same stopping rules sum the same terms: at the top of the bottom
    # half of the branch, and for arcsinh on both sides of the form switch
    for p, q in PAIRS:
        calls = [("arcsin_series", math.pow(0.5, 1.0 / q))]
        calls += [("arcsinh_series", math.pow(xq, 1.0 / q)) for xq in (0.5, 1.6, 1.7, 1e3)]
        for kernel, x in calls:
            vc, vp = getattr(compiled, kernel)(p, q, x), getattr(pure, kernel)(p, q, x)
            assert vc[2] == vp[2] > 0, (kernel, p, q, x)


def _same(a, b, tol):
    if not (math.isfinite(a) and math.isfinite(b)):
        return repr(a) == repr(b)
    return a == pytest.approx(b, abs=tol)


EXPONENT = st.floats(1.0, 10.0, exclude_min=True)


@settings(max_examples=300, deadline=None)
@given(p=EXPONENT, q=EXPONENT, data=st.data())
def test_kernels_agree_everywhere(p, q, data):
    x = data.draw(st.floats(0.0, 1.0), label="arcsin x")
    y = data.draw(st.one_of(st.floats(0.0, 1e4), st.floats(0.0, 1.7976931348623157e308)),
                  label="arcsinh x")
    # the top half of the branch is arcsin_series at the conjugate exponents
    calls = [("arcsin_series", (p, q, x)), ("arcsinh_series", (p, q, y)),
             ("arcsin_series", (q / (q - 1.0), p / (p - 1.0), x))]
    for kernel, args in calls:
        vc = getattr(compiled, kernel)(*args)
        vp = getattr(pure, kernel)(*args)
        assert vc[2:] == vp[2:], (kernel, args, vc, vp)
        assert _same(vc[0], vp[0], 0.0) or vc[0] == pytest.approx(vp[0], rel=1e-15), (
            kernel, args, vc, vp)


def _outcome(backend, fn, *args):
    """What ``fn`` returns with ``backend``'s kernels, or the error class it raises."""
    saved = functions.kernels, inverse.kernels
    functions.kernels = inverse.kernels = backend
    try:
        return fn(*args)
    except PQTrigError as err:
        return type(err)
    finally:
        functions.kernels, inverse.kernels = saved


@settings(max_examples=300, deadline=None)
@given(p=EXPONENT, q=EXPONENT, mode=st.sampled_from(["sin", "cos", "sinh"]), data=st.data())
def test_solvers_agree_everywhere(p, q, mode, data):
    pq = pqtrig.PQParams(p, q)
    # the top of the branch, and the span that y is drawn from
    if mode == "sinh":
        top = pqtrig.m_star_pq(pq).as_float()
        span = min(top, 50.0)
    else:
        top = span = pqtrig.half_pi_pq(pq)
    y = data.draw(st.one_of(
        st.just(0.0),
        st.floats(0.0, 1.0).map(lambda f: f * span),
        st.floats(0.0, 1e-10).map(lambda e: max(span - e, 0.0)),
    ), label="y")
    if mode == "sinh" and y >= top:
        return  # m_star itself is outside the domain
    fn = getattr(pqtrig, f"{mode}_pq")
    rc = _outcome(compiled, fn, pq, y)
    rp = _outcome(pure, fn, pq, y)
    if isinstance(rc, type) or isinstance(rp, type):
        assert rc is rp, (rc, rp)
    else:
        assert rc == pytest.approx(rp, abs=1e-13)
    if 0.0 < y < top - 1e-12:
        # the same steps: iteration and term counts and status
        args = ("sin" if mode == "cos" else mode, p, q, [y], 1e-12, 100)
        (sc,), (sp,) = compiled.solve(*args), pure.solve(*args)
        assert sc[1:] == sp[1:], (sc, sp)
        assert sc[0] == pytest.approx(sp[0], abs=1e-13)


# the top of each public function's argument domain; its bottom is 0
DOMAIN_TOP = {
    "arcsin_pq": lambda pq: 1.0,
    "arccos_pq": lambda pq: 1.0,
    "arcsinh_pq": lambda pq: math.inf,
    "sin_pq": pqtrig.half_pi_pq,
    "cos_pq": pqtrig.half_pi_pq,
    "sinh_pq": lambda pq: pqtrig.m_star_pq(pq).as_float(),
}
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1.0, -1.0,
           1.7976931348623157e308, math.inf, -math.inf, math.nan]


def _ulps_around(x, n=3):
    """x and the n floats either side of it."""
    out, lo, hi = [x], x, x
    for _ in range(n):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


def _close(a, b):
    """The same outcome: equal, floats within 1e-13 relative, recursively."""
    if isinstance(a, float) and isinstance(b, float):
        return _same(a, b, 0.0) or a == pytest.approx(b, rel=1e-13)
    if isinstance(a, pqtrig.SweepReport) and isinstance(b, pqtrig.SweepReport):
        a, b = (a.verdicts, [e[::2] for e in a.errors]), (b.verdicts, [e[::2] for e in b.errors])
    if isinstance(a, (tuple, list)) and isinstance(b, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_close, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    return a == b


# every numeric callable of pqtrig.__all__ but holder_mean: its argument
# kinds after the exponent pair ("x" an argument, "order" a Hölder order)
SIGNATURES = {
    **{name: ("x",) for name in DOMAIN_TOP},
    "half_pi_pq": (), "m_star_pq": (), "lemma23_check": (),
    "lemma21_margin": ("x",), "lemma22_margin": ("x",), "double_angle_margin": ("x",),
    "G_fn": ("x",), "Gstar_fn": ("x",), "F_fn": ("order", "x"), "Fstar_fn": ("order", "x"),
    "thm11_sin_margin": ("x", "x"), "thm11_sinh_margin": ("x", "x"),
    "gm_general_sin_margin": ("order", "x", "x"), "gm_general_sinh_margin": ("order", "x", "x"),
    "F_monotonicity_probe": ("order",), "Fstar_monotonicity_probe": ("order",),
    "counterexample_search": ("order",), "arcsin_series_oracle": ("x",),
}
ORDERS = [-400.0, -1.0, 0.0, 0.5, 1.0, 400.0, math.inf, math.nan]


def test_the_contract_covers_every_public_function():
    # the sweep driver, the integrators of callables and the backend name
    # take no exponent pair; classes and constants are not callables
    others = {"run_sweep", "integrate_singular", "integrate_improper", "backend_name"}
    functions_ = {name for name in pqtrig.__all__
                  if callable(getattr(pqtrig, name)) and not isinstance(getattr(pqtrig, name), type)}
    assert functions_ - others == set(SIGNATURES) | {"holder_mean"}


@settings(max_examples=400, deadline=None)
@given(p=EXPONENT, q=EXPONENT,
       name=st.sampled_from(sorted(SIGNATURES) + ["holder_mean"]), data=st.data())
def test_public_functions_keep_the_error_contract(p, q, name, data):
    # across each function's whole domain, its ends and beyond: both
    # backends return the same value or raise the same PQTrigError
    # subclass, and no other exception escapes
    pq = pqtrig.PQParams(p, q)
    top = DOMAIN_TOP.get(name, lambda pq: pqtrig.half_pi_pq(pq))(pq)
    xs = st.one_of(
        st.sampled_from(SPECIAL + _ulps_around(top) + _ulps_around(top + 1e-12)),
        st.floats(0.0, top if top < math.inf else 10.0),
        st.floats(-320.0, 308.0).map(lambda e: 10.0 ** e),
    )
    orders = st.one_of(st.sampled_from(ORDERS), st.floats(-5.0, 5.0))
    draw = {"x": xs, "order": orders}
    if name == "holder_mean":
        args = (data.draw(orders, label="order"), data.draw(xs, label="a"),
                data.draw(xs, label="b"))
    else:
        args = (pq,) + tuple(data.draw(draw[kind], label=kind) for kind in SIGNATURES[name])
        if name == "counterexample_search":
            args += (100,)
        elif name.endswith("_probe"):
            args += (10,)
        elif name == "arcsin_series_oracle":
            args += (50,)
    fn = getattr(pqtrig, name)
    rc = _outcome(compiled, fn, *args)
    rp = _outcome(pure, fn, *args)
    if isinstance(rc, type) or isinstance(rp, type):
        assert rc is rp, (rc, rp)
    else:
        assert _close(rc, rp), (rc, rp)


def _certified(mode, p, q, root, y):
    """Whether root meets the forward's residual tolerance, or floats a few
    ulps either side of it straddle y (the nearest representable root)."""
    pq = pqtrig.PQParams(p, q)
    forward = ((lambda s: compiled.arcsin_series(p, q, s)[0]) if mode == "sin"
               else (lambda s: pqtrig.arcsinh_pq(pq, s)))
    if abs(forward(root) - y) <= 1e-12:
        return True
    below, above = root, root
    for _ in range(4):
        below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
    return forward(below) <= y <= forward(above)


def _alone(mode, p, q, ys, tol=1e-12):
    """Each target's one-target solve, which is its cold start."""
    return [compiled.solve(mode, p, q, [y], tol, 100)[0] for y in ys]


@settings(max_examples=120, deadline=None)
@given(p=st.floats(1.001, 10.0), q=st.floats(1.001, 10.0), mode=st.sampled_from(["sin", "sinh"]),
       fracs=st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=1, max_size=40))
def test_batched_solves_agree_and_certify_every_root(p, q, mode, fracs):
    # the targets of one kernels.solve call, in any order and with repeats;
    # sin targets stay in the bottom half of the branch, as inverse routes them
    if mode == "sin":
        top = span = inverse._half_branch(p, q)
    else:
        top = pqtrig.m_star_pq(pqtrig.PQParams(p, q)).as_float()
        span = min(top, 20.0)
    ys = [f * span for f in fracs if 0.0 < f * span < top]
    if not ys:
        return
    args = (mode, p, q, ys, 1e-12, 100)
    batch = compiled.solve(*args)
    assert batch == pure.solve(*args)
    # every target is a cold solve, exactly as on its own
    assert batch == _alone(mode, p, q, ys)
    for y, (root, _iters, _terms, status) in zip(ys, batch):
        if status == compiled.SOLVED:
            assert _certified(mode, p, q, root, y), (y, root)


def _dense_blocks():
    # sin at (p, q); sin at the conjugate exponents of p = 1.001, where the
    # integrand steepens next to t = 1; and sinh at p < q from y = 1.81
    # (s**(1 - q/p) = 1/2) to 1/65 of m_star below it, the far form's range
    p, q = 2.5, 3.5
    yield "sin", p, q, 0.0, inverse._half_branch(p, q)
    p, q = 1.5, 1.001 / 0.001001  # (q/(q - 1), p/(p - 1)) at p = 1.001, q = 3
    yield "sin", p, q, 0.0, inverse._half_branch(p, q)
    p, q = 2.0, 3.0
    top = pqtrig.m_star_pq(pqtrig.PQParams(p, q)).as_float()
    yield "sinh", p, q, top, top


@pytest.mark.parametrize("mode,p,q,top,span", list(_dense_blocks()),
                         ids=["sin", "sin-conjugate", "sinh-tail"])
def test_dense_blocks_continue_the_forward(mode, p, q, top, span):
    # 64 ascending targets in one call: both backends give every target its
    # one-target tuple, and every root certifies
    ys = [span * (i + 1) / 65.0 for i in range(64)]
    args = (mode, p, q, ys, 1e-12, 100)
    block = compiled.solve(*args)
    assert block == pure.solve(*args)
    assert block == _alone(mode, p, q, ys)
    for y, (root, _iters, _terms, status) in zip(ys, block):
        assert status == compiled.SOLVED
        assert _certified(mode, p, q, root, y), (y, root)


def test_a_sub_ulp_newton_step_moves_one_float_toward_the_root():
    # a residual tolerance of 1e-17 makes the solve polish to the
    # representable root: Newton's last step rounds onto s, and the solve
    # steps to the neighbouring float instead of bisecting the bracket,
    # which took 14 iterations; the root is 7.6 ulps above mpmath's, within
    # the forward's rounding over the slope there (the tanh-sinh forward
    # gave 1.392087849130788, 14.6 ulps above)
    p, q, y = 1.9570362129288126, 8.52255684192038, 1.1300993252640341
    pq = pqtrig.PQParams(p, q)
    (result,) = compiled.solve("sinh", p, q, [y], 1e-17, 100, 1e-13)
    assert [result] == pure.solve("sinh", p, q, [y], 1e-17, 100, 1e-13)
    root, iters, _terms, status = result
    assert status == pure.SOLVED and root == 1.3920878491307864 and iters < 14
    assert pqtrig.sinh_pq(pq, y, pqtrig.InversionConfig(tol=1e-17)) == root


@pytest.mark.parametrize("backend", [compiled, pure], ids=["c", "python"])
@pytest.mark.parametrize("ys", [[0.5, 0.25], [0.25, 0.25], [0.1, 0.3, 0.2],
                                [0.3, 0.1, 0.3, 0.6, 0.1]])
def test_unsorted_targets_solve_as_alone(backend, ys):
    # descending targets and repeats: each gets exactly its one-target tuple
    for mode in ("sin", "sinh"):
        block = backend.solve(mode, 2.0, 3.0, ys, 1e-12, 100)
        assert block == [backend.solve(mode, 2.0, 3.0, [y], 1e-12, 100)[0] for y in ys]


def test_series_at_ratio_one_reports_an_infinite_bound():
    # q = 1.06e299 rounds 2**(-1/q) to 1, so z = 1: the first term
    # underflows and the bound t r / (1 - r) was 0/0, which the pure
    # backend raised as ZeroDivisionError out of cos_pq
    q = 1.0599853493818049e299
    x = math.exp(-math.log(2.0) / q)
    assert compiled.arcsin_series(q, q, x, 1e-12) == pure.arcsin_series(q, q, x, 1e-12)
    assert pure.arcsin_series(q, q, x, 1e-12)[1:] == (math.inf, 2, False)


def test_far_form_power_neither_overflows_nor_underflows():
    # e0 = -3789: the exponent's two parts were -7879 and 709.8, whose
    # exponentials underflow and overflow; the pure backend raised
    # OverflowError and the compiled one returned nan.  With p = 1 + 2**-52
    # the integral is (pi/q) / sin(pi/q) to within 1e-15
    p, q, x = 1.0 + 2.0 ** -52, 3790.0, 6.633333333333334
    value, _bound, _terms, converged = compiled.arcsinh_series(p, q, x, 1e-13)
    assert compiled.arcsinh_series(p, q, x, 1e-13) == pure.arcsinh_series(p, q, x, 1e-13)
    assert converged
    assert value == pytest.approx(math.pi / q / math.sin(math.pi / q), rel=1e-14)


@pytest.mark.parametrize("backend", [compiled, pure], ids=["c", "python"])
def test_empty_target_list(backend):
    assert backend.solve("sinh", 2.0, 3.0, [], 1e-12, 100) == []


def test_pure_cli_reports_unconverged_constant():
    # the constants are closed forms and arcsinh_pq converges for every
    # finite x; a failed computation (here sinh_pq, whose root for p > q
    # lies beyond the largest float) takes the same path to the CLI's error
    # line, on the pure backend too
    src = os.path.dirname(os.path.dirname(pqtrig.__file__))
    env = {**os.environ, "PYTHONPATH": src, "PQTRIG_PURE_PYTHON": "1"}

    def run(fn, x):
        return subprocess.run(
            [sys.executable, "-m", "pqtrig.cli", "eval", "--fn", fn,
             "--p", "3", "--q", "2", "--x", x],
            env=env, capture_output=True, text=True, timeout=120,
        )

    proc = run("sinh", "1e200")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: sinh_pq(p=3.0, q=2.0, y=1e+200) bracket passed")
    assert "Traceback" not in proc.stderr
    proc = run("arcsinh", "1e200")
    assert proc.returncode == 0 and proc.stderr == ""
