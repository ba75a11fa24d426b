"""Agreement between the compiled and pure-Python series kernels."""

import contextlib
import inspect
import math
import os
import random
import re
import subprocess
import sys
import types

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pqtrig
from pqtrig import backend_name, functions, inverse
from pqtrig.inequalities import CHECKS
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
        "BACKEND", "arcsin_series", "arcsin_top", "arcsinh_series", "solve",
        "SOLVED", "BUDGET", "UNCONVERGED", "OVERFLOW",
    }


@pytest.mark.parametrize("name,params", [
    ("arcsin_series", ["p", "q", "x"]),
    ("arcsin_top", ["p", "q", "t"]),
    ("arcsinh_series", ["p", "q", "x"]),
    ("solve", ["mode", "p", "q", "ys", "max_iters"]),
])
def test_twins_take_the_same_parameters(name, params):
    # a parameter added to or deleted from one twin only fails here
    for backend in (compiled, pure):
        assert list(inspect.signature(getattr(backend, name)).parameters) == params, backend
    # the compiled twin takes exactly these, with no optional rest
    with pytest.raises(TypeError, match="exactly"):
        getattr(compiled, name)(*([2.0] * (len(params) + 1)))


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
    # top half of the branch is the top form, which arcsin_pq takes on
    # either backend up to the singular end
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


# up to the largest float, where Dekker's split in the far form once overflowed
EXPONENT = st.one_of(st.floats(1.0, 10.0, exclude_min=True),
                     st.floats(1.0, 1.7976931348623157e308, exclude_min=True))


@settings(max_examples=300, deadline=None)
@given(p=EXPONENT, q=EXPONENT, data=st.data())
def test_kernels_agree_everywhere(p, q, data):
    x = data.draw(st.floats(0.0, 1.0), label="arcsin x")
    y = data.draw(st.one_of(st.floats(0.0, 1e4), st.floats(0.0, 1.7976931348623157e308)),
                  label="arcsinh x")
    # the top half of the branch is arcsin_top at t = ln(1/w), w = 1 - x**q
    # in [0, 1/2]: draw w as x/2
    w = 0.5 * x
    calls = [("arcsin_series", (p, q, x)), ("arcsinh_series", (p, q, y)),
             ("arcsin_top", (p, q, -math.log(w) if w > 0.0 else math.inf))]
    for kernel, args in calls:
        vc = getattr(compiled, kernel)(*args)
        vp = getattr(pure, kernel)(*args)
        assert vc[2:] == vp[2:], (kernel, args, vc, vp)
        assert _same(vc[0], vp[0], 0.0) or vc[0] == pytest.approx(vp[0], rel=1e-15), (
            kernel, args, vc, vp)


@contextlib.contextmanager
def _kernels(backend):
    """The library on ``backend``'s kernels, for the body of the block."""
    saved = functions.kernels, inverse.kernels
    functions.kernels = inverse.kernels = backend
    try:
        yield
    finally:
        functions.kernels, inverse.kernels = saved


def _outcome(backend, fn, *args):
    """What ``fn`` returns with ``backend``'s kernels, or the error class it raises."""
    with _kernels(backend):
        try:
            return fn(*args)
        except PQTrigError as err:
            return type(err)


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
    if 0.0 < y < top:
        # the same steps, in the mode that inverse routes y to: iteration
        # and term counts and status
        if mode != "sinh":
            mode = "sin" if y < inverse._half_branch(p, q) else "top"
        args = (mode, p, q, [y], 100)
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


# every numeric callable of pqtrig.__all__ but holder_mean, and check_at
# once for each registered check ("check_at <check>"): its argument kinds
# after the exponent pair ("x" an argument, "order" a Hölder order, "count"
# a count: a search's budget, an oracle's terms).  check_at takes an order
# for every check, and checks it where the check uses none
SIGNATURES = {
    **{name: ("x",) for name in DOMAIN_TOP},
    "half_pi_pq": (), "m_star_pq": (),
    "G_fn": ("x",), "Gstar_fn": ("x",), "F_fn": ("order", "x"), "Fstar_fn": ("order", "x"),
    "counterexample_search": ("order", "count"), "arcsin_series_oracle": ("x", "count"),
    **{f"check_at {check}": ("order",) + ("x",) * len(entry.args)
       for check, entry in CHECKS.items()},
}
# arguments that are no real numbers: each leaked a TypeError or a plain
# ValueError, or (as a Hölder order, "1.5") passed as a float
NON_REALS = ["0.5", "1.5", "abc", None]
ORDERS = [-400.0, -1.0, 0.0, 0.5, 1.0, 400.0, math.inf, math.nan] + NON_REALS
# counts that some or all of those functions refuse: not integers, or
# below a function's least
BAD_COUNTS = [2.5, 10.0, 10.5, 100.5, 1e30, "10", None, True, 0, -1, 9, 99]
# the counts that run, small enough to stay quick
COUNTS = {"counterexample_search": st.integers(100, 400),
          "arcsin_series_oracle": st.integers(1, 200)}


def _public_fn(name):
    """The callable that a name of SIGNATURES stands for: (pq, order,
    *args) for check_at's entries."""
    function, _, check = name.partition(" ")
    if not check:
        return getattr(pqtrig, function)
    return lambda pq, order, *args: pqtrig.check_at(check, pq, *args, order=order)


def test_the_contract_covers_every_public_function():
    # the sweep driver, the integrators of callables and the backend name
    # take no exponent pair; classes and constants are not callables
    others = {"run_sweep", "integrate_singular", "backend_name"}
    functions_ = {name for name in pqtrig.__all__
                  if callable(getattr(pqtrig, name)) and not isinstance(getattr(pqtrig, name), type)}
    assert functions_ - others == {name.partition(" ")[0] for name in SIGNATURES} | {"holder_mean"}


class _Drawn:
    """Stands in for st.data() in an @example: every draw returns ``value``."""

    def __init__(self, value):
        self.value = value

    def draw(self, strategy, label=None):
        return self.value

    def __repr__(self):
        return f"_Drawn({self.value!r})"


# where 2**(-1/q) rounds to 1.0, so the half-branch value is 1.0 and
# half_pi_pq the float above it; y = 1.0 was sent to the sin solve, which
# failed at x = 1 (and cos_pq leaked a ValueError from the failed root)
SPLIT_AT_ONE = [(1.5, 1.2486629536330718e16), (1.018272186166234, 3.052930388671308e17)]


@settings(max_examples=400, deadline=None)
@given(p=EXPONENT, q=EXPONENT,
       name=st.sampled_from(sorted(SIGNATURES) + ["holder_mean"]), data=st.data())
@example(p=SPLIT_AT_ONE[0][0], q=SPLIT_AT_ONE[0][1], name="sin_pq", data=_Drawn(1.0))
@example(p=SPLIT_AT_ONE[0][0], q=SPLIT_AT_ONE[0][1], name="cos_pq", data=_Drawn(1.0))
@example(p=SPLIT_AT_ONE[1][0], q=SPLIT_AT_ONE[1][1], name="sin_pq", data=_Drawn(1.0))
@example(p=SPLIT_AT_ONE[1][0], q=SPLIT_AT_ONE[1][1], name="cos_pq", data=_Drawn(1.0))
def test_public_functions_keep_the_error_contract(p, q, name, data):
    # across each function's whole domain, its ends and beyond: both
    # backends return the same value or raise the same PQTrigError
    # subclass, and no other exception escapes
    pq = pqtrig.PQParams(p, q)
    top = DOMAIN_TOP.get(name, lambda pq: pqtrig.half_pi_pq(pq))(pq)
    # every x argument also takes non-real values; sin_pq and cos_pq also
    # the ulps around the half-branch value, where their solves change mode
    special = SPECIAL + NON_REALS
    if name in ("sin_pq", "cos_pq"):
        special = special + _ulps_around(inverse._half_branch(p, q))
    xs = st.one_of(
        st.sampled_from(special + _ulps_around(top) + _ulps_around(top + 1e-12)),
        st.floats(0.0, top if top < math.inf else 10.0),
        st.floats(-320.0, 308.0).map(lambda e: 10.0 ** e),
    )
    orders = st.one_of(st.sampled_from(ORDERS), st.floats(-5.0, 5.0))
    draw = {"x": xs, "order": orders,
            "count": st.one_of(st.sampled_from(BAD_COUNTS), COUNTS.get(name, st.nothing()))}
    if name == "holder_mean":
        args = (data.draw(orders, label="order"), data.draw(xs, label="a"),
                data.draw(xs, label="b"))
    else:
        args = (pq,) + tuple(data.draw(draw[kind], label=kind) for kind in SIGNATURES[name])
    fn = _public_fn(name)
    rc = _outcome(compiled, fn, *args)
    rp = _outcome(pure, fn, *args)
    if isinstance(rc, type) or isinstance(rp, type):
        assert rc is rp, (rc, rp)
    else:
        assert _close(rc, rp), (rc, rp)


_PQ23 = pqtrig.PQParams(2.0, 3.0)

# a valid value of each argument kind, so only the pair is at fault
_VALID = {"x": 0.5, "order": 1.0, "count": 100}


@pytest.mark.parametrize("bad", [(2.0, 3.0), "x"], ids=["tuple", "string"])
@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_a_pair_that_is_no_pqparams_is_a_domain_error(name, bad):
    # each leaked an AttributeError ("'tuple' object has no attribute 'q'")
    fn = _public_fn(name)
    args = [_VALID[kind] for kind in SIGNATURES[name]]
    message = f"{name.partition(' ')[0]}'s pq must be a PQParams, got {bad!r}"
    for backend in (compiled, pure):
        with _kernels(backend), pytest.raises(pqtrig.DomainError, match=re.escape(message)):
            fn(bad, *args)


def _sweep_axes(n):
    return [pqtrig.GridAxis("p", 2.0, 2.0, 1), pqtrig.GridAxis("q", 3.0, 3.0, 1),
            pqtrig.GridAxis("x", 0.1, 0.9, n)]


# counts that are not integers
BAD_COUNT_CALLS = {
    "GridAxis": (lambda: pqtrig.GridAxis("x", 0.1, 0.9, 2.5).values(),
                 "axis 'x' n must be an integer, got 2.5"),
    "run_sweep": (lambda: pqtrig.run_sweep("lemma21", _sweep_axes(2.5)),
                  "axis 'x' n must be an integer, got 2.5"),
    "run_sweep-f-monotone": (lambda: pqtrig.run_sweep("f-monotone", _sweep_axes(10.5), order=0.0),
                             "axis 'x' n must be an integer, got 10.5"),
    "counterexample_search": (lambda: pqtrig.counterexample_search(_PQ23, 1.0, budget=100.5),
                              "budget must be an integer, got 100.5"),
    "arcsin_series_oracle": (lambda: pqtrig.arcsin_series_oracle(_PQ23, 0.5, 2.5),
                             "n_terms must be an integer, got 2.5"),
}


@pytest.mark.parametrize("case", BAD_COUNT_CALLS)
def test_a_bad_count_raises_the_same_error_on_both_backends(case):
    # each leaked a TypeError
    call, message = BAD_COUNT_CALLS[case]
    for backend in (compiled, pure):
        with _kernels(backend), pytest.raises(pqtrig.DomainError, match=re.escape(message)):
            call()


# check_at's rules, which are run_sweep's: a registered check, its number
# of arguments, and an order where it needs one
BAD_CHECK_AT_CALLS = {
    "unknown-check": (lambda: pqtrig.check_at("nope", _PQ23, 0.5),
                      "unknown check 'nope'; expected one of double-angle, gm-sin, "),
    "arity": (lambda: pqtrig.check_at("thm11-sin", _PQ23, 0.5),
              "thm11-sin takes the arguments (r, s), got 1"),
    "arity-none": (lambda: pqtrig.check_at("lemma23", _PQ23, 0.5),
                   "lemma23 takes the arguments (), got 1"),
    "arity-probe": (lambda: pqtrig.check_at("f-monotone", _PQ23, 0.5, order=0.0),
                    "f-monotone takes the arguments (x_lo, x_hi), got 1"),
    "needs-order": (lambda: pqtrig.check_at("gm-sinh", _PQ23, 0.5, 0.7),
                    "gm-sinh requires a Hölder order"),
    "needs-order-probe": (lambda: pqtrig.check_at("fstar-monotone", _PQ23, 0.5, 0.7),
                          "fstar-monotone requires a Hölder order"),
}


@pytest.mark.parametrize("case", BAD_CHECK_AT_CALLS)
def test_a_bad_check_at_call_raises_the_same_error_on_both_backends(case):
    call, message = BAD_CHECK_AT_CALLS[case]
    for backend in (compiled, pure):
        with _kernels(backend), pytest.raises(pqtrig.DomainError, match=re.escape(message)):
            call()


# where a non-real argument goes in each call
NON_REAL_CALLS = {
    **{name: lambda fn, bad: fn(_PQ23, bad) for name in DOMAIN_TOP},
    "holder_mean": lambda fn, bad: fn(bad, 1.0, 2.0),
    "holder_mean-a": lambda fn, bad: fn(1.0, bad, 2.0),
    "check_at-order": lambda fn, bad: fn("gm-sin", _PQ23, 0.5, 0.7, order=bad),
    "check_at-x": lambda fn, bad: fn("lemma22", _PQ23, bad),
}

# where None is a value: no order given, and an infinite ExtendedValue
NONE_TAKEN = {"check_at-order", "ExtendedValue"}


@pytest.mark.parametrize("case,bad", [(case, bad) for case in NON_REAL_CALLS for bad in NON_REALS
                                      if not (bad is None and case in NONE_TAKEN)])
def test_a_non_real_argument_is_a_domain_error(case, bad):
    fn = getattr(pqtrig, case.partition("-")[0])
    for backend in (compiled, pure):
        with _kernels(backend), pytest.raises(pqtrig.DomainError, match="must be a real number"):
            NON_REAL_CALLS[case](fn, bad)
    # ints stay real arguments
    assert NON_REAL_CALLS[case](fn, 1) == NON_REAL_CALLS[case](fn, 1.0)


# where a non-real record field or setting goes in each call, and an int
# that it takes
NON_REAL_SETTINGS = {
    "PQParams-p": (lambda bad: pqtrig.PQParams(bad, 3.0), 2),
    "PQParams-q": (lambda bad: pqtrig.PQParams(2.0, bad), 3),
    "GridAxis-lo": (lambda bad: pqtrig.GridAxis("x", bad, 0.9, 3).values(), 0),
    "GridAxis-hi": (lambda bad: pqtrig.GridAxis("x", 0.1, bad, 3).values(), 1),
    "ExtendedValue": (lambda bad: pqtrig.ExtendedValue(bad), 2),
    "x_max-sweep": (lambda bad: pqtrig.run_sweep("fstar-monotone", _sweep_axes(10), order=0.5,
                                                 x_max=bad), 5),
    "x_max-f-monotone": (lambda bad: pqtrig.run_sweep("f-monotone", _sweep_axes(10), order=0.5,
                                                      x_max=bad), 5),
}



@pytest.mark.parametrize("case,bad", [(case, bad) for case in NON_REAL_SETTINGS for bad in NON_REALS
                                      if not (bad is None and case in NONE_TAKEN)])
def test_a_non_real_record_field_or_setting_is_a_domain_error(case, bad):
    # each leaked a TypeError
    call, good = NON_REAL_SETTINGS[case]
    for backend in (compiled, pure):
        with _kernels(backend), pytest.raises(pqtrig.DomainError, match="must be a real number"):
            call(bad)
    # ints stay real
    assert _close(call(good), call(float(good)))


def test_sin_solves_next_to_the_split_take_newton_steps():
    # the sin solve starts at or above its root, where arcsin_pq is convex,
    # so Newton descends to the root inside the bracket: a target one ulp or
    # 1e-13 below the half-branch value takes at most 3 forward values (a
    # start below the root overshot the bracket top and bisected, for up to
    # 47), and the twins take the same steps
    rng = random.Random(20)
    for _ in range(300):
        p, q = 1.0 + 10.0 ** rng.uniform(-12.0, 2.0), 1.0 + 10.0 ** rng.uniform(-12.0, 2.0)
        split = inverse._half_branch(p, q)
        ys = [math.nextafter(split, 0.0), split - 1e-13]
        sols = compiled.solve("sin", p, q, ys, 100)
        assert sols == pure.solve("sin", p, q, ys, 100), (p, q)
        for y, (root, iters, _terms, status) in zip(ys, sols):
            assert status == compiled.SOLVED and iters <= 3, (p, q, y, iters)
            assert _certified("sin", p, q, root, y), (p, q, y)


def _certified(mode, p, q, root, y):
    """Whether root's residual is within the bound that the forward kernel
    returns with its value there, or floats a few ulps either side of it
    straddle y (the nearest representable root)."""
    forward = {"sin": compiled.arcsin_series, "top": compiled.arcsin_top,
               "sinh": compiled.arcsinh_series}[mode]
    value, bound, _terms, _converged = forward(p, q, root)
    if abs(value - y) <= bound:
        return True
    below, above = root, root
    for _ in range(4):
        below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
    return forward(p, q, below)[0] <= y <= forward(p, q, above)[0]


def _alone(mode, p, q, ys):
    """Each target's one-target solve, which is its cold start."""
    return [compiled.solve(mode, p, q, [y], 100)[0] for y in ys]


@settings(max_examples=120, deadline=None)
@given(p=st.floats(1.001, 10.0), q=st.floats(1.001, 10.0),
       mode=st.sampled_from(["sin", "top", "sinh"]),
       fracs=st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=1, max_size=40))
def test_batched_solves_agree_and_certify_every_root(p, q, mode, fracs):
    # the targets of one kernels.solve call, in any order and with repeats;
    # sin and top targets stay in their halves of the branch, as inverse
    # routes them
    bottom = 0.0
    if mode == "sin":
        top = span = inverse._half_branch(p, q)
    elif mode == "top":
        bottom = inverse._half_branch(p, q)
        top = pqtrig.half_pi_pq(pqtrig.PQParams(p, q)) - 1e-12
        span = top - bottom
    else:
        top = pqtrig.m_star_pq(pqtrig.PQParams(p, q)).as_float()
        span = min(top, 20.0)
    ys = [bottom + f * span for f in fracs if bottom < bottom + f * span < top]
    if not ys:
        return
    args = (mode, p, q, ys, 100)
    batch = compiled.solve(*args)
    assert batch == pure.solve(*args)
    # every target is a cold solve, exactly as on its own
    assert batch == _alone(mode, p, q, ys)
    for y, (root, _iters, _terms, status) in zip(ys, batch):
        if status == compiled.SOLVED:
            assert _certified(mode, p, q, root, y), (y, root)


def _dense_blocks():
    # sin at (p, q); top at p = 1.001, where the top half of the branch
    # spans 98% of half_pi_pq; and sinh at p < q from y = 1.81
    # (s**(1 - q/p) = 1/2) to 1/65 of m_star below it, the far form's range
    p, q = 2.5, 3.5
    yield "sin", p, q, 0.0, inverse._half_branch(p, q)
    p, q = 1.001, 3.0
    split = inverse._half_branch(p, q)
    yield "top", p, q, split, pqtrig.half_pi_pq(pqtrig.PQParams(p, q)) - split
    p, q = 2.0, 3.0
    yield "sinh", p, q, 0.0, pqtrig.m_star_pq(pqtrig.PQParams(p, q)).as_float()


@pytest.mark.parametrize("mode,p,q,bottom,span", list(_dense_blocks()),
                         ids=["sin", "top", "sinh-tail"])
def test_dense_blocks_continue_the_forward(mode, p, q, bottom, span):
    # 64 ascending targets in one call: both backends give every target its
    # one-target tuple, and every root certifies
    ys = [bottom + span * (i + 1) / 65.0 for i in range(64)]
    args = (mode, p, q, ys, 100)
    block = compiled.solve(*args)
    assert block == pure.solve(*args)
    assert block == _alone(mode, p, q, ys)
    for y, (root, _iters, _terms, status) in zip(ys, block):
        assert status == compiled.SOLVED
        assert _certified(mode, p, q, root, y), (y, root)


# the top form's extremes: w at 0, at and below the least subnormal, and
# 1/2, p one ulp above 1, and q up to the largest float
TOP_WS = [0.0, 5e-324, 1e-300, 0.5]
TOP_PS = [1.0 + 2.0 ** -52, 1.5, 2.0, 1e10, 1e300, 1.7976931348623157e308]


@pytest.mark.parametrize("seed", range(4))
def test_top_form_twins_agree(seed):
    # the same tuple from arcsin_top, and from a top solve over targets
    # across the top half of the branch, on both backends
    rng = random.Random(seed)
    for _ in range(100):
        p = rng.choice(TOP_PS) if rng.random() < 0.3 else 1.0 + 10.0 ** rng.uniform(-15.6, 2.0)
        q = rng.choice(TOP_PS) if rng.random() < 0.3 else 1.0 + 10.0 ** rng.uniform(-15.6, 308.0)
        q = min(q, 1.7976931348623157e308)
        w = rng.choice(TOP_WS) if rng.random() < 0.5 else 0.5 * rng.random() ** 20
        t = -math.log(w) if w > 0.0 else math.inf
        vc = compiled.arcsin_top(p, q, t)
        assert repr(vc) == repr(pure.arcsin_top(p, q, t)), (p, q, w)
        assert vc[3], (p, q, w, vc)
        split, hp = pure.arcsin_top(p, q, math.log(2.0))[0], pure.arcsin_top(p, q, math.inf)[0]
        ys = [split + rng.random() * (hp - split) for _ in range(3)] + [vc[0]]
        args = ("top", p, q, ys, 100)
        assert repr(compiled.solve(*args)) == repr(pure.solve(*args)), (p, q, ys)


@pytest.mark.parametrize("backend", [compiled, pure], ids=["c", "python"])
@pytest.mark.parametrize("ys", [[0.5, 0.25], [0.25, 0.25], [0.1, 0.3, 0.2],
                                [0.3, 0.1, 0.3, 0.6, 0.1]])
def test_unsorted_targets_solve_as_alone(backend, ys):
    # descending targets and repeats: each gets exactly its one-target tuple
    for mode in ("sin", "top", "sinh"):
        block = backend.solve(mode, 2.0, 3.0, ys, 100)
        assert block == [backend.solve(mode, 2.0, 3.0, [y], 100)[0] for y in ys]


def test_series_at_ratio_one_reports_an_infinite_bound():
    # q = 1.06e299 rounds 2**(-1/q) to 1, so z = 1: the first term
    # underflows and the bound t r / (1 - r) was 0/0, which the pure
    # backend raised as ZeroDivisionError out of cos_pq
    q = 1.0599853493818049e299
    x = math.exp(-math.log(2.0) / q)
    assert compiled.arcsin_series(q, q, x) == pure.arcsin_series(q, q, x)
    assert pure.arcsin_series(q, q, x)[1:] == (math.inf, 2, False)


def test_far_form_power_neither_overflows_nor_underflows():
    # e0 = -3789: the exponent's two parts were -7879 and 709.8, whose
    # exponentials underflow and overflow; the pure backend raised
    # OverflowError and the compiled one returned nan.  With p = 1 + 2**-52
    # the integral is (pi/q) / sin(pi/q) to within 1e-15
    p, q, x = 1.0 + 2.0 ** -52, 3790.0, 6.633333333333334
    value, _bound, _terms, converged = compiled.arcsinh_series(p, q, x)
    assert compiled.arcsinh_series(p, q, x) == pure.arcsinh_series(p, q, x)
    assert converged
    assert value == pytest.approx(math.pi / q / math.sin(math.pi / q), rel=1e-14)


_MAX = 1.7976931348623157e308


@pytest.mark.parametrize("p,q,x", [
    (1e308, 2.0, 2.0), (2.0, 1e308, 2.0), (1.4e300, 3.0, 5.0), (3.0, 1e301, 1.5),
    (1.2e300, 3.0, 5.0), (1e308, 1e308, 2.0), (_MAX, _MAX, 10.0), (2.0, _MAX, 1e300),
    (_MAX, 2.0, 1e300),
])
def test_far_form_at_huge_exponents(p, q, x):
    # Dekker's split of e0 or p overflowed beyond about 1.34e300: the pure
    # backend raised ValueError on a NaN exponent and the compiled one
    # returned nan unconverged.  The integrand (1 + t**q)**(-1/p) is 1 within
    # a relative 1/p for p >> q, and for q >> p it is 1 up to t = 1 and
    # about 0 beyond; at p = q it is 1/t beyond t = 1
    vc, vp = compiled.arcsinh_series(p, q, x), pure.arcsinh_series(p, q, x)
    assert vc == vp and vc[3], (vc, vp)
    pq = pqtrig.PQParams(p, q)
    assert _outcome(compiled, pqtrig.arcsinh_pq, pq, x) == _outcome(pure, pqtrig.arcsinh_pq, pq, x)
    expected = x if p > 1e6 * q else 1.0 if q > 1e6 * p else 1.0 + math.log(x)
    assert vc[0] == pytest.approx(expected, rel=1e-14)


def test_huge_exponent_solves_fail_alike():
    # sinh's root at p = q = 1e308 lies beyond the largest float; both
    # backends raised other errors (ValueError, an unconverged forward).
    # sin's cold start pow(y, q + 1) overflows: C takes inf, the pure
    # backend raised OverflowError
    pq = pqtrig.PQParams(1e308, 1e308)
    y = 3.93599686377914e299
    for backend in (compiled, pure):
        assert _outcome(backend, pqtrig.sinh_pq, pq, y) is pqtrig.ComputationError
    args = ("sin", 2.0, 1.0599853493818049e299, [1.5], 100)
    assert compiled.solve(*args) == pure.solve(*args)
    assert compiled.solve(*args)[0][3] == pure.UNCONVERGED


@pytest.mark.parametrize("backend", [compiled, pure], ids=["c", "python"])
def test_empty_target_list(backend):
    assert backend.solve("sinh", 2.0, 3.0, [], 100) == []


def test_pure_cli_reports_unconverged_constant():
    # the constants and arcsinh_pq converge for every finite x; a failed
    # computation (here sinh_pq, whose root for p > q lies beyond the
    # largest float) takes the same path to the CLI's error line, on the
    # pure backend too
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
