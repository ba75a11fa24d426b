"""Agreement between the compiled and pure-Python quadrature kernels."""

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

from oracles import beta_half_pi

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
        "BACKEND", "arcsin_quad", "arcsinh_quad", "solve",
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


@pytest.mark.parametrize("p,q", PAIRS)
@pytest.mark.parametrize("x", [0.0, 5e-324, 1e-6, 0.25, 0.9, 0.999999, 1.0])
def test_arcsin_kernels_agree(p, q, x):
    vc = compiled.arcsin_quad(p, q, x)
    vp = pure.arcsin_quad(p, q, x)
    assert vc[0] == pytest.approx(vp[0], abs=1e-13)
    assert vc[3] == vp[3]


@pytest.mark.parametrize("p,q", PAIRS)
@pytest.mark.parametrize("x", [0.0, 5e-324, 0.5, 1.0, 10.0, 1e4])
def test_arcsinh_kernels_agree(p, q, x):
    vc = compiled.arcsinh_quad(p, q, x)
    vp = pure.arcsinh_quad(p, q, x)
    assert vc[0] == pytest.approx(vp[0], abs=1e-12)
    assert vc[3] == vp[3]


@pytest.mark.parametrize("p,q", [(1.25, 1.5), (2.0, 4.0), (1.1, 1.2), (3.0, 5.0)])
def test_mstar_kernels_agree(p, q):
    # where m_star is finite, arcsinh_pq far out is m_star minus the tail
    # integral, taken by arcsinh_quad at (p, q/g) over [0, x**-g]
    g = (q - p) / p
    for x in (2.0, 1e3, 1e90, 1e300):
        args = (p, q / g, x ** -g, 1e-12 * min(g, 1.0))
        vc, vp = compiled.arcsinh_quad(*args), pure.arcsinh_quad(*args)
        assert vc[0] == pytest.approx(vp[0], abs=1e-15)
        assert vc[2:] == vp[2:]


@pytest.mark.parametrize("p,q", PAIRS + [(1.1, 3.0), (10.0, 1.01)])
def test_arcsin_kernels_reach_the_singular_end(p, q):
    # the integral up to t = 1, where the integrand diverges, against the
    # Lanczos Beta oracle; for p near 1 it does not converge, which is why
    # the constants are closed forms
    for kernel in (compiled, pure):
        value, _err, _evals, converged = kernel.arcsin_quad(p, q, 1.0)
        assert converged
        assert value == pytest.approx(beta_half_pi(p, q), rel=1e-12)


def test_evaluation_counts_match():
    # same truncation logic should walk the same nodes
    for p, q in PAIRS:
        vc = compiled.arcsin_quad(p, q, 1.0)
        vp = pure.arcsin_quad(p, q, 1.0)
        assert vc[2] == vp[2]


# Exponents this close to 1 overflow a node term: C's pow/exp return inf,
# and the pure kernel must report the same unconverged result, not raise.
@pytest.mark.parametrize("kernel,args", [
    ("arcsin_quad", (1.03, 2.0, 1.0)),
    ("arcsin_quad", (1.03, 2.0, 1.0, 1e-12, 20, 10**7)),  # levels past the shared clamp
], ids=["arcsin_quad-args0", "arcsin_quad-args2"])
def test_overflowing_nodes_agree(kernel, args):
    vc = getattr(compiled, kernel)(*args)
    vp = getattr(pure, kernel)(*args)
    assert math.isinf(vc[0]) and math.isinf(vp[0])
    assert vc[2] == vp[2]
    assert vc[3] is vp[3] is False


def _same(a, b, tol):
    if not (math.isfinite(a) and math.isfinite(b)):
        return repr(a) == repr(b)
    return a == pytest.approx(b, abs=tol)


EXPONENT = st.floats(1.0, 10.0, exclude_min=True)


@settings(max_examples=300, deadline=None)
@given(p=EXPONENT, q=EXPONENT, data=st.data())
def test_kernels_agree_everywhere(p, q, data):
    x = data.draw(st.floats(0.0, 1.0), label="arcsin x")
    y = data.draw(st.floats(0.0, 1e4), label="arcsinh x")
    # the top half of the branch is arcsin_quad at the conjugate exponents
    calls = [("arcsin_quad", (p, q, x), 1e-13), ("arcsinh_quad", (p, q, y), 1e-12),
             ("arcsin_quad", (q / (q - 1.0), p / (p - 1.0), x), 1e-13)]
    if p < q:  # the tail integral of arcsinh_pq
        g = (q - p) / p
        calls.append(("arcsinh_quad", (p, q / g, x, 1e-12 * min(g, 1.0)), 1e-13))
    for kernel, args, tol in calls:
        vc = getattr(compiled, kernel)(*args)
        vp = getattr(pure, kernel)(*args)
        assert vc[2] == vp[2] and vc[3] == vp[3], (kernel, args, vc, vp)
        assert _same(vc[0], vp[0], tol), (kernel, args, vc, vp)


def _outcome(backend, fn, pq, x):
    """What ``fn`` returns with ``backend``'s kernels, or the error class it raises."""
    saved = functions.kernels, inverse.kernels
    functions.kernels = inverse.kernels = backend
    try:
        return fn(pq, x)
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
        # the same steps: iteration and evaluation counts and status
        args = ("sin" if mode == "cos" else mode, p, q, [y], top, 1e-12, 100)
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


@settings(max_examples=240, deadline=None)
@given(p=EXPONENT, q=EXPONENT, name=st.sampled_from(sorted(DOMAIN_TOP)), data=st.data())
def test_public_functions_keep_the_error_contract(p, q, name, data):
    # across each function's whole domain, its ends and beyond: both
    # backends return the same value or raise the same PQTrigError
    # subclass, and no other exception escapes
    pq = pqtrig.PQParams(p, q)
    top = DOMAIN_TOP[name](pq)
    x = data.draw(st.one_of(
        st.sampled_from(SPECIAL + _ulps_around(top) + _ulps_around(top + 1e-12)),
        st.floats(0.0, top),
        st.floats(-320.0, 308.0).map(lambda e: 10.0 ** e),
    ), label="x")
    fn = getattr(pqtrig, name)
    rc = _outcome(compiled, fn, pq, x)
    rp = _outcome(pure, fn, pq, x)
    if isinstance(rc, type) or isinstance(rp, type):
        assert rc is rp, (rc, rp)
    else:
        assert _same(rc, rp, 1e-13) or rc == pytest.approx(rp, rel=1e-13), (rc, rp)


def _certified(mode, p, q, root, y):
    """Whether root meets the forward's residual tolerance, or floats a few
    ulps either side of it straddle y (the nearest representable root)."""
    pq = pqtrig.PQParams(p, q)
    forward = ((lambda s: compiled.arcsin_quad(p, q, s)[0]) if mode == "sin"
               else (lambda s: pqtrig.arcsinh_pq(pq, s)))
    if abs(forward(root) - y) <= 1e-12:
        return True
    below, above = root, root
    for _ in range(4):
        below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
    return forward(below) <= y <= forward(above)


@settings(max_examples=120, deadline=None)
@given(p=st.floats(1.001, 10.0), q=st.floats(1.001, 10.0), mode=st.sampled_from(["sin", "sinh"]),
       fracs=st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=1, max_size=40))
def test_batched_solves_agree_and_certify_every_root(p, q, mode, fracs):
    # the targets of one kernels.solve call, warm-started from each other;
    # sin targets stay in the bottom half of the branch, as inverse routes them
    if mode == "sin":
        top = span = (1.0 + 0.5 / (p * (q + 1.0))) * math.pow(0.5, 1.0 / q)
    else:
        top = pqtrig.m_star_pq(pqtrig.PQParams(p, q)).as_float()
        span = min(top, 20.0)
    ys = sorted({f * span for f in fracs} - {0.0, top})
    if not ys:
        return
    args = (mode, p, q, ys, top, 1e-12, 100)
    batch = compiled.solve(*args)
    assert batch == pure.solve(*args)
    assert len(batch) == len(ys)
    for y, (root, _iters, _evals, status) in zip(ys, batch):
        if status == compiled.SOLVED:
            assert _certified(mode, p, q, root, y), (y, root)
    # the first target is a cold solve, exactly as on its own
    assert batch[0] == compiled.solve(mode, p, q, ys[:1], top, 1e-12, 100)[0]


def _split(p, q):
    """The top of the bottom half of the branch, as ``inverse`` routes it."""
    return (1.0 + 0.5 / (p * (q + 1.0))) * math.pow(0.5, 1.0 / q)


def _dense_blocks():
    # sin at (p, q); sin at the conjugate exponents of p = 1.001, where the
    # integrand steepens next to t = 1; and sinh at p < q from below the
    # tail switch (s**-g = 1/2, at y = 1.81) to 1/65 of m_star below it
    p, q = 2.5, 3.5
    yield "sin", p, q, 0.0, _split(p, q)
    p, q = 1.5, 1.001 / 0.001001  # (q/(q - 1), p/(p - 1)) at p = 1.001, q = 3
    yield "sin", p, q, 0.0, _split(p, q)
    p, q = 2.0, 3.0
    top = pqtrig.m_star_pq(pqtrig.PQParams(p, q)).as_float()
    yield "sinh", p, q, top, top


@pytest.mark.parametrize("mode,p,q,top,span", list(_dense_blocks()),
                         ids=["sin", "sin-conjugate", "sinh-tail"])
def test_dense_blocks_continue_the_forward(mode, p, q, top, span):
    # 64 ascending targets in one call: after the first full quadrature
    # most forward values are short K15 steps from the last one, so the
    # block costs at most half the evaluations of its targets solved one at
    # a time (without the steps it costs 62-103% of them)
    ys = [span * (i + 1) / 65.0 for i in range(64)]
    args = (mode, p, q, ys, top, 1e-12, 100)
    block = compiled.solve(*args)
    assert block == pure.solve(*args)
    for y, (root, _iters, _evals, status) in zip(ys, block):
        assert status == compiled.SOLVED
        assert _certified(mode, p, q, root, y), (y, root)
    alone = [compiled.solve(mode, p, q, [y], top, 1e-12, 100)[0] for y in ys]
    assert 2 * sum(r[2] for r in block) <= sum(r[2] for r in alone)


@pytest.mark.parametrize("backend", [compiled, pure], ids=["c", "python"])
@pytest.mark.parametrize("mode,p,q,s1,s2,full", [
    ("sin", 2.5, 3.5, 0.05, 0.4, True),   # |s2 - s1| > s1 / 2
    ("sin", 2.5, 3.5, 0.7, 0.82, True),   # |s2 - s1| > (1 - s2) / 2
    ("sin", 2.5, 3.5, 0.7, 0.78, False),  # inside both
    ("sinh", 2.5, 3.5, 1.0, 3.0, True),   # |s2 - s1| > s1 / 2
    # p > q: the quadrature over [0, s] anchors no step beyond s = 1e4
    ("sinh", 3.0, 2.0, 2e4, 2.5e4, True),
    ("sinh", 3.0, 2.0, 2e3, 2.5e3, False),
])
def test_a_step_beyond_the_guard_takes_a_full_quadrature(backend, mode, p, q, s1, s2, full):
    # the second target's root lies s2 - s1 from the first root, where its
    # solve starts; the evaluations it takes show whether its first forward
    # value was a full quadrature or a K15 step from the first root
    quad = backend.arcsin_quad if mode == "sin" else backend.arcsinh_quad
    top = pqtrig.m_star_pq(pqtrig.PQParams(p, q)).as_float()
    ys = [quad(p, q, s1)[0], quad(p, q, s2)[0]]
    (*_, first), (root, _iters, evals, status) = backend.solve(mode, p, q, ys, top, 1e-12, 100)
    assert first == status == compiled.SOLVED
    assert root == pytest.approx(s2, rel=1e-12)
    assert (evals >= quad(p, q, root)[2]) is full


def test_a_failed_step_estimate_falls_back(monkeypatch):
    # sinh at q = 6.66: the integrand's complex singularities next to t = 1
    # make the K15 step from the first root, 0.9, to the second's start,
    # 1.19, miss its estimate, though the guard allows it; that forward
    # value must come from a full quadrature at the same s, and the root
    # must certify
    p, q = 1.9009024395940486, 6.66454679030104
    top = pqtrig.m_star_pq(pqtrig.PQParams(p, q)).as_float()
    ys = [pure.arcsinh_quad(p, q, s)[0] for s in (0.9, 1.3)]
    calls = []  # ("k15", (a, b), estimate) and ("full", x), in order
    k15, full = pure._k15, pure.arcsinh_quad

    def spy_k15(mode, p, q, a, b):
        value, estimate = k15(mode, p, q, a, b)
        calls.append(("k15", (a, b), estimate))
        return value, estimate

    def spy_full(p, q, x, *rest):
        calls.append(("full", x))
        return full(p, q, x, *rest)

    monkeypatch.setattr(pure, "_k15", spy_k15)
    monkeypatch.setattr(pure, "arcsinh_quad", spy_full)
    block = pure.solve("sinh", p, q, ys, top, 1e-12, 100)
    monkeypatch.undo()
    assert block == compiled.solve("sinh", p, q, ys, top, 1e-12, 100)
    failed = [i for i, c in enumerate(calls) if c[0] == "k15" and c[2] > 1e-12 / 100]
    assert failed
    for i in failed:
        assert calls[i + 1][0] == "full" and calls[i + 1][1] in calls[i][1]
    for y, (root, _iters, _evals, status) in zip(ys, block):
        assert status == pure.SOLVED and _certified("sinh", p, q, root, y)


def test_steps_forced_to_fail_fall_back_to_certified_roots(monkeypatch):
    # with wrong G7 weights every step estimate fails, so every forward
    # value is a full quadrature: the roots still certify, and each target
    # costs at least one full quadrature at its root
    p, q = 2.5, 3.5
    ys = [_split(p, q) * (i + 1) / 17.0 for i in range(16)]
    monkeypatch.setattr(pure, "_WG", (0.0, 0.0, 0.0, 0.0))
    block = pure.solve("sin", p, q, ys, 0.0, 1e-12, 100)
    monkeypatch.undo()
    for y, (root, _iters, evals, status) in zip(ys, block):
        assert status == pure.SOLVED and _certified("sin", p, q, root, y)
        assert evals >= pure.arcsin_quad(p, q, root)[2]
    steps = pure.solve("sin", p, q, ys, 0.0, 1e-12, 100)
    assert sum(r[2] for r in block) > 2 * sum(r[2] for r in steps)


def test_a_sub_ulp_newton_step_moves_one_float_toward_the_root():
    # a residual tolerance of 1e-17 makes the solve polish to the
    # representable root: Newton's last step rounds onto s, and the solve
    # steps to the neighbouring float instead of bisecting the bracket,
    # which took 14 iterations to reach the same root
    p, q, y = 1.9570362129288126, 8.52255684192038, 1.1300993252640341
    pq = pqtrig.PQParams(p, q)
    top = pqtrig.m_star_pq(pq).as_float()
    (result,) = compiled.solve("sinh", p, q, [y], top, 1e-17, 100, 1e-13)
    assert [result] == pure.solve("sinh", p, q, [y], top, 1e-17, 100, 1e-13)
    root, iters, _evals, status = result
    assert status == pure.SOLVED and root == 1.392087849130788 and iters < 14
    assert pqtrig.sinh_pq(pq, y, pqtrig.InversionConfig(tol=1e-17)) == root


@pytest.mark.parametrize("backend", [compiled, pure], ids=["c", "python"])
@pytest.mark.parametrize("ys", [[0.5, 0.25], [0.25, 0.25], [0.1, 0.3, 0.2], [math.nan, 0.1]])
def test_unsorted_targets_raise(backend, ys):
    with pytest.raises(ValueError, match="strictly ascending"):
        backend.solve("sin", 2.0, 3.0, ys, 0.0, 1e-12, 100)


@pytest.mark.parametrize("backend", [compiled, pure], ids=["c", "python"])
def test_empty_target_list(backend):
    assert backend.solve("sinh", 2.0, 3.0, [], math.inf, 1e-12, 100) == []


def test_pure_cli_reports_unconverged_constant():
    # the constants are closed forms and always converge; an unconverged
    # forward (arcsinh for p > q at huge x) takes the same path to the
    # CLI's error line
    src = os.path.dirname(os.path.dirname(pqtrig.__file__))
    env = {**os.environ, "PYTHONPATH": src, "PQTRIG_PURE_PYTHON": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "pqtrig.cli", "eval", "--fn", "arcsinh",
         "--p", "3", "--q", "2", "--x", "1e200"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: arcsinh_pq(p=3.0, q=2.0, x=1e+200) did not reach")
    assert "Traceback" not in proc.stderr
