"""Mechanical verification of the inequality and monotonicity claims.

Every check produces an :class:`InequalityVerdict` whose ``margin`` is
oriented so that a nonnegative value means the claim holds at that point;
``lhs`` and ``rhs`` carry the literal sides of the stated inequality.
Identity checks (the double-angle relation) use ``margin = -|lhs - rhs|``
so the same satisfaction rule applies.

An instance is satisfied when ``margin >= -tolerance``; the default
tolerance is ``1e-9 + 1e-9 * |rhs|``, covering the forward series and
inversion error carried by both sides plus the equality case on the
diagonal of the mean inequalities.  A tolerance given to a check or a
sweep must be a finite number >= 0 (DomainError otherwise, before
anything is computed).

The checks, by registry name:

    lemma21         arcsin_pq(x) > p x (1-x**q)**(1-1/p) / ((q-p) x**q + p)
    lemma22         x / arcsinh_pq(x) > ((p-q) x**q + p) / (p (1+x**q)**(1-1/p))
    lemma23         m_star_pq > 1 (infinite exactly when p >= q)
    thm11-sin       sin_pq(sqrt(r s)) >= sqrt(sin_pq(r) sin_pq(s))
    thm11-sinh      sinh_pq(sqrt(r* s*)) <= sqrt(sinh_pq(r*) sinh_pq(s*))
    gm-sin          sin_pq(sqrt(r s)) >= H_ord(sin_pq(r), sin_pq(s))
    gm-sinh         sinh_pq(sqrt(r* s*)) <= H_ord(sinh_pq(r*), sinh_pq(s*))
    double-angle    the (4/3, 4) double-angle identity
    f-monotone      F(x) = x**(1-ord) / (arcsin_pq(x) (1-x**q)**(1/p)) increasing
    fstar-monotone  F*(x) = x**(1-ord) / (arcsinh_pq(x) (1+x**q)**(1/p)) decreasing

The geometric-mean inequalities are sharp at order 0: gm-sin holds for
every argument pair exactly when ord <= 0, gm-sinh exactly when
ord >= 0.  ``counterexample_search`` exhibits the failure (and a
satisfying instance) for gm-sin at a positive order.

Every check is one entry of the ``CHECKS`` registry: its inner axis
names, how their values become argument tuples (every combination, or
for the probes each pair (x_lo, x_hi) of neighbouring values), the scale
of the axes' fractions, whether it needs a Hölder order, and its fewest
grid values.  ``run_sweep`` and the CLI read all of these from it.

A sweep's unit of work is one (p, q) cell.  Its inverse values come from
one ``inverse._roots`` block per function, over the unique targets of
all the cell's points, and its verdicts are built from those roots; no
value is cached between calls.  Each check's formula is written once, in
its cell evaluator: the scalar checks are one-point cells, and the
monotonicity probes are one-cell sweeps.  A root depends only on
(p, q, y), so every verdict of a sweep equals the scalar check at its
point, bit for bit.
"""

import math
from functools import partial
from typing import Callable, Mapping, NamedTuple, Optional, Sequence, Union

from ._records import Validated
from .errors import ComputationError, DomainError, PQTrigError
from .functions import PQParams, arcsin_pq, arcsinh_pq, half_pi_pq, m_star_pq
from .inverse import _roots
from .means import HolderOrder, holder_mean

DEFAULT_TOL_ABS = 1e-9
DEFAULT_TOL_REL = 1e-9

# hyperbolic argument grids are capped here when m_star is infinite (or larger)
SINH_ARG_CAP = 5.0

_LN_MAX = math.log(1.7976931348623157e308)


def _softplus(a: float) -> float:
    # ln(1 + e**a) without overflow: ln(1 + x**q) at a = q ln x
    if a > 0.0:
        return a + math.log1p(math.exp(-a))
    return math.log1p(math.exp(a))


def _gmean(a: float, b: float) -> float:
    """sqrt(a b); as sqrt(a) sqrt(b) where a b overflows or leaves the normal range."""
    ab = a * b
    if 2.2250738585072014e-308 <= ab < math.inf:
        return math.sqrt(ab)
    return math.sqrt(a) * math.sqrt(b)


def _exp(a: float, what: str) -> float:
    """e**a, or ComputationError where it overflows a float."""
    if a > _LN_MAX:
        raise ComputationError(f"{what} overflows a float (its natural log is {a:.6g})")
    return math.exp(a)


def default_tolerance(rhs: float) -> float:
    """Satisfaction tolerance for one inequality instance."""
    if math.isinf(rhs):
        return DEFAULT_TOL_ABS
    return DEFAULT_TOL_ABS + DEFAULT_TOL_REL * abs(rhs)


def _order(order: Union[HolderOrder, float]) -> float:
    return order.order if isinstance(order, HolderOrder) else float(order)


class InequalityVerdict(NamedTuple):
    """One verified inequality instance.

    ``at`` records the parameter point (p, q and the check's arguments);
    ``satisfied`` is exactly ``margin >= -tolerance``.
    """

    lhs: float
    rhs: float
    margin: float
    tolerance: float
    satisfied: bool
    at: Mapping[str, object]

    @classmethod
    def make(cls, lhs, rhs, margin, at, tolerance=None) -> "InequalityVerdict":
        return _verdict(lhs, rhs, margin, dict(at), tolerance)


def _verdict(lhs, rhs, margin, at, tolerance) -> InequalityVerdict:
    """:meth:`InequalityVerdict.make` without its copy of ``at``, for the
    callers here, which build a fresh dict for each verdict."""
    tol = default_tolerance(rhs) if tolerance is None else tolerance
    return InequalityVerdict(lhs, rhs, margin, tol, margin >= -tol, at)


class _AxisFields(NamedTuple):
    name: str
    lo: float
    hi: float
    n: int


class GridAxis(Validated, _AxisFields):
    """One axis of a sweep grid: ``n`` evenly spaced values on [lo, hi].

    Axes named p and q are absolute parameter values; the remaining axes
    are fractions of the check's per-(p, q) domain (so 0.01..0.99 spans
    the domain shrunk 1 percent away from each open endpoint).
    """

    __slots__ = ()

    def _check(self):
        if self.n < 1:
            raise DomainError(f"axis {self.name!r} needs n >= 1")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo <= self.hi):
            raise DomainError(f"axis {self.name!r} needs finite lo <= hi")
        if self.n > 1 and self.lo == self.hi:
            raise DomainError(f"axis {self.name!r} has n > 1 but zero width")

    def values(self) -> list[float]:
        if self.n == 1:
            return [self.lo]
        span = self.hi - self.lo
        return [self.lo + span * i / (self.n - 1) for i in range(self.n)]


class SweepError(NamedTuple):
    """A per-point evaluation failure recorded by the sweep runner."""

    index: int
    at: Mapping[str, object]
    message: str


class SweepReport:
    """Aggregated verdicts for one check over a grid, in row-major order."""

    def __init__(
        self,
        check: str,
        order: Optional[float],
        grid: tuple[GridAxis, ...],
        verdicts: Optional[list[InequalityVerdict]] = None,
        errors: Optional[list[SweepError]] = None,
    ):
        self.check = check
        self.order = order
        self.grid = grid
        self.verdicts: list[InequalityVerdict] = [] if verdicts is None else verdicts
        self.errors: list[SweepError] = [] if errors is None else errors

    @property
    def worst_margin(self) -> float:
        return min((v.margin for v in self.verdicts), default=math.inf)

    @property
    def counterexamples(self) -> list[Mapping[str, object]]:
        return [v.at for v in self.verdicts if not v.satisfied]

    @property
    def all_satisfied(self) -> bool:
        return all(v.satisfied for v in self.verdicts)


# ---------------------------------------------------------------------------
# cell evaluators: one check on one (p, q) cell at a list of argument tuples
#
# Each returns, per argument tuple, its InequalityVerdict or the PQTrigError
# its evaluation raised.  The inverse values of a cell come from one
# ``_roots`` call per function; the scalar checks are one-point cells.

def _each(pts, verdict) -> list:
    out = []
    for pt in pts:
        try:
            out.append(verdict(*pt))
        except PQTrigError as exc:  # recorded, not fatal; anything else is a bug
            out.append(exc)
    return out


def _check_tolerance(tolerance: Optional[float]) -> None:
    if tolerance is not None and not (0.0 <= tolerance < math.inf):
        raise DomainError(f"tolerance must be a finite number >= 0, got {tolerance!r}")


def _scalar(check, pq, pt, ordv, tolerance) -> InequalityVerdict:
    """The verdict of ``check`` on a one-point cell, raising the error recorded for it."""
    _check_tolerance(tolerance)
    value = CHECKS[check].cell(pq, [pt], ordv, tolerance)[0]
    if isinstance(value, PQTrigError):
        raise value
    return value


def _lookup(outcomes: Callable[[list], list], ys) -> Callable[[float], float]:
    """y -> its value among ``outcomes`` of the unique targets in ``ys``,
    raising the error recorded for it."""
    ys = list(set(ys))
    table = dict(zip(ys, outcomes(ys)))

    def value(y):
        v = table[y]
        if isinstance(v, PQTrigError):
            raise v.with_traceback(None)
        return v

    return value


def _lemma21_cell(pq, pts, ordv, tolerance) -> list:
    p, q = pq.p, pq.q

    def verdict(x):
        if not (0.0 < x < 1.0):
            raise DomainError(f"lemma21 needs x in (0, 1), got {x!r}")
        lhs = arcsin_pq(pq, x)
        xq = math.pow(x, q)
        rhs = p * x * math.pow(1.0 - xq, 1.0 - 1.0 / p) / ((q - p) * xq + p)
        return _verdict(lhs, rhs, lhs - rhs, {"p": p, "q": q, "x": x}, tolerance)

    return _each(pts, verdict)


def _lemma22_cell(pq, pts, ordv, tolerance) -> list:
    p, q = pq.p, pq.q
    x0 = math.pow(p / (q - p), 1.0 / q) if p < q else None

    def verdict(x):
        if not (x > 0.0 and math.isfinite(x)):
            raise DomainError(f"lemma22 needs finite x > 0, got {x!r}")
        lhs = x / arcsinh_pq(pq, x)
        t = q * math.log(x)  # ln x**q
        if t <= 0.0:
            xq = math.exp(t)
            rhs = ((p - q) * xq + p) / (p * math.exp((1.0 - 1.0 / p) * math.log1p(xq)))
        else:
            # x**q factored out: ((p - q) + p x**-q) x**q / (p (1 + x**q)**(1 - 1/p))
            scale = _exp(t - (1.0 - 1.0 / p) * _softplus(t), f"lemma22 at x={x!r}")
            rhs = ((p - q) + p * math.exp(-t)) * scale / p
        at = {"p": p, "q": q, "x": x}
        if x0 is not None:
            at["x0"] = x0
            at["region"] = "below_x0" if x < x0 else ("above_x0" if x > x0 else "at_x0")
        return _verdict(lhs, rhs, lhs - rhs, at, tolerance)

    return _each(pts, verdict)


def _lemma23_cell(pq, pts, ordv, tolerance) -> list:
    def verdict():
        ms = m_star_pq(pq)
        at = {"p": pq.p, "q": pq.q, "m_star": ms.as_float()}
        if not ms.is_finite:
            return _verdict(math.inf, 1.0, math.inf, at, tolerance)
        return _verdict(ms.value, 1.0, ms.value - 1.0, at, tolerance)

    return _each(pts, verdict)


def _mean_cell(check, pq, pts, ordv, tolerance) -> list:
    """thm11-sin, thm11-sinh, gm-sin or gm-sinh: the function at the
    geometric mean of (r, s) against the mean of its values at r and s."""
    p, q = pq.p, pq.q
    if check.endswith("-sinh"):
        fn, ms = "sinh", m_star_pq(pq)
        top = f"{ms.value:.12g}" if ms.is_finite else "inf"

        def inside(r, s):
            return r > 0.0 and s > 0.0 and (not ms.is_finite or (r < ms.value and s < ms.value))
    else:
        fn, hp = "sin", half_pi_pq(pq)
        top = f"{hp:.12g}"

        def inside(r, s):
            return 0.0 < r < hp and 0.0 < s < hp

    value = _lookup(partial(_roots, fn, pq),
                    [y for r, s in pts if inside(r, s) for y in (_gmean(r, s), r, s)])
    gm = check.startswith("gm-")  # thm11 is the geometric mean, written as sqrt(a b)
    base = {"p": p, "q": q, "order": ordv} if gm else {"p": p, "q": q}

    def verdict(r, s):
        if not inside(r, s):
            raise DomainError(f"{check} needs r, s in (0, {top}), got {r!r}, {s!r}")
        lhs = value(_gmean(r, s))
        if gm:
            rhs = holder_mean(ordv, value(r), value(s))
        else:
            rhs = _gmean(value(r), value(s))
        margin = rhs - lhs if fn == "sinh" else lhs - rhs
        return _verdict(lhs, rhs, margin, {**base, "r": r, "s": s}, tolerance)

    return _each(pts, verdict)


def _double_angle_cell(pq, pts, ordv, tolerance) -> list:
    hp = half_pi_pq(pq)
    tol = 1e-8 if tolerance is None else tolerance
    # sin_pq at x and 2x and cos_pq at x, from one block of shared roots
    value = _lookup(partial(_roots, "sincos", pq),
                    [y for (x,) in pts if 0.0 < x < 0.5 * hp for y in (2.0 * x, x)])

    def verdict(x):
        if not (0.0 < x < 0.5 * hp):
            raise DomainError(f"double-angle needs x in (0, {0.5 * hp:.12g}), got {x!r}")
        lhs = value(2.0 * x)[0]
        sx, cx = value(x)
        rhs = 2.0 * sx * math.pow(cx, 1.0 / 3.0) / math.sqrt(
            1.0 + 4.0 * sx**4 * math.pow(cx, 4.0 / 3.0)
        )
        return _verdict(
            lhs, rhs, -abs(lhs - rhs), {"p": pq.p, "q": pq.q, "x": x}, tol
        )

    return _each(pts, verdict)


# ---------------------------------------------------------------------------
# scalar checks

def lemma21_margin(pq: PQParams, x: float, tolerance: Optional[float] = None) -> InequalityVerdict:
    """Lower rational bound for arcsin_pq on (0, 1); margin expected > 0."""
    return _scalar("lemma21", pq, (x,), None, tolerance)


def lemma22_margin(pq: PQParams, x: float, tolerance: Optional[float] = None) -> InequalityVerdict:
    """Lower bound for x / arcsinh_pq(x) on (0, inf); margin expected > 0.

    For p < q the bound's numerator changes sign at
    x0 = (p/(q-p))**(1/q); the verdict records which side x falls on.
    """
    return _scalar("lemma22", pq, (x,), None, tolerance)


def lemma23_check(pq: PQParams, tolerance: Optional[float] = None) -> InequalityVerdict:
    """m_star_pq > 1, with the p >= q cells infinite and trivially satisfied."""
    return _scalar("lemma23", pq, (), None, tolerance)


def thm11_sin_margin(
    pq: PQParams, r: float, s: float, tolerance: Optional[float] = None
) -> InequalityVerdict:
    """sin_pq at the geometric mean dominates the geometric mean of sines.

    Arguments must lie in the open interval (0, half_pi_pq); equality
    holds exactly on the diagonal r = s.
    """
    return _scalar("thm11-sin", pq, (r, s), None, tolerance)


def thm11_sinh_margin(
    pq: PQParams, r: float, s: float, tolerance: Optional[float] = None
) -> InequalityVerdict:
    """sinh_pq at the geometric mean is dominated; margin is rhs - lhs."""
    return _scalar("thm11-sinh", pq, (r, s), None, tolerance)


def gm_general_sin_margin(
    pq: PQParams,
    order: Union[HolderOrder, float],
    r: float,
    s: float,
    tolerance: Optional[float] = None,
) -> InequalityVerdict:
    """sin_pq(sqrt(r s)) >= H_order(sin_pq(r), sin_pq(s)).

    Holds for every (r, s) exactly when order <= 0; at order 0 this is
    thm11-sin.  For order > 0 some argument pairs violate it.
    """
    return _scalar("gm-sin", pq, (r, s), _order(order), tolerance)


def gm_general_sinh_margin(
    pq: PQParams,
    order: Union[HolderOrder, float],
    r: float,
    s: float,
    tolerance: Optional[float] = None,
) -> InequalityVerdict:
    """sinh_pq(sqrt(r s)) <= H_order(sinh_pq(r), sinh_pq(s)); holds for order >= 0."""
    return _scalar("gm-sinh", pq, (r, s), _order(order), tolerance)


def double_angle_margin(
    pq: PQParams, x: float, tolerance: Optional[float] = None
) -> InequalityVerdict:
    """The double-angle identity satisfied by the (4/3, 4) sine.

        sin(2x) = 2 sin(x) cos(x)**(1/3) / (1 + 4 sin(x)**4 cos(x)**(4/3))**(1/2)

    with every function taken at (p, q) = (4/3, 4) and x in
    (0, half_pi/2).  As an identity check its margin is -|lhs - rhs| and
    the default tolerance is 1e-8.
    """
    return _scalar("double-angle", pq, (x,), None, tolerance)


# ---------------------------------------------------------------------------
# proof-machinery scalar functions and monotonicity probes

def G_fn(pq: PQParams, x: float) -> float:
    """G(x) = q x**q / (p (1-x**q)) - x / (arcsin_pq(x) (1-x**q)**(1/p)).

    Defined on (0, 1) with range (-1, inf): G tends to -1 at 0 and to
    +inf at 1.
    """
    if not (0.0 < x < 1.0):
        raise DomainError(f"G_fn needs x in (0, 1), got {x!r}")
    xq = math.pow(x, pq.q)
    omxq = -math.expm1(pq.q * math.log(x))
    return pq.q * xq / (pq.p * omxq) - x / (arcsin_pq(pq, x) * math.pow(omxq, 1.0 / pq.p))


def Gstar_fn(pq: PQParams, x: float) -> float:
    """G*(x) = x / (arcsinh_pq(x) (1+x**q)**(1/p)) + q x**q / (p (1+x**q)).

    Exceeds 1 for every x > 0 and tends to 1 at 0.
    """
    if not (x > 0.0 and math.isfinite(x)):
        raise DomainError(f"Gstar_fn needs finite x > 0, got {x!r}")
    lx, sp = math.log(x), _softplus(pq.q * math.log(x))  # ln x and ln(1 + x**q)
    first = math.exp(lx - math.log(arcsinh_pq(pq, x)) - sp / pq.p)
    return first + pq.q / pq.p * math.exp(pq.q * lx - sp)


def F_fn(pq: PQParams, order: Union[HolderOrder, float], x: float) -> float:
    """F(x) = x**(1-order) / (arcsin_pq(x) (1-x**q)**(1/p)) on (0, 1)."""
    if not (0.0 < x < 1.0):
        raise DomainError(f"F_fn needs x in (0, 1), got {x!r}")
    ordv = _order(order)
    lx = math.log(x)
    ln_f = ((1.0 - ordv) * lx - math.log(arcsin_pq(pq, x))
            - math.log(-math.expm1(pq.q * lx)) / pq.p)
    return _exp(ln_f, f"F_fn at x={x!r}")


def Fstar_fn(pq: PQParams, order: Union[HolderOrder, float], x: float) -> float:
    """F*(x) = x**(1-order) / (arcsinh_pq(x) (1+x**q)**(1/p)) on (0, inf)."""
    if not (x > 0.0 and math.isfinite(x)):
        raise DomainError(f"Fstar_fn needs finite x > 0, got {x!r}")
    ordv = _order(order)
    lx = math.log(x)
    ln_f = (1.0 - ordv) * lx - math.log(arcsinh_pq(pq, x)) - _softplus(pq.q * lx) / pq.p
    return _exp(ln_f, f"Fstar_fn at x={x!r}")


def _probe_cell(fn, increasing, pq, pts, ordv, tolerance) -> list:
    """f-monotone (``fn`` F, increasing) or fstar-monotone (F*, decreasing)
    at consecutive grid values (x_lo, x_hi); each x is evaluated once, and
    a failure there is recorded for the pairs that use it."""
    value = _lookup(lambda xs: _each([(x,) for x in xs], partial(fn, pq, ordv)),
                    [x for pt in pts for x in pt])

    def verdict(x_lo, x_hi):
        lhs, rhs = (value(x_hi), value(x_lo)) if increasing else (value(x_lo), value(x_hi))
        at = {"p": pq.p, "q": pq.q, "x_lo": x_lo, "x_hi": x_hi, "order": ordv}
        return _verdict(lhs, rhs, lhs - rhs, at, tolerance)

    return _each(pts, verdict)


def _probe(check, pq, order, grid_n, x_max) -> SweepReport:
    """One cell of a probe sweep over fractions 0.01..0.99 of the check's
    scale, with the grid reported in absolute x."""
    x = GridAxis("x", 0.01, 0.99, grid_n)
    report = run_sweep(check, [GridAxis("p", pq.p, pq.p, 1), GridAxis("q", pq.q, pq.q, 1), x],
                       order=order, x_max=x_max)
    xs, scale = x.values(), CHECKS[check].scale(pq, x_max)
    report.grid = (GridAxis("x", xs[0] * scale, xs[-1] * scale, grid_n),)
    return report


def F_monotonicity_probe(
    pq: PQParams, order: Union[HolderOrder, float], grid_n: int
) -> SweepReport:
    """Scan F on (0, 1): strictly increasing exactly when order <= 0.

    Each verdict compares consecutive grid values; ``all_satisfied``
    means every difference was positive.  For order > 0 the scan is
    expected to record a violation.
    """
    return _probe("f-monotone", pq, order, grid_n, 1.0)


def Fstar_monotonicity_probe(
    pq: PQParams, order: Union[HolderOrder, float], grid_n: int, x_max: float = 50.0
) -> SweepReport:
    """Scan F* on (0, x_max]: strictly decreasing exactly when order >= 0."""
    return _probe("fstar-monotone", pq, order, grid_n, x_max)


# ---------------------------------------------------------------------------
# counterexample search for the sharpness threshold

class Witness(NamedTuple):
    """One argument pair with the margin of the mean inequality there."""

    x: float
    y: float
    lhs: float
    rhs: float
    margin: float


class CounterexampleResult(NamedTuple):
    """Outcome of a sharpness search at a positive Hölder order.

    The underlying claim is
    sqrt(arcsin_pq(x) arcsin_pq(y)) >= arcsin_pq(H_ord(x, y)); a
    violating witness has ``margin < 0`` there, a satisfying one
    ``margin > 0``.  Either field is None when no witness of that sign
    emerged within budget.
    """

    violating: Optional[Witness]
    satisfying: Optional[Witness]
    evaluations: int


_WITNESS_FLOOR = 1e-11


def counterexample_search(
    pq: PQParams, order: Union[HolderOrder, float], budget: int = 40000
) -> CounterexampleResult:
    """Grid scan plus local refinement for both margin signs on (0, 1)**2.

    The coarse grid has floor(sqrt(budget)) points per side; the most
    negative and most positive cells are then refined by three rounds of
    10x zoom.  Margins within 1e-11 of zero (the diagonal's equality
    case) never qualify as witnesses.
    """
    ordv = _order(order)
    if not (ordv > 0.0):
        raise DomainError("counterexample_search needs a positive order")
    if budget < 100:
        raise DomainError("budget must be at least 100")
    evals = 0
    known: dict[float, float] = {}  # arcsin_pq values, for this search only

    def arcsin(x: float) -> float:
        value = known.get(x)
        if value is None:
            value = known[x] = arcsin_pq(pq, x)
        return value

    def margin_at(x: float, y: float) -> tuple[float, float, float]:
        # claim: arcsin_pq(H_ord(x, y)) <= sqrt(arcsin_pq(x) arcsin_pq(y))
        nonlocal evals
        evals += 1
        lhs = arcsin(holder_mean(ordv, x, y))
        rhs = math.sqrt(arcsin(x) * arcsin(y))
        return lhs, rhs, rhs - lhs

    n = max(10, math.isqrt(budget))
    xs = GridAxis("x", 0.005, 0.995, n).values()
    best = {"neg": (0.0, None), "pos": (0.0, None)}
    for i, x in enumerate(xs):
        for y in xs[i + 1:]:
            _, _, m = margin_at(x, y)
            if m < best["neg"][0]:
                best["neg"] = (m, (x, y))
            if m > best["pos"][0]:
                best["pos"] = (m, (x, y))

    def refine(seed, want_negative: bool) -> Optional[Witness]:
        m0, pt = seed
        if pt is None:
            return None
        span = (xs[-1] - xs[0]) / (n - 1)
        cx, cy = pt
        best_m, best_pt = m0, pt
        for _ in range(3):
            for i in range(11):
                for j in range(11):
                    x = min(0.9995, max(5e-4, cx + span * (i - 5) / 5.0))
                    y = min(0.9995, max(5e-4, cy + span * (j - 5) / 5.0))
                    if abs(x - y) < 1e-12:
                        continue
                    _, _, m = margin_at(x, y)
                    if (want_negative and m < best_m) or (not want_negative and m > best_m):
                        best_m, best_pt = m, (x, y)
            cx, cy = best_pt
            span /= 10.0
        if abs(best_m) <= _WITNESS_FLOOR:
            return None
        lhs, rhs, m = margin_at(*best_pt)
        return Witness(best_pt[0], best_pt[1], lhs, rhs, m)

    return CounterexampleResult(
        violating=refine(best["neg"], want_negative=True),
        satisfying=refine(best["pos"], want_negative=False),
        evaluations=evals,
    )


# ---------------------------------------------------------------------------
# sweep runner

def _sinh_scale(pq: PQParams, x_max: float) -> float:
    ms = m_star_pq(pq)
    if ms.is_finite:
        return min(ms.value, SINH_ARG_CAP)
    return SINH_ARG_CAP


def _product(values: list[list[float]]) -> list[tuple[float, ...]]:
    """Every combination of the inner axes' values, the last axis fastest."""
    pts: list[tuple[float, ...]] = [()]
    for vals in values:
        pts = [c + (v,) for c in pts for v in vals]
    return pts


def _consecutive(values: list[list[float]]) -> list[tuple[float, ...]]:
    """Each pair (lo, hi) of neighbouring values of the one inner axis."""
    (xs,) = values
    return list(zip(xs, xs[1:]))


class _Check:
    """A registry entry: how one check turns its grid into verdicts.

    A plain class, because building a NamedTuple class here added about
    0.3 ms to ``import pqtrig``.
    """

    __slots__ = ("axes", "cell", "scale", "points", "args", "needs_order", "min_grid")

    def __init__(self, axes, cell, scale=lambda pq, x_max: 1.0, points=_product, args=(),
                 needs_order=False, min_grid=1):
        self.axes = axes  # the inner axis names, after p and q
        self.cell = cell  # (pq, argument tuples, order, tolerance) -> verdicts or errors
        self.scale = scale  # (pq, x_max) -> the factor of the inner axes' fractions
        self.points = points  # the inner axes' values -> argument tuples
        self.args = args or axes  # the names of an argument tuple's entries
        self.needs_order = needs_order
        self.min_grid = min_grid  # the fewest values on each inner axis


_PAIRS = {"points": _consecutive, "args": ("x_lo", "x_hi"), "needs_order": True, "min_grid": 10}

CHECKS: dict[str, _Check] = {
    "double-angle": _Check(("x",), _double_angle_cell, lambda pq, x_max: 0.5 * half_pi_pq(pq)),
    "gm-sin": _Check(("r", "s"), partial(_mean_cell, "gm-sin"), lambda pq, x_max: half_pi_pq(pq),
                     needs_order=True),
    "gm-sinh": _Check(("r", "s"), partial(_mean_cell, "gm-sinh"), _sinh_scale, needs_order=True),
    "lemma21": _Check(("x",), _lemma21_cell),
    "lemma22": _Check(("x",), _lemma22_cell, lambda pq, x_max: 10.0),
    "lemma23": _Check((), _lemma23_cell),
    "thm11-sin": _Check(("r", "s"), partial(_mean_cell, "thm11-sin"),
                        lambda pq, x_max: half_pi_pq(pq)),
    "thm11-sinh": _Check(("r", "s"), partial(_mean_cell, "thm11-sinh"), _sinh_scale),
    "f-monotone": _Check(("x",), partial(_probe_cell, F_fn, True), **_PAIRS),
    "fstar-monotone": _Check(("x",), partial(_probe_cell, Fstar_fn, False),
                             lambda pq, x_max: x_max, **_PAIRS),
}

CHECK_NAMES = tuple(CHECKS)


def run_sweep(
    check: str,
    axes: Sequence[GridAxis],
    *,
    order: Union[HolderOrder, float, None] = None,
    tolerance: Optional[float] = None,
    threads: int = 0,
    x_max: float = 50.0,
) -> SweepReport:
    """Evaluate a named check over the grid spanned by ``axes``.

    ``axes`` starts with the p and q axes followed by the check's inner
    argument axes expressed as domain fractions (see :class:`GridAxis`);
    ``x_max``, finite and positive, is the domain of fstar-monotone; a
    ``tolerance`` given must be a finite number >= 0.  The unit of work
    is one (p, q) cell: its inverse values come from one batched solve
    per function over the cell's unique targets, and its verdicts are
    built from those roots, each the verdict of the scalar check at its
    point.  Verdicts are reported in row-major grid order;
    with ``threads > 1`` the cells are computed concurrently, one task
    each, and merged back in order.  Per-point evaluation failures
    (:class:`PQTrigError`) are recorded in the report rather than raised;
    any other exception propagates.
    """
    axes = tuple(axes)
    if not axes:
        raise DomainError("axes must be nonempty")
    entry = CHECKS.get(check)
    if entry is None:
        raise DomainError(f"unknown check {check!r}; expected one of {', '.join(CHECK_NAMES)}")
    if len(axes) != 2 + len(entry.axes):
        raise DomainError(
            f"{check} expects axes (p, q{''.join(', ' + a for a in entry.axes)}), "
            f"got {len(axes)}"
        )
    if axes[0].name != "p" or axes[1].name != "q":
        raise DomainError("the first two axes must be named p and q")
    for ax in axes[2:]:
        if not (0.0 < ax.lo and ax.hi <= 1.0):
            raise DomainError(f"inner axis {ax.name!r} must use fractions in (0, 1]")
        if ax.n < entry.min_grid:
            raise DomainError(f"grid_n must be at least {entry.min_grid}")
    ordv = None if order is None else _order(order)
    if entry.needs_order and ordv is None:
        raise DomainError(f"{check} requires a Hölder order")
    _check_tolerance(tolerance)
    if not (0.0 < x_max < math.inf):
        raise DomainError(f"x_max must be finite and positive, got {x_max!r}")
    frac_grids = [ax.values() for ax in axes[2:]]

    def cell(pq):
        scale = entry.scale(pq, x_max)
        pts = entry.points([[f * scale for f in fg] for fg in frac_grids])
        return pts, entry.cell(pq, pts, ordv, tolerance)

    cells = [PQParams(p, q) for p in axes[0].values() for q in axes[1].values()]
    if threads and threads > 1:
        # imported here, so only a threaded sweep pays for loading the pool
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(cell, cells))
    else:
        results = [cell(pq) for pq in cells]

    report = SweepReport(check=check, order=ordv, grid=axes)
    verdicts, errors = report.verdicts, report.errors
    index = 0
    for pq, (pts, outcomes) in zip(cells, results):
        for pt, outcome in zip(pts, outcomes):
            if isinstance(outcome, PQTrigError):
                at = {"p": pq.p, "q": pq.q}
                at.update(zip(entry.args, pt))
                errors.append(SweepError(index, at, f"{type(outcome).__name__}: {outcome}"))
            else:
                verdicts.append(outcome)
            index += 1
    return report
