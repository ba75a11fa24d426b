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
sweep must be a finite number >= 0, and a Hölder order a finite float
(DomainError otherwise, before anything is computed).

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

A sweep's unit of work is one (p, q) cell, which its check's cell
evaluator computes in columns, in one pass: one domain test over the
cell's points; one table of values over their distinct arguments, from
one ``inverse._roots`` block per inverse function or one forward call
per argument; then the columns of lhs, rhs, margin, tolerance and
satisfied, and one verdict per row.  A point outside the domain, one
that reads a failed value and one whose formula fails each get an error
instead of a verdict; the cell returns its verdicts in point order and
its errors with their positions, so the sweep gives each error its
row-major index.  No value is cached between calls.  Each check's
formula is written once, in its cell evaluator: the scalar checks are
one-point cells, and the monotonicity probes are one-cell sweeps.  A
value depends only on (p, q) and its argument, so every verdict and
error of a sweep equals the scalar check's at its point, bit for bit.
"""

import math
from functools import partial
from itertools import repeat
from operator import itemgetter
from typing import Mapping, NamedTuple, Optional, Sequence

from ._records import Validated, count, holder_order, real
from .errors import ComputationError, DomainError, PQTrigError
from .functions import PQParams, arcsin_pq, arcsinh_pq, half_pi_pq, m_star_pq
from .inverse import _roots
from .means import _holder_mean, _holder_means

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


def _gmeans(a_col, b_col) -> list[float]:
    """sqrt(a b) for each pair; as sqrt(a) sqrt(b) where a b overflows or
    leaves the normal range."""
    sqrt, tiny, inf = math.sqrt, 2.2250738585072014e-308, math.inf
    return [sqrt(ab) if tiny <= (ab := a * b) < inf else sqrt(a) * sqrt(b)
            for a, b in zip(a_col, b_col)]


def _exp(a: float, name: str, x: float) -> float:
    """e**a, or ComputationError, naming ``name`` at ``x``, where it
    overflows a float."""
    if a > _LN_MAX:
        raise ComputationError(f"{name} at x={x!r} overflows a float (its natural log is {a:.6g})")
    return math.exp(a)


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
        return _verdicts([lhs], [rhs], [margin], [dict(at)], tolerance)[0]


_new_verdict = partial(tuple.__new__, InequalityVerdict)  # from a tuple of its six fields


def _verdicts(lhs, rhs, margin, ats, tolerance) -> list[InequalityVerdict]:
    """One verdict per row of the columns lhs, rhs, margin and ``ats``,
    whose every row is a fresh dict; its tolerance is ``tolerance`` where
    one is given, else the default for its rhs."""
    if tolerance is None:
        tol_abs, tol_rel, inf = DEFAULT_TOL_ABS, DEFAULT_TOL_REL, math.inf
        tols = [tol_abs if h == inf else tol_abs + tol_rel * h for h in map(abs, rhs)]
    else:
        tols = [tolerance] * len(rhs)
    satisfied = [m >= -tol for m, tol in zip(margin, tols)]
    return list(map(_new_verdict, zip(lhs, rhs, margin, tols, satisfied, ats)))


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
        if count(self.n, f"axis {self.name!r} n") < 1:
            raise DomainError(f"axis {self.name!r} needs n >= 1")
        lo, hi = real(self.lo, f"axis {self.name!r} lo"), real(self.hi, f"axis {self.name!r} hi")
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise DomainError(f"axis {self.name!r} needs finite lo <= hi")
        if self.n > 1 and lo == hi:
            raise DomainError(f"axis {self.name!r} has n > 1 but zero width")

    def values(self) -> list[float]:
        """The ``n`` values, the first ``lo`` and the last ``hi`` exactly."""
        if self.n == 1:
            return [self.lo]
        span, last = self.hi - self.lo, self.n - 1
        return [self.lo + span * i / last for i in range(last)] + [self.hi]


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
# Each is one pass over the cell in columns: a domain test over the points,
# one table of values over their distinct arguments (one ``_roots`` call
# per inverse function), then the columns of lhs, rhs and margin.  Each
# returns its verdicts, in point order, and its errors as (position,
# PQTrigError) pairs: a point out of the domain, or one that reads a
# failed value or whose formula fails, has an error and no verdict.  The
# scalar checks are one-point cells.

def _check_tolerance(tolerance: Optional[float]) -> None:
    if tolerance is not None and not (0.0 <= real(tolerance, "tolerance") < math.inf):
        raise DomainError(f"tolerance must be a finite number >= 0, got {tolerance!r}")


def _scalar(check, pq, pt, ordv, tolerance) -> InequalityVerdict:
    """The verdict of ``check`` on a one-point cell, raising the error recorded for it."""
    entry = CHECKS[check]
    pt = tuple(real(v, f"{check}'s {name}") for name, v in zip(entry.args, pt))
    _check_tolerance(tolerance)
    verdicts, errors = entry.cell(pq, [pt], ordv, tolerance)
    if errors:
        raise errors[0][1]
    return verdicts[0]


def _domain(pts, inside, error) -> tuple[list, Sequence[int], list]:
    """(the points whose ``inside`` is true, their positions, and the
    errors list, holding (position, error(*point)) for every other point)."""
    if all(inside):
        return pts, range(len(pts)), []
    pos = [i for i, ok in enumerate(inside) if ok]
    errors = [(i, error(*pts[i])) for i, ok in enumerate(inside) if not ok]
    return [pts[i] for i in pos], pos, errors


def _table(fn, xs) -> dict:
    """{x: fn(x) or the PQTrigError it raises} over the distinct ``xs``."""
    table = dict.fromkeys(xs)
    for x in table:
        try:
            table[x] = fn(x)
        except PQTrigError as exc:  # recorded, not fatal; anything else is a bug
            table[x] = exc
    return table


def _solved(table, errors, pos, keys) -> tuple[Sequence[int], tuple]:
    """(pos, keys) without the points that read a failed entry of ``table``.

    ``keys`` holds, in the order a point reads them, the columns of its
    table keys; a dropped point is added to ``errors`` at its position
    with the error of the first failed entry it reads.
    """
    if not any(map(isinstance, table.values(), repeat(PQTrigError))):
        return pos, keys
    kept = []
    for k, row in enumerate(zip(*keys)):
        failed = [table[y] for y in row if isinstance(table[y], PQTrigError)]
        if failed:
            errors.append((pos[k], failed[0]))
        else:
            kept.append(k)
    return [pos[k] for k in kept], tuple([col[k] for k in kept] for col in keys)


def _lemma21_cell(pq, pts, ordv, tolerance) -> tuple[list, list]:
    p, q = pq.p, pq.q
    pts, pos, errors = _domain(pts, [0.0 < x < 1.0 for (x,) in pts],
                               lambda x: DomainError(f"lemma21 needs x in (0, 1), got {x!r}"))
    xs = [x for (x,) in pts]
    table = _table(partial(arcsin_pq, pq), xs)
    pos, (xs,) = _solved(table, errors, pos, (xs,))
    rhs = []
    for x in xs:
        xq = math.pow(x, q)
        rhs.append(p * x * math.pow(1.0 - xq, 1.0 - 1.0 / p) / ((q - p) * xq + p))
    lhs = [table[x] for x in xs]
    ats = [{"p": p, "q": q, "x": x} for x in xs]
    return _verdicts(lhs, rhs, [lh - rh for lh, rh in zip(lhs, rhs)], ats, tolerance), errors


def _lemma22_cell(pq, pts, ordv, tolerance) -> tuple[list, list]:
    p, q = pq.p, pq.q
    x0 = math.pow(p / (q - p), 1.0 / q) if p < q else None
    pts, pos, errors = _domain(pts, [x > 0.0 and math.isfinite(x) for (x,) in pts],
                               lambda x: DomainError(f"lemma22 needs finite x > 0, got {x!r}"))
    xs = [x for (x,) in pts]
    table = _table(partial(arcsinh_pq, pq), xs)
    pos, (xs,) = _solved(table, errors, pos, (xs,))
    lhs, rhs, ats = [], [], []
    for i, x in zip(pos, xs):
        t = q * math.log(x)  # ln x**q
        if t <= 0.0:
            xq = math.exp(t)
            rh = ((p - q) * xq + p) / (p * math.exp((1.0 - 1.0 / p) * math.log1p(xq)))
        else:
            # x**q factored out: ((p - q) + p x**-q) x**q / (p (1 + x**q)**(1 - 1/p))
            try:
                scale = _exp(t - (1.0 - 1.0 / p) * _softplus(t), "lemma22", x)
            except ComputationError as exc:
                errors.append((i, exc))
                continue
            rh = ((p - q) + p * math.exp(-t)) * scale / p
        at = {"p": p, "q": q, "x": x}
        if x0 is not None:
            at["x0"] = x0
            at["region"] = "below_x0" if x < x0 else ("above_x0" if x > x0 else "at_x0")
        lhs.append(x / table[x])
        rhs.append(rh)
        ats.append(at)
    return _verdicts(lhs, rhs, [lh - rh for lh, rh in zip(lhs, rhs)], ats, tolerance), errors


def _lemma23_cell(pq, pts, ordv, tolerance) -> tuple[list, list]:
    try:
        ms = m_star_pq(pq)
    except PQTrigError as exc:
        return [], [(i, exc) for i in range(len(pts))]
    lhs, margin = (ms.value, ms.value - 1.0) if ms.is_finite else (math.inf, math.inf)
    n = len(pts)
    ats = [{"p": pq.p, "q": pq.q, "m_star": ms.as_float()} for _ in pts]
    return _verdicts([lhs] * n, [1.0] * n, [margin] * n, ats, tolerance), []


def _mean_cell(check, pq, pts, ordv, tolerance) -> tuple[list, list]:
    """thm11-sin, thm11-sinh, gm-sin or gm-sinh: the function at the
    geometric mean of (r, s) against the mean of its values at r and s."""
    p, q = pq.p, pq.q
    if check.endswith("-sinh"):
        fn, ms = "sinh", m_star_pq(pq)
        hi = ms.value if ms.is_finite else math.inf
    else:
        fn, hi = "sin", half_pi_pq(pq)
    pts, pos, errors = _domain(
        pts, [0.0 < r < hi and 0.0 < s < hi for r, s in pts],
        lambda r, s: DomainError(f"{check} needs r, s in (0, {hi:.12g}), got {r!r}, {s!r}"))
    rs, ss = [r for r, _ in pts], [s for _, s in pts]
    gs = _gmeans(rs, ss)
    table = _roots(fn, pq, gs + rs + ss)
    pos, (gs, rs, ss) = _solved(table, errors, pos, (gs, rs, ss))
    lhs, a, b = (list(map(table.__getitem__, col)) for col in (gs, rs, ss))
    if check.startswith("gm-"):
        rhs = _holder_means(ordv, a, b)  # roots of r, s > 0 are positive
        ats = [{"p": p, "q": q, "order": ordv, "r": r, "s": s} for r, s in zip(rs, ss)]
    else:  # thm11 is the geometric mean, written as sqrt(a b)
        rhs = _gmeans(a, b)
        ats = [{"p": p, "q": q, "r": r, "s": s} for r, s in zip(rs, ss)]
    if fn == "sinh":
        margin = [rh - lh for lh, rh in zip(lhs, rhs)]
    else:
        margin = [lh - rh for lh, rh in zip(lhs, rhs)]
    return _verdicts(lhs, rhs, margin, ats, tolerance), errors


def _double_angle_cell(pq, pts, ordv, tolerance) -> tuple[list, list]:
    half = 0.5 * half_pi_pq(pq)
    pts, pos, errors = _domain(
        pts, [0.0 < x < half for (x,) in pts],
        lambda x: DomainError(f"double-angle needs x in (0, {half:.12g}), got {x!r}"))
    xs = [x for (x,) in pts]
    twice = [2.0 * x for x in xs]
    # sin_pq at x and 2x and cos_pq at x, from one block of shared roots
    table = _roots("sincos", pq, twice + xs)
    pos, (twice, xs) = _solved(table, errors, pos, (twice, xs))
    lhs = [table[y][0] for y in twice]
    rhs = [2.0 * sx * math.pow(cx, 1.0 / 3.0)
           / math.sqrt(1.0 + 4.0 * sx**4 * math.pow(cx, 4.0 / 3.0))
           for sx, cx in map(table.__getitem__, xs)]
    ats = [{"p": pq.p, "q": pq.q, "x": x} for x in xs]
    margin = [-abs(lh - rh) for lh, rh in zip(lhs, rhs)]
    return _verdicts(lhs, rhs, margin, ats, 1e-8 if tolerance is None else tolerance), errors


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
    pq: PQParams, order: float, r: float, s: float, tolerance: Optional[float] = None
) -> InequalityVerdict:
    """sin_pq(sqrt(r s)) >= H_order(sin_pq(r), sin_pq(s)).

    Holds for every (r, s) exactly when order <= 0; at order 0 this is
    thm11-sin.  For order > 0 some argument pairs violate it.
    """
    return _scalar("gm-sin", pq, (r, s), holder_order(order), tolerance)


def gm_general_sinh_margin(
    pq: PQParams, order: float, r: float, s: float, tolerance: Optional[float] = None
) -> InequalityVerdict:
    """sinh_pq(sqrt(r s)) <= H_order(sinh_pq(r), sinh_pq(s)); holds for order >= 0."""
    return _scalar("gm-sinh", pq, (r, s), holder_order(order), tolerance)


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
    x = real(x, "G_fn's x")
    if not (0.0 < x < 1.0):
        raise DomainError(f"G_fn needs x in (0, 1), got {x!r}")
    xq = math.pow(x, pq.q)
    omxq = -math.expm1(pq.q * math.log(x))
    return pq.q * xq / (pq.p * omxq) - x / (arcsin_pq(pq, x) * math.pow(omxq, 1.0 / pq.p))


def Gstar_fn(pq: PQParams, x: float) -> float:
    """G*(x) = x / (arcsinh_pq(x) (1+x**q)**(1/p)) + q x**q / (p (1+x**q)).

    Exceeds 1 for every x > 0 and tends to 1 at 0.
    """
    x = real(x, "Gstar_fn's x")
    if not (x > 0.0 and math.isfinite(x)):
        raise DomainError(f"Gstar_fn needs finite x > 0, got {x!r}")
    lx, sp = math.log(x), _softplus(pq.q * math.log(x))  # ln x and ln(1 + x**q)
    first = math.exp(lx - math.log(arcsinh_pq(pq, x)) - sp / pq.p)
    return first + pq.q / pq.p * math.exp(pq.q * lx - sp)


def F_fn(pq: PQParams, order: float, x: float) -> float:
    """F(x) = x**(1-order) / (arcsin_pq(x) (1-x**q)**(1/p)) on (0, 1)."""
    return _F(pq, holder_order(order), real(x, "F_fn's x"))


def _F(pq: PQParams, ordv: float, x: float) -> float:
    """:func:`F_fn` for an order and an x that are already floats."""
    if not (0.0 < x < 1.0):
        raise DomainError(f"F_fn needs x in (0, 1), got {x!r}")
    lx = math.log(x)
    ln_f = ((1.0 - ordv) * lx - math.log(arcsin_pq(pq, x))
            - math.log(-math.expm1(pq.q * lx)) / pq.p)
    return _exp(ln_f, "F_fn", x)


def Fstar_fn(pq: PQParams, order: float, x: float) -> float:
    """F*(x) = x**(1-order) / (arcsinh_pq(x) (1+x**q)**(1/p)) on (0, inf)."""
    return _Fstar(pq, holder_order(order), real(x, "Fstar_fn's x"))


def _Fstar(pq: PQParams, ordv: float, x: float) -> float:
    """:func:`Fstar_fn` for an order and an x that are already floats."""
    if not (x > 0.0 and math.isfinite(x)):
        raise DomainError(f"Fstar_fn needs finite x > 0, got {x!r}")
    lx = math.log(x)
    ln_f = (1.0 - ordv) * lx - math.log(arcsinh_pq(pq, x)) - _softplus(pq.q * lx) / pq.p
    return _exp(ln_f, "Fstar_fn", x)


def _probe_cell(fn, increasing, pq, pts, ordv, tolerance) -> tuple[list, list]:
    """f-monotone (``fn`` F, increasing) or fstar-monotone (F*, decreasing)
    at consecutive grid values (x_lo, x_hi); each x is evaluated once, and
    a failure there is recorded for the pairs that use it."""
    table = _table(partial(fn, pq, ordv), [x for pt in pts for x in pt])
    los, his = [lo for lo, _ in pts], [hi for _, hi in pts]
    errors: list = []
    pos, (left, right) = _solved(table, errors, range(len(pts)),
                                 (his, los) if increasing else (los, his))
    lhs, rhs = [table[x] for x in left], [table[x] for x in right]
    los, his = (right, left) if increasing else (left, right)
    ats = [{"p": pq.p, "q": pq.q, "x_lo": lo, "x_hi": hi, "order": ordv}
           for lo, hi in zip(los, his)]
    return _verdicts(lhs, rhs, [lh - rh for lh, rh in zip(lhs, rhs)], ats, tolerance), errors


def _probe(check, pq, order, grid_n, x_max) -> SweepReport:
    """One cell of a probe sweep over fractions 0.01..0.99 of the check's
    scale, with the grid reported in absolute x."""
    x = GridAxis("x", 0.01, 0.99, grid_n)
    report = run_sweep(check, [GridAxis("p", pq.p, pq.p, 1), GridAxis("q", pq.q, pq.q, 1), x],
                       order=order, x_max=x_max)
    xs, scale = x.values(), CHECKS[check].scale(pq, x_max)
    report.grid = (GridAxis("x", xs[0] * scale, xs[-1] * scale, grid_n),)
    return report


def F_monotonicity_probe(pq: PQParams, order: float, grid_n: int) -> SweepReport:
    """Scan F on (0, 1): strictly increasing exactly when order <= 0.

    Each verdict compares consecutive grid values; ``all_satisfied``
    means every difference was positive.  For order > 0 the scan is
    expected to record a violation.
    """
    return _probe("f-monotone", pq, order, grid_n, 1.0)


def Fstar_monotonicity_probe(
    pq: PQParams, order: float, grid_n: int, x_max: float = 50.0
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
    pq: PQParams, order: float, budget: int = 40000
) -> CounterexampleResult:
    """Grid scan plus local refinement for both margin signs on (0, 1)**2.

    The coarse grid has floor(sqrt(budget)) points per side; the most
    negative and most positive cells are then refined by three rounds of
    10x zoom.  Margins within 1e-11 of zero (the diagonal's equality
    case) never qualify as witnesses.
    """
    ordv = holder_order(order)
    if not (ordv > 0.0):
        raise DomainError("counterexample_search needs a positive order")
    if count(budget, "budget") < 100:
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
        lhs = arcsin(_holder_mean(ordv, x, y))
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
        self.cell = cell  # (pq, argument tuples, order, tolerance) -> (verdicts, errors)
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
    "f-monotone": _Check(("x",), partial(_probe_cell, _F, True), **_PAIRS),
    "fstar-monotone": _Check(("x",), partial(_probe_cell, _Fstar, False),
                             lambda pq, x_max: x_max, **_PAIRS),
}

CHECK_NAMES = tuple(CHECKS)


def run_sweep(
    check: str,
    axes: Sequence[GridAxis],
    *,
    order: Optional[float] = None,
    tolerance: Optional[float] = None,
    threads: int = 0,
    x_max: float = 50.0,
) -> SweepReport:
    """Evaluate a named check over the grid spanned by ``axes``.

    ``axes`` starts with the p and q axes followed by the check's inner
    argument axes expressed as domain fractions (see :class:`GridAxis`);
    ``x_max``, finite and positive, is the domain of fstar-monotone; a
    ``tolerance`` given must be a finite number >= 0, and an ``order``
    a finite float; the report records the order only for a check that
    needs one; an inner axis needs at least the check's fewest grid
    values (10 for a probe).  Each argument is checked before anything
    is computed, and a bad one raises :class:`DomainError`.  The unit of
    work is one (p, q) cell, computed in columns: its inverse values come
    from one batched solve per function over the cell's distinct
    targets, and it returns its verdicts, each the verdict of the scalar
    check at its point, and its errors with their positions in the cell.
    Verdicts are reported in row-major grid order, and each error
    (:class:`SweepError`, a :class:`PQTrigError` at one point, recorded
    rather than raised) with its row-major index; any other exception
    propagates.  With ``threads > 1`` the cells are computed
    concurrently, one task each, and merged back in order.
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
            raise DomainError(f"{check} needs at least {entry.min_grid} values on axis "
                              f"{ax.name!r}, got {ax.n}")
    ordv = None if order is None else holder_order(order)
    if not entry.needs_order:
        ordv = None  # checked, but none of this check's verdicts uses it
    elif ordv is None:
        raise DomainError(f"{check} requires a Hölder order")
    _check_tolerance(tolerance)
    if not (0.0 < real(x_max, "x_max") < math.inf):
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
    index = 0  # of the cell's first point, in row-major order
    for pq, (pts, (cell_verdicts, cell_errors)) in zip(cells, results):
        verdicts.extend(cell_verdicts)
        for i, exc in sorted(cell_errors, key=itemgetter(0)):
            at = {"p": pq.p, "q": pq.q}
            at.update(zip(entry.args, pts[i]))
            errors.append(SweepError(index + i, at, f"{type(exc).__name__}: {exc}"))
        index += len(pts)
    return report
