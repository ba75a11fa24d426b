"""Mechanical verification of the inequality and monotonicity claims.

Every check produces an :class:`InequalityVerdict` whose ``margin`` is
oriented so that a nonnegative value means the claim holds at that point;
``lhs`` and ``rhs`` carry the literal sides of the stated inequality.
Identity checks (the double-angle relation) use ``margin = -|lhs - rhs|``
so the same satisfaction rule applies.

An instance is satisfied when ``margin >= -tolerance``.  The tolerance
is the check's own: ``1e-9 + 1e-9 * |rhs|``, covering the forward series
and inversion error carried by both sides plus the equality case on the
diagonal of the mean inequalities, and 1e-8 for the double-angle
identity.  A Hölder order must be a finite float (DomainError otherwise,
before anything is computed).

The checks, by registry name:

    lemma21         arcsin_pq(x) > p x (1-x**q)**(1-1/p) / ((q-p) x**q + p)
    lemma22         x / arcsinh_pq(x) > ((p-q) x**q + p) / (p (1+x**q)**(1-1/p))
    lemma23         m_star_pq > 1 (infinite exactly when p >= q)
    thm11-sin       sin_pq(sqrt(r s)) >= sqrt(sin_pq(r) sin_pq(s))
    thm11-sinh      sinh_pq(sqrt(r* s*)) <= sqrt(sinh_pq(r*) sinh_pq(s*))
    gm-sin          sin_pq(sqrt(r s)) >= H_ord(sin_pq(r), sin_pq(s))
    gm-sinh         sinh_pq(sqrt(r* s*)) <= H_ord(sinh_pq(r*), sinh_pq(s*))
    double-angle    sin(2x) = 2 sin(x) cos(x)**(1/3) / (1 + 4 sin(x)**4 cos(x)**(4/3))**(1/2)
                    at (p, q) = (4/3, 4), x in (0, half_pi/2)
    f-monotone      F(x) = x**(1-ord) / (arcsin_pq(x) (1-x**q)**(1/p)) increasing
    fstar-monotone  F*(x) = x**(1-ord) / (arcsinh_pq(x) (1+x**q)**(1/p)) decreasing

The geometric-mean inequalities are sharp at order 0: gm-sin holds for
every argument pair exactly when ord <= 0, gm-sinh exactly when
ord >= 0; at order 0 they are thm11, bit for bit.  ``counterexample_search``
exhibits the failure (and a satisfying instance) for gm-sin at a
positive order in its arcsin form, arcsin_pq(H_ord(x, y)) <=
sqrt(arcsin_pq(x) arcsin_pq(y)) at x = sin_pq(r), y = sin_pq(s), from
forward values only: the one formula written outside a cell evaluator,
kept while the benchmark checks witnesses by (x, y) and that margin.
Searched in the check's own (r, s), it would need none.  For p < q the
bound of lemma22 changes sign at x0 = (p/(q-p))**(1/q), and its
verdicts record which side x is on.

Every check is one entry of the ``CHECKS`` registry: its inner axis
names, how their values become argument tuples (every combination, or
for the probes each pair (x_lo, x_hi) of neighbouring values), the scale
of the axes' fractions, whether it needs a Hölder order, and its fewest
grid values.  The registry is the lab's only way in: ``check_at`` asks
a check at one point, ``run_sweep`` over a grid, and the CLI reads its
checks' axes from it.

A sweep's unit of work is one (p, q) cell, which its check's cell
evaluator computes in columns, in one pass: one domain test over the
cell's points; one column of values over the arguments of all its
reads, each read a slice, from one ``inverse._roots`` call or one
forward call per distinct argument, and its means from the kernels'
``means``; then the columns of lhs, rhs, margin, tolerance and
satisfied, and one verdict per row.  A point outside the domain, one
that reads a failed value and one whose formula fails each get an error
instead of a verdict; the cell returns its verdicts in point order and
its errors with their positions, so the sweep gives each error its
row-major index.  No value is cached between calls.  Each check's
formula is written once, in its cell evaluator (the search's arcsin
form aside), and ``check_at`` is a one-point cell.  A value depends
only on (p, q) and its argument, so every verdict and error of a sweep
equals ``check_at``'s at its point, bit for bit.
"""

import math
from functools import partial
from itertools import product
from operator import itemgetter
from typing import Mapping, NamedTuple, Optional, Sequence

from ._backend import kernels
from ._records import Validated, count, holder_order, real
from .errors import ComputationError, DomainError, PQTrigError
from .functions import PQParams, _pair, arcsin_pq, arcsinh_pq, half_pi_pq, m_star_pq
from .inverse import _roots

DEFAULT_TOL_ABS = 1e-9
DEFAULT_TOL_REL = 1e-9
DOUBLE_ANGLE_TOL = 1e-8  # the identity's margin is -|lhs - rhs|, so it has no rhs scale

# hyperbolic argument grids are capped here when m_star is infinite (or larger)
SINH_ARG_CAP = 5.0

_LN_MAX = math.log(1.7976931348623157e308)


def _softplus(a: float) -> float:
    # ln(1 + e**a) without overflow: ln(1 + x**q) at a = q ln x
    if a > 0.0:
        return a + math.log1p(math.exp(-a))
    return math.log1p(math.exp(a))


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


_new_verdict = partial(tuple.__new__, InequalityVerdict)  # from a tuple of its six fields


def _verdicts(lhs, rhs, margin, ats, fixed_tol=None) -> list[InequalityVerdict]:
    """One verdict per row of the columns lhs, rhs, margin and ``ats``,
    whose every row is a fresh dict; its tolerance is ``fixed_tol`` for
    an identity check, else the default for its rhs."""
    if fixed_tol is None:
        tol_abs, tol_rel, inf = DEFAULT_TOL_ABS, DEFAULT_TOL_REL, math.inf
        tols = [tol_abs if h == inf else tol_abs + tol_rel * h for h in map(abs, rhs)]
    else:
        tols = [fixed_tol] * len(rhs)
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
# one column of values aligned with the arguments it reads (one ``_roots``
# call per inverse function), then the columns of lhs, rhs and margin.  Each
# returns its verdicts, in point order, and its errors as (position,
# PQTrigError) pairs: a point out of the domain, or one that reads a
# failed value or whose formula fails, has an error and no verdict.
# ``check_at`` is a one-point cell.

def _domain(pts, inside, error) -> tuple[list, Sequence[int], list]:
    """(the points whose ``inside`` is true, their positions, and the
    errors list, holding (position, error(*point)) for every other point)."""
    if all(inside):
        return pts, range(len(pts)), []
    pos = [i for i, ok in enumerate(inside) if ok]
    errors = [(i, error(*pts[i])) for i, ok in enumerate(inside) if not ok]
    return [pts[i] for i in pos], pos, errors


def _table(fn, xs) -> tuple[list, list]:
    """(fn(x) or the PQTrigError it raises, for each x of ``xs``; the
    positions of the errors, ascending), calling fn once per distinct x."""
    table, failed = dict.fromkeys(xs), False
    for x in table:
        try:
            table[x] = fn(x)
        except PQTrigError as exc:  # recorded, not fatal; anything else is a bug
            table[x] = exc
            failed = True
    values = list(map(table.__getitem__, xs))
    return values, [i for i, v in enumerate(values) if isinstance(v, PQTrigError)] if failed else []


def _solved(values, failed, errors, pos, cols) -> tuple[list, list, tuple]:
    """(pos, values, cols) without the points that read a failed value.

    ``values`` is a cell's columns of one value per point, concatenated in
    the order a point reads them, and ``failed`` its failed positions,
    ascending.  A dropped point is added to ``errors`` at its position
    with the error of the first failed value it reads; ``cols`` are the
    points' other columns.  A cell calls this only where a value failed.
    """
    n = len(pos)
    first = {}
    for f in failed:
        first.setdefault(f % n, values[f])
    errors.extend((pos[i], first[i]) for i in sorted(first))
    kept = [i for i in range(n) if i not in first]
    values = [values[j + i] for j in range(0, len(values), n) for i in kept]
    return [pos[i] for i in kept], values, tuple([col[i] for i in kept] for col in cols)


def _lemma21_cell(pq, pts, ordv) -> tuple[list, list]:
    p, q = pq.p, pq.q
    pts, pos, errors = _domain(pts, [0.0 < x < 1.0 for (x,) in pts],
                               lambda x: DomainError(f"lemma21 needs x in (0, 1), got {x!r}"))
    xs = [x for (x,) in pts]
    lhs, failed = _table(partial(arcsin_pq, pq), xs)
    if failed:
        pos, lhs, (xs,) = _solved(lhs, failed, errors, pos, (xs,))
    rhs = []
    for x in xs:
        xq = math.pow(x, q)
        rhs.append(p * x * math.pow(1.0 - xq, 1.0 - 1.0 / p) / ((q - p) * xq + p))
    ats = [{"p": p, "q": q, "x": x} for x in xs]
    return _verdicts(lhs, rhs, [lh - rh for lh, rh in zip(lhs, rhs)], ats), errors


def _lemma22_cell(pq, pts, ordv) -> tuple[list, list]:
    p, q = pq.p, pq.q
    x0 = math.pow(p / (q - p), 1.0 / q) if p < q else None
    pts, pos, errors = _domain(pts, [x > 0.0 and math.isfinite(x) for (x,) in pts],
                               lambda x: DomainError(f"lemma22 needs finite x > 0, got {x!r}"))
    xs = [x for (x,) in pts]
    values, failed = _table(partial(arcsinh_pq, pq), xs)
    if failed:
        pos, values, (xs,) = _solved(values, failed, errors, pos, (xs,))
    lhs, rhs, ats = [], [], []
    for i, x, value in zip(pos, xs, values):
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
        lhs.append(x / value)
        rhs.append(rh)
        ats.append(at)
    return _verdicts(lhs, rhs, [lh - rh for lh, rh in zip(lhs, rhs)], ats), errors


def _lemma23_cell(pq, pts, ordv) -> tuple[list, list]:
    try:
        ms = m_star_pq(pq)
    except PQTrigError as exc:
        return [], [(i, exc) for i in range(len(pts))]
    lhs, margin = (ms.value, ms.value - 1.0) if ms.is_finite else (math.inf, math.inf)
    n = len(pts)
    ats = [{"p": pq.p, "q": pq.q, "m_star": ms.as_float()} for _ in pts]
    return _verdicts([lhs] * n, [1.0] * n, [margin] * n, ats), []


def _mean_cell(check, pq, pts, ordv) -> tuple[list, list]:
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
    # lhs, a and b read the function at sqrt(r s), r and s: one column of three
    values, failed = _roots(fn, pq, kernels.means(0.0, rs, ss) + rs + ss)
    if failed:
        pos, values, (rs, ss) = _solved(values, failed, errors, pos, (rs, ss))
    n = len(rs)
    lhs, a, b = values[:n], values[n:2 * n], values[2 * n:]
    # roots of r, s > 0 are positive; thm11 is the mean of order 0
    rhs = kernels.means(0.0 if ordv is None else ordv, a, b)
    if ordv is None:
        ats = [{"p": p, "q": q, "r": r, "s": s} for r, s in zip(rs, ss)]
    else:
        ats = [{"p": p, "q": q, "order": ordv, "r": r, "s": s} for r, s in zip(rs, ss)]
    if fn == "sinh":
        margin = [rh - lh for lh, rh in zip(lhs, rhs)]
    else:
        margin = [lh - rh for lh, rh in zip(lhs, rhs)]
    return _verdicts(lhs, rhs, margin, ats), errors


def _double_angle_cell(pq, pts, ordv) -> tuple[list, list]:
    half = 0.5 * half_pi_pq(pq)
    pts, pos, errors = _domain(
        pts, [0.0 < x < half for (x,) in pts],
        lambda x: DomainError(f"double-angle needs x in (0, {half:.12g}), got {x!r}"))
    xs = [x for (x,) in pts]
    # sin_pq at 2x, and sin_pq and cos_pq at x from one shared root
    values, failed = _roots("sincos", pq, [2.0 * x for x in xs] + xs)
    if failed:
        pos, values, (xs,) = _solved(values, failed, errors, pos, (xs,))
    n = len(xs)
    lhs = [sc[0] for sc in values[:n]]
    rhs = [2.0 * sx * math.pow(cx, 1.0 / 3.0)
           / math.sqrt(1.0 + 4.0 * sx**4 * math.pow(cx, 4.0 / 3.0))
           for sx, cx in values[n:]]
    ats = [{"p": pq.p, "q": pq.q, "x": x} for x in xs]
    margin = [-abs(lh - rh) for lh, rh in zip(lhs, rhs)]
    return _verdicts(lhs, rhs, margin, ats, DOUBLE_ANGLE_TOL), errors


# ---------------------------------------------------------------------------
# proof-machinery functions, and the monotonicity probes' cell

def G_fn(pq: PQParams, x: float) -> float:
    """G(x) = q x**q / (p (1-x**q)) - x / (arcsin_pq(x) (1-x**q)**(1/p)).

    Defined on (0, 1) with range (-1, inf): G tends to -1 at 0 and to
    +inf at 1.
    """
    pq, x = _pair(pq, "G_fn's pq"), real(x, "G_fn's x")
    if not (0.0 < x < 1.0):
        raise DomainError(f"G_fn needs x in (0, 1), got {x!r}")
    xq = math.pow(x, pq.q)
    omxq = -math.expm1(pq.q * math.log(x))
    return pq.q * xq / (pq.p * omxq) - x / (arcsin_pq(pq, x) * math.pow(omxq, 1.0 / pq.p))


def Gstar_fn(pq: PQParams, x: float) -> float:
    """G*(x) = x / (arcsinh_pq(x) (1+x**q)**(1/p)) + q x**q / (p (1+x**q)).

    Exceeds 1 for every x > 0 and tends to 1 at 0.
    """
    pq, x = _pair(pq, "Gstar_fn's pq"), real(x, "Gstar_fn's x")
    if not (x > 0.0 and math.isfinite(x)):
        raise DomainError(f"Gstar_fn needs finite x > 0, got {x!r}")
    lx, sp = math.log(x), _softplus(pq.q * math.log(x))  # ln x and ln(1 + x**q)
    first = math.exp(lx - math.log(arcsinh_pq(pq, x)) - sp / pq.p)
    return first + pq.q / pq.p * math.exp(pq.q * lx - sp)


def F_fn(pq: PQParams, order: float, x: float) -> float:
    """F(x) = x**(1-order) / (arcsin_pq(x) (1-x**q)**(1/p)) on (0, 1)."""
    return _F(_pair(pq, "F_fn's pq"), holder_order(order), real(x, "F_fn's x"))


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
    return _Fstar(_pair(pq, "Fstar_fn's pq"), holder_order(order), real(x, "Fstar_fn's x"))


def _Fstar(pq: PQParams, ordv: float, x: float) -> float:
    """:func:`Fstar_fn` for an order and an x that are already floats."""
    if not (x > 0.0 and math.isfinite(x)):
        raise DomainError(f"Fstar_fn needs finite x > 0, got {x!r}")
    lx = math.log(x)
    ln_f = (1.0 - ordv) * lx - math.log(arcsinh_pq(pq, x)) - _softplus(pq.q * lx) / pq.p
    return _exp(ln_f, "Fstar_fn", x)


def _probe_cell(check, fn, increasing, pq, pts, ordv) -> tuple[list, list]:
    """f-monotone (``fn`` F, increasing) or fstar-monotone (F*, decreasing)
    at pairs x_lo < x_hi; each x is evaluated once, and a failure there is
    recorded for the pairs that use it."""
    pts, pos, errors = _domain(
        pts, [lo < hi for lo, hi in pts],
        lambda lo, hi: DomainError(f"{check} needs x_lo < x_hi, got {lo!r}, {hi!r}"))
    los, his = [lo for lo, _ in pts], [hi for _, hi in pts]
    left, right = (his, los) if increasing else (los, his)
    values, failed = _table(partial(fn, pq, ordv), left + right)
    if failed:
        pos, values, (left, right) = _solved(values, failed, errors, pos, (left, right))
    n = len(left)
    lhs, rhs = values[:n], values[n:]
    los, his = (right, left) if increasing else (left, right)
    ats = [{"p": pq.p, "q": pq.q, "x_lo": lo, "x_hi": hi, "order": ordv}
           for lo, hi in zip(los, his)]
    return _verdicts(lhs, rhs, [lh - rh for lh, rh in zip(lhs, rhs)], ats), errors


# ---------------------------------------------------------------------------
# counterexample search for the sharpness threshold

class CounterexampleResult(NamedTuple):
    """Outcome of a sharpness search at a positive Hölder order.

    Each witness is the :class:`InequalityVerdict` of the claim
    arcsin_pq(H_ord(x, y)) <= sqrt(arcsin_pq(x) arcsin_pq(y)) at
    ``at`` = {p, q, order, x, y}, with lhs and rhs its two sides and margin
    rhs - lhs.  The violating witness is not satisfied; the satisfying one
    has a margin above its tolerance.  Either field is None when no witness
    of that kind emerged; ``evaluations`` counts the points evaluated.
    """

    violating: Optional[InequalityVerdict]
    satisfying: Optional[InequalityVerdict]
    evaluations: int


def _search_stage(pq, ordv, pts) -> list[InequalityVerdict]:
    """The verdicts at the first point (x, y) of the least margin and at
    the first of the greatest, from one column pass over ``pts`` as a cell
    makes it: the means from one column, the values from one column over
    the arguments of all its reads, then the columns of lhs, rhs and
    margin.  The first point that reads a failed value raises its error."""
    xs, ys = [x for x, _ in pts], [y for _, y in pts]
    values, failed = _table(partial(arcsin_pq, pq), kernels.means(ordv, xs, ys) + xs + ys)
    n = len(pts)
    if failed:
        errors: list = []
        _solved(values, failed, errors, range(n), ())
        raise errors[0][1]
    lhs = values[:n]
    rhs = [math.sqrt(a * b) for a, b in zip(values[n:2 * n], values[2 * n:])]
    margin = [rh - lh for lh, rh in zip(lhs, rhs)]
    # a stage keeps two of its points, so only those two become verdicts
    ends = [min(range(len(pts)), key=margin.__getitem__),
            max(range(len(pts)), key=margin.__getitem__)]
    ats = [{"p": pq.p, "q": pq.q, "order": ordv, "x": pts[i][0], "y": pts[i][1]} for i in ends]
    return _verdicts(*([col[i] for i in ends] for col in (lhs, rhs, margin)), ats)


def counterexample_search(
    pq: PQParams, order: float, budget: int = 40000
) -> CounterexampleResult:
    """Grid scan plus local refinement for both margin signs on (0, 1)**2.

    ``budget``, an integer from 100 to 250000 (the cap bounds the coarse
    stage's memory, about 25 MB there), sets the side of the coarse grid
    on [0.005, 0.995], floor(sqrt(budget)) and at least 10, whose
    triangle x < y is scanned; it does not bound the evaluations.  The
    first point of the least margin, if that is negative, and the first
    of the greatest, if that is positive, are each refined by three
    rounds of an 11x11 grid, a tenth as wide each round, around the best
    point so far, which a round's extreme replaces only with a strictly
    more extreme margin.  Each stage is one column pass.  A refined point
    is a witness where its verdict is decided outside its tolerance.
    """
    pq = _pair(pq, "counterexample_search's pq")
    ordv = holder_order(order)
    if not (ordv > 0.0):
        raise DomainError("counterexample_search needs a positive order")
    budget = count(budget, "budget")
    if budget < 100:
        raise DomainError("budget must be at least 100")
    if budget > 250000:
        raise DomainError("budget must be at most 250000")
    n = max(10, math.isqrt(budget))
    grid = GridAxis("x", 0.005, 0.995, n).values()
    coarse = _search_stage(pq, ordv, [(x, y) for i, x in enumerate(grid) for y in grid[i + 1:]])
    evals = n * (n - 1) // 2

    def witness(end: int, sign: float) -> Optional[InequalityVerdict]:
        # ``end`` picks a stage's least (0) or greatest (1) margin, and
        # ``sign`` orients it so that more extreme is larger
        nonlocal evals
        best = coarse[end]
        if not sign * best.margin > 0.0:
            return None
        span = (grid[-1] - grid[0]) / (n - 1)
        for _ in range(3):
            cx, cy = best.at["x"], best.at["y"]
            steps = [span * (i - 5) / 5.0 for i in range(11)]
            row = [min(0.9995, max(5e-4, cx + d)) for d in steps]
            col = [min(0.9995, max(5e-4, cy + d)) for d in steps]
            # never empty: the centre (cx, cy) is a point, 1e-12 or more off the diagonal
            pts = [(x, y) for x in row for y in col if abs(x - y) >= 1e-12]
            evals += len(pts)
            top = _search_stage(pq, ordv, pts)[end]
            if sign * top.margin > sign * best.margin:
                best = top
            span /= 10.0
        # violated (margin < -tolerance) or satisfied with margin > tolerance
        return best if sign * best.margin > best.tolerance else None

    violating, satisfying = witness(0, -1.0), witness(1, 1.0)
    return CounterexampleResult(violating, satisfying, evals)


# ---------------------------------------------------------------------------
# sweep runner

def _sinh_scale(pq: PQParams, x_max: float) -> float:
    ms = m_star_pq(pq)
    if ms.is_finite:
        return min(ms.value, SINH_ARG_CAP)
    return SINH_ARG_CAP


def _consecutive(xs: list[float]):
    """Each pair (lo, hi) of neighbouring values of the one inner axis."""
    return zip(xs, xs[1:])


class _Check:
    """A registry entry: how one check turns its grid into verdicts.

    A plain class, because building a NamedTuple class here added about
    0.3 ms to ``import pqtrig``.
    """

    __slots__ = ("axes", "cell", "scale", "points", "args", "needs_order", "min_grid")

    def __init__(self, axes, cell, scale=lambda pq, x_max: 1.0, points=product, args=(),
                 needs_order=False, min_grid=1):
        self.axes = axes  # the inner axis names, after p and q
        self.cell = cell  # (pq, argument tuples, order) -> (verdicts, errors)
        self.scale = scale  # (pq, x_max) -> the factor of the inner axes' fractions
        # (each inner axis's values) -> the argument tuples; itertools.product
        # gives every combination, the last axis fastest
        self.points = points
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
    "f-monotone": _Check(("x",), partial(_probe_cell, "f-monotone", _F, True), **_PAIRS),
    "fstar-monotone": _Check(("x",), partial(_probe_cell, "fstar-monotone", _Fstar, False),
                             lambda pq, x_max: x_max, **_PAIRS),
}

CHECK_NAMES = tuple(CHECKS)


def _entry(check: str) -> _Check:
    entry = CHECKS.get(check)
    if entry is None:
        raise DomainError(f"unknown check {check!r}; expected one of {', '.join(CHECK_NAMES)}")
    return entry


def _order(check: str, entry: _Check, order: Optional[float]) -> Optional[float]:
    """``order`` as a finite float where ``check`` uses one, else None
    (after checking a given one all the same)."""
    ordv = None if order is None else holder_order(order)
    if not entry.needs_order:
        return None
    if ordv is None:
        raise DomainError(f"{check} requires a Hölder order")
    return ordv


def check_at(check: str, pq: PQParams, *args: float,
             order: Optional[float] = None) -> InequalityVerdict:
    """The verdict of the registered ``check`` at one point, whose ``args``
    (named by the check's ``args``: x, none for lemma23, (r, s) or
    (x_lo, x_hi)) are absolute.  As in :func:`run_sweep`, an unknown
    check, a pair that is no :class:`PQParams`, the wrong number of
    arguments, a missing order where the check needs one and a non-finite
    order raise :class:`DomainError` before anything is computed; an
    order the check does not use is checked and not recorded.  A point
    raises the error that a sweep records there."""
    entry, pq = _entry(check), _pair(pq, "check_at's pq")
    if len(args) != len(entry.args):
        raise DomainError(f"{check} takes the arguments ({', '.join(entry.args)}), "
                          f"got {len(args)}")
    ordv = _order(check, entry, order)
    pt = tuple(real(v, f"{check}'s {name}") for name, v in zip(entry.args, args))
    verdicts, errors = entry.cell(pq, [pt], ordv)
    if errors:
        raise errors[0][1]
    return verdicts[0]


def run_sweep(
    check: str,
    axes: Sequence[GridAxis],
    *,
    order: Optional[float] = None,
    threads: int = 0,
    x_max: float = 50.0,
) -> SweepReport:
    """Evaluate a named check over the grid spanned by ``axes``.

    ``axes`` starts with the p and q axes followed by the check's inner
    argument axes expressed as domain fractions (see :class:`GridAxis`);
    ``x_max``, finite and positive, is the domain of fstar-monotone; an
    ``order`` must be a finite float, and the report records it only for
    a check that needs one; an inner axis needs at least the check's
    fewest grid values (10 for a probe).  Each argument is checked before
    anything is computed, and a bad one raises :class:`DomainError`;
    ``threads`` must be an integer.  The unit of work is one (p, q) cell,
    computed in columns: its inverse values come from one kernel solve
    over all the targets of the cell, and it returns its verdicts, each
    the verdict of :func:`check_at` at its point, and its errors with
    their positions in the cell.
    Verdicts are reported in row-major grid order, and each error
    (:class:`SweepError`, a :class:`PQTrigError` at one point, recorded
    rather than raised) with its row-major index; any other exception
    propagates.  With ``threads > 1`` the cells are computed
    concurrently, one task each, and merged back in order.
    """
    threads = count(threads, "threads")
    axes = tuple(axes)
    if not axes:
        raise DomainError("axes must be nonempty")
    entry = _entry(check)
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
    ordv = _order(check, entry, order)
    if not (0.0 < real(x_max, "x_max") < math.inf):
        raise DomainError(f"x_max must be finite and positive, got {x_max!r}")
    frac_grids = [ax.values() for ax in axes[2:]]

    def cell(pq):
        scale = entry.scale(pq, x_max)
        pts = list(entry.points(*[[f * scale for f in fg] for fg in frac_grids]))
        return pts, entry.cell(pq, pts, ordv)

    cells = [PQParams(p, q) for p in axes[0].values() for q in axes[1].values()]
    if threads > 1:
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
