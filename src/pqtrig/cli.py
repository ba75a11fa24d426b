"""Command-line surface: evaluation, constants, verification sweeps and
counterexample search, with text, CSV and JSON emission.

Exit codes: 0 all satisfied, 1 violations or evaluation failures,
2 usage errors.
"""

import argparse
import math
import re
import sys
from typing import Optional

from ._backend import backend_name
from .errors import DomainError, PQTrigError
from .functions import PQParams, arccos_pq, arcsin_pq, arcsinh_pq, half_pi_pq, m_star_pq
from .inequalities import (
    CHECKS,
    GridAxis,
    SweepReport,
    counterexample_search,
    run_sweep,
)
from .inverse import cos_pq, sin_pq, sinh_pq

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

_EVAL_FNS = {
    "arcsin": arcsin_pq,
    "arccos": arccos_pq,
    "arcsinh": arcsinh_pq,
    "sin": sin_pq,
    "cos": cos_pq,
    "sinh": sinh_pq,
}

CSV_HEADER = "p,q,check,arg1,arg2,lhs,rhs,margin,satisfied"


class UsageError(Exception):
    pass


def _fmt12(v: float) -> str:
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return f"{v:.12g}"


def _jsonable(v):
    if isinstance(v, float) and math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return v


def _json(obj, sort_keys: bool = True) -> str:
    import json  # only JSON output loads the module

    return json.dumps(obj, indent=2, sort_keys=sort_keys)


def _checked(make, *args, **kwargs):
    """``make(*args, **kwargs)`` for PQParams, GridAxis, run_sweep or
    counterexample_search, each of which raises DomainError only for a bad
    argument and before it computes anything: that is a usage error."""
    try:
        return make(*args, **kwargs)
    except DomainError as exc:
        raise UsageError(str(exc)) from None


def _parse_range(text: str, name: str) -> GridAxis:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"--{name}-range must look like lo:hi:n, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise UsageError(f"bad --{name}-range {text!r}: {exc}") from None
    return _checked(GridAxis, name, lo, hi, n)


def _emit(text: str, ns: argparse.Namespace) -> None:
    if ns.output:
        try:
            fh = open(ns.output, "w")
        except OSError as exc:
            raise UsageError(f"cannot write --output {ns.output!r}: {exc.strerror}") from None
        with fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _verdict_row(label: str, names, v) -> str:
    """The CSV row of verdict ``v``, labelled ``label``, with its arguments
    ``names`` (up to two) in arg1 and arg2."""
    at = v.at
    arg1, arg2 = ([_fmt12(at[name]) for name in names] + ["", ""])[:2]
    return ",".join(
        [
            _fmt12(at["p"]),
            _fmt12(at["q"]),
            label,
            arg1,
            arg2,
            _fmt12(v.lhs),
            _fmt12(v.rhs),
            _fmt12(v.margin),
            "true" if v.satisfied else "false",
        ]
    )


def _report_csv(report: SweepReport) -> str:
    check, args = report.check, CHECKS[report.check].args
    return "\n".join([CSV_HEADER] + [_verdict_row(check, args, v) for v in report.verdicts])


def _report_json(report: SweepReport) -> str:
    obj = {
        "check": report.check,
        "order": report.order,
        "grid": [
            {"name": ax.name, "lo": ax.lo, "hi": ax.hi, "n": ax.n} for ax in report.grid
        ],
        "verdicts": [
            {
                "lhs": _jsonable(v.lhs),
                "rhs": _jsonable(v.rhs),
                "margin": _jsonable(v.margin),
                "tolerance": _jsonable(v.tolerance),
                "satisfied": v.satisfied,
                "at": {k: _jsonable(val) for k, val in v.at.items()},
            }
            for v in report.verdicts
        ],
        "errors": [
            {"index": e.index, "at": dict(e.at), "message": e.message} for e in report.errors
        ],
        "worst_margin": _jsonable(report.worst_margin),
        "all_satisfied": report.all_satisfied,
        "counterexamples": [
            {k: _jsonable(val) for k, val in at.items()} for at in report.counterexamples
        ],
    }
    return _json(obj)


def _report_text(report: SweepReport) -> str:
    lines = [
        f"check: {report.check}"
        + (f" (order={_fmt12(report.order)})" if report.order is not None else ""),
        "grid: " + "; ".join(
            f"{ax.name} in [{_fmt12(ax.lo)}, {_fmt12(ax.hi)}] x{ax.n}" for ax in report.grid
        ),
        f"points: {len(report.verdicts)}  errors: {len(report.errors)}",
        f"worst margin: {_fmt12(report.worst_margin)}",
        f"all satisfied: {'yes' if report.all_satisfied else 'no'}",
    ]
    if report.counterexamples:
        lines.append(f"counterexamples ({len(report.counterexamples)} shown up to 20):")
        for at in report.counterexamples[:20]:
            lines.append("  " + ", ".join(f"{k}={_fmt12(v) if isinstance(v, float) else v}"
                                          for k, v in at.items()))
    if report.errors:
        lines.append("evaluation failures:")
        for e in report.errors[:20]:
            lines.append(f"  [{e.index}] {e.message}")
    return "\n".join(lines)


def _emit_report(report: SweepReport, ns: argparse.Namespace) -> int:
    if ns.format == "csv":
        _emit(_report_csv(report), ns)
    elif ns.format == "json":
        _emit(_report_json(report), ns)
    else:
        _emit(_report_text(report), ns)
    return EXIT_OK if (report.all_satisfied and not report.errors) else EXIT_VIOLATION


def cmd_eval(ns: argparse.Namespace) -> int:
    pq, fn = _checked(PQParams, ns.p, ns.q), _EVAL_FNS[ns.fn]
    rows = [(x, fn(pq, x)) for x in ns.x]
    if ns.format == "csv":
        _emit("\n".join(["x,value"] + [f"{_fmt12(x)},{_fmt12(v)}" for x, v in rows]), ns)
    elif ns.format == "json":
        _emit(_json([{"x": x, "value": v} for x, v in rows], sort_keys=False), ns)
    else:
        _emit("\n".join(f"{_fmt12(x)} {_fmt12(v)}" for x, v in rows), ns)
    return EXIT_OK


def cmd_constants(ns: argparse.Namespace) -> int:
    pq = _checked(PQParams, ns.p, ns.q)
    hp = half_pi_pq(pq)
    ms = m_star_pq(pq)
    ms_text = _fmt12(ms.value) if ms.is_finite else "inf"
    if ns.format == "csv":
        _emit(f"p,q,half_pi,m_star\n{_fmt12(ns.p)},{_fmt12(ns.q)},{_fmt12(hp)},{ms_text}", ns)
    elif ns.format == "json":
        _emit(
            _json({"p": ns.p, "q": ns.q, "half_pi": hp,
                   "m_star": ms.value if ms.is_finite else "inf"}),
            ns,
        )
    else:
        _emit(f"half_pi = {_fmt12(hp)}\nm_star = {ms_text}", ns)
    return EXIT_OK


def cmd_check(ns: argparse.Namespace) -> int:
    """``verify`` (one (p, q) point) and ``sweep`` (p and q ranges)."""
    if ns.command == "verify":
        pq = _checked(PQParams, ns.p, ns.q)  # first, so a bad p or q gets PQParams' message
        pq_axes = [GridAxis("p", pq.p, pq.p, 1), GridAxis("q", pq.q, pq.q, 1)]
    else:
        pq_axes = [_parse_range(ns.p_range, "p"), _parse_range(ns.q_range, "q")]
    if ns.grid < 2:
        raise UsageError("--grid must be at least 2")
    # an unknown check gets no inner axes, and run_sweep names it
    inner = CHECKS[ns.check].axes if ns.check in CHECKS else ()
    axes = pq_axes + [GridAxis(name, 0.01, 0.99, ns.grid) for name in inner]
    report = _checked(run_sweep, ns.check, axes, order=ns.order, x_max=ns.x_max)
    return _emit_report(report, ns)


def cmd_counterexample(ns: argparse.Namespace) -> int:
    pq = _checked(PQParams, ns.p, ns.q)
    result = _checked(counterexample_search, pq, ns.order, ns.budget)
    rows = [("violating", result.violating), ("satisfying", result.satisfying)]
    if ns.format == "csv":
        _emit("\n".join([CSV_HEADER] + [_verdict_row(f"counterexample-{label}", ("x", "y"), w)
                                        for label, w in rows if w is not None]), ns)
    elif ns.format == "json":
        obj = {
            "p": ns.p, "q": ns.q, "order": ns.order,
            "evaluations": result.evaluations,
        }
        for label, w in rows:
            obj[label] = None if w is None else {
                "x": w.at["x"], "y": w.at["y"], "lhs": w.lhs, "rhs": w.rhs, "margin": w.margin,
            }
        _emit(_json(obj), ns)
    else:
        lines = [f"order = {_fmt12(ns.order)}  (p={_fmt12(ns.p)}, q={_fmt12(ns.q)})"]
        for label, w in rows:
            if w is None:
                lines.append(f"{label}: not found within budget")
            else:
                lines.append(
                    f"{label}: x={_fmt12(w.at['x'])} y={_fmt12(w.at['y'])} "
                    f"lhs={_fmt12(w.lhs)} rhs={_fmt12(w.rhs)} margin={_fmt12(w.margin)}"
                )
        _emit("\n".join(lines), ns)
    both = result.violating is not None and result.satisfying is not None
    return EXIT_OK if both else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pqtrig",
        description="Generalized (p,q)-trigonometric functions and inequality checks "
        f"(kernel backend: {backend_name()})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, run, pq_point=True):
        sp.set_defaults(run=run)
        if pq_point:
            sp.add_argument("--p", type=float, required=True)
            sp.add_argument("--q", type=float, required=True)
        sp.add_argument("--format", choices=("text", "csv", "json"), default="text")
        sp.add_argument("--output", default=None, help="write to this path instead of stdout")

    sp = sub.add_parser("eval", help="evaluate one function at given points")
    add_common(sp, cmd_eval)
    sp.add_argument("--fn", choices=sorted(_EVAL_FNS), required=True)
    sp.add_argument("--x", type=float, nargs="+", required=True)

    sp = sub.add_parser("constants", help="print half_pi and m_star")
    add_common(sp, cmd_constants)

    sp = sub.add_parser("verify", help="verify one check at a single (p, q)")
    add_common(sp, cmd_check)
    sp.add_argument("--check", required=True)
    sp.add_argument("--grid", type=int, default=12)
    sp.add_argument("--order", type=float, default=None, help="Hölder order where applicable")
    sp.add_argument("--x-max", type=float, default=50.0)

    sp = sub.add_parser("sweep", help="verify one check over (p, q) ranges")
    add_common(sp, cmd_check, pq_point=False)
    sp.add_argument("--check", required=True)
    sp.add_argument("--p-range", required=True, help="lo:hi:n inclusive")
    sp.add_argument("--q-range", required=True, help="lo:hi:n inclusive")
    sp.add_argument("--grid", type=int, default=10)
    sp.add_argument("--order", type=float, default=None)
    sp.add_argument("--x-max", type=float, default=50.0)

    sp = sub.add_parser("counterexample", help="search for sharpness witnesses")
    add_common(sp, cmd_counterexample)
    sp.add_argument("--order", type=float, required=True)
    sp.add_argument("--budget", type=int, default=40000)

    # argparse takes -1e-3 or -inf for an option: every negative number is a value
    negative = re.compile(r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)$", re.I)
    for sp in (parser, *sub.choices.values()):
        sp._negative_number_matcher = negative
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        return ns.run(ns)
    except UsageError as exc:  # an argument, found before computing, or an unwritable --output
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PQTrigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
