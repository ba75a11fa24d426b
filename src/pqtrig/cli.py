"""Command-line surface: evaluation, constants, verification sweeps and
counterexample search, with text, CSV and JSON emission.

Exit codes: 0 all satisfied, 1 violations or evaluation failures,
2 usage errors.
"""

import argparse
import math
import sys
from typing import Optional

from ._backend import backend_name
from .errors import DomainError, PQTrigError
from .functions import PQParams, arccos_pq, arcsin_pq, arcsinh_pq, half_pi_pq, m_star_pq
from .inequalities import (
    CHECK_NAMES,
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


class RunConfig:
    """Validated invocation parameters for one subcommand.

    The class attributes are the defaults; ``_config_from`` sets the
    parameters the subcommand takes.
    """

    p: float = 2.0
    q: float = 2.0
    p_axis: Optional[GridAxis] = None
    q_axis: Optional[GridAxis] = None
    fn: Optional[str] = None
    check: Optional[str] = None
    grid: int = 12
    order: Optional[float] = None
    budget: int = 40000
    x_max: float = 50.0
    fmt: str = "text"
    output: Optional[str] = None
    tol: Optional[float] = None
    threads: int = 0

    def __init__(self, command: str):
        self.command = command
        self.xs: list[float] = []


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


def _parse_range(text: str, name: str) -> GridAxis:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"--{name}-range must look like lo:hi:n, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise UsageError(f"bad --{name}-range {text!r}: {exc}") from None
    if lo > hi:
        raise UsageError(f"--{name}-range has lo > hi: {text!r}")
    if n < 1:
        raise UsageError(f"--{name}-range needs n >= 1: {text!r}")
    try:
        return GridAxis(name, lo, hi, n)
    except DomainError as exc:
        raise UsageError(str(exc)) from None


def _require_params(axis: GridAxis) -> None:
    if axis.lo <= 1.0:
        raise UsageError(f"{axis.name} must exceed 1")


def _emit(text: str, cfg: RunConfig) -> None:
    if cfg.output:
        with open(cfg.output, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _verdict_row(check: str, v) -> str:
    at = v.at
    args = [val for key, val in at.items() if key not in ("p", "q", "x0", "region", "order", "m_star")]
    arg1 = _fmt12(args[0]) if len(args) > 0 else ""
    arg2 = _fmt12(args[1]) if len(args) > 1 else ""
    return ",".join(
        [
            _fmt12(at["p"]),
            _fmt12(at["q"]),
            check,
            arg1,
            arg2,
            _fmt12(v.lhs),
            _fmt12(v.rhs),
            _fmt12(v.margin),
            "true" if v.satisfied else "false",
        ]
    )


def _report_csv(report: SweepReport) -> str:
    lines = [CSV_HEADER]
    for v in report.verdicts:
        lines.append(_verdict_row(report.check, v))
    return "\n".join(lines)


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


def _emit_report(report: SweepReport, cfg: RunConfig) -> int:
    if cfg.fmt == "csv":
        _emit(_report_csv(report), cfg)
    elif cfg.fmt == "json":
        _emit(_report_json(report), cfg)
    else:
        _emit(_report_text(report), cfg)
    return EXIT_OK if (report.all_satisfied and not report.errors) else EXIT_VIOLATION


def cmd_eval(cfg: RunConfig) -> int:
    pq = PQParams(cfg.p, cfg.q)
    fn = _EVAL_FNS[cfg.fn]
    rows = []
    for x in cfg.xs:
        rows.append((x, fn(pq, x)))
    if cfg.fmt == "csv":
        _emit("\n".join(["x,value"] + [f"{_fmt12(x)},{_fmt12(v)}" for x, v in rows]), cfg)
    elif cfg.fmt == "json":
        _emit(_json([{"x": x, "value": v} for x, v in rows], sort_keys=False), cfg)
    else:
        _emit("\n".join(f"{_fmt12(x)} {_fmt12(v)}" for x, v in rows), cfg)
    return EXIT_OK


def cmd_constants(cfg: RunConfig) -> int:
    pq = PQParams(cfg.p, cfg.q)
    hp = half_pi_pq(pq)
    ms = m_star_pq(pq)
    ms_text = _fmt12(ms.value) if ms.is_finite else "inf"
    if cfg.fmt == "csv":
        _emit(
            f"p,q,half_pi,m_star\n{_fmt12(cfg.p)},{_fmt12(cfg.q)},{_fmt12(hp)},{ms_text}",
            cfg,
        )
    elif cfg.fmt == "json":
        _emit(
            _json({"p": cfg.p, "q": cfg.q, "half_pi": hp,
                   "m_star": ms.value if ms.is_finite else "inf"}),
            cfg,
        )
    else:
        _emit(f"half_pi = {_fmt12(hp)}\nm_star = {ms_text}", cfg)
    return EXIT_OK


def _axes_for(cfg: RunConfig, p_axis: GridAxis, q_axis: GridAxis) -> list[GridAxis]:
    from .inequalities import _POINT_CHECKS  # registry owns the arity

    axes = [p_axis, q_axis]
    if cfg.check in _POINT_CHECKS:
        arg_names = _POINT_CHECKS[cfg.check][0]
    else:
        arg_names = ("x",)
    for name in arg_names:
        axes.append(GridAxis(name, 0.01, 0.99, cfg.grid))
    return axes


def cmd_verify(cfg: RunConfig) -> int:
    axes = _axes_for(cfg, GridAxis("p", cfg.p, cfg.p, 1), GridAxis("q", cfg.q, cfg.q, 1))
    report = run_sweep(
        cfg.check, axes, order=cfg.order, tolerance=cfg.tol,
        threads=cfg.threads, x_max=cfg.x_max,
    )
    return _emit_report(report, cfg)


def cmd_sweep(cfg: RunConfig) -> int:
    axes = _axes_for(cfg, cfg.p_axis, cfg.q_axis)
    report = run_sweep(
        cfg.check, axes, order=cfg.order, tolerance=cfg.tol,
        threads=cfg.threads, x_max=cfg.x_max,
    )
    return _emit_report(report, cfg)


def cmd_counterexample(cfg: RunConfig) -> int:
    pq = PQParams(cfg.p, cfg.q)
    result = counterexample_search(pq, cfg.order, cfg.budget)
    rows = []
    for label, w in (("violating", result.violating), ("satisfying", result.satisfying)):
        if w is None:
            rows.append((label, None))
        else:
            rows.append((label, w))
    if cfg.fmt == "csv":
        lines = [CSV_HEADER]
        for label, w in rows:
            if w is None:
                continue
            lines.append(
                ",".join(
                    [_fmt12(cfg.p), _fmt12(cfg.q), f"counterexample-{label}",
                     _fmt12(w.x), _fmt12(w.y), _fmt12(w.lhs), _fmt12(w.rhs),
                     _fmt12(w.margin), "true" if w.margin >= 0 else "false"]
                )
            )
        _emit("\n".join(lines), cfg)
    elif cfg.fmt == "json":
        obj = {
            "p": cfg.p, "q": cfg.q, "order": cfg.order,
            "evaluations": result.evaluations,
        }
        for label, w in rows:
            obj[label] = None if w is None else {
                "x": w.x, "y": w.y, "lhs": w.lhs, "rhs": w.rhs, "margin": w.margin,
            }
        _emit(_json(obj), cfg)
    else:
        lines = [f"order = {_fmt12(cfg.order)}  (p={_fmt12(cfg.p)}, q={_fmt12(cfg.q)})"]
        for label, w in rows:
            if w is None:
                lines.append(f"{label}: not found within budget")
            else:
                lines.append(
                    f"{label}: x={_fmt12(w.x)} y={_fmt12(w.y)} "
                    f"lhs={_fmt12(w.lhs)} rhs={_fmt12(w.rhs)} margin={_fmt12(w.margin)}"
                )
        _emit("\n".join(lines), cfg)
    both = result.violating is not None and result.satisfying is not None
    return EXIT_OK if both else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pqtrig",
        description="Generalized (p,q)-trigonometric functions and inequality checks "
        f"(kernel backend: {backend_name()})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, pq_point=True):
        if pq_point:
            sp.add_argument("--p", type=float, required=True)
            sp.add_argument("--q", type=float, required=True)
        sp.add_argument("--format", choices=("text", "csv", "json"), default="text")
        sp.add_argument("--output", default=None, help="write to this path instead of stdout")

    sp = sub.add_parser("eval", help="evaluate one function at given points")
    add_common(sp)
    sp.add_argument("--fn", choices=sorted(_EVAL_FNS), required=True)
    sp.add_argument("--x", type=float, nargs="+", required=True)

    sp = sub.add_parser("constants", help="print half_pi and m_star")
    add_common(sp)

    sp = sub.add_parser("verify", help="verify one check at a single (p, q)")
    add_common(sp)
    sp.add_argument("--check", required=True)
    sp.add_argument("--grid", type=int, default=12)
    sp.add_argument("--order", type=float, default=None, help="Hölder order where applicable")
    sp.add_argument("--x-max", type=float, default=50.0)
    sp.add_argument("--tol", type=float, default=None, help="override the verdict tolerance")
    sp.add_argument("--threads", type=int, default=0, help="sweep parallelism (0 = default)")

    sp = sub.add_parser("sweep", help="verify one check over (p, q) ranges")
    add_common(sp, pq_point=False)
    sp.add_argument("--check", required=True)
    sp.add_argument("--p-range", required=True, help="lo:hi:n inclusive")
    sp.add_argument("--q-range", required=True, help="lo:hi:n inclusive")
    sp.add_argument("--grid", type=int, default=10)
    sp.add_argument("--order", type=float, default=None)
    sp.add_argument("--x-max", type=float, default=50.0)
    sp.add_argument("--tol", type=float, default=None)
    sp.add_argument("--threads", type=int, default=0)

    sp = sub.add_parser("counterexample", help="search for sharpness witnesses")
    add_common(sp)
    sp.add_argument("--order", type=float, required=True)
    sp.add_argument("--budget", type=int, default=40000)

    return parser


def _config_from(ns: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=ns.command)
    cfg.fmt = getattr(ns, "format", "text")
    cfg.output = getattr(ns, "output", None)
    if hasattr(ns, "p"):
        cfg.p, cfg.q = ns.p, ns.q
        if cfg.p <= 1.0:
            raise UsageError("p must exceed 1")
        if cfg.q <= 1.0:
            raise UsageError("q must exceed 1")
    if hasattr(ns, "p_range"):
        cfg.p_axis = _parse_range(ns.p_range, "p")
        cfg.q_axis = _parse_range(ns.q_range, "q")
        _require_params(cfg.p_axis)
        _require_params(cfg.q_axis)
    if hasattr(ns, "fn"):
        cfg.fn = ns.fn
        cfg.xs = list(ns.x)
    if hasattr(ns, "check"):
        cfg.check = ns.check
        if cfg.check not in CHECK_NAMES:
            raise UsageError(
                f"unknown check {cfg.check!r}; expected one of {', '.join(CHECK_NAMES)}"
            )
        needs_order = ("gm-sin", "gm-sinh", "f-monotone", "fstar-monotone")
        if cfg.check in needs_order and getattr(ns, "order", None) is None:
            raise UsageError(f"check {cfg.check!r} requires --order")
    if hasattr(ns, "grid"):
        cfg.grid = ns.grid
        if cfg.grid < 2:
            raise UsageError("--grid must be at least 2")
        if cfg.check in ("f-monotone", "fstar-monotone") and cfg.grid < 10:
            raise UsageError(f"check {cfg.check!r} needs --grid of at least 10")
    if hasattr(ns, "order") and ns.order is not None:
        cfg.order = ns.order
    if hasattr(ns, "budget"):
        cfg.budget = ns.budget
        if cfg.order is None or cfg.order <= 0.0:
            raise UsageError("counterexample search needs --order > 0")
        if cfg.budget < 100:
            raise UsageError("--budget must be at least 100")
    if hasattr(ns, "x_max"):
        cfg.x_max = ns.x_max
    if hasattr(ns, "tol") and ns.tol is not None:
        cfg.tol = ns.tol
    if hasattr(ns, "threads"):
        cfg.threads = ns.threads
    return cfg


_COMMANDS = {
    "eval": cmd_eval,
    "constants": cmd_constants,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
    "counterexample": cmd_counterexample,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        cfg = _config_from(ns)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[cfg.command](cfg)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except PQTrigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
