"""The ``cli-py`` workload: fresh ``python -m pqtrig.cli`` processes.

The CLI runs from ``src/`` on the pure-Python backend, as an editable
install without Cython runs it.  Processes run one at a time.  One round
is 25 calls, the same kinds in the same order every round: ``eval`` of
each of the six functions, ``constants`` and ``counterexample`` in each of
the three output formats; each of the ten checks once, alternately
through ``verify`` and ``sweep``, with the formats in turn; the round's
CSV sweep once more (its bytes must repeat); one usage error (exit 2);
and one documented violation (exit 1).  Inputs are drawn from the seed
and kept small, so interpreter start and import are a large share of
each call, as they are for a user at a shell.
"""

import csv
import io
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

import scatter
import sweeps

FORMATS = ("text", "csv", "json")
EVAL_FNS = ("arcsin", "arccos", "arcsinh", "sin", "cos", "sinh")
# text and CSV print 12 significant digits
PRINT_REL = 1e-11
COUNTEREXAMPLE_ORDER = 1.0
COUNTEREXAMPLE_BUDGET = 400
# the pure backend overflows for p near 1 (a FOUND line in CHANGES.md)
PURE_MIN_P = 1.1


def tail(rounds) -> float:
    """The latency of the slowest kinds of call, from each round's latencies.

    Every round makes the same 25 kinds of call in the same order.  Each
    kind's latency is its median over the rounds; the tail is the p90 of
    those 25 medians, between the third- and fourth-slowest kinds.  A
    round's own p90 caught the shared machine's hiccups more than the
    program: in one slow run it rose by 55% where this rose by 25%, and
    over ten runs it spread by 0.12 where this spread by 0.10.
    """
    kinds = [statistics.median(lat[i] for lat in rounds) for i in range(len(rounds[0]))]
    return statistics.quantiles(kinds, n=10, method="inclusive")[8]


class Call(NamedTuple):
    argv: tuple
    expect_exit: int
    kind: str  # which output check applies
    info: dict


def _f(v: float) -> str:
    return repr(float(v))


def _block_pq(rng: random.Random) -> tuple[float, float]:
    """A corner of a sweep block: clear of F1 and F2."""
    dp, dq = sweeps.SHIFT * rng.random(), sweeps.SHIFT * rng.random()
    return rng.choice(sweeps.P_SPAN) + dp, rng.choice(sweeps.Q_SPAN) + dq


def _free_pq(rng: random.Random, fn: str) -> tuple[float, float]:
    while True:
        p, q = scatter.draw_pq(rng, fn)
        if p >= PURE_MIN_P and not 1.0 < q / p <= scatter.SAFE_RATIO:
            return p, q


def _report_call(kind, rng, spec, grid, fmt_args):
    """A verify (one (p, q)) or sweep (a 2 x 2 block) call for one check."""
    check, order, inner, _n = spec
    if check in sweeps.PROBE_CHECKS:
        grid = max(grid, 10)  # the probes need ten points
    if check == "double-angle":  # the identity holds at (4/3, 4) only
        p, q, cells = 4.0 / 3.0, 4.0, 1
        where = ("--p", _f(p), "--q", _f(q)) if kind == "verify" else (
            "--p-range", f"{_f(p)}:{_f(p)}:1", "--q-range", "4:4:1")
    elif kind == "verify":
        p, q = _block_pq(rng)
        where, cells = ("--p", _f(p), "--q", _f(q)), 1
    else:
        axes = sweeps.make_sweep(rng, spec, True).axes[:2]
        where = ("--p-range", ":".join((_f(axes[0][1]), _f(axes[0][2]), "2")),
                 "--q-range", ":".join((_f(axes[1][1]), _f(axes[1][2]), "2")))
        cells = 4
    argv = (kind, "--check", check) + where + ("--grid", str(grid))
    argv += ("--order", _f(order)) if order is not None else ()
    if check in sweeps.PROBE_CHECKS:
        rows = cells * (grid - 1)
    else:
        rows = cells * grid ** len(inner)
    return Call(argv + fmt_args, 0, "report", {"check": check, "order": order, "rows": rows})


def make_round(rng: random.Random) -> list[Call]:
    """One round; every round has the same kinds of calls in the same order."""
    calls = []
    for k, fmt in enumerate(FORMATS):
        fmt_args = ("--format", fmt)
        for fn in EVAL_FNS[k::len(FORMATS)]:  # each function once per round
            p, q = _free_pq(rng, fn)
            xs = sorted(scatter.draw_arg(rng, fn, p, q) for _ in range(3))
            calls.append(Call(("eval", "--fn", fn, "--p", _f(p), "--q", _f(q), "--x",
                               *map(_f, xs)) + fmt_args, 0, "eval",
                              {"fn": fn, "p": p, "q": q, "xs": xs}))
        p, q = _free_pq(rng, "m_star")
        calls.append(Call(("constants", "--p", _f(p), "--q", _f(q)) + fmt_args, 0, "constants",
                          {"p": p, "q": q}))
        p, q = _block_pq(rng)
        calls.append(Call(("counterexample", "--order", _f(COUNTEREXAMPLE_ORDER), "--p", _f(p),
                           "--q", _f(q), "--budget", str(COUNTEREXAMPLE_BUDGET)) + fmt_args,
                          0, "counterexample", {"p": p, "q": q}))
    # each check once per round, alternately through verify and sweep
    for i, spec in enumerate(sweeps.CHECKS):
        fmt_args = ("--format", FORMATS[i % len(FORMATS)])
        if i % 2 == 0:
            calls.append(_report_call("verify", rng, spec, 4, fmt_args))
        else:
            calls.append(_report_call("sweep", rng, spec, 3, fmt_args))
    first_csv_sweep = next(c for c in calls if c.argv[0] == "sweep" and "csv" in c.argv)
    calls.append(first_csv_sweep._replace(kind="repeat"))
    calls.append(Call(("eval", "--fn", "arcsin", "--p", "0.5", "--q", "2", "--x", "0.5"), 2,
                      "usage", {}))
    p, q = _block_pq(rng)
    calls.append(Call(("verify", "--check", "gm-sin", "--order", "1", "--p", _f(p), "--q", _f(q),
                       "--grid", "12"), 1, "violation", {}))
    return calls


# ---------------------------------------------------------------------------
# running

class Outcome(NamedTuple):
    seconds: float
    status: int
    stdout: str
    stderr: str
    rss_mb: float


def run_process(cmd, env, cwd, scratch) -> Outcome:
    """Run one process to the end and reap it with its own peak RSS."""
    with tempfile.TemporaryFile("w+", dir=scratch) as out, \
            tempfile.TemporaryFile("w+", dir=scratch) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=cwd)
        _pid, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Outcome(seconds, proc.returncode, out.read(), err.read(),
                       usage.ru_maxrss / 1024.0)


def cli_command(argv) -> list[str]:
    return [sys.executable, "-m", "pqtrig.cli", *argv]


# ---------------------------------------------------------------------------
# output checks

def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _report_rows(fmt: str, stdout: str):
    """(verdict count, all satisfied, verdicts with their points) of a report."""
    if fmt == "json":
        obj = json.loads(stdout)
        vs = [(v["at"], float(v["lhs"]), float(v["rhs"]), float(v["tolerance"]), v["satisfied"])
              for v in obj["verdicts"]]
        return len(obj["verdicts"]) + len(obj["errors"]), obj["all_satisfied"], vs
    if fmt == "csv":
        rows = _rows(stdout)
        vs = [(row, float(row["lhs"]), float(row["rhs"]), None, row["satisfied"] == "true")
              for row in rows]
        return len(rows), all(v[4] for v in vs), vs
    lines = dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)
    points, errors = lines["points"].split("  errors: ")
    return int(points) + int(errors), lines["all satisfied"] == "yes", []


_ARG_NAMES = {"lemma21": ("x",), "lemma22": ("x",), "double-angle": ("x",), "lemma23": (),
              "f-monotone": ("x_lo", "x_hi"), "fstar-monotone": ("x_lo", "x_hi")}


def _point(check: str, row: dict) -> dict:
    if "arg1" not in row:  # JSON already names every coordinate
        return {k: (float(v) if not isinstance(v, str) else v) for k, v in row.items()}
    names = _ARG_NAMES.get(check, ("r", "s"))
    at = {"p": float(row["p"]), "q": float(row["q"])}
    at.update((n, float(row[a])) for n, a in zip(names, ("arg1", "arg2")))
    return at


def check_outcome(call: Call, res: Outcome, repeat_of=None) -> list[str]:
    """Problems with one CLI call's exit status and output."""
    import numpy as np

    import oracle
    import verdicts

    where = "pqtrig " + " ".join(call.argv)
    if res.status != call.expect_exit:
        return [f"{where}: exit {res.status}, expected {call.expect_exit}; "
                f"stderr {res.stderr[-300:]!r}"]
    fmt = call.argv[call.argv.index("--format") + 1] if "--format" in call.argv else "text"
    slack = 0.0 if fmt == "json" else PRINT_REL
    info, out = call.info, res.stdout
    problems = []
    if call.kind == "usage":
        if out or not res.stderr.startswith("error:"):
            problems.append(f"{where}: usage error not reported on stderr alone")
    elif call.kind == "violation":
        if "all satisfied: no" not in out or "counterexamples" not in out:
            problems.append(f"{where}: no counterexamples listed")
    elif call.kind == "repeat":
        if out != repeat_of:
            problems.append(f"{where}: repeated sweep CSV differs")
    elif call.kind == "eval":
        if fmt == "json":
            pairs = [(d["x"], d["value"]) for d in json.loads(out)]
        elif fmt == "csv":
            pairs = [(float(r["x"]), float(r["value"])) for r in _rows(out)]
        else:
            pairs = [tuple(map(float, line.split())) for line in out.splitlines()]
        if len(pairs) != len(info["xs"]):
            return [f"{where}: {len(pairs)} rows for {len(info['xs'])} points"]
        fn, p, q = info["fn"], info["p"], info["q"]
        x = np.array(info["xs"])
        v = np.array([val for _x, val in pairs])
        if fn in ("arcsin", "arccos", "arcsinh"):
            ok = oracle.forward_ok(v, getattr(oracle, fn)(p, q, x), slack)
        else:
            forward = {"sin": oracle.arcsin, "cos": oracle.arccos, "sinh": oracle.arcsinh}[fn]
            ok = oracle.inverse_ok(forward, p, q, v, x, 0.0, np.inf if fn == "sinh" else 1.0,
                                   rel_width=slack)
        if not ok.all():
            problems.append(f"{where}: values {v.tolist()} disagree with the reference")
    elif call.kind == "constants":
        if fmt == "json":
            obj = json.loads(out)
            hp, ms = obj["half_pi"], obj["m_star"]
        elif fmt == "csv":
            row = _rows(out)[0]
            hp, ms = row["half_pi"], row["m_star"]
        else:
            obj = dict(line.split(" = ") for line in out.splitlines())
            hp, ms = obj["half_pi"], obj["m_star"]
        ref_ms = oracle.m_star(info["p"], info["q"])
        ok = bool(oracle.forward_ok(float(hp), oracle.half_pi(info["p"], info["q"]), slack))
        if np.isinf(ref_ms):
            ok = ok and ms == "inf"
        else:
            ok = ok and ms != "inf" and bool(oracle.forward_ok(float(ms), ref_ms, slack))
        if not ok:
            problems.append(f"{where}: half_pi={hp} m_star={ms} disagree with the reference")
    elif call.kind == "report":
        count, satisfied, rows = _report_rows(fmt, out)
        if count != info["rows"]:
            problems.append(f"{where}: {count} verdicts, expected {info['rows']}")
        if not satisfied:
            problems.append(f"{where}: a proven check reported violations")
        check, order = info["check"], info["order"]
        for at, lhs, rhs, tol, sat in rows[:: max(1, len(rows) // 2)][:2]:
            if tol is None:
                tol = 1e-8 if check == "double-angle" else 1e-9 + 1e-9 * abs(rhs)
            tol += slack * max(abs(lhs), abs(rhs))
            msg = verdicts.disagreement(check, order, _point(check, at), lhs, rhs, tol, sat)
            if msg:
                problems.append(f"{where}: {msg}")
    elif call.kind == "counterexample":
        problems += _check_witnesses(where, fmt, out, info, slack)
    return problems


def _check_witnesses(where, fmt, out, info, slack) -> list[str]:
    import math

    import oracle
    import verdicts

    if fmt == "json":
        obj = json.loads(out)
        found = {k: obj[k] for k in ("violating", "satisfying")}
    elif fmt == "csv":
        found = {r["check"].split("-", 1)[1]: {"x": float(r["arg1"]), "y": float(r["arg2"]),
                                               "margin": float(r["margin"])} for r in _rows(out)}
    else:
        found = {}
        for line in out.splitlines()[1:]:
            label, rest = line.split(": ", 1)
            found[label] = {k: float(v) for k, v in (kv.split("=") for kv in rest.split())}
    problems = []
    p, q = info["p"], info["q"]
    for label, sign in (("violating", -1.0), ("satisfying", 1.0)):
        w = found.get(label)
        if w is None:
            problems.append(f"{where}: no {label} witness")
            continue
        # claim: arcsin_pq(H(x, y)) <= sqrt(arcsin_pq(x) arcsin_pq(y))
        mean = verdicts.holder_mean(COUNTEREXAMPLE_ORDER, w["x"], w["y"])
        ref = math.sqrt(float(oracle.arcsin(p, q, w["x"])) * float(oracle.arcsin(p, q, w["y"]))) \
            - float(oracle.arcsin(p, q, mean))
        if sign * w["margin"] <= 0.0 or abs(ref - w["margin"]) > 1e-9 + slack * abs(ref):
            problems.append(f"{where}: {label} margin {w['margin']!r}, reference {ref!r}")
    return problems
