"""In-process workloads ``sweep-c``, ``sweep-c-mt`` and ``scatter-c``.

``run.py`` starts this script in a child process whose ``sys.path`` holds
the staged package, so the parent never imports pqtrig and every run
starts with cold caches.  Usage::

    python worker.py '<options as JSON>'

It prints one JSON object: counts, metrics, check problems and, with
``trace``, the per-layer metrics.

Every trial is one round of fresh inputs (see ``sweeps.py`` and
``scatter.py``); rounds repeat until ``seconds`` have passed, always
whole, with the set-up probes between them (see ``schedule.py``).  Rates,
latencies and the set-up time are medians.  The closed-form
checks run after the timed loop, so numpy and scipy are imported only
once the peak memory of the workload has been read.
"""

import json
import math
import os
import random
import resource
import sys
import time
from array import array
from statistics import median, quantiles

import scatter
import schedule
import sweeps
from layers import install_spans
from tracer import Tracer

# peak RSS is read after this many measured rounds, so it measures a fixed
# amount of work however fast the rounds run
RSS_ROUNDS = 8
# A scatter round has 1815 calls, so its p99 leaves 18 beyond it.  A
# sweep round has only 11 sweeps, so its tail is its slowest sweep.  Both
# are taken per round and then as a median over rounds: a percentile
# pooled over a run measures the shared machine's slow phases more than
# the program (the pooled p90 of sweep rounds spread by 38% between runs).
# verdicts per sweep recomputed from the references, in the first rounds
SAMPLE_PER_SWEEP = 2
SAMPLE_ROUNDS = 3


def peak_rss_mb() -> float:
    """Peak resident memory of this process image.

    ``ru_maxrss`` would also count the parent's memory at fork time, which
    Linux carries across ``exec``; ``VmHWM`` covers only this image.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def round_loop(opts, run_round):
    """:func:`schedule.round_loop` with set-up probes on this process's
    backend; returns the rounds, the set-up times and the peak RSS."""
    rss = []

    def after_round(count):
        if count == RSS_ROUNDS:
            rss.append(peak_rss_mb())

    rounds, setups = schedule.round_loop(
        opts, run_round, lambda: schedule.setup_seconds(dict(os.environ), os.getcwd(),
                                                        opts["backend"]), after_round)
    return rounds, setups, rss[0] if rss else peak_rss_mb()


# ---------------------------------------------------------------------------
# sweeps

def render(report) -> str:
    """A report as the CLI's CSV renders it (12 significant digits)."""
    def f(v):
        return f"{v:.12g}" if isinstance(v, float) else str(v)
    rows = [f"{report.check},{report.order}"]
    for v in report.verdicts:
        rows.append(",".join([f(val) for val in v.at.values()]
                             + [f(v.lhs), f(v.rhs), f(v.margin), str(v.satisfied)]))
    rows += [f"error {e.index} {e.message}" for e in report.errors]
    return "\n".join(rows)


def run_sweeps(opts, pqtrig, tracer):
    import hashlib

    threads = opts["threads"]
    rng = random.Random(opts["seed"])
    sample_rng = random.Random(f"sample-{opts['seed']}")
    problems, samples, digests = [], [], []

    def execute(specs, traced):
        axes = [[pqtrig.GridAxis(*a) for a in s.axes] for s in specs]
        if traced:
            install_spans(tracer, pqtrig)
        reports, times = [], []
        start = time.perf_counter()
        try:
            for spec, ax in zip(specs, axes):
                t0 = time.perf_counter()
                reports.append(pqtrig.run_sweep(spec.check, ax, order=spec.order, threads=threads))
                times.append(time.perf_counter() - t0)
            wall = time.perf_counter() - start
        finally:
            tracer.unwrap_all()
        return reports, times, wall

    execute(sweeps.make_round(random.Random("warm-up")), False)

    def one_round(index, traced):
        specs = sweeps.make_round(rng)
        reports, times, wall = execute(specs, traced)
        verdicts = errors = 0
        for spec, rep in zip(specs, reports):
            verdicts += len(rep.verdicts)
            errors += len(rep.errors)
            where = f"round {index} {spec.check} order={spec.order}"
            if rep.errors:
                problems.append(f"{where}: {len(rep.errors)} errors, first {rep.errors[0].message}")
            if len(rep.verdicts) + len(rep.errors) != sweeps.expected_verdicts(spec):
                problems.append(f"{where}: {len(rep.verdicts)} verdicts, "
                                f"expected {sweeps.expected_verdicts(spec)}")
            if spec.proven and not rep.all_satisfied:
                problems.append(f"{where}: proven check violated at {rep.counterexamples[:2]}")
            if not spec.proven and not rep.counterexamples:
                problems.append(f"{where}: no counterexample at a positive order")
            if index < SAMPLE_ROUNDS and rep.verdicts:
                for v in sample_rng.sample(rep.verdicts, min(SAMPLE_PER_SWEEP, len(rep.verdicts))):
                    samples.append((spec.check, spec.order, dict(v.at), v.lhs, v.rhs,
                                    v.tolerance, v.satisfied))
        if index < opts.get("digest_rounds", 0):
            digests.append(hashlib.sha256(
                "\n".join(render(r) for r in reports).encode()).hexdigest())
        return {"wall": wall, "verdicts": verdicts, "errors": errors, "traced": traced,
                "p50": median(times) * 1e3, "tail": max(times) * 1e3}

    rounds, setups, rss = round_loop(opts, one_round)

    import verdicts as reference  # numpy and scipy load only now

    for check, order, at, lhs, rhs, tol, sat in samples:
        msg = reference.disagreement(check, order, at, lhs, rhs, tol, sat)
        if msg:
            problems.append("reference: " + msg)

    plain = [r for r in rounds if not r["traced"]]
    # an evaluation error is a failed verdict (and a problem, above)
    return {
        "attempted": sum(r["verdicts"] + r["errors"] for r in rounds),
        "failed": sum(r["errors"] for r in rounds),
        "rounds": len(rounds),
        "setups": setups,
        "metrics": {
            "ops_per_s": median([r["verdicts"] / r["wall"] for r in plain]),
            "op_p50_ms": median([r["p50"] for r in plain]),
            "op_tail_ms": median([r["tail"] for r in plain]),
            "peak_rss_mb": rss,
        },
        "overhead": overhead(rounds),
        "problems": problems,
        "samples_checked": len(samples),
        "digests": digests,
    }


def overhead(rounds):
    traced = [r["wall"] for r in rounds if r["traced"]]
    plain = [r["wall"] for r in rounds if not r["traced"]]
    if not traced or not plain:
        return None
    return median(traced) / median(plain) - 1.0


# ---------------------------------------------------------------------------
# scattered single calls

def dispatch(pqtrig):
    """Call table for one round, looked up after spans are (un)installed."""
    PQ = pqtrig.PQParams
    arcsin, arccos, arcsinh = pqtrig.arcsin_pq, pqtrig.arccos_pq, pqtrig.arcsinh_pq
    sin, cos, sinh = pqtrig.sin_pq, pqtrig.cos_pq, pqtrig.sinh_pq
    half_pi, m_star, integrate = pqtrig.half_pi_pq, pqtrig.m_star_pq, pqtrig.integrate_singular
    return {
        "arcsin": lambda p, q, a: arcsin(PQ(p, q), a),
        "arccos": lambda p, q, a: arccos(PQ(p, q), a),
        "arcsinh": lambda p, q, a: arcsinh(PQ(p, q), a),
        "sin": lambda p, q, a: sin(PQ(p, q), a),
        "cos": lambda p, q, a: cos(PQ(p, q), a),
        "sinh": lambda p, q, a: sinh(PQ(p, q), a),
        "half_pi": lambda p, q, a: half_pi(PQ(p, q)),
        "m_star": lambda p, q, a: m_star(PQ(p, q)).as_float(),
        # p carries the singularity exponent c and a the upper limit b
        "quad": lambda p, q, a: integrate(lambda x: x**-p * math.exp(-x), 0.0, a).value,
    }


def run_scatter(opts, pqtrig, tracer):
    rng = random.Random(opts["seed"])
    kinds = scatter.FUNCTIONS + ("quad",)
    results = {k: tuple(array("d") for _ in range(4)) for k in kinds}
    problems = []
    counts = {"attempted": 0, "failed": 0}

    def execute(calls, traced, record):
        if traced:
            install_spans(tracer, pqtrig)
        table = dispatch(pqtrig)
        lat = []
        clock = time.perf_counter_ns
        try:
            for fn, p, q, a, fault in calls:
                t0 = clock()
                try:
                    value = table[fn](p, q, a)
                    err = None
                except Exception as exc:  # classified below, outside the clock
                    value, err = None, exc
                lat.append(clock() - t0)
                if record:
                    record_call(fn, p, q, a, fault, value, err)
        finally:
            tracer.unwrap_all()
        # the round's time is the time spent in calls, without the bookkeeping
        return lat, sum(lat) * 1e-9

    def record_call(fn, p, q, a, fault, value, err):
        counts["attempted"] += 1
        if err is None:
            for col, v in zip(results[fn], (p, q, a, value)):
                col.append(v)
            return
        counts["failed"] += 1
        expected = fault and isinstance(err, pqtrig.ComputationError)
        if not expected:
            problems.append(f"{fn}(p={p!r}, q={q!r}, arg={a!r}) raised "
                            f"{type(err).__name__}: {err}")

    execute(scatter.make_round(random.Random("warm-up"), -1), False, False)

    def one_round(index, traced):
        calls = scatter.make_round(rng, index)
        lat, wall = execute(calls, traced, True)
        return {"wall": wall, "calls": len(calls), "traced": traced,
                "p50": median(lat) * 1e-6,
                "tail": quantiles(lat, n=100, method="inclusive")[98] * 1e-6}

    rounds, setups, rss = round_loop(opts, one_round)
    problems += check_scatter(results)
    plain = [r for r in rounds if not r["traced"]]
    return {
        **counts,
        "rounds": len(rounds),
        "setups": setups,
        "metrics": {
            "ops_per_s": median([r["calls"] / r["wall"] for r in plain]),
            "op_p50_ms": median([r["p50"] for r in plain]),
            "op_tail_ms": median([r["tail"] for r in plain]),
            "peak_rss_mb": rss,
        },
        "overhead": overhead(rounds),
        "problems": problems,
    }


def check_scatter(results) -> list[str]:
    """Every successful scattered call against the closed forms."""
    import numpy as np

    import oracle

    problems = []

    def report(fn, ok, cols):
        bad = np.flatnonzero(~ok)
        if bad.size:
            i = bad[0]
            problems.append(f"{fn}: {bad.size} of {ok.size} disagree with the reference, "
                            f"first at p={cols[0][i]!r} q={cols[1][i]!r} arg={cols[2][i]!r} "
                            f"value={cols[3][i]!r}")

    for fn, cols in results.items():
        p, q, a, v = (np.frombuffer(c, dtype=float) if len(c) else np.zeros(0) for c in cols)
        if not p.size:
            continue
        if fn in ("arcsin", "arccos", "arcsinh"):
            ok = oracle.forward_ok(v, getattr(oracle, fn)(p, q, a))
        elif fn == "half_pi":
            ok = oracle.forward_ok(v, oracle.half_pi(p, q))
        elif fn == "m_star":
            ref = oracle.m_star(p, q)
            fin = np.isfinite(ref)
            ok = np.where(fin, oracle.forward_ok(np.where(fin, v, 0.0), np.where(fin, ref, 0.0)),
                          v == np.inf)
        elif fn == "quad":
            ok = oracle.forward_ok(v, oracle.incomplete_gamma_integral(p, a))
        else:
            forward = {"sin": oracle.arcsin, "cos": oracle.arccos, "sinh": oracle.arcsinh}[fn]
            ok = oracle.inverse_ok(forward, p, q, v, a, 0.0, 1.0 if fn != "sinh" else np.inf)
        report(fn, np.asarray(ok, bool), (p, q, a, v))
    return problems


# ---------------------------------------------------------------------------

def main() -> int:
    opts = json.loads(sys.argv[1])
    t0 = time.perf_counter()
    import pqtrig

    if pqtrig.backend_name() != opts["backend"]:
        print(json.dumps({"fatal": f"backend is {pqtrig.backend_name()!r}, "
                                   f"expected {opts['backend']!r}"}))
        return 3
    tracer = Tracer()
    if opts["workload"] == "scatter-c":
        out = run_scatter(opts, pqtrig, tracer)
    elif opts["workload"] == "layers":  # probes only, for a workload run elsewhere
        out = {}
    else:
        out = run_sweeps(opts, pqtrig, tracer)
    setups = out.pop("setups", None)
    out["setup_s"] = median(setups) if setups else None
    if opts["trace"]:
        import layers

        out["layers"], probes = layers.in_process(pqtrig, opts["seed"], opts["scratch"])
        tracer.dump(opts["trace_path"] + "-workload.json")
        probes.dump(opts["trace_path"] + "-probes.json")
    out["backend"] = pqtrig.backend_name()
    out["worker_s"] = time.perf_counter() - t0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
