"""Per-layer metrics of the traced run (``--trace 1``).

Every traced run reports the same metrics, whatever its workload: they
come from probes that time calls into each layer through the package's
public API, with fresh inputs drawn from the run's seed.  Each timed call
is a span of the benchmark's own tracer (nothing inside ``src/`` is
instrumented); a metric is the median duration of its spans.

``in_process`` runs inside the worker on the compiled backend.  ``fresh``
runs in the parent and starts one process per sample: the bare
interpreter, the imports, the first kernel call of each backend, and the
CLI's subcommands on the pure backend.
"""

import importlib
import math
import os
import random
import sys
import time
from statistics import median

import cli_load
import scatter
import sweeps
from tracer import Tracer

LAYER_FUNCTIONS = {
    "functions": ("arcsin_pq", "arccos_pq", "arcsinh_pq", "half_pi_pq", "m_star_pq"),
    "inverse": ("sin_pq", "cos_pq", "sinh_pq"),
    "quadrature": ("integrate_singular",),
    "inequalities": ("run_sweep", "counterexample_search"),
}
# modules whose namespaces hold references to those functions
OWNERS = ("pqtrig", "pqtrig.inequalities", "pqtrig.inverse", "pqtrig.cli")
# the library calls cli.main makes; the rest of its time is parsing and output
CLI_LIBRARY = tuple(f"{layer}.{name}" for layer, names in LAYER_FUNCTIONS.items()
                    for name in names)

# rounds traced in a traced run (alternating with as many untraced ones),
# which also bounds the spans kept in memory
TRACED_ROUNDS = 10
SAMPLES = 60  # calls per in-process function probe
FRESH_SAMPLES = 5  # processes per fresh-process probe


def install_spans(tracer: Tracer, pqtrig) -> None:
    """Wrap the package's public functions, where they are referenced, in spans."""
    for layer, names in LAYER_FUNCTIONS.items():
        for name in names:
            for owner in OWNERS:
                mod = sys.modules.get(owner)
                if mod is not None and hasattr(mod, name):
                    tracer.wrap(mod, name, f"{layer}.{name}")


# ---------------------------------------------------------------------------
# in-process probes (compiled backend)

def in_process(pqtrig, seed: int, scratch: str) -> tuple[dict, Tracer]:
    tracer = Tracer()
    rng = random.Random(f"layers-{seed}")
    PQ = pqtrig.PQParams
    span = tracer.span
    out = {}

    # forward functions and constants at unseen (p, q)
    for name in LAYER_FUNCTIONS["functions"]:
        fn, kind = getattr(pqtrig, name), name[: -len("_pq")]
        for _ in range(SAMPLES):
            if kind == "m_star":  # p < q, so the kernel runs instead of returning inf
                p = 1.1 + 4.0 * rng.random()
                q = p * (1.1 + rng.random())
            else:
                p, q = scatter.draw_pq(rng, kind)
            args = (PQ(p, q),)
            if kind not in ("half_pi", "m_star"):
                args += (scatter.draw_arg(rng, kind, p, q),)
            with span(f"functions.{name}"):
                fn(*args)

    # integrate_singular on x**-c e**-x
    evals = []
    for _ in range(SAMPLES):
        c, b = 0.9 * rng.random(), 0.5 + 4.5 * rng.random()
        with span("quadrature.integrate_singular"):
            res = pqtrig.integrate_singular(lambda x: x**-c * math.exp(-x), 0.0, b)
        evals.append(res.evaluations)
    out["quadrature.evals_per_call"] = sum(evals) / len(evals)

    # inverses, each against one forward call at the same (p, q)
    forward = {"sin_pq": pqtrig.arcsin_pq, "cos_pq": pqtrig.arccos_pq,
               "sinh_pq": pqtrig.arcsinh_pq}
    draw = {"sin_pq": "sin", "cos_pq": "cos", "sinh_pq": "sinh"}
    for name, fwd in forward.items():
        solve = getattr(pqtrig, name)
        ratios = []
        for _ in range(SAMPLES):
            p, q = scatter.draw_pq(rng, draw[name])
            pq, y = PQ(p, q), scatter.draw_arg(rng, draw[name], p, q)
            # the constant is cached first, so the span is the solve
            pqtrig.m_star_pq(pq) if name == "sinh_pq" else pqtrig.half_pi_pq(pq)
            t0 = time.perf_counter_ns()
            with span(f"inverse.{name}"):
                s = solve(pq, y)
            t1 = time.perf_counter_ns()
            fwd(pq, s)
            ratios.append((t1 - t0) / max(time.perf_counter_ns() - t1, 1))
        out[f"inverse.{name}_fwd"] = median(ratios)

    out.update(_lab_probes(pqtrig, rng, tracer))
    out.update(_cli_format(pqtrig, seed, scratch))

    for name, values in tracer.durations().items():
        unit, scale = ("ms", 1e3) if name == "inequalities.counterexample_search" else ("us", 1e6)
        out[f"{name}_{unit}"] = median(values) * scale
    return out, tracer


def _sweep_args(pqtrig, spec) -> set:
    """The unique (p, q, y) solves a 2-argument check needs on one block."""
    axes = [pqtrig.GridAxis(*a) for a in spec.axes]
    need = set()
    for p in axes[0].values():
        for q in axes[1].values():
            pq = pqtrig.PQParams(p, q)
            if spec.check.endswith("-sinh"):
                scale = min(pqtrig.m_star_pq(pq).as_float(), scatter.SINH_ARG_CAP)
            else:
                scale = pqtrig.half_pi_pq(pq)
            rs = [f * scale for f in axes[2].values()]
            ss = [f * scale for f in axes[3].values()]
            for r in rs:
                for s in ss:
                    need.update(((p, q, math.sqrt(r * s)), (p, q, r), (p, q, s)))
    return need


def _lab_probes(pqtrig, rng, tracer) -> dict:
    span = tracer.span
    out = {}
    # microseconds per verdict for every check, over three fresh rounds
    per_verdict = {}
    for _ in range(3):
        for spec in sweeps.make_round(rng):
            axes = [pqtrig.GridAxis(*a) for a in spec.axes]
            t0 = time.perf_counter()
            rep = pqtrig.run_sweep(spec.check, axes, order=spec.order)
            dt = time.perf_counter() - t0
            key = spec.check if spec.proven else spec.check + "-pos"
            per_verdict.setdefault(key, []).append(dt / max(len(rep.verdicts), 1) * 1e6)
    for key, values in per_verdict.items():
        out[f"inequalities.{key}_us"] = median(values)

    # lab share: sweep time not explained by direct calls to its unique solves
    shares = []
    by_check = {spec[0]: spec for spec in sweeps.CHECKS}
    for _ in range(3):
        sweep_s = direct_s = 0.0
        for check in ("thm11-sin", "gm-sinh"):
            a, b = (sweeps.make_sweep(rng, by_check[check], True) for _ in range(2))
            t0 = time.perf_counter()
            pqtrig.run_sweep(a.check, [pqtrig.GridAxis(*x) for x in a.axes], order=a.order)
            sweep_s += time.perf_counter() - t0
            solve = pqtrig.sinh_pq if check == "gm-sinh" else pqtrig.sin_pq
            t0 = time.perf_counter()
            need = _sweep_args(pqtrig, b)
            for p, q, y in need:
                solve(pqtrig.PQParams(p, q), y)
            direct_s += time.perf_counter() - t0
        shares.append(1.0 - direct_s / sweep_s)
    out["inequalities.lab_share"] = median(shares)

    # threads: the same kind of round at two threads and at one
    util, cpu_per, speed = [], [], []
    for _ in range(2):
        rates = {}
        for threads in (2, 1):
            verdicts = 0
            c0, t0 = time.process_time(), time.perf_counter()
            for spec in sweeps.make_round(rng):
                rep = pqtrig.run_sweep(spec.check, [pqtrig.GridAxis(*x) for x in spec.axes],
                                       order=spec.order, threads=threads)
                verdicts += len(rep.verdicts)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            rates[threads] = verdicts / wall
            if threads == 2:
                util.append(cpu / (2 * wall))
                cpu_per.append(cpu / verdicts * 1e6)
        speed.append(rates[2] / rates[1])
    out["inequalities.threads_cpu_util"] = median(util)
    out["inequalities.threads_cpu_per_verdict_us"] = median(cpu_per)
    out["inequalities.threads_speedup"] = median(speed)

    for _ in range(3):
        p, q = cli_load._block_pq(rng)
        with span("inequalities.counterexample_search"):
            pqtrig.counterexample_search(pqtrig.PQParams(p, q), cli_load.COUNTEREXAMPLE_ORDER,
                                         cli_load.COUNTEREXAMPLE_BUDGET)
    return out


def _cli_format(pqtrig, seed: int, scratch: str) -> dict:
    """cli.main in-process, minus the library calls it makes: parsing and output."""
    cli = importlib.import_module("pqtrig.cli")
    calls = [c for c in cli_load.make_round(random.Random(seed)) if c.kind not in
             ("repeat", "usage", "violation")]
    target = os.path.join(scratch, f"cli-format-{os.getpid()}.out")
    tracer = Tracer()
    install_spans(tracer, pqtrig)
    try:
        for call in calls:
            with tracer.span("cli.main"):
                cli.main(list(call.argv) + ["--output", target])
    finally:
        tracer.unwrap_all()
        if os.path.exists(target):
            os.remove(target)
    children = {}
    for sid, parent, name, start, end, _thread in tracer.spans:
        if name in CLI_LIBRARY and parent is not None:
            children[parent] = children.get(parent, 0) + end - start
    own = [(end - start - children.get(sid, 0)) * 1e-6
           for sid, _parent, name, start, end, _thread in tracer.spans if name == "cli.main"]
    return {"cli.format_ms": median(own)}


# ---------------------------------------------------------------------------
# fresh-process probes

IMPORT_PROBE = """
import json, time
t0 = time.perf_counter()
import pqtrig
t1 = time.perf_counter()
import pqtrig.cli
t2 = time.perf_counter()
pqtrig.arcsin_pq(pqtrig.PQParams(2.5, 3.5), 0.75)
t3 = time.perf_counter()
print(json.dumps({"backend": pqtrig.backend_name(), "import": t1 - t0, "cli": t2 - t1,
                  "first": t3 - t2}))
"""

_PY_FORWARD_PROBE = """
import json, random, sys, time
sys.path.insert(0, sys.argv[1])
import pqtrig, scatter
rng = random.Random(sys.argv[2])
pqtrig.arcsin_pq(pqtrig.PQParams(2.5, 3.5), 0.75)
times = {"arcsin": [], "arcsinh": []}
for _ in range(int(sys.argv[3])):
    for kind, fn in (("arcsin", pqtrig.arcsin_pq), ("arcsinh", pqtrig.arcsinh_pq)):
        p, q = scatter.draw_pq(rng, kind)
        pq, x = pqtrig.PQParams(p, q), scatter.draw_arg(rng, kind, p, q)
        t0 = time.perf_counter()
        fn(pq, x)
        times[kind].append(time.perf_counter() - t0)
print(json.dumps({"backend": pqtrig.backend_name(), "times": times}))
"""


def fresh(seed: int, c_env: dict, py_env: dict, root: str, scratch: str, run_json) -> dict:
    """``run_json(cmd, env, backend)`` runs a process, checks the backend it
    reports and returns its parsed last line."""
    here = os.path.dirname(os.path.abspath(__file__))
    out = {}
    starts, imports, cli_imports, c_first, py_first = [], [], [], [], []
    for _ in range(FRESH_SAMPLES):
        t0 = time.perf_counter()
        cli_load.run_process([sys.executable, "-c", "pass"], c_env, root, scratch)
        starts.append(time.perf_counter() - t0)
        c = run_json([sys.executable, "-c", IMPORT_PROBE], c_env, "c")
        imports.append(c["import"])
        cli_imports.append(c["cli"])
        c_first.append(c["first"])
        py_first.append(run_json([sys.executable, "-c", IMPORT_PROBE], py_env, "python")["first"])
    out["interp.start_ms"] = median(starts) * 1e3
    out["pqtrig.import_ms"] = median(imports) * 1e3
    out["cli.import_ms"] = median(cli_imports) * 1e3
    out["dequad_c.first_call_ms"] = median(c_first) * 1e3
    out["dequad_py.first_call_ms"] = median(py_first) * 1e3
    py = run_json([sys.executable, "-c", _PY_FORWARD_PROBE, here, f"py-{seed}", str(SAMPLES)],
                  py_env, "python")
    for kind, times in py["times"].items():
        out[f"functions.{kind}_pq_py_us"] = median(times) * 1e6

    per_sub = {}
    for call in cli_load.make_round(random.Random(seed)):
        if call.kind in ("repeat", "usage", "violation"):
            continue
        res = cli_load.run_process(cli_load.cli_command(call.argv), py_env, root, scratch)
        per_sub.setdefault(call.argv[0], []).append(res.seconds)
    for sub, values in per_sub.items():
        out[f"cli.{sub}_ms"] = median(values) * 1e3
    return out
