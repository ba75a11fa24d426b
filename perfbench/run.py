"""The pqtrig benchmark: one command, four workloads, every output checked.

    python3 perfbench/run.py --workload sweep-c --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --smoke --workload cli-py

It builds the compiled kernel into ``.bench_build/`` (see ``build.py``),
times the workload for ``--seconds`` and checks its outputs against the
closed forms in ``oracle.py``.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it records the environment.  The exit
status is 0 when every check passed, 1 when one failed and 2 when the
benchmark could not run.  ``--smoke`` runs every workload (or the one
named) and its checks at a tiny size.  See README.md for the workloads
and metrics.
"""

import argparse
import json
import os
import platform
import random
import subprocess
import sys
import time
from statistics import median

import build
import cli_load
import layers
import schedule

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = build.ROOT

WORKLOADS = {
    "sweep-c": {"backend": "c", "threads": 1},
    "sweep-c-mt": {"backend": "c", "threads": 2},
    "scatter-c": {"backend": "c"},
    "cli-py": {"backend": "python"},
}
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
              "peak_rss_mb": "MB"}
# set-up probes per timed run, spread through it
SETUP_RUNS = 15
# rounds of sweep-c-mt whose reports are compared with a one-thread run
MT_COMPARE_ROUNDS = 2
DEADLINE_S = 170.0


class BenchmarkError(Exception):
    """The benchmark itself could not run (not a failed output check)."""


class Context:
    def __init__(self, stage: str, started: float):
        self.started = started
        self.scratch = os.path.join(build.BUILD_DIR, "tmp")
        os.makedirs(self.scratch, exist_ok=True)
        self.env = {"c": build.python_env(stage),
                    "python": build.python_env(os.path.join(ROOT, "src"), pure=True)}
        # Untimed: the package is byte-compiled, and one import of the CLI
        # per backend caches the bytecode of the standard modules it loads.
        build.compile_bytecode(stage)
        for backend, env in self.env.items():
            self.run_json([sys.executable, "-c", layers.IMPORT_PROBE], env, backend)

    def remaining(self) -> float:
        return max(10.0, DEADLINE_S - (time.perf_counter() - self.started))

    def run_json(self, cmd, env, backend=None):
        """Run a process to the end and parse the JSON on its last stdout line."""
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=self.remaining())
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchmarkError(f"{cmd[1:3]} exited {proc.returncode}: "
                                 f"{(proc.stdout + proc.stderr)[-2000:]}")
        out = json.loads(lines[-1])
        if backend is not None and out.get("backend") != backend:
            raise BenchmarkError(f"ran on backend {out.get('backend')!r}, expected {backend!r}")
        return out


def run_worker(ctx: Context, opts: dict) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(opts)]
    return ctx.run_json(cmd, ctx.env["c"], opts["backend"])


def in_process(ctx: Context, name: str, args) -> dict:
    spec = WORKLOADS[name]
    opts = {"workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "backend": "c", "threads": spec.get("threads", 1), "max_rounds": args.max_rounds,
            "setup_runs": args.setup_runs, "scratch": ctx.scratch,
            "trace_path": trace_path(name, args.seed)}
    if name == "sweep-c-mt":
        opts["digest_rounds"] = MT_COMPARE_ROUNDS
    out = run_worker(ctx, opts)
    if name == "sweep-c-mt":
        # the same blocks at one thread, in a fresh process, must report the same
        ref = run_worker(ctx, dict(opts, workload="sweep-c", threads=1, trace=False,
                                   max_rounds=MT_COMPARE_ROUNDS, seconds=0, setup_runs=0))
        n = min(len(ref["digests"]), len(out["digests"]))
        if n == 0 or ref["digests"][:n] != out["digests"][:n]:
            out["problems"].append("two-thread reports differ from one-thread reports "
                                   "on the same blocks")
    return out


def run_cli(ctx: Context, args) -> dict:
    """The cli-py workload: whole rounds of fresh CLI processes until time is up."""
    rng = random.Random(args.seed)
    env = ctx.env["python"]
    traced_dir = os.path.join(build.BUILD_DIR, "traces", f"cli-py-{args.seed}")
    if args.trace:
        os.makedirs(traced_dir, exist_ok=True)

    def one_round(index, traced):
        calls, outcomes = cli_load.make_round(rng), []
        start = time.perf_counter()
        for i, call in enumerate(calls):
            cmd = cli_load.cli_command(call.argv)
            if traced:
                spans = os.path.join(traced_dir, f"r{index}-c{i}.json")
                cmd = [sys.executable, os.path.join(HERE, "cli_traced.py"), spans, *call.argv]
            outcomes.append(cli_load.run_process(cmd, env, ROOT, ctx.scratch))
        return {"calls": calls, "outcomes": outcomes, "traced": traced,
                "wall": time.perf_counter() - start}

    opts = {"seconds": args.seconds, "trace": args.trace, "max_rounds": args.max_rounds,
            "setup_runs": args.setup_runs}
    rounds, setups = schedule.round_loop(
        opts, one_round, lambda: schedule.setup_seconds(env, ROOT, "python"))

    problems, failed = [], 0
    for r in rounds:
        first_csv = next(o.stdout for c, o in zip(r["calls"], r["outcomes"])
                         if c.argv[0] == "sweep" and "csv" in c.argv)
        for call, res in zip(r["calls"], r["outcomes"]):
            try:
                found = cli_load.check_outcome(call, res, repeat_of=first_csv)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                found = [f"pqtrig {' '.join(call.argv)}: unreadable output "
                         f"({type(exc).__name__}: {exc}): {res.stdout[:200]!r}"]
            # a call with the wrong exit status or output is a failed call
            failed += bool(found)
            problems += found
    plain = [r for r in rounds if not r["traced"]]
    latencies = [[o.seconds * 1e3 for o in r["outcomes"]] for r in plain]
    traced = [r["wall"] for r in rounds if r["traced"]]
    return {
        "attempted": sum(len(r["calls"]) for r in rounds),
        "failed": failed,
        "rounds": len(rounds),
        "setup_s": median(setups) if setups else None,
        "metrics": {
            "ops_per_s": median([len(r["calls"]) / r["wall"] for r in plain]),
            "op_p50_ms": median([median(lat) for lat in latencies]),
            "op_tail_ms": cli_load.tail(latencies),
            "peak_rss_mb": max(o.rss_mb for r in rounds for o in r["outcomes"]),
        },
        "overhead": median(traced) / median([r["wall"] for r in plain]) - 1.0 if traced else None,
        "problems": problems,
        "backend": "python",
    }


def trace_path(name: str, seed: int) -> str:
    directory = os.path.join(build.BUILD_DIR, "traces")
    os.makedirs(directory, exist_ok=True)
    return os.path.join(directory, f"{name}-{seed}")


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_us"):
        return "us"
    if name.endswith("evals_per_call"):
        return "count"
    return "ratio"


def git_sha() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() or "unknown"


def run_workload(ctx: Context, name: str, args) -> dict:
    backend = WORKLOADS[name]["backend"]
    out = run_cli(ctx, args) if name == "cli-py" else in_process(ctx, name, args)
    if args.trace:
        metrics = dict(layers.fresh(args.seed, ctx.env["c"], ctx.env["python"], ROOT,
                                    ctx.scratch, ctx.run_json))
        if name == "cli-py":
            probe = run_worker(ctx, {"workload": "layers", "seed": args.seed, "trace": True,
                                     "backend": "c", "scratch": ctx.scratch,
                                     "trace_path": trace_path("layers", args.seed)})
            metrics.update(probe["layers"])
        else:
            metrics.update(out["layers"])
        metrics["trace.overhead_share"] = out["overhead"]
        reported = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(metrics.items())}
    else:
        metrics = dict(out["metrics"], setup_s=out["setup_s"])
        reported = {k: {"value": metrics[k], "unit": unit} for k, unit in END_TO_END.items()}
    return {
        "correct": not out["problems"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": reported,
        "problems": out["problems"],
        "env": {
            "workload": name, "backend": out.get("backend", backend),
            "seed": args.seed, "seconds": args.seconds, "rounds": out["rounds"],
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "git_sha": git_sha(),
            "compile_flags": build.compile_flags(),
        },
    }


def run_all(args) -> int:
    """Every workload, each in a fresh benchmark process as a single run makes it."""
    status, total = 0, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in sorted(WORKLOADS):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--trace", str(args.trace)]
        cmd += ["--smoke"] if args.smoke else ["--seconds", str(args.seconds)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 2 or not lines:
            return 2
        status = max(status, proc.returncode)
        res = json.loads(lines[-1])
        print(lines[-2])
        print(f"{name}: " + "  ".join(f"{k}={m['value']:.6g} {m['unit']}"
                                      for k, m in res["metrics"].items())
              + f"  attempted={res['attempted']} failed={res['failed']} correct={res['correct']}")
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{name}.{k}": m for k, m in res["metrics"].items()})
    print(json.dumps(total))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"],
                        help="default: all, one after another")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="the workload and its checks, one round and one set-up probe")
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = 0.0
    args.max_rounds, args.setup_runs = (1, 1) if args.smoke else (None, SETUP_RUNS)
    if args.trace:  # a traced run reports no setup_s
        args.setup_runs = 0
    if args.workload == "all":
        return run_all(args)
    try:
        ctx = Context(build.ensure_stage(), time.perf_counter())
        res = run_workload(ctx, args.workload, args)
    except (build.BuildError, BenchmarkError, schedule.ProbeError,
            subprocess.TimeoutExpired) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    for problem in res["problems"][:20]:
        print(f"CHECK FAILED [{args.workload}]: {problem}", file=sys.stderr)
    print("# env " + json.dumps(res["env"]))
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
