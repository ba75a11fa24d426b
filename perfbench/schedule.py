"""The schedule of a timed run: whole rounds until the time is up, with the
set-up probes spread evenly through it.

A set-up probe is ``import pqtrig`` plus its first call in a fresh
interpreter.  Probes taken in one burst before the workload all caught
the machine in whatever speed mode it was in at that moment (their median
spread by 26% between runs); spread over the run, they sample it as the
rounds do.  Probes run between rounds, never inside one, so they take no
time from any round.
"""

import json
import math
import subprocess
import sys
import time

from layers import TRACED_ROUNDS

_SETUP_PROBE = """
import json, time
t0 = time.perf_counter()
import pqtrig
pqtrig.arcsin_pq(pqtrig.PQParams(2.5, 3.5), 0.75)
print(json.dumps({"backend": pqtrig.backend_name(), "seconds": time.perf_counter() - t0}))
"""


class ProbeError(Exception):
    pass


def setup_seconds(env: dict, cwd: str, backend: str) -> float:
    """One set-up probe on ``backend``, with the package found through ``env``."""
    proc = subprocess.run([sys.executable, "-c", _SETUP_PROBE], env=env, cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ProbeError(f"set-up probe exited {proc.returncode}: {proc.stderr[-2000:]}")
    out = json.loads(lines[-1])
    if out["backend"] != backend:
        raise ProbeError(f"set-up probe ran on backend {out['backend']!r}, expected {backend!r}")
    return out["seconds"]


def round_loop(opts: dict, run_round, probe, after_round=None):
    """Run whole rounds until ``opts["seconds"]`` have passed; return the
    rounds' results and ``opts["setup_runs"]`` results of ``probe()``.

    ``run_round(index, traced)`` returns one round's result.  With
    ``opts["trace"]`` on, the odd rounds among the first ``2 * TRACED_ROUNDS``
    run with spans installed and the even ones without, so their times
    give the tracing overhead, and at least two rounds run.  Probe i runs
    at the first round boundary after (i + 1/2) / n of the time; those
    still due when the rounds end run then.  ``after_round(count)`` is
    called after each round.
    """
    rounds, setups = [], []
    n_probes = opts.get("setup_runs", 0)
    start = time.perf_counter()
    deadline = start + opts["seconds"]
    limit = opts.get("max_rounds") or math.inf
    least = 2 if opts["trace"] else 1  # a traced run needs one round of each kind

    def probe_due(now):
        done = len(setups)
        return done < n_probes and now - start >= (done + 0.5) / n_probes * opts["seconds"]

    while len(rounds) < least or (len(rounds) < limit and time.perf_counter() < deadline):
        traced = opts["trace"] and len(rounds) % 2 == 1 and len(rounds) < 2 * TRACED_ROUNDS
        rounds.append(run_round(len(rounds), traced))
        if after_round is not None:
            after_round(len(rounds))
        while probe_due(time.perf_counter()):
            setups.append(probe())
    while len(setups) < n_probes:
        setups.append(probe())
    return rounds, setups
