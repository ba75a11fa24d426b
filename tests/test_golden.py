"""Golden outputs of ``pqtrig sweep`` and ``pqtrig verify``.

Each case is one CLI invocation whose output and exit status are stored
under ``tests/golden/``: the CSV of every check over one grid (the two
monotonicity probes at ``--grid 10``, ``double-angle`` at (4/3, 4) only),
``gm-sin`` also at two positive orders, one JSON report and one text
report.  A refactor of the lab or the CLI must leave all of them
byte-identical, on either kernel backend: each case runs on the compiled
kernels (where they are built) and on the pure ones, by swapping the
kernel module that ``functions`` and ``inverse`` call.

Regenerate the files from a trusted tree with

    PYTHONPATH=src python tests/test_golden.py

The CSV and text files round every number to 12 digits.  To see how far
a change moves the numbers themselves, dump every case at full precision
on the active backend (each verdict's lhs, rhs, margin, tolerance,
satisfied and at, as ``repr`` floats, each error's message, and the exit
status), once per tree, and compare the dumps:

    PYTHONPATH=<parent>/src python tests/test_golden.py --full parent.json
    PYTHONPATH=src python tests/test_golden.py --full change.json
    PYTHONPATH=src python tests/test_golden.py --compare parent.json change.json

``--compare`` prints, per case, how many numbers moved, the worst move
|a - b| / max(1, |a|), how many verdicts moved their ``at`` and the
worst relative move |a - b| / |a| of an ``at`` value, and any change of
exit status, ``satisfied``, errors or verdict count.  It exits 1 when
any case changes its exit status, a ``satisfied``, its errors or its
verdict count, or is missing from one dump, and 0 otherwise.  Set
``PQTRIG_PURE_PYTHON=1`` to dump the pure backend.
"""

import argparse
import io
import json
import math
import os
import sys
from contextlib import redirect_stdout

import pytest

from pqtrig import _dequad_py, functions, inverse
from pqtrig.cli import main

try:
    from pqtrig import _dequad_c
except ImportError:  # without a C compiler only the pure kernels exist
    _dequad_c = None

BACKENDS = [k for k in (_dequad_c, _dequad_py) if k is not None]

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

_GRID = ("--p-range", "1.25:5:3", "--q-range", "1.25:5:4", "--grid", "4")
_PROBE_GRID = ("--p-range", "1.25:5:3", "--q-range", "1.25:5:4", "--grid", "10")

# name -> argv; the name is the stem of the golden file
CASES = {
    "lemma21": ("sweep", "--check", "lemma21", *_GRID),
    "lemma22": ("sweep", "--check", "lemma22", *_GRID),
    "lemma23": ("sweep", "--check", "lemma23", *_GRID),
    "thm11-sin": ("sweep", "--check", "thm11-sin", *_GRID),
    "thm11-sinh": ("sweep", "--check", "thm11-sinh", *_GRID),
    "gm-sin": ("sweep", "--check", "gm-sin", "--order", "-1", *_GRID),
    "gm-sin-0.5": ("sweep", "--check", "gm-sin", "--order", "0.5", *_GRID),
    "gm-sin-1": ("sweep", "--check", "gm-sin", "--order", "1", *_GRID),
    "gm-sinh": ("sweep", "--check", "gm-sinh", "--order", "1", *_GRID),
    "f-monotone": ("sweep", "--check", "f-monotone", "--order", "-0.5", *_PROBE_GRID),
    "fstar-monotone": ("sweep", "--check", "fstar-monotone", "--order", "0.5", *_PROBE_GRID),
    "double-angle": ("sweep", "--check", "double-angle",
                     "--p-range", "1.3333333333333333:1.3333333333333333:1",
                     "--q-range", "4:4:1", "--grid", "4"),
}
for _name, _argv in list(CASES.items()):
    CASES[_name] = _argv + ("--format", "csv")
CASES["fstar-monotone-json"] = ("sweep", "--check", "fstar-monotone", "--order", "-0.5",
                                "--x-max", "20", *_PROBE_GRID, "--format", "json")
CASES["gm-sin-1-verify-text"] = ("verify", "--check", "gm-sin", "--order", "1",
                                 "--p", "2", "--q", "3", "--grid", "4")


def _path(name: str, argv) -> str:
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "text"
    return os.path.join(GOLDEN_DIR, f"{name}.{'txt' if fmt == 'text' else fmt}")


def _run(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def _golden(name: str, argv) -> str:
    with open(_path(name, argv), encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_file(name, monkeypatch):
    argv = CASES[name]
    status, _, body = _golden(name, argv).partition("\n")
    for kernels in BACKENDS:
        monkeypatch.setattr(functions, "kernels", kernels)
        monkeypatch.setattr(inverse, "kernels", kernels)
        code, out = _run(argv)
        assert f"exit {code}" == status, kernels.BACKEND
        assert out == body, kernels.BACKEND


def _regenerate() -> None:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name, argv in CASES.items():
        code, out = _run(argv)
        with open(_path(name, argv), "w", encoding="utf-8") as fh:
            fh.write(f"exit {code}\n{out}")
        print(f"{name}: exit {code}, {out.count(chr(10))} lines", file=sys.stderr)


def _full(argv) -> dict:
    """One case at full precision: its exit status, and its verdicts and
    errors as the JSON report gives them."""
    argv = list(argv)
    if "--format" in argv:
        argv[argv.index("--format") + 1] = "json"
    else:
        argv += ["--format", "json"]
    code, out = _run(argv)
    report = json.loads(out)
    return {"exit": code, "verdicts": report["verdicts"], "errors": report["errors"]}


def _number(v):
    # the JSON report writes infinities as strings
    return float(v) if v in ("inf", "-inf") else v


def _moved(x, y, scale):
    """|x - y| / scale(x), inf where that is nan."""
    move = abs(x - y) / scale(x)
    return move if move == move else math.inf


def _compare(a: dict, b: dict) -> tuple[list[str], bool]:
    """Per case, the count of moved numbers and the worst move, the count
    of moved ``at`` and their worst relative move, and every change of exit
    status, ``satisfied``, errors or verdict count; and whether any case
    changed one of those four (or is missing from one dump)."""
    lines, changed = [], False
    for name in sorted(set(a) | set(b)):
        if name not in a or name not in b:
            lines.append(f"{name}: only in {'the first' if name in a else 'the second'} dump")
            changed = True
            continue
        ca, cb = a[name], b[name]
        notes = []
        if ca["exit"] != cb["exit"]:
            notes.append(f"exit {ca['exit']} -> {cb['exit']}")
        if ca["errors"] != cb["errors"]:
            notes.append("errors differ")
        if len(ca["verdicts"]) != len(cb["verdicts"]):
            notes.append(f"{len(ca['verdicts'])} -> {len(cb['verdicts'])} verdicts")
        moved, worst = 0, 0.0
        flips = ats = 0
        worst_at = 0.0
        for va, vb in zip(ca["verdicts"], cb["verdicts"]):
            flips += va["satisfied"] != vb["satisfied"]
            if va["at"] != vb["at"]:
                ats += 1
                if va["at"].keys() != vb["at"].keys():
                    worst_at = math.inf
                for key in va["at"].keys() & vb["at"].keys():
                    x, y = _number(va["at"][key]), _number(vb["at"][key])
                    if x != y:
                        worst_at = max(worst_at, _moved(x, y, lambda v: abs(v) or 1.0))
            for key in ("lhs", "rhs", "margin", "tolerance"):
                x, y = _number(va[key]), _number(vb[key])
                if x != y:
                    moved += 1
                    worst = max(worst, _moved(x, y, lambda v: max(1.0, abs(v))))
        if flips:
            notes.append(f"satisfied changed at {flips} verdicts")
        changed = changed or bool(notes)
        if ats:
            notes.append(f"at changed at {ats} verdicts, worst {worst_at:.3g} relative")
        lines.append(f"{name}: {moved} numbers moved, worst {worst:.3g}"
                     + "".join(f"; {n}" for n in notes))
    return lines, changed


def _cli() -> None:
    parser = argparse.ArgumentParser(description="Regenerate, dump or compare the golden outputs.")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--full", metavar="OUT.json", help="dump every case at full precision")
    mode.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                      help="compare two full-precision dumps")
    ns = parser.parse_args()
    if ns.full:
        with open(ns.full, "w", encoding="utf-8") as fh:
            json.dump({name: _full(argv) for name, argv in CASES.items()}, fh, indent=1)
    elif ns.compare:
        dumps = []
        for path in ns.compare:
            with open(path, encoding="utf-8") as fh:
                dumps.append(json.load(fh))
        lines, changed = _compare(*dumps)
        print("\n".join(lines))
        sys.exit(1 if changed else 0)
    else:
        _regenerate()


if __name__ == "__main__":
    _cli()
