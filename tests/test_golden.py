"""Golden outputs of ``pqtrig sweep`` and ``pqtrig verify``.

Each case is one CLI invocation whose output and exit status are stored
under ``tests/golden/``: the CSV of every check over one grid (the two
monotonicity probes at ``--grid 10``, ``double-angle`` at (4/3, 4) only),
``gm-sin`` also at two positive orders, one JSON report and one text
report.  A refactor of the lab or the CLI must leave all of them
byte-identical, on either kernel backend.

Regenerate the files from a trusted tree with

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import os
import sys
from contextlib import redirect_stdout

import pytest

from pqtrig.cli import main

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
def test_output_matches_golden_file(name):
    argv = CASES[name]
    code, out = _run(argv)
    expected = _golden(name, argv)
    status, _, body = expected.partition("\n")
    assert f"exit {code}" == status
    assert out == body


def _regenerate() -> None:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name, argv in CASES.items():
        code, out = _run(argv)
        with open(_path(name, argv), "w", encoding="utf-8") as fh:
            fh.write(f"exit {code}\n{out}")
        print(f"{name}: exit {code}, {out.count(chr(10))} lines", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
