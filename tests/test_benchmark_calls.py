"""The benchmark's calls into the package still resolve.

``perfbench/`` drives the package through ``pqtrig.<name>`` and
``pqtrig.run_sweep(..., keyword=...)``.  These tests read its sources
with ``ast`` (code in string literals that imports pqtrig included, such
as the fresh-process probes) and fail when a name or keyword the
benchmark uses is deleted from the package before the benchmark stops
using it.
"""

import ast
import glob
import inspect
import os

import pqtrig
import pqtrig.cli  # noqa: F401  (the benchmark reads pqtrig.cli)

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def _trees():
    """The syntax tree of each benchmark module, and of each string literal
    in them that is code importing pqtrig."""
    for path in sorted(glob.glob(os.path.join(PERFBENCH, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        yield tree
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and "import pqtrig" in node.value):
                try:
                    yield ast.parse(node.value)
                except SyntaxError:  # prose, such as a docstring
                    pass


def _is_pqtrig(node) -> bool:
    return isinstance(node, ast.Name) and node.id == "pqtrig"


def _uses():
    """(the names read as pqtrig.<name>, the keywords passed to pqtrig.run_sweep)"""
    names, keywords = set(), set()
    for tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and _is_pqtrig(node.value):
                names.add(node.attr)
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and _is_pqtrig(node.func.value) and node.func.attr == "run_sweep"):
                keywords.update(kw.arg for kw in node.keywords if kw.arg is not None)
    return names, keywords


NAMES, SWEEP_KEYWORDS = _uses()


def test_the_scan_finds_the_benchmark_calls():
    # an empty scan would pass the tests below vacuously
    assert {"run_sweep", "PQParams", "GridAxis", "backend_name"} <= NAMES
    assert "order" in SWEEP_KEYWORDS


def test_every_name_the_benchmark_reads_resolves():
    assert {name for name in NAMES if not hasattr(pqtrig, name)} == set()


def test_every_keyword_the_benchmark_passes_to_run_sweep_is_a_parameter():
    parameters = inspect.signature(pqtrig.run_sweep).parameters
    assert SWEEP_KEYWORDS - set(parameters) == set()
