"""The benchmark's calls into the package still resolve.

``perfbench/`` drives the package through ``pqtrig.<name>``,
``pqtrig.run_sweep(..., keyword=...)`` and the argument vectors of the
CLI.  These tests read its sources with ``ast`` (code in string literals
that imports pqtrig included, such as the fresh-process probes) and fail
when a name, keyword, subcommand or option the benchmark uses is
deleted from the package before the benchmark stops using it.
"""

import argparse
import ast
import glob
import inspect
import os
import re

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


def _cli_words():
    """(the subcommands, the --options) that the benchmark's CLI calls pass.

    An option is any string literal such as "--grid".  A subcommand is the
    first literal of a tuple or list whose second is an option, as in
    ("eval", "--fn", ...), or a literal compared with an ``argv[0]``."""
    commands, options = set(), set()
    for name in ("cli_load.py", "layers.py"):
        with open(os.path.join(PERFBENCH, name)) as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and re.fullmatch(r"--[a-z][a-z-]*", node.value)):
                options.add(node.value)
            elif isinstance(node, (ast.Tuple, ast.List)) and len(node.elts) > 1:
                head, second = node.elts[:2]
                if (isinstance(head, ast.Constant) and isinstance(second, ast.Constant)
                        and str(second.value).startswith("--")):
                    commands.add(head.value)
            elif (isinstance(node, ast.Compare) and isinstance(node.left, ast.Subscript)
                    and ast.unparse(node.left).endswith("argv[0]")):
                commands.update(c.value for c in node.comparators if isinstance(c, ast.Constant))
    return commands, options


CLI_COMMANDS, CLI_OPTIONS = _cli_words()


def test_the_scan_finds_the_benchmark_calls():
    # an empty scan would pass the tests below vacuously
    assert {"run_sweep", "PQParams", "GridAxis", "backend_name"} <= NAMES
    assert "order" in SWEEP_KEYWORDS


def test_every_name_the_benchmark_reads_resolves():
    assert {name for name in NAMES if not hasattr(pqtrig, name)} == set()


def test_every_keyword_the_benchmark_passes_to_run_sweep_is_a_parameter():
    parameters = inspect.signature(pqtrig.run_sweep).parameters
    assert SWEEP_KEYWORDS - set(parameters) == set()


def test_the_scan_finds_the_benchmark_cli_calls():
    assert {"eval", "constants", "verify", "sweep", "counterexample"} <= CLI_COMMANDS
    assert {"--p", "--q", "--p-range", "--q-range", "--check", "--order", "--grid",
            "--format", "--output"} <= CLI_OPTIONS


def test_every_subcommand_and_option_the_benchmark_passes_is_accepted():
    parser = pqtrig.cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    accepted = {option for sp in subparsers.choices.values() for action in sp._actions
                for option in action.option_strings}
    assert CLI_COMMANDS - set(subparsers.choices) == set()
    assert CLI_OPTIONS - accepted == set()
