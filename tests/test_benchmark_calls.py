"""The benchmark's calls into the package still resolve.

``perfbench/`` drives the package through ``pqtrig.<name>``,
``pqtrig.run_sweep(..., keyword=...)`` and the argument vectors of the
CLI, and reads the reports that ``run_sweep`` returns.  These tests read
its sources with ``ast`` (code in string literals that imports pqtrig
included, such as the fresh-process probes) and fail when a name,
keyword, subcommand, option or report attribute the benchmark uses is
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

# the variables the benchmark binds to a report, and the list of a report
# whose items its loop variables run over
_REPORT_NAMES = ("rep", "report")
_ITEMS = ("verdicts", "errors")


def _loops(scope):
    """(the loop variable, the attribute of a report whose items it runs
    over) of each for loop or comprehension in ``scope``, such as ("v",
    "verdicts") for ``for v in sample(rep.verdicts, 2)``."""
    for node in ast.walk(scope):
        if isinstance(node, (ast.For, ast.comprehension)) and isinstance(node.target, ast.Name):
            for inner in ast.walk(node.iter):
                if (isinstance(inner, ast.Attribute) and inner.attr in _ITEMS
                        and isinstance(inner.value, ast.Name) and inner.value.id in _REPORT_NAMES):
                    yield node.target.id, inner.attr


def _reads():
    """{"report", "verdicts", "errors"}: the attributes the benchmark reads
    on a report, and on the items of its lists; as rep.<a> or report.<a>,
    as rep.errors[0].<a>, and as v.<a> inside a function that loops v over
    rep.verdicts."""
    reads = {"report": set(), "verdicts": set(), "errors": set()}
    for tree in _trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            base = node.value
            if isinstance(base, ast.Name) and base.id in _REPORT_NAMES:
                reads["report"].add(node.attr)
            elif (isinstance(base, ast.Subscript) and isinstance(base.value, ast.Attribute)
                    and base.value.attr in _ITEMS and isinstance(base.value.value, ast.Name)
                    and base.value.value.id in _REPORT_NAMES):
                reads[base.value.attr].add(node.attr)
        for scope in ast.walk(tree):
            if not isinstance(scope, (ast.FunctionDef, ast.Module)):
                continue
            items = dict(_loops(scope))
            for node in ast.walk(scope):
                if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                        and node.value.id in items):
                    reads[items[node.value.id]].add(node.attr)
    return reads


READS = _reads()


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


def test_the_scan_finds_what_the_benchmark_reads_on_a_report():
    assert {"verdicts", "errors", "all_satisfied", "counterexamples", "check",
            "order"} <= READS["report"]
    assert {"at", "lhs", "rhs", "margin", "tolerance", "satisfied"} <= READS["verdicts"]
    assert {"index", "message"} <= READS["errors"]


def test_every_attribute_the_benchmark_reads_on_a_report_resolves():
    # a sweep that records both a verdict and an error: lemma21 fails at x = 1
    axes = [pqtrig.GridAxis("p", 2.0, 2.0, 1), pqtrig.GridAxis("q", 3.0, 3.0, 1),
            pqtrig.GridAxis("x", 0.5, 1.0, 2)]
    report = pqtrig.run_sweep("lemma21", axes)
    assert report.verdicts and report.errors
    found = {"report": report, "verdicts": report.verdicts[0], "errors": report.errors[0]}
    missing = {(kind, attr) for kind, attrs in READS.items() for attr in attrs
               if not hasattr(found[kind], attr)}
    assert missing == set()


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
