"""CLI contract tests: exit codes, formats, determinism."""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqtrig.cli import CSV_HEADER, main
from pqtrig.inequalities import CHECKS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_arcsin_classic(self, capsys):
        code, out, _ = run(capsys, "eval", "--fn", "arcsin", "--p", "2", "--q", "2", "--x", "0.5")
        assert code == 0
        x, value = out.split()
        assert float(value) == pytest.approx(0.5235987756, abs=1e-9)

    def test_sin_at_zero(self, capsys):
        code, out, _ = run(capsys, "eval", "--fn", "sin", "--p", "2", "--q", "2", "--x", "0")
        assert code == 0
        assert float(out.split()[1]) == 0.0

    def test_sinh_beyond_m_star_fails_citing_bound(self, capsys):
        code, out, err = run(
            capsys, "eval", "--fn", "sinh", "--p", "2", "--q", "4", "--x", "2.0"
        )
        assert code == 1
        assert "1.854" in err

    def test_multiple_points(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--fn", "arcsinh", "--p", "2", "--q", "2",
            "--x", "0.5", "1.0", "2.0",
        )
        assert code == 0
        rows = out.strip().splitlines()
        assert len(rows) == 3
        assert float(rows[1].split()[1]) == pytest.approx(math.asinh(1.0), abs=1e-10)

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--fn", "arcsin", "--p", "2", "--q", "2",
            "--x", "0.5", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,value"
        assert len(lines) == 2


@pytest.mark.parametrize("argv,code,err", [
    (["eval", "--fn", "sin", "--p", "2", "--q", "2", "--x", "-inf"], 1,
     "error: sin_pq needs y in [0, 1.57079632679] (half_pi for p=2.0, q=2.0), got -inf\n"),
    (["eval", "--fn", "arcsinh", "--p", "2", "--q", "2", "--x", "0.5", "-1e-3"], 1,
     "error: arcsinh_pq needs finite x >= 0, got -0.001\n"),
    (["eval", "--fn", "arcsin", "--p", "2", "--q", "2", "--x", "-NaN", "-.5E+2"], 1,
     "error: arcsin_pq needs x in [0, 1], got nan\n"),
    (["verify", "--check", "gm-sin", "--order", "-1e-3", "--p", "2", "--q", "3", "--grid", "3"],
     0, ""),
])
def test_negative_numbers_are_values_as_separate_words(capsys, argv, code, err):
    # argparse took -inf and -1e-3 for options and exited 2 before any
    # command ran: each of these now reaches its command's own checks
    assert run(capsys, *argv)[::2] == (code, err)


class TestConstants:
    def test_classic(self, capsys):
        code, out, _ = run(capsys, "constants", "--p", "2", "--q", "2")
        assert code == 0
        assert "half_pi = 1.5707963268" in out.replace("1.57079632679", "1.5707963268")
        assert "m_star = inf" in out

    def test_four_thirds_decimal(self, capsys):
        code, out, _ = run(capsys, "constants", "--p", "1.3333333333", "--q", "4")
        assert code == 0
        half_pi = float(out.splitlines()[0].split("=")[1])
        assert half_pi == pytest.approx(1.8540746773, abs=1e-6)

    def test_rejects_p_below_one(self, capsys):
        code, _, err = run(capsys, "constants", "--p", "0.9", "--q", "2")
        assert code == 2
        assert "p must be a finite real exceeding 1" in err

    def test_json(self, capsys):
        code, out, _ = run(capsys, "constants", "--p", "2", "--q", "2", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["m_star"] == "inf"
        assert obj["half_pi"] == pytest.approx(math.pi / 2, abs=1e-10)


class TestVerify:
    def test_thm11_sin_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--check", "thm11-sin", "--p", "2", "--q", "3", "--grid", "12"
        )
        assert code == 0
        assert "all satisfied: yes" in out

    def test_lemma23_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--check", "lemma23", "--p", "1.5", "--q", "3")
        assert code == 0

    def test_gm_sin_order_one_fails_with_counterexamples(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--check", "gm-sin", "--order", "1",
            "--p", "2", "--q", "2", "--grid", "12",
        )
        assert code == 1
        assert "counterexamples" in out

    def test_unknown_check_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--check", "nope", "--p", "2", "--q", "2")
        assert code == 2
        assert "unknown check" in err

    def test_gm_needs_order(self, capsys):
        code, _, err = run(capsys, "verify", "--check", "gm-sin", "--p", "2", "--q", "2")
        assert code == 2
        assert "requires a Hölder order" in err

    def test_probe_verify(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--check", "fstar-monotone", "--order", "1",
            "--p", "2", "--q", "2", "--grid", "60", "--x-max", "20",
        )
        assert code == 0

    @pytest.mark.parametrize("command", ["verify", "sweep"])
    @pytest.mark.parametrize("check", ["f-monotone", "fstar-monotone"])
    def test_probe_grid_below_ten_is_usage_error(self, capsys, command, check):
        # a probe scans at least 10 points; a smaller grid evaluates nothing
        where = (["--p", "2", "--q", "2"] if command == "verify"
                 else ["--p-range", "1.25:5:3", "--q-range", "1.25:5:4"])
        code, out, err = run(
            capsys, command, "--check", check, "--order", "0", *where, "--grid", "4",
        )
        assert code == 2
        assert f"{check} needs at least 10 values on axis 'x', got 4" in err
        assert out == ""


# where verify and sweep take their (p, q)
WHERE = {"verify": ("--p", "2", "--q", "3"),
         "sweep": ("--p-range", "1.25:5:3", "--q-range", "1.25:5:4")}
NEEDS_ORDER = [name for name, check in CHECKS.items() if check.needs_order]
PROBES = [name for name, check in CHECKS.items() if check.min_grid == 10]


@pytest.mark.parametrize("command", ["verify", "sweep"])
@pytest.mark.parametrize("option,value,rule", [
    ("--x-max", "inf", "x_max must be finite and positive"),
    ("--x-max", "nan", "x_max must be finite and positive"),
    ("--x-max", "0", "x_max must be finite and positive"),
])
def test_bad_x_max_is_a_usage_error(capsys, command, option, value, rule):
    # --x-max inf used to record one error per point
    code, out, err = run(capsys, command, "--check", "lemma21", *WHERE[command], "--grid", "3",
                         f"{option}={value}")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {rule}, got ")


@pytest.mark.parametrize("argv,rule", [
    (["constants", "--p", "nan", "--q", "2"], "p must be a finite real exceeding 1, got nan"),
    (["constants", "--p", "inf", "--q", "2"], "p must be a finite real exceeding 1, got inf"),
    (["constants", "--p", "2", "--q", "nan"], "q must be a finite real exceeding 1, got nan"),
    (["eval", "--fn", "sin", "--p", "nan", "--q", "2", "--x", "0.5"],
     "p must be a finite real exceeding 1, got nan"),
    (["verify", "--check", "lemma21", "--p", "inf", "--q", "2", "--grid", "3"],
     "p must be a finite real exceeding 1, got inf"),
    (["verify", "--check", "f-monotone", "--order", "nan", "--p", "2", "--q", "3",
      "--grid", "10"], "Hölder order must be a finite real, got nan"),
    (["verify", "--check", "fstar-monotone", "--order", "nan", "--p", "2", "--q", "3",
      "--grid", "10"], "Hölder order must be a finite real, got nan"),
    (["verify", "--check", "gm-sin", "--order", "nan", "--p", "2", "--q", "3", "--grid", "3"],
     "Hölder order must be a finite real, got nan"),
    (["verify", "--check", "lemma21", "--order", "inf", "--p", "2", "--q", "3", "--grid", "3"],
     "Hölder order must be a finite real, got inf"),
    (["sweep", "--check", "gm-sinh", "--order", "-inf", "--p-range", "1.5:2:2",
      "--q-range", "2:3:2", "--grid", "3"], "Hölder order must be a finite real, got -inf"),
    (["counterexample", "--order", "nan", "--p", "2", "--q", "2"],
     "Hölder order must be a finite real, got nan"),
    (["counterexample", "--order", "inf", "--p", "2", "--q", "2"],
     "Hölder order must be a finite real, got inf"),
])
def test_a_parameter_or_order_that_is_not_finite_is_a_usage_error(capsys, argv, rule):
    # each exited 1: nan and inf passed `p <= 1`, and a nan order made the
    # probes list counterexamples to a proven claim
    assert run(capsys, *argv) == (2, "", f"error: {rule}\n")


def test_registry_marks_the_order_and_grid_checks():
    assert NEEDS_ORDER == ["gm-sin", "gm-sinh", "f-monotone", "fstar-monotone"]
    assert PROBES == ["f-monotone", "fstar-monotone"]


@pytest.mark.parametrize("command", ["verify", "sweep"])
@pytest.mark.parametrize("check", NEEDS_ORDER)
def test_check_needing_an_order_is_a_usage_error_without_one(capsys, command, check):
    code, out, err = run(capsys, command, "--check", check, *WHERE[command], "--grid", "10")
    assert code == 2
    assert err == f"error: {check} requires a Hölder order\n"
    assert out == ""


@pytest.mark.parametrize("check", [name for name in CHECKS if name not in NEEDS_ORDER])
def test_check_needing_no_order_runs_without_one(capsys, check):
    code, out, err = run(capsys, "verify", "--check", check, "--p", "4", "--q", "3",
                         "--grid", "3", "--format", "csv")
    assert code in (0, 1)  # double-angle is an identity at (4/3, 4) only
    assert out.startswith(CSV_HEADER)
    assert err == ""


@pytest.mark.parametrize("command", ["verify", "sweep"])
@pytest.mark.parametrize("check", PROBES)
def test_probe_at_grid_nine_is_a_usage_error(capsys, command, check):
    code, out, err = run(capsys, command, "--check", check, "--order", "0",
                         *WHERE[command], "--grid", "9")
    assert code == 2
    assert err == f"error: {check} needs at least 10 values on axis 'x', got 9\n"
    assert out == ""


class TestSweep:
    def test_csv_block_count(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--check", "thm11-sinh",
            "--p-range", "1.25:5:4", "--q-range", "1.25:5:4",
            "--grid", "4", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 16 * 16  # 16 (p,q) blocks of 4x4 points

    def test_inverted_range_usage_error(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--check", "lemma21",
            "--p-range", "5:1.25:3", "--q-range", "2:3:2",
        )
        assert code == 2

    def test_csv_determinism(self, tmp_path, capsys):
        args = (
            "sweep", "--check", "lemma21",
            "--p-range", "1.25:2:2", "--q-range", "2:5:2", "--grid", "6",
            "--format", "csv",
        )
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main([*args, "--output", str(f1)]) == 0
        assert main([*args, "--output", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_csv_significant_digits(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--check", "lemma23",
            "--p-range", "2:2:1", "--q-range", "4:4:1", "--format", "csv",
        )
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert row[2] == "lemma23"
        # 12 significant digits, trailing zeros trimmed by %g
        assert row[5] == f"{float(row[5]):.12g}"
        assert float(row[5]) == pytest.approx(1.8540746773, abs=1e-9)

    def test_json_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--check", "lemma22",
            "--p-range", "2:3:2", "--q-range", "2:4:2", "--grid", "5",
            "--format", "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["all_satisfied"] is True
        assert len(obj["verdicts"]) == 4 * 5
        assert obj["check"] == "lemma22"
        assert isinstance(obj["worst_margin"], float)


class TestCounterexample:
    def test_finds_both(self, capsys):
        code, out, _ = run(
            capsys, "counterexample", "--order", "0.5", "--p", "2", "--q", "2",
            "--budget", "900",
        )
        assert code == 0
        assert "violating" in out and "satisfying" in out

    def test_csv_two_rows(self, capsys):
        code, out, _ = run(
            capsys, "counterexample", "--order", "1", "--p", "2", "--q", "2",
            "--budget", "900", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3

    def test_rejects_nonpositive_order(self, capsys):
        code, _, err = run(
            capsys, "counterexample", "--order", "-1", "--p", "2", "--q", "2"
        )
        assert code == 2


def test_infinity_renders_as_token(capsys):
    code, out, _ = run(
        capsys, "verify", "--check", "lemma23", "--p", "3", "--q", "2", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["verdicts"][0]["lhs"] == "inf"
    assert obj["verdicts"][0]["satisfied"] is True


def test_far_out_probe_prints_no_traceback():
    # x**q beyond the largest float used to raise OverflowError out of
    # Fstar_fn and print a traceback
    import os
    import subprocess
    import sys

    import pqtrig

    src = os.path.dirname(os.path.dirname(pqtrig.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "pqtrig.cli", "sweep", "--check", "fstar-monotone",
         "--order", "0.5", "--p-range", "2:3:2", "--q-range", "3:3:1", "--x-max", "1e300",
         "--grid", "10"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert "Traceback" not in proc.stderr
    assert proc.returncode in (0, 1)


def test_a_report_names_no_order_its_check_did_not_use(capsys):
    # lemma21 takes no order: the report said "check: lemma21 (order=0.5)"
    code, out, err = run(capsys, "verify", "--check", "lemma21", "--p", "2", "--q", "3",
                         "--grid", "3", "--order", "0.5")
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "check: lemma21"


@pytest.mark.parametrize("parts", [("missing", "out.txt"), ()])
def test_an_output_path_that_cannot_be_written_is_a_usage_error(capsys, tmp_path, parts):
    # a missing directory or a directory raised FileNotFoundError or
    # IsADirectoryError out of main, with a traceback
    target = str(tmp_path.joinpath(*parts))
    code, out, err = run(capsys, "constants", "--p", "2", "--q", "3", "--output", target)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write --output {target!r}: ")


# every argv of this module's usage-error tests, and a few for the rules the
# CLI keeps itself (--grid >= 2 and the lo:hi:n form of a range)
USAGE_ARGVS = [
    ["constants", "--p", "0.9", "--q", "2"],
    ["verify", "--check", "nope", "--p", "2", "--q", "2"],
    ["verify", "--check", "gm-sin", "--p", "2", "--q", "2"],
    *([command, "--check", check, "--order", "0", *WHERE[command], "--grid", grid]
      for command in WHERE for check in PROBES for grid in ("4", "9")),
    *([command, "--check", "lemma21", *WHERE[command], "--grid", "3", f"{option}={value}"]
      for command in WHERE for option, value in (("--x-max", "inf"), ("--x-max", "nan"),
                                                 ("--x-max", "0"))),
    ["constants", "--p", "nan", "--q", "2"],
    ["constants", "--p", "inf", "--q", "2"],
    ["constants", "--p", "2", "--q", "nan"],
    ["eval", "--fn", "sin", "--p", "nan", "--q", "2", "--x", "0.5"],
    ["verify", "--check", "lemma21", "--p", "inf", "--q", "2", "--grid", "3"],
    ["verify", "--check", "f-monotone", "--order", "nan", "--p", "2", "--q", "3", "--grid", "10"],
    ["verify", "--check", "fstar-monotone", "--order", "nan", "--p", "2", "--q", "3",
     "--grid", "10"],
    ["verify", "--check", "gm-sin", "--order", "nan", "--p", "2", "--q", "3", "--grid", "3"],
    ["verify", "--check", "lemma21", "--order", "inf", "--p", "2", "--q", "3", "--grid", "3"],
    ["sweep", "--check", "gm-sinh", "--order", "-inf", "--p-range", "1.5:2:2",
     "--q-range", "2:3:2", "--grid", "3"],
    ["counterexample", "--order", "nan", "--p", "2", "--q", "2"],
    ["counterexample", "--order", "inf", "--p", "2", "--q", "2"],
    *([command, "--check", check, *WHERE[command], "--grid", "10"]
      for command in WHERE for check in NEEDS_ORDER),
    ["sweep", "--check", "lemma21", "--p-range", "5:1.25:3", "--q-range", "2:3:2"],
    ["counterexample", "--order", "-1", "--p", "2", "--q", "2"],
    ["counterexample", "--order", "1", "--p", "2", "--q", "2", "--budget", "99"],
    ["eval", "--fn", "arcsin", "--p", "0.5", "--q", "2", "--x", "0.5"],
    ["sweep", "--check", "thm11-sinh", "--p-range", "0.5:2:2", "--q-range", "2:3:2"],
    ["sweep", "--check", "thm11-sinh", "--p-range", "1.5:2", "--q-range", "2:3:2"],
    ["sweep", "--check", "thm11-sinh", "--p-range", "1.5:2:0", "--q-range", "2:3:2"],
    ["verify", "--check", "thm11-sin", "--p", "2", "--q", "3", "--grid", "1"],
    ["verify", "--check", "lemma23", "--p", "2", "--q", "3", "--grid", "0"],
]


@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_the_verdict_tolerance_is_no_option(capsys, command):
    # each check's tolerance is its own rule; --tol is gone, and argparse
    # refuses it as a usage error
    with pytest.raises(SystemExit) as exc:
        main([command, "--check", "lemma21", *WHERE[command], "--grid", "3", "--tol", "0.1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol 0.1" in capsys.readouterr().err


class _NoKernels:
    """A kernel module whose every function fails the test that calls it."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        def call(*args):
            self.calls.append(name)
            raise AssertionError(f"kernels.{name} called before the usage error")

        return call


@pytest.mark.parametrize("argv", USAGE_ARGVS, ids=" ".join)
def test_a_usage_error_is_found_before_any_computation(capsys, monkeypatch, argv):
    # the CLI reads every DomainError of PQParams, GridAxis, run_sweep and
    # counterexample_search as a usage error, which holds only while they
    # raise it before the first kernel call
    from pqtrig import functions, inverse

    kernels = _NoKernels()
    monkeypatch.setattr(functions, "kernels", kernels)
    monkeypatch.setattr(inverse, "kernels", kernels)
    for cached in (functions._half_pi, functions._m_star, inverse._half_branch):
        cached.cache_clear()  # a cached constant would hide its kernel call
    assert run(capsys, *argv)[:2] == (2, "")
    assert kernels.calls == []


# ---------------------------------------------------------------------------
# the contract over seeded argument vectors: every subcommand, every format

_NUMBERS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 5e-324, 1e308, -1e308, 0.0, -0.0, -1.0,
                     0.5, 1.0, 2.0, 50.0]),
    st.floats(allow_nan=True, allow_infinity=True),
)
_PQ = st.one_of(
    st.sampled_from([1.0 + 2.0 ** -52, 1.0, 0.5, math.nan, math.inf, 1e300,
                     1.7976931348623157e308]),
    st.floats(1.0, 1.7976931348623157e308),
    st.floats(1.0, 10.0),
)
_FORMATS = st.sampled_from(["text", "csv", "json"])
_CHECK_ARGS = {"--order": _NUMBERS, "--x-max": _NUMBERS}


def _opt(name, value):
    # --name=value, so that values such as -inf are not taken for options
    return [f"{name}={value!r}" if isinstance(value, float) else f"{name}={value}"]


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["eval", "constants", "verify", "sweep", "counterexample"]))
    argv = [command, *_opt("--format", draw(_FORMATS))]
    if command != "sweep":
        argv += _opt("--p", draw(_PQ)) + _opt("--q", draw(_PQ))
    if command == "eval":
        argv += _opt("--fn", draw(st.sampled_from(["arcsin", "arccos", "arcsinh",
                                                   "sin", "cos", "sinh"])))
        # separate words, negative ones included
        argv += ["--x", *(repr(x) for x in draw(st.lists(_NUMBERS, min_size=1, max_size=3)))]
    elif command == "counterexample":
        argv += _opt("--order", draw(_NUMBERS)) + _opt("--budget",
                                                        draw(st.sampled_from([50, 100, 400])))
    elif command in ("verify", "sweep"):
        argv += _opt("--check", draw(st.sampled_from(list(CHECKS) + ["nope"])))
        argv += _opt("--grid", draw(st.integers(0, 10)))
        if command == "sweep":
            for axis in ("p", "q"):
                lo, hi = draw(_PQ), draw(_PQ)
                argv += [f"--{axis}-range={lo!r}:{hi!r}:{draw(st.integers(0, 2))}"]
        for name, values in _CHECK_ARGS.items():
            if draw(st.booleans()):
                argv += _opt(name, draw(values))
    return argv


@settings(max_examples=240, deadline=None)
@given(argv=_argv())
def test_cli_keeps_its_contract_on_seeded_arguments(argv):
    # no exception escapes main (argparse's own usage exit excepted), and
    # the status is 0, 1 or 2
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        assert exc.code == 2, (argv, err.getvalue())
        return
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
