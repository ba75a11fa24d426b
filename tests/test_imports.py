"""Cold start: importing the package and its CLI loads no module a command
does not need, on either backend, and the commands that do need one
(JSON output, a threaded sweep) still load it and succeed."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import pqtrig

# standard-library modules that cost milliseconds to import and that
# neither `import pqtrig` nor `import pqtrig.cli` may load
UNNEEDED = ("dataclasses", "inspect", "concurrent.futures", "logging", "json")

PROBE = (
    "import sys\n"
    "import pqtrig, pqtrig.cli\n"
    "print(pqtrig.backend_name())\n"
    f"print(','.join(m for m in {UNNEEDED!r} if m in sys.modules))\n"
)

# a sweep on one thread, then on two: only the second loads the thread pool
THREADED = (
    "import sys\n"
    "import pqtrig\n"
    "axes = [pqtrig.GridAxis('p', 1.5, 2.0, 2), pqtrig.GridAxis('q', 2.0, 3.0, 2),\n"
    "        pqtrig.GridAxis('r', 0.01, 0.99, 3), pqtrig.GridAxis('s', 0.01, 0.99, 3)]\n"
    "one = pqtrig.run_sweep('thm11-sin', axes)\n"
    "before = 'concurrent.futures' in sys.modules\n"
    "two = pqtrig.run_sweep('thm11-sin', axes, threads=2)\n"
    "print(before, 'concurrent.futures' in sys.modules, len(two.verdicts),\n"
    "      two.verdicts == one.verdicts)\n"
)


@pytest.fixture(scope="module", params=["c", "python"])
def backend_env(request, tmp_path_factory):
    """(backend, environment) for a fresh process on that backend."""
    env = {k: v for k, v in os.environ.items() if k != "PQTRIG_PURE_PYTHON"}
    src = os.path.dirname(os.path.dirname(pqtrig.__file__))
    if request.param == "python":
        env.update(PYTHONPATH=src, PQTRIG_PURE_PYTHON="1")
        return request.param, env
    # the package as installed: its sources beside the compiled kernel
    compiled = pytest.importorskip("pqtrig._dequad_c", reason="compiled kernel not built")
    root = tmp_path_factory.mktemp("installed")
    shutil.copytree(os.path.join(src, "pqtrig"), root / "pqtrig",
                    ignore=shutil.ignore_patterns("__pycache__", "*.so", "*.pyd"))
    shutil.copy(compiled.__file__, root / "pqtrig")
    env["PYTHONPATH"] = str(root)
    return request.param, env


def _run(env, *args):
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


def test_import_loads_no_unneeded_module(backend_env):
    backend, env = backend_env
    proc = _run(env, "-c", PROBE)
    assert proc.returncode == 0, proc.stderr
    name, loaded = proc.stdout.split("\n")[:2]
    assert name == backend
    assert loaded == ""


def test_json_output_and_threaded_sweep_still_work(backend_env):
    _backend, env = backend_env
    proc = _run(env, "-m", "pqtrig.cli", "constants", "--p", "2", "--q", "3", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["half_pi"] == pqtrig.half_pi_pq(pqtrig.PQParams(2.0, 3.0))
    proc = _run(env, "-c", THREADED)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False True 36 True\n"
