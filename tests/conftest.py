import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig

import pytest

# the five-by-five parameter grid used throughout the checks
PQ_VALUES = (1.25, 1.5, 2.0, 3.0, 5.0)

C_SOURCE = os.path.join(os.path.dirname(__file__), os.pardir, "src", "pqtrig", "_dequad_c.c")

# what the session runs on, for the report header
_kernel_note = ""


class _CompiledKernelFinder:
    """Imports ``pqtrig._dequad_c`` from the extension built for this session."""

    def __init__(self, path):
        self.path = path

    def find_spec(self, name, path=None, target=None):
        if name != "pqtrig._dequad_c":
            return None
        return importlib.util.spec_from_file_location(name, self.path)


def _compiler():
    """The interpreter's C compiler command, or None without it or the headers."""
    cc = (sysconfig.get_config_var("CC") or "cc").split()
    include = sysconfig.get_paths()["include"]
    if shutil.which(cc[0]) is None or not os.path.isfile(os.path.join(include, "Python.h")):
        return None
    return cc


@pytest.hookimpl(trylast=True)  # after pytest's own configure has set up its temp dirs
def pytest_configure(config):
    """Compile the committed ``_dequad_c.c`` into the session's temp dir and
    make ``import pqtrig._dequad_c`` load it, so the tests run the backend
    that users build; warnings count as errors.  Without a compiler the
    pure backend is tested."""
    global _kernel_note
    cc = _compiler()
    if cc is None:
        _kernel_note = "no C compiler or Python headers, so the compiled kernel was not built"
        return
    cfg = sysconfig.get_config_var
    target = os.path.join(
        config._tmp_path_factory.mktemp("dequad_c"), "_dequad_c" + cfg("EXT_SUFFIX")
    )
    # -Werror: a compiler warning in the kernel fails the session
    cmd = (cc + (cfg("CFLAGS") or "").split() + (cfg("CCSHARED") or "").split()
           + ["-Werror", "-I", sysconfig.get_paths()["include"], os.path.normpath(C_SOURCE),
              "-shared", "-o", target, "-lm"])
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        raise pytest.UsageError(f"compiling _dequad_c.c failed:\n{proc.stdout}")
    sys.meta_path.insert(0, _CompiledKernelFinder(target))
    _kernel_note = f"compiled from src/pqtrig/_dequad_c.c into {os.path.dirname(target)}"


def pytest_report_header(config):
    from pqtrig import backend_name

    return f"pqtrig kernel backend: {backend_name()} ({_kernel_note})"


@pytest.fixture(scope="session")
def classic():
    """The classical case p = q = 2."""
    from pqtrig import PQParams

    return PQParams(2.0, 2.0)


def pq_grid():
    from pqtrig import PQParams

    return [PQParams(p, q) for p in PQ_VALUES for q in PQ_VALUES]


def frac_grid(n, lo=0.01, hi=0.99):
    step = (hi - lo) / (n - 1)
    return [lo + step * i for i in range(n)]


def _kernel_backends():
    """The kernel modules that exist: the compiled one where it was built, and the pure one."""
    from pqtrig import _dequad_py

    try:
        from pqtrig import _dequad_c
    except ImportError:
        return [_dequad_py]
    return [_dequad_c, _dequad_py]


@pytest.fixture(params=["c", "python"])
def backend(request, monkeypatch):
    """Runs the test with the modules that call the kernels (``functions``,
    ``inverse``, ``means`` and ``inequalities``) on each kernel backend in
    turn; the compiled one is skipped where it was not built."""
    from pqtrig import functions, inequalities, inverse, means

    found = {k.BACKEND: k for k in _kernel_backends()}
    if request.param not in found:
        pytest.skip("compiled kernel extension not built")
    for module in (functions, inverse, means, inequalities):
        monkeypatch.setattr(module, "kernels", found[request.param])
    return found[request.param]
