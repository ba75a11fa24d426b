"""Stage the package for the benchmark: a copy of ``src/pqtrig`` plus the
compiled kernel, built from the committed ``_dequad_c.c`` against this
interpreter's headers.

The stage lives under ``.bench_build/`` at the root of the checkout and is
keyed by a hash of the sources and the compile command, so an unchanged
tree is built once.  Every process the benchmark starts caches its
bytecode under ``.bench_build/pycache/`` (``PYTHONPYCACHEPREFIX``), and
the stage and ``src/pqtrig`` are byte-compiled there before any timing,
so imports load cached bytecode as they do from an installed package,
whatever the caller's environment says.  Nothing is written under
``src/``.
"""

import hashlib
import os
import shutil
import subprocess
import sys
import sysconfig

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_PKG = os.path.join(ROOT, "src", "pqtrig")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
PYCACHE_DIR = os.path.join(BUILD_DIR, "pycache")
C_SOURCE = "_dequad_c.c"


class BuildError(Exception):
    pass


def python_env(pythonpath: str, pure: bool = False) -> dict:
    """The environment of a benchmark process: only ``pythonpath`` on the
    path, the pure backend if ``pure``, bytecode cached in ``PYCACHE_DIR``."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PQTRIG_PURE_PYTHON", "PYTHONDONTWRITEBYTECODE",
                        "PYTHONPYCACHEPREFIX")}
    env.update(PYTHONPATH=pythonpath, PYTHONPYCACHEPREFIX=PYCACHE_DIR)
    if pure:
        env["PQTRIG_PURE_PYTHON"] = "1"
    return env


def compile_bytecode(stage: str) -> None:
    """Byte-compile the stage and ``src/pqtrig`` into ``PYCACHE_DIR``
    (a no-op for files whose bytecode is up to date)."""
    proc = subprocess.run([sys.executable, "-m", "compileall", "-q", stage, SRC_PKG],
                          env=python_env(stage), stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        raise BuildError(f"byte-compiling the package failed:\n{proc.stdout[-4000:]}")


def compile_command(source: str, target: str) -> list[str]:
    """Compile and link the extension in one step, with the flags the
    interpreter was built with (as a setuptools build would use) plus -O3."""
    cfg = sysconfig.get_config_var
    return (
        [cfg("CC") or "cc"]
        + (cfg("CFLAGS") or "").split()
        + (cfg("CCSHARED") or "").split()
        + ["-O3", "-I", sysconfig.get_paths()["include"], source, "-shared", "-o", target]
        + ["-lm"]
    )


def compile_flags() -> str:
    """The flags of :func:`compile_command`, without the paths."""
    cmd = compile_command("SRC", "OUT")
    return " ".join(a for a in cmd[1:] if a not in ("SRC", "OUT", "-o", "-I")
                    and not a.startswith("/"))


def _source_files() -> list[str]:
    if not os.path.isfile(os.path.join(SRC_PKG, C_SOURCE)):
        raise BuildError(f"no package sources at {os.path.relpath(SRC_PKG, ROOT)}")
    return sorted(f for f in os.listdir(SRC_PKG) if f.endswith((".py", ".c")))


def _stage_key(files: list[str]) -> str:
    h = hashlib.sha256()
    h.update(sys.version.encode())
    h.update(compile_flags().encode())
    for name in files:
        h.update(name.encode())
        with open(os.path.join(SRC_PKG, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def ensure_stage() -> str:
    """Build the stage if needed; return the directory to put on ``sys.path``."""
    files = _source_files()
    stage = os.path.join(BUILD_DIR, "stage-" + _stage_key(files))
    if os.path.isfile(os.path.join(stage, "READY")):
        return stage
    tmp = f"{stage}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    pkg = os.path.join(tmp, "pqtrig")
    os.makedirs(pkg)
    for name in files:
        if name.endswith(".py"):
            shutil.copy2(os.path.join(SRC_PKG, name), pkg)
    target = os.path.join(pkg, "_dequad_c" + sysconfig.get_config_var("EXT_SUFFIX"))
    cmd = compile_command(os.path.join(SRC_PKG, C_SOURCE), target)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        raise BuildError(f"compiling {C_SOURCE} failed:\n{proc.stdout[-4000:]}")
    with open(os.path.join(tmp, "READY"), "w") as fh:
        fh.write(" ".join(cmd) + "\n")
    try:
        os.rename(tmp, stage)
    except OSError:  # a concurrent build won the race
        shutil.rmtree(tmp, ignore_errors=True)
    return stage
