"""Build script for the optional compiled series kernels.

The package is fully functional without the extension (a pure-Python
fallback is selected at import time); the extension exists because the
series loops and the inverse solves dominate runtime for sweeps and
inversions.  It is one hand-written C file against the CPython API,
built when a C compiler is available and skipped (``optional=True``)
when it is not.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "pqtrig._dequad_c",
            ["src/pqtrig/_dequad_c.c"],
            extra_compile_args=["-O3"],
            optional=True,
        )
    ]
)
