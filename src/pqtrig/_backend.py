"""Selects the series kernel implementation at import time.

The compiled extension ``_dequad_c`` (built from ``_dequad_c.c``) is used
when present; set ``PQTRIG_PURE_PYTHON=1`` to force the pure-Python
kernels of ``_dequad_py`` (useful for debugging and benchmarking).
"""

import os

if os.environ.get("PQTRIG_PURE_PYTHON"):
    from . import _dequad_py as kernels
else:
    try:
        from . import _dequad_c as kernels  # type: ignore[no-redef]
    except ImportError:
        from . import _dequad_py as kernels  # type: ignore[no-redef]


def backend_name() -> str:
    """Name of the active kernel backend: ``"c"`` or ``"python"``."""
    return kernels.BACKEND
