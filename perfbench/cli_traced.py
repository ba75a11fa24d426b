"""``python -m pqtrig.cli`` with the benchmark's spans around each layer.

Usage: python cli_traced.py <spans.json> <pqtrig arguments...>

Records the package import, the CLI import, ``cli.main`` and the library
calls it makes, then writes the spans to the given file.  Used by the
traced rounds of the ``cli-py`` workload.
"""

import sys

from layers import install_spans
from tracer import Tracer


def main() -> int:
    tracer = Tracer()
    with tracer.span("pqtrig.import"):
        import pqtrig
    with tracer.span("cli.import"):
        import pqtrig.cli
    install_spans(tracer, pqtrig)
    with tracer.span("cli.main"):
        status = pqtrig.cli.main(sys.argv[2:])
    tracer.dump(sys.argv[1])
    return status


if __name__ == "__main__":
    sys.exit(main())
