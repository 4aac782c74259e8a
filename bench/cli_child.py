"""Run one gmls CLI command under the tracer (the traced cli-fixtures run).

Usage: python3 bench/cli_child.py <gmls arguments...>

Behaves like ``python -m gmls`` on stdout and exit code.  The parent sets
GMLS_BENCH_SPAWN to its wall clock at spawn time; the child adds one line
to stderr, prefixed with the trace marker, holding the span summary and
the time from spawn until ``import gmls`` finished.
"""

import json
import os
import sys
import time

import gmls.cli

STARTUP_S = time.time() - float(os.environ["GMLS_BENCH_SPAWN"])

from tracing import Tracer  # noqa: E402  (after the start-up measurement)
from workloads import TRACE_MARKER  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.install()
    try:
        code = gmls.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    summary["startup_s"] = STARTUP_S
    sys.stderr.write(TRACE_MARKER + json.dumps(summary) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
