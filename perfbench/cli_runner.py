"""Traced CLI command: install the tracing wrappers inside this fresh process,
then call qfj.cli.main(argv).

    PYTHONPATH=src python3 perfbench/cli_runner.py series --order 8 --reproducible

stdout is exactly the command's output. The trace summary and spans go to
stderr as one line starting with TRACE_PREFIX.
"""

from __future__ import annotations

import json
import sys
import time

IMPORT_START = time.perf_counter()
import qfj.cli  # noqa: E402
IMPORT_S = time.perf_counter() - IMPORT_START

import tracing  # noqa: E402

TRACE_PREFIX = "PERFBENCH_TRACE "


def main(argv: list[str]) -> int:
    tracer = tracing.Tracer()
    tracer.install()
    tracer.op_id = "cli"
    root = tracer.open("op:cli", "bench")
    try:
        code = qfj.cli.main(argv)
    finally:
        tracer.close(root)
        tracer.uninstall()
    sys.stdout.flush()
    payload = {"import_s": IMPORT_S, "layers": tracing.tracer_summary(tracer),
               "spans": tracer.spans}
    sys.stderr.write(TRACE_PREFIX + json.dumps(payload) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
