"""Traced ``dlforge`` command: ``python3 perfbench/cli_child.py ARGS...``.

Imports ``dlforge.cli`` (timing the import), installs the layer wrappers,
then runs ``dlforge.cli.main(ARGS)`` exactly as the ``dlforge`` command
would.  The report goes to stdout unchanged; the per-layer summary goes to
stderr as one line starting with ``TRACE_MARK``.
"""

from __future__ import annotations

import json
import sys
import time

TRACE_MARK = "perfbench-trace "


def main(argv):
    start = time.perf_counter()
    import dlforge.cli

    import_s = time.perf_counter() - start
    from tracer import Tracer, install

    tracer = Tracer()
    install(tracer)
    code = dlforge.cli.main(argv)
    sys.stdout.flush()
    summary = tracer.summary()
    summary["cli.import_s"] = import_s
    sys.stderr.write(TRACE_MARK + json.dumps(summary, sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
