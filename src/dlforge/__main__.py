"""The ``dlforge`` process: ``python -m dlforge``, ``python -m dlforge.cli``
and the console script all run ``run()``.

``run()`` owns the whole process, so it may do what ``cli.main`` must not do
to a caller.  It raises the gen-0 collection threshold before the command's
modules load; a default-cap run allocates far fewer objects than
``GEN0_THRESHOLD``, so it never collects.  Once ``main`` has returned, or
argparse has exited for ``--help`` or a usage error, it flushes stdout and
stderr and ends the process with ``os._exit``, skipping the interpreter's
teardown of a heap that dies with the process anyway.  Output that cannot be
written (a full disk, ``> /dev/full``), argparse's help included, gives exit
code 2 and one ``error:`` line, as any other input or output error does.
Importing this module changes nothing.
"""

import gc
import os
import sys

# Allocations between two gen-0 collections in the dlforge process (the
# interpreter's default is 700).
GEN0_THRESHOLD = 200_000


def run():
    """``cli.main`` on ``sys.argv``, then end the process with its exit code."""
    gc.set_threshold(GEN0_THRESHOLD)
    from .cli import main

    try:
        code = main()
    except SystemExit as exc:  # argparse's usage errors and --help
        code = exc.code
    except OSError as exc:  # argparse could not write its help or usage
        code = 2
        sys.stderr.write("error: %s\n" % exc)
    try:
        try:
            sys.stdout.flush()
        except OSError as exc:
            code = 2
            sys.stderr.write("error: %s\n" % exc)
        sys.stderr.flush()
    finally:
        os._exit(code)


if __name__ == "__main__":
    run()
