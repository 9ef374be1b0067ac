import gc
import sys

from .cli import main


def run():
    """``cli.main``, then freeze the heap so that the exit skips a full collection."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
