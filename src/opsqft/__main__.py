import gc
import os
import sys


def main(argv=None):
    # No command uses OpenBLAS's own threads (the transform splits its planes
    # over threads of its own), so numpy starts the pool with one thread
    # unless the caller set a count.  The package import loads no numpy, so
    # this runs before OpenBLAS reads the variable.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    # The import leaves some 20,000 long-lived objects, numpy's most of all.
    # With the collector off it runs no collection over them while they are
    # made, and frozen, no later collection (shutdown's included) walks them.
    # The command's own objects stay tracked, so a cycle it leaves is still
    # collected and finalized.
    gc.disable()
    try:
        from .cli import main as run

        gc.freeze()
    finally:
        gc.enable()
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
