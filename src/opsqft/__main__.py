import os
import sys


def main(argv=None):
    # No command uses OpenBLAS's own threads (the transform splits its planes
    # over threads of its own), so numpy starts the pool with one thread
    # unless the caller set a count.  The package import loads no numpy, so
    # this runs before OpenBLAS reads the variable.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main as run

    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
