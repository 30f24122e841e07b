"""Run one `opsqft` command with the span recorder installed.

    python3 perfbench/launcher.py SPANS_JSON OP_ID MEMORY -- COMMAND ARGS...

Stands in for `python -m opsqft COMMAND ARGS...` in the traced run of
cli-files: it installs the same wrappers as the library workloads, calls
``opsqft.cli.main(argv)`` and writes the spans to SPANS_JSON on exit.
MEMORY 1 also records each span's tracemalloc peak.  The exit code is
main's.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import spans  # noqa: E402


def main():
    out, op, memory, sep, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4], sys.argv[5:]
    if sep != "--" or memory not in ("0", "1"):
        raise SystemExit("usage: launcher.py SPANS_JSON OP_ID MEMORY -- COMMAND ARGS...")
    rec = spans.Recorder(memory=memory == "1")
    rec.op = op
    rec.install()
    try:
        import opsqft.cli
        code = opsqft.cli.main(argv)
    finally:
        rec.restore()
        sys.stdout.flush()
        Path(out).write_text(json.dumps(rec.spans))
    return code


if __name__ == "__main__":
    sys.exit(main())
