"""Run the lbkit command line with tracing wrappers installed.

Used by the traced ``cli_session`` run in place of ``python -m lbkit``:

    PYTHONPATH=src python3 bench/cli_child.py VERB [ARGS...]

Behaves like ``python -m lbkit`` (same output, same exit status, and an
uncaught exception still ends in a traceback), and in addition writes
the spans and counters of the call to stderr as one JSON line prefixed
with ``tracer.SPANS_MARKER``.
"""

import json
import sys

import lbkit.cli
from tracer import SPANS_MARKER, Tracer


def main() -> int:
    tracer = Tracer()
    tracer.install()
    tracer.begin_op(0)
    try:
        return lbkit.cli.main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        sys.stderr.write("\n" + SPANS_MARKER + json.dumps(tracer.child_report()) + "\n")


if __name__ == "__main__":
    sys.exit(main())
