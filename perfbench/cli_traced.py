"""Traced stand-in for ``python -m ortholab.cli``.

    python3 perfbench/cli_traced.py SPANS_FILE OP_ID ARGV...

Installs the tracer's wrappers in this process, calls ``ortholab.cli.main``
with ARGV, writes the spans to SPANS_FILE and exits with main's code.  Its
standard output is the CLI's own, byte for byte.
"""

import sys

import ortholab.cli
from tracing import Tracer


def main() -> int:
    spans_file, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.install()
    tracer.current_op = op_id
    try:
        return ortholab.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.write(spans_file)


if __name__ == "__main__":
    sys.exit(main())
