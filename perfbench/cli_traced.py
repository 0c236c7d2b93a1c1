"""`python -m spinclock ARGS` with the layer wrappers installed first.

  python3 perfbench/cli_traced.py TRACE_FILE OP_ID ARGS...

Writes the spans and counts of this process to TRACE_FILE when it ends and
exits with the CLI's exit code.
"""

import sys

from tracer import Tracer


def main() -> int:
    trace_file, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    import spinclock.cli

    tracer = Tracer()
    tracer.install()
    tracer.op_id = op_id
    try:
        return spinclock.cli.main(argv)
    finally:
        tracer.dump(trace_file)


if __name__ == "__main__":
    sys.exit(main())
