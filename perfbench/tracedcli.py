"""``python -m spintangle.cli`` with span tracing, for traced cli-cold runs.

Usage: ``python perfbench/tracedcli.py SPANS_FILE <cli arguments>``.  The
import of ``spintangle.cli`` is recorded as an ``import`` span, every layer
boundary is wrapped, and the spans are written to SPANS_FILE on exit.
"""
import sys
import time

from spans import Tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.op = 0
    t0 = time.perf_counter_ns()
    import spintangle.cli as cli
    tracer.manual("import", "spintangle.cli", t0, time.perf_counter_ns())
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.write(out)


if __name__ == "__main__":
    sys.exit(main())
