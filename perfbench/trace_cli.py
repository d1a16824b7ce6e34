"""Run one dephaser CLI call with tracing, for traced cli_session runs.

usage: python trace_cli.py SPANS.npz <dephaser arguments>

Times the import of dephaser.cli as the ``cli.import`` span, installs the
tracer, runs ``dephaser.cli.main`` and writes the spans to SPANS.npz.
"""

import sys
import time

t0 = time.perf_counter()
import dephaser.cli  # noqa: E402

t1 = time.perf_counter()

from tracing import Tracer, install  # noqa: E402


def main():
    tracer = Tracer()
    install(tracer)
    tracer.add("cli.import", t0, t1)
    tracer.active = True
    rc = dephaser.cli.main(sys.argv[2:])
    tracer.active = False
    tracer.save(sys.argv[1])
    return rc


if __name__ == "__main__":
    sys.exit(main())
