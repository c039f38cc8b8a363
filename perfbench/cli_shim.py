"""Run one ``dynsub`` CLI command in this process with the timers installed.

Usage: python3 perfbench/cli_shim.py TRACE SPANS_OUT CLI_ARGS...

Equivalent to ``python -m dynsub.cli CLI_ARGS...``, except that the import of
``dynsub.cli`` is timed as the ``cli.import`` span, the layer wrappers
(TRACE 1) or the phase timers (TRACE 0) are installed before
``dynsub.cli.main`` runs, and the spans are written to SPANS_OUT at exit.
"""

import sys

from tracer import LAYER_TARGETS, PHASE_TARGETS, Tracer


def main(argv) -> int:
    trace, spans_out, cli_args = int(argv[0]), argv[1], argv[2:]
    tracer = Tracer()
    with tracer.span("cli.import"):
        import dynsub.cli
    tracer.install(LAYER_TARGETS if trace else PHASE_TARGETS)
    try:
        return dynsub.cli.main(cli_args)
    finally:
        tracer.dump(spans_out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
