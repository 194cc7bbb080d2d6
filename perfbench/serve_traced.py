"""``repro serve`` under the tracer, for the traced ``service_mix`` phase.

Usage: ``python perfbench/serve_traced.py SPANS_OUT serve --port 0 ...``
(the arguments after SPANS_OUT go to the ``repro`` CLI unchanged).
Stop it with SIGTERM: it is turned into the KeyboardInterrupt on which
``repro serve`` returns, and the spans are written to SPANS_OUT before
the process exits.
"""

from __future__ import annotations

import signal
import sys
import time


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv):
    signal.signal(signal.SIGTERM, _interrupt)
    spans_out, cli_args = argv[0], argv[1:]
    t0 = time.perf_counter()
    import repro.io.cli

    import_s = time.perf_counter() - t0
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return repro.io.cli.main(cli_args)
    finally:
        tracer.uninstall()
        tracer.dump(spans_out, {"process.import_s": import_s})


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
