"""``repro.service.daemon`` behind the benchmark's timing shims.

A traced service_stream run launches this module in place of the
daemon's own: it installs the shims of :mod:`perfbench.trace` in this
interpreter, then hands ``sys.argv`` to the daemon's ``main`` unchanged,
and writes the recorded spans into the state directory once the daemon
has shut down.
"""

import os
import sys

from perfbench import sut, trace


def main(argv: list[str]) -> int:
    state_dir = argv[argv.index("--state-dir") + 1]
    tracer = trace.Tracer()
    trace.install_shims(tracer)
    code = sut.daemon_main(argv)
    tracer.dump(os.path.join(state_dir, "trace.json"), "daemon")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
