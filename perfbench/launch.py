"""Run one `fpsynth` command line in a fresh process, as the installed entry point does.

    PYTHONPATH=src python3 perfbench/launch.py <subcommand> [options]

is `fpsynth <subcommand> [options]` for a checkout that is not installed.
When PERFBENCH_TRACE_FILE is set, the process is traced (see tracing.py):
its root spans get PERFBENCH_TRACE_PARENT as parent and all spans are
written to PERFBENCH_TRACE_FILE when the command returns.
"""

import os
import sys

from fpsynth.cli import main

if __name__ == "__main__":
    trace_file = os.environ.get("PERFBENCH_TRACE_FILE")
    if not trace_file:
        sys.exit(main(sys.argv[1:]))
    from tracing import Tracer

    parent = os.environ.get("PERFBENCH_TRACE_PARENT") or None
    tracer = Tracer(run=f"{sys.argv[1]}@{os.getpid()}", root_parent=parent)
    tracer.install()
    try:
        code = main(sys.argv[1:])
    finally:
        tracer.uninstall()
        tracer.dump(trace_file)
    sys.exit(code)
