"""Run ``repro.cli serve`` in this process, optionally traced.

``serve_read`` starts the server as ``python3 -u perfbench/serve_boot.py
serve ...``.  With ``PERFBENCH_TRACE_FILE`` set, the server's layer
boundaries are wrapped from boot (set-up is phase 1 of the spans); SIGUSR2
removes the wrappers and SIGUSR1 puts them back as the next phase.  Each
switch snapshots the program's counters.  When the CLI returns (SIGINT
drains and stops it), spans and counters are written to the trace file.
"""

from __future__ import annotations

import os
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

#: Counter snapshot names, in the order the phase switches happen.
SNAPSHOTS = ("setup_before", "setup_after", "ops_before", "ops_after")


def main(argv: list) -> int:
    from repro.cli import main as cli_main

    trace_file = os.environ.get("PERFBENCH_TRACE_FILE")
    if not trace_file:
        return cli_main(argv)

    from spans import SERVER_BOUNDARIES, Tracer

    tracer = Tracer()
    counters = {}

    def snapshot() -> None:
        counters[SNAPSHOTS[len(counters)]] = tracer.counters()

    def install(*_: object) -> None:
        tracer.install(SERVER_BOUNDARIES)
        snapshot()

    def uninstall(*_: object) -> None:
        snapshot()
        tracer.uninstall()

    install()
    signal.signal(signal.SIGUSR1, install)
    signal.signal(signal.SIGUSR2, uninstall)
    code = cli_main(argv)
    tracer.uninstall()
    tracer.dump(trace_file, {"counters": counters})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
