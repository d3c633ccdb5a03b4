"""Boot the round-elimination service in a process of its own.

Run from the repository root (the service-mix workload does this):

    python3 perfbench/server.py --job-dir DIR --port-file FILE --report FILE [--spans FILE]

Starts ``ReproService`` on an ephemeral port with two orchestrator
workers and writes the bound port to ``--port-file`` once it serves.
On SIGTERM or SIGINT it stops the service (draining its workers),
writes ``--report`` (the process's peak RSS) and, with ``--spans``,
installs the layer wrappers before the service starts and writes every
recorded span once at exit, as JSON lines.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

#: Orchestrator worker threads, one per core of the 2-core reference box.
WORKERS = 2


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--job-dir", required=True)
    parser.add_argument("--port-file", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    from repro.service import ReproService

    log = None
    if args.spans:
        import layers

        log = layers.install()
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    signal.signal(signal.SIGINT, lambda *_: stop.set())
    service = ReproService(args.job_dir, port=0, workers=WORKERS).start()
    try:
        partial = args.port_file + ".tmp"
        with open(partial, "w", encoding="utf-8") as handle:
            handle.write(str(service.port))
        os.replace(partial, args.port_file)
        while not stop.wait(0.2):
            pass
    finally:
        service.stop()
    with open(args.report, "w", encoding="utf-8") as handle:
        json.dump(
            {"peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss},
            handle,
        )
    if log is not None:
        layers.write_spans(args.spans, log.spans)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
