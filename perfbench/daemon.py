"""Launch the serve daemon for the benchmark.

Runs ``repro-ddb serve`` with the CLI's defaults, except ``--workers``
(the number of usable cores), ``--port 0`` (an ephemeral port, printed
on the daemon's "listening on" line) and ``--engine`` (the first
argument).  A thread reads commands from stdin and answers each with one
``@perfbench <json>`` line on stdout:

* ``trace-on`` / ``trace-off`` — install / remove the layer wrappers
  (``trace-on`` also clears the aggregates);
* ``dump`` — the aggregates recorded since ``trace-on``.

Stop the daemon with SIGINT, as an operator would.

    python3 perfbench/daemon.py cached
"""

from __future__ import annotations

import json
import os
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from layers import LayerTracer  # noqa: E402


def reply(payload) -> None:
    sys.stdout.write("@perfbench " + json.dumps(payload) + "\n")
    sys.stdout.flush()


def control(tracer: LayerTracer) -> None:
    for line in sys.stdin:
        command = line.strip()
        if command == "trace-on":
            tracer.reset()
            tracer.install()
            reply({"ok": True})
        elif command == "trace-off":
            tracer.remove()
            reply({"ok": True})
        elif command == "dump":
            reply(tracer.dump())
        else:
            reply({"error": f"unknown command {command!r}"})


def main(argv) -> int:
    from repro.cli import main as cli_main

    engine = argv[0] if argv else "cached"
    threading.Thread(
        target=control, args=(LayerTracer(),), name="perfbench-control",
        daemon=True,
    ).start()
    workers = len(os.sched_getaffinity(0))
    return cli_main([
        "serve", "--port", "0", "--engine", engine, "--workers", str(workers),
    ])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
