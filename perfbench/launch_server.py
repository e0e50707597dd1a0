"""Run ``repro serve`` with the benchmark's span wrappers installed.

Usage: ``python3 launch_server.py SUMMARY.json SPANS.jsonl <serve arguments>``.

Installs the same wrappers as the in-process workloads, then calls
``repro.cli.main(["serve", ...])``.  SIGUSR1 opens the tracing window and a
second SIGUSR1 closes it, so the benchmark traces just the measured part of
the run.  When the server has drained and returned, the per-layer summary and
the raw spans are written out and the server's exit code is passed on.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

from common import use_program


def main(argv: list[str]) -> int:
    summary_path, spans_path, serve_args = Path(argv[0]), Path(argv[1]), argv[2:]
    use_program()
    from tracing import Tracer, install

    tracer = Tracer("serve_durable")
    install(tracer)
    signal.signal(signal.SIGUSR1, lambda *_: tracer.toggle())
    from repro.cli import main as serve

    code = serve(["serve", *serve_args])
    if tracer.enabled:
        tracer.stop_window()
    summary_path.write_text(json.dumps(tracer.summary()))
    tracer.write_spans(spans_path)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
