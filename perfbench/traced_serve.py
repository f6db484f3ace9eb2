"""Run ``repro serve`` with the benchmark's tracer installed.

Usage: ``python traced_serve.py OUT.json serve [serve options...]``.
The server runs as usual; after it shuts down, the tracer's per-span
summary and Chrome trace events are written to ``OUT.json``.
"""

from __future__ import annotations

import json
import sys


def main(argv: list[str]) -> int:
    from repro.cli.main import main as repro_main
    from tracing import Tracer

    out_path, serve_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    tracer.enabled = True
    try:
        code = repro_main(serve_argv)
    finally:
        tracer.enabled = False
        with open(out_path, "w") as handle:
            json.dump(
                {"summary": tracer.summary(), "events": tracer.chrome_events()},
                handle,
            )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
