"""Run ``repro serve`` with the serving layers wrapped in spans.

Usage (from the repository root, with ``src`` importable)::

    python3 perfbench/traced_serve.py SPANS.json serve --socket S --cache-db DB

Everything after the spans path is passed to the ``repro`` CLI unchanged.
The spans are written when the daemon exits (after a drain or SIGTERM).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import install_daemon  # noqa: E402
from spans import Tracer  # noqa: E402


def main() -> int:
    from repro.cli import main as repro_main

    spans_file = Path(sys.argv[1])
    tracer = Tracer()
    install_daemon(tracer)
    try:
        return repro_main(sys.argv[2:])
    finally:
        tracer.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main())
