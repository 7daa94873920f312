"""Traced server launcher: ``launcher.py --spans-out FILE serve ...``.

Installs the layer wrappers in this process, then runs the same
``repro`` command-line entry point as ``python -m repro``.  When the
server shuts down (SIGTERM), the recorded spans are written to FILE as a
JSON list.  The untraced runs start ``python -m repro serve`` directly.
"""

from __future__ import annotations

import json
import sys

import layers
from common import use_program


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans-out":
        print("usage: launcher.py --spans-out FILE serve [options]", file=sys.stderr)
        return 2
    spans_out, command = argv[1], argv[2:]
    use_program()
    from repro.cli import main as repro_main

    recorder = layers.SpanRecorder()
    installation = layers.install(recorder)
    try:
        status = repro_main(command)
    finally:
        layers.uninstall(installation)
        with open(spans_out, "w", encoding="utf-8") as handle:
            json.dump([layers.span_to_dict(span) for span in recorder.spans], handle)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
