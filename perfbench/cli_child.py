"""Run one gsurf command with layer spans, for the traced cli rounds.

    python3 perfbench/cli_child.py SPANS_OUT gsurf-arguments...

Behaves as ``python -m gsurf gsurf-arguments...`` (same stdout and exit
code) and writes the spans of the layer calls to SPANS_OUT as JSON.
"""

import sys

import spans
from gsurf import cli


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    with spans.patched(tracer, spans.GSURF_TARGETS):
        code = cli.main(argv)
    spans.dump(tracer.spans, out_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
