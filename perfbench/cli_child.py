"""Run one flatcurve command in this process with layer spans recorded.

Usage: python3 perfbench/cli_child.py SPANS_OUT ARG...

Behaves like ``python -m flatcurve.cli ARG...`` (same stdout, same exit
status) and writes the recorded spans as a JSON list to SPANS_OUT.
"""

import json
import sys

import tracing
from flatcurve import cli


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse exits for --help and usage errors
        code = exc.code
    finally:
        tracer.uninstall()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
