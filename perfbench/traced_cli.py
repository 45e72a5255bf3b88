"""Run the groupsobolev CLI with its public calls traced.

Usage: traced_cli.py TRACE_FILE CLI_ARG...

Behaves as ``groupsobolev CLI_ARG...`` (same exit code) and writes the spans
of the call to ``cli.main`` and everything below it to TRACE_FILE as JSON.
"""
from __future__ import annotations

import json
import sys

import groupsobolev.cli

import spans


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    with tracer.op():
        rc = groupsobolev.cli.main(argv)
    with open(path, "w", encoding="ascii") as fh:
        json.dump(tracer.spans, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
