"""Traced cold CLI invocation: `python bench/cold_child.py SPANS OP ARGV...`.

Imports casnuc.cli like `python -m casnuc.cli` would, wraps its layers,
runs cli.run(ARGV) with the document on stdout, then appends the spans to
the gzip file SPANS (operation id OP) and writes the per-layer totals next
to it as SPANS.stats.json.  Exits with the CLI's exit code.
"""

from __future__ import annotations

import json
import sys

import tracer

from casnuc import cli


def main() -> int:
    spans_path, op = sys.argv[1], int(sys.argv[2])
    recorder = tracer.Recorder()
    tracer.install(recorder)
    recorder.current_op = 0
    code = cli.run(sys.argv[3:])
    sys.stdout.flush()
    recorder.dump(spans_path, op_offset=op, mode="wt" if op == 0 else "at")
    with open(spans_path + ".stats.json", "w", encoding="utf-8") as fh:
        json.dump(recorder.layer_stats(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
