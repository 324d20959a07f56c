"""Regenerate bench/reference/cli_cold.json from the casnuc in ./src.

    PYTHONPATH=src python3 bench/make_reference.py

The file maps each argv the cli-cold workload can draw (joined by spaces)
to the document casnuc printed for it.  The benchmark compares fresh-process
outputs against it at the tolerances in checks.REFERENCE_TOL.  Regenerate
only when an output change is intended, and say so where the change is
recorded.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import workloads

from casnuc import cli


def main() -> None:
    docs = {}
    for argv in workloads.cli_cold_pool():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.run(argv)
        if code != 0:
            raise SystemExit(f"casnuc {' '.join(argv)} exited {code}")
        docs[" ".join(argv)] = buf.getvalue()
    path = Path(__file__).resolve().parent / "reference" / "cli_cold.json"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(docs, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(docs)} documents to {path}")


if __name__ == "__main__":
    main()
