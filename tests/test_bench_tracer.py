"""The benchmark's traced run (bench/run.py --trace 1) wraps casnuc's layers
by name from outside the package; this guard fails when a change to the
package leaves it without the layers it reports on."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import contextlib, io, json
import casnuc.cli as cli
import tracer
recorder = tracer.Recorder()
tracer.install(recorder)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.run(["sweep", "--method", "full", "--points", "5"])
print(json.dumps({"code": code, "spans": sorted(recorder.layer_stats())}))
"""


def test_tracer_records_the_matsubara_layers():
    # read only: no bytecode is written next to the benchmark's sources
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    result = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    report = json.loads(result.stdout)
    assert report["code"] == 0
    assert "lifshitz.finite_freq_sum" in report["spans"]
    assert "lifshitz.mode_series" in report["spans"]
