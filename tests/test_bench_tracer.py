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
import contextlib, io, json, sys
import casnuc.cli as cli
import tracer
recorder = tracer.Recorder()
tracer.install(recorder)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.run(sys.argv[1:])
print(json.dumps({"code": code, "stats": recorder.layer_stats()}))
"""


def traced_run(argv):
    # read only: no bytecode is written next to the benchmark's sources
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    result = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    report = json.loads(result.stdout)
    assert report["code"] == 0
    return report["stats"]


def test_tracer_records_the_matsubara_layers():
    stats = traced_run(["sweep", "--method", "full", "--points", "5"])
    assert "lifshitz.finite_freq_sum" in stats
    assert "lifshitz.mode_series" in stats


def test_series_calls_are_direct_children_of_the_sum():
    # lifshitz.matsubara_terms_per_sum counts the series calls made directly
    # under finite_freq_sum; a traced layer between the two would zero it.
    # The sweep sums its grid in one call
    stats = traced_run(["sweep", "--method", "full", "--mode", "fixed", "--Linit", "100",
                        "--points", "5"])
    sums = stats["lifshitz.finite_freq_sum"]
    children = sum(count for key, count in sums.items()
                   if key.startswith("children.lifshitz.mode_series"))
    assert sums["calls"] == 1
    assert children >= sums["calls"]


def test_closed_form_plot_layers():
    # the zero-frequency figure evaluates each model on the whole grid in one
    # call and renders once
    stats = traced_run(["plot", "--which", "1", "--points", "5"])
    assert stats["lifshitz.distance_coupled_breakdown"]["calls"] == 2
    assert stats["svgplot.render_line_chart"]["calls"] == 1


def test_closed_form_sweep_layers():
    # a coupled asymptote sweep reads its states and its closed forms as
    # columns: one call each for the whole grid, none per row
    stats = traced_run(["sweep", "--points", "5"])
    assert stats["plasma.plasma_state_grid"]["calls"] == 1
    assert "plasma.plasma_state_from_distance" not in stats
    assert stats["lifshitz.distance_coupled_breakdown"]["calls"] == 1
