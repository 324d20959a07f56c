"""In-process worker for the sweep workloads.

Started by bench/run.py as a fresh interpreter with casnuc on PYTHONPATH.
Reads one JSON job from stdin, imports casnuc.cli, and calls cli.run(argv)
for each operation, one at a time (a closed loop with one client).  Only
the cli.run call is timed; each output file is then checked in full and
deleted.  Prints one JSON result line on stdout.

Job keys: mode ("measure" or "trace"), workload, seed, seconds, out_dir,
spans_path.  The operations come from workloads.iter_cycles, so the driver
can regenerate exactly the ones that ran.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import checks
import tracer
import workloads

from casnuc import cli


def _run_op(op: dict, path: str) -> dict:
    argv = op["argv"] + ["--out", path]
    t0 = time.perf_counter()
    code = cli.run(argv)
    latency = time.perf_counter() - t0
    result = {"latency_s": latency, "points": op["points"], "error": None, "sampled": {}}
    try:
        if code != 0:
            raise checks.CheckFailed(f"exit code {code}")
        check = checks.check_sweep if op["kind"] == "sweep" else checks.check_plot
        result["sampled"] = check(path, op["params"], op["sample"])
    except (checks.CheckFailed, OSError, ValueError) as exc:
        result["error"] = f"{' '.join(op['argv'])}: {exc}"
    finally:
        if os.path.exists(path):
            os.unlink(path)
    return result


def _warm_up(op: dict, path: str) -> None:
    # one small untimed call of the first operation's kind fills caches and
    # finishes lazy set-up before anything is timed
    small = dict(op, points=200, sample=[0, 1, 199],
                 params=dict(op["params"], points=200))
    small["argv"] = list(op["argv"])
    small["argv"][small["argv"].index("--points") + 1] = "200"
    _run_op(small, path)


def measure(job: dict, path: str) -> dict:
    """Whole cycles until the summed cli.run time reaches the budget."""
    cycles = workloads.iter_cycles(job["workload"], job["seed"])
    cycle = next(cycles)
    _warm_up(cycle[0], path)
    ops, busy = [], 0.0
    while busy < job["seconds"]:
        for op in cycle:
            ops.append(_run_op(op, path))
            busy += ops[-1]["latency_s"]
        cycle = next(cycles)
    return {"ops": ops, "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def trace(job: dict, path: str) -> dict:
    """The first cycle untraced, then again traced (fixed work per seed)."""
    cycle = next(workloads.iter_cycles(job["workload"], job["seed"]))
    _warm_up(cycle[0], path)
    untraced = [_run_op(op, path) for op in cycle]
    recorder = tracer.Recorder()
    tracer.install(recorder)
    traced = []
    for i, op in enumerate(cycle):
        recorder.current_op = i
        traced.append(_run_op(op, path))
    recorder.dump(job["spans_path"])
    return {"ops": untraced + traced, "untraced_s": sum(r["latency_s"] for r in untraced),
            "traced_s": sum(r["latency_s"] for r in traced),
            "layers": recorder.layer_stats()}


def main() -> None:
    job = json.load(sys.stdin)
    path = os.path.join(job["out_dir"], f"op-{os.getpid()}.out")
    result = measure(job, path) if job["mode"] == "measure" else trace(job, path)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
