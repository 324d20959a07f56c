"""casnuc benchmark: one command, three seeded closed-loop workloads.

    python3 bench/run.py --workload cli-cold|sweep-closed|sweep-full \
        --seed N --seconds S --trace 0|1

Run from the repository root; casnuc is used from ./src through its public
entry points only (`python -m casnuc.cli` and `casnuc.cli.run`).  One
client issues one operation at a time and waits for it (a closed loop).

--trace 0 measures the end-to-end metrics for S seconds of operations
(whole cycles, see workloads.py) after timing the set-up.  --trace 1 runs
the first cycle of the workload untraced and then traced, and reports the
per-layer metrics; its work is fixed by the seed, so every count repeats
exactly.  Every output is checked (checks.py, oracle.py); an operation that
exits non-zero, writes unparseable output or fails a value check counts as
failed.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics (name -> {value, unit}); the line before it is a JSON
report with the seed, environment, sample counts, error rate and the
percentile op_tail_s stands for.  Spans of a traced run are written to
.bench_out/spans-<workload>.csv.gz.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference" / "cli_cold.json"

SETUP_REPS = 5
IMPORT_PROBES = 3
CHILD_TIMEOUT_S = 150.0
TAIL_MIN_BEYOND = 10

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "points_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# traced layer functions reported as <name>.calls and <name>.self_s
TRACED_FUNCTIONS = (
    "cli.run",
    "units.convert",
    "plasma.plasma_state_from_distance",
    "lifshitz.distance_coupled_breakdown",
    "lifshitz.sweep_rows",
    "lifshitz.finite_freq_sum",
    "lifshitz.matsubara_term",
    "lifshitz.zero_freq_exact",
    "svgplot.render_line_chart",
    "nuclear.equilibrium_distance",
    "nuclear.solve_balance_cubic",
    "nuclear.balance_cubic_residual",
    "nuclear.yukawa_quantities",
    "nuclear.meson_mass",
    "nuclear.screening_length",
    "nuclear.fermi_quantities",
    "nuclear.linewidth_bracket",
    "nuclear.plasmon_linewidth",
)

PER_LAYER = (
    ["import.casnuc_s", "import.scipy_s"]
    + [f"{f}.{m}" for f in TRACED_FUNCTIONS for m in ("calls", "self_s")]
    + ["lifshitz.mode_series.calls", "lifshitz.mode_series.calls_small_a",
       "lifshitz.mode_series.self_s", "lifshitz.mode_series.self_s_small_a",
       "lifshitz.matsubara_terms_per_sum", "trace.overhead_frac"]
)


def layer_unit(name: str) -> str:
    if name.endswith((".calls", ".calls_small_a")):
        return "count"
    if name.endswith("_s") or name.endswith("_s_small_a"):
        return "s"
    return "ratio"


class BenchError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    # CASNUC_* variables would change the parameters casnuc resolves
    env = {k: v for k, v in os.environ.items() if not k.startswith("CASNUC_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _kill_later(proc: subprocess.Popen) -> threading.Timer:
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    return timer


def run_process(args: list[str], env: dict[str, str]) -> dict:
    """Run one child to completion; wall time, exit code, peak RSS, output."""
    with open(OUT / "child.stdout", "w+b") as out, open(OUT / "child.stderr", "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                env=env, cwd=ROOT)
        timer = _kill_later(proc)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        latency = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return {"latency_s": latency, "code": proc.returncode,
                "rss_kb": usage.ru_maxrss, "stdout": out.read().decode("utf-8", "replace"),
                "stderr": err.read().decode("utf-8", "replace")}


def measure_setup(env: dict[str, str]) -> float:
    """Median wall time from spawning an interpreter until casnuc.cli is ready."""
    ready = "import sys, casnuc.cli; sys.stdout.write('ready\\n'); sys.stdout.flush()"
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", ready], stdout=subprocess.PIPE,
                                env=env, cwd=ROOT)
        timer = _kill_later(proc)
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.close()
            proc.wait()
        finally:
            timer.cancel()
        if line != b"ready\n" or proc.returncode != 0:
            raise BenchError("casnuc.cli failed to import")
    return statistics.median(times)


def import_times(env: dict[str, str]) -> dict[str, float]:
    """Median cumulative import time of casnuc (with casnuc.cli) and of scipy."""
    probes = []
    for _ in range(IMPORT_PROBES):
        r = run_process(["-X", "importtime", "-c", "import casnuc.cli"], env)
        if r["code"] != 0:
            raise BenchError(f"import probe failed: {r['stderr'][-500:]}")
        probes.append(_parse_importtime(r["stderr"]))
    return {key: statistics.median(p[key] for p in probes) for key in probes[0]}


def _parse_importtime(text: str) -> dict[str, float]:
    """Sum the cumulative times of the outermost casnuc and scipy imports.

    -X importtime prints children before parents; walking the lines in
    reverse gives each module after its parent, with nesting from indent.
    """
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line.split("|")
        try:
            cumulative_us = int(parts[1])
        except ValueError:
            continue        # the header line
        field = parts[2][1:]
        entries.append((len(field) - len(field.lstrip(" ")), field.strip(), cumulative_us))
    totals = {"casnuc": 0.0, "scipy": 0.0}
    stack: list[tuple[int, str]] = []
    for depth, name, cumulative_us in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        root = name.split(".")[0]
        if root in totals and all(n.split(".")[0] != root for _, n in stack):
            totals[root] += cumulative_us * 1e-6
        stack.append((depth, name))
    return {"import.casnuc_s": totals["casnuc"], "import.scipy_s": totals["scipy"]}


# ---------------------------------------------------------------- cli-cold

def _load_references() -> dict[str, str]:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def _check_cold(op: dict, r: dict, refs: dict[str, str]) -> str | None:
    key = " ".join(op["argv"])
    if r["code"] != 0:
        return f"{key}: exit code {r['code']}: {r['stderr'][-300:]}"
    if key not in refs:
        return f"{key}: no reference document"
    if not checks.matches_reference(r["stdout"], refs[key], checks.document_format(op["argv"])):
        return f"{key}: output differs from the reference"
    return None


def cold_measure(seed: int, seconds: float, env: dict[str, str]) -> list[dict]:
    refs = _load_references()
    results, busy = [], 0.0
    cycles = workloads.iter_cycles("cli-cold", seed)
    while busy < seconds:
        for op in next(cycles):
            r = run_process(["-m", "casnuc.cli", *op["argv"]], env)
            busy += r["latency_s"]
            results.append({"latency_s": r["latency_s"], "points": op["points"],
                            "rss_kb": r["rss_kb"], "error": _check_cold(op, r, refs)})
    return results


def cold_trace(seed: int, env: dict[str, str], spans_path: Path) -> dict:
    refs = _load_references()
    cycle = next(workloads.iter_cycles("cli-cold", seed))
    stats_path = Path(str(spans_path) + ".stats.json")
    untraced, traced, layers = [], [], {}
    # untraced and traced runs of each operation alternate, so a drift in
    # machine speed does not show up as tracing overhead
    for i, op in enumerate(cycle):
        r = run_process(["-m", "casnuc.cli", *op["argv"]], env)
        untraced.append({"latency_s": r["latency_s"], "error": _check_cold(op, r, refs)})
        r = run_process([str(BENCH / "cold_child.py"), str(spans_path), str(i), *op["argv"]], env)
        traced.append({"latency_s": r["latency_s"], "error": _check_cold(op, r, refs)})
        if stats_path.exists():
            with open(stats_path, encoding="utf-8") as fh:
                tracer.merge_stats(layers, json.load(fh))
            stats_path.unlink()
    return {"ops": untraced + traced, "layers": layers,
            "untraced_s": sum(r["latency_s"] for r in untraced),
            "traced_s": sum(r["latency_s"] for r in traced)}


# ---------------------------------------------------------- sweep workloads

def run_worker(job: dict, env: dict[str, str]) -> dict:
    env = dict(env, PYTHONPATH=f"{BENCH}{os.pathsep}{env['PYTHONPATH']}")
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        out, err = proc.communicate(json.dumps(job), timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def oracle_check(workload: str, seed: int, results: list[dict]) -> None:
    """Recompute the sampled rows and plot points with the mpmath oracle and
    record a mismatch as the operation's error."""
    import oracle    # mpmath is loaded here only, never in a timed process

    ops = []
    cycles = workloads.iter_cycles(workload, seed)
    while len(ops) < len(results):
        ops.extend(next(cycles))
    for op, r in zip(ops, results):
        if r["error"] is not None:
            continue
        p = op["params"]
        step = (p["Lmax"] - p["Lmin"]) / (p["points"] - 1)
        sampled = {int(i): v for i, v in r["sampled"].items()}
        if op["kind"] == "sweep":
            for i, row in sampled.items():
                want = oracle.sweep_row(p, p["Lmin"] + i * step)
                if not all(checks.close(g, w, checks.ORACLE_RTOL) for g, w in zip(row[1:], want)):
                    r["error"] = f"{' '.join(op['argv'])}: row {i} {row[1:]} != oracle {want}"
                    break
        else:
            values, pixels = [], []
            for i, ys in sampled.items():
                values.extend(oracle.plot_series(p["which"], p["Lmin"] + i * step))
                pixels.extend(ys)
            if not checks.fits_pixel_map(values, pixels):
                r["error"] = f"{' '.join(op['argv'])}: pixels do not map the oracle values"


# ------------------------------------------------------------------ metrics

def end_to_end(results: list[dict], setup_s: float, peak_rss_kb: int) -> tuple[dict, dict]:
    latencies = sorted(r["latency_s"] for r in results)
    n = len(latencies)
    busy = sum(latencies)
    # ten samples lie beyond it; runs too short for that report the median
    rank = max(n - TAIL_MIN_BEYOND, n // 2 + 1)
    points = sum(r["points"] for r in results if r["error"] is None)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": n / busy,
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": latencies[rank - 1],
        "points_per_s": points / busy,
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }
    extra = {"samples": n, "op_tail_percentile": round(100.0 * rank / n, 1),
             "measured_s": busy, "points": points}
    return metrics, extra


def per_layer(layers: dict, imports: dict, untraced_s: float, traced_s: float) -> dict:
    def get(name: str, key: str) -> float:
        return layers.get(name, {}).get(key, 0)

    metrics = dict(imports)
    for f in TRACED_FUNCTIONS:
        metrics[f"{f}.calls"] = get(f, "calls")
        metrics[f"{f}.self_s"] = get(f, "self_s")
    big, small = tracer.KERNEL, tracer.KERNEL + tracer.SMALL_SUFFIX
    metrics[f"{big}.calls"] = get(big, "calls") + get(small, "calls")
    metrics[f"{big}.calls_small_a"] = get(small, "calls")
    metrics[f"{big}.self_s"] = get(big, "self_s") + get(small, "self_s")
    metrics[f"{big}.self_s_small_a"] = get(small, "self_s")
    sums = get("lifshitz.finite_freq_sum", "calls")
    terms = (get("lifshitz.finite_freq_sum", "children." + big)
             + get("lifshitz.finite_freq_sum", "children." + small))
    metrics["lifshitz.matsubara_terms_per_sum"] = terms / sums if sums else 0.0
    # traced ops/s over untraced ops/s on the same operations
    metrics["trace.overhead_frac"] = untraced_s / traced_s
    return metrics


def environment() -> dict:
    def version(dist: str) -> str:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "missing"

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=30)
        commit = r.stdout.strip() or commit
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "mpmath": version("mpmath"), "commit": commit}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "casnuc" / "cli.py").is_file():
        print(f"bench: no casnuc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = child_env()
    cold = args.workload == "cli-cold"

    if args.trace == 0:
        setup_s = measure_setup(env)
        if cold:
            results = cold_measure(args.seed, args.seconds, env)
            peak_rss_kb = max(r["rss_kb"] for r in results)
        else:
            out = run_worker({"mode": "measure", "workload": args.workload,
                              "seed": args.seed, "seconds": args.seconds,
                              "out_dir": str(OUT)}, env)
            results, peak_rss_kb = out["ops"], out["peak_rss_kb"]
            oracle_check(args.workload, args.seed, results)
        metrics, extra = end_to_end(results, setup_s, peak_rss_kb)
        units = END_TO_END
    else:
        spans_path = OUT / f"spans-{args.workload}.csv.gz"
        imports = import_times(env)
        if cold:
            out = cold_trace(args.seed, env, spans_path)
        else:
            out = run_worker({"mode": "trace", "workload": args.workload,
                              "seed": args.seed, "out_dir": str(OUT),
                              "spans_path": str(spans_path)}, env)
            # both passes ran the same cycle: check the oracle on each
            half = len(out["ops"]) // 2
            oracle_check(args.workload, args.seed, out["ops"][:half])
            oracle_check(args.workload, args.seed, out["ops"][half:])
        results = out["ops"]
        metrics = per_layer(out["layers"], imports, out["untraced_s"], out["traced_s"])
        units = {name: layer_unit(name) for name in PER_LAYER}
        extra = {"samples": len(results), "spans": str(spans_path.relative_to(ROOT)),
                 "all_layers": out["layers"]}

    failed = [r["error"] for r in results if r["error"] is not None]
    for error in failed[:5]:
        print(f"FAILED {error}", file=sys.stderr)
    error_rate = len(failed) / len(results)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "loop": "closed", "clients": 1,
              "error_rate": error_rate, "environment": environment(), **extra}
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(f"{args.workload} error_rate = {error_rate:.6g} (failed/attempted, "
          f"{len(failed)}/{len(results)})")
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not failed, "attempted": len(results), "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    for leftover in ("child.stdout", "child.stderr"):
        (OUT / leftover).unlink(missing_ok=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(1)
