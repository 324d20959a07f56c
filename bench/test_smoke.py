"""Smoke check of the benchmark itself: `python3 -m pytest bench/test_smoke.py`.

Runs every workload at a tiny size, untraced and traced, and checks that
the printed metrics are exactly the ones BENCHMARK.json declares, with their
units, that no operation failed, and that traced counts repeat for a seed.
Takes about three minutes on two cores.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, seed: int = 7) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_metrics_match_spec_and_nothing_fails(workload, trace, section):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared


@pytest.mark.parametrize("workload", ["sweep-closed", "sweep-full"])
def test_traced_counts_repeat_for_a_seed(workload):
    first, second = (_run(workload, 1)["metrics"] for _ in range(2))
    counts = {k: v["value"] for k, v in first.items() if ".calls" in k}
    assert counts == {k: second[k]["value"] for k in counts}
    kernel = counts["lifshitz.mode_series.calls"]
    if workload == "sweep-closed":
        assert kernel == 0
    else:
        assert kernel > 0 and counts["lifshitz.mode_series.calls_small_a"] > 0
