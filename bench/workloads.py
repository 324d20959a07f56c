"""Seeded operation lists for the three benchmark workloads.

Every workload is a sequence of *cycles*; a cycle holds the same kinds and
sizes of operation every time, in a seeded order.  Runs always finish whole
cycles, so the mix is the same in every run.  Separation ranges and pool
picks come from Kronecker sequences u_k = frac(u_0 + k * alpha) with a
seed-drawn start u_0: they change with the seed, but successive values
cover [0, 1) evenly, so no run gets a lucky or unlucky draw.

An operation is a dict:
  argv    -- casnuc arguments (the worker adds --out for file outputs)
  kind    -- "cli" (cold process, compared with a reference document),
             "sweep" or "plot" (grid outputs checked row by row)
  points  -- grid points the operation writes (0 for other commands)
  params  -- the values the checks and the oracle need
  sample  -- grid indices the oracle recomputes
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("cli-cold", "sweep-closed", "sweep-full")

# cli-cold draws its values from these pools so that every possible argv has
# a committed reference document (bench/reference/cli_cold.json)
L_POOL_FM = tuple(f"{0.5 * i:.1f}" for i in range(1, 21))          # 0.5 .. 10.0
R_POOL_FM = tuple(f"{0.6 + 0.1 * i:.1f}" for i in range(10))        # 0.6 .. 1.5
CLI_DEFAULT_POINTS = 41

# Grid sizes and pinned separations follow fixed ladders, the same in every
# cycle, so every run holds the same set of operation costs and its median
# and tail latencies do not hinge on the draw.  The seed draws the
# separation ranges and the order within each cycle.
SWEEP_ROWS = (5000, 12500, 20000)
# a plot vertex costs about half a CSV row, so plots span the same latencies
PLOT_VERTICES = (10000, 25000, 40000)
FULL_POINTS = 2000
# log-spaced 10 .. 100 fm: cold pinned states push the series argument
# a = 2 kappa L below 1e-2 at the short end of the sweep
LINIT_FM = tuple(round(10.0 ** (1.0 + j / 4.0), 6) for j in range(5))

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class _Kronecker:
    """u_k = frac(u_0 + k * alpha); alpha = frac(sqrt(p)) for a prime p."""

    def __init__(self, rng: random.Random, prime: int) -> None:
        self._alpha = math.sqrt(prime) % 1.0
        self._u = rng.random()

    def next(self) -> float:
        self._u = (self._u + self._alpha) % 1.0
        return self._u


def _streams(rng: random.Random, n: int) -> list[_Kronecker]:
    return [_Kronecker(rng, p) for p in _PRIMES[:n]]


def _pick(u: float, pool: tuple[str, ...]) -> str:
    return pool[min(int(u * len(pool)), len(pool) - 1)]


def cli_cold_pool() -> list[list[str]]:
    """Every argv the cli-cold workload can generate."""
    pool: list[list[str]] = [["constants"]]
    for L in L_POOL_FM:
        for model in ("spin", "unity"):
            pool.append(["state", "--L", L, "--mu-model", model])
            pool.append(["meson", "--L", L, "--mu-model", model])
        pool.append(["linewidth", "--L", L])
    for R in R_POOL_FM:
        pool.append(["equilibrium", "--R", R])
    for which in ("1", "2"):
        for fmt in ("csv", "json"):
            pool.append(["table", "--which", which, "--format", fmt])
        pool.append(["plot", "--which", which])
    for fmt in ("csv", "json"):
        pool.append(["sweep", "--format", fmt])
    return pool


def _cli_op(argv: list[str]) -> dict:
    points = CLI_DEFAULT_POINTS if argv[0] in ("sweep", "plot") else 0
    return {"argv": argv, "kind": "cli", "points": points, "params": {}, "sample": []}


def _sweep_op(rng: random.Random, n_sample: int, *, fmt: str, Lmin: float,
              Lmax: float, points: int, method: str, mode: str,
              Linit: float | None) -> dict:
    argv = ["sweep", "--Lmin", repr(Lmin), "--Lmax", repr(Lmax),
            "--points", str(points), "--method", method, "--mode", mode,
            "--format", fmt]
    if Linit is not None:
        argv += ["--Linit", repr(Linit)]
    params = {"Lmin": Lmin, "Lmax": Lmax, "points": points, "method": method,
              "mode": mode, "Linit": Linit, "format": fmt}
    sample = sorted(rng.sample(range(points), n_sample))
    return {"argv": argv, "kind": "sweep", "points": points, "params": params,
            "sample": sample}


def _plot_op(rng: random.Random, *, which: int, Lmin: float, Lmax: float,
             points: int) -> dict:
    argv = ["plot", "--which", str(which), "--Lmin", repr(Lmin),
            "--Lmax", repr(Lmax), "--points", str(points)]
    params = {"which": which, "Lmin": Lmin, "Lmax": Lmax, "points": points}
    # both ends plus two interior points: the check fits the pixel mapping
    # through the oracle values, which needs at least three per series
    sample = sorted({0, points - 1, *rng.sample(range(1, points - 1), 2)})
    return {"argv": argv, "kind": "plot", "points": points, "params": params,
            "sample": sample}


def _cli_cold_cycles(rng: random.Random):
    s = _streams(rng, 2)
    while True:
        L = [_pick(s[0].next(), L_POOL_FM) for _ in range(3)]
        cycle = [
            ["constants"],
            ["state", "--L", L[0], "--mu-model", rng.choice(("spin", "unity"))],
            ["meson", "--L", L[1], "--mu-model", rng.choice(("spin", "unity"))],
            ["linewidth", "--L", L[2]],
            ["equilibrium", "--R", _pick(s[1].next(), R_POOL_FM)],
            ["table", "--which", rng.choice(("1", "2")),
             "--format", rng.choice(("csv", "json"))],
            ["sweep", "--format", rng.choice(("csv", "json"))],
            ["plot", "--which", rng.choice(("1", "2"))],
        ]
        rng.shuffle(cycle)
        yield [_cli_op(argv) for argv in cycle]


def _sweep_closed_cycles(rng: random.Random):
    s = _streams(rng, 2)

    def grid() -> dict:
        return {"Lmin": round(0.1 + 0.9 * s[0].next(), 6),      # 0.1 .. 1 fm
                "Lmax": round(50.0 + 50.0 * s[1].next(), 6)}    # 50 .. 100 fm

    while True:
        cycle = []
        for fmt in ("csv", "json"):
            for points in SWEEP_ROWS:
                cycle.append(_sweep_op(rng, 3, fmt=fmt, method="asymptote",
                                       mode="coupled", Linit=None, points=points,
                                       **grid()))
        for which in (1, 2):
            for points in PLOT_VERTICES:
                cycle.append(_plot_op(rng, which=which, points=points, **grid()))
        rng.shuffle(cycle)
        yield cycle


def _sweep_full_cycles(rng: random.Random):
    s = _streams(rng, 2)
    kinds = [("full", "coupled", "csv", None), ("full", "coupled", "json", None),
             ("exact", "coupled", "csv", None)]
    kinds += [(method, "fixed", "csv", Linit)
              for method in ("full", "exact") for Linit in LINIT_FM]
    while True:
        cycle = [_sweep_op(rng, 1, fmt=fmt, method=method, mode=mode, Linit=Linit,
                           Lmin=round(0.1 + 0.1 * s[0].next(), 6),      # 0.1 .. 0.2 fm
                           Lmax=round(80.0 + 20.0 * s[1].next(), 6),    # 80 .. 100 fm
                           points=FULL_POINTS)
                 for method, mode, fmt, Linit in kinds]
        rng.shuffle(cycle)
        yield cycle


_GENERATORS = {
    "cli-cold": _cli_cold_cycles,
    "sweep-closed": _sweep_closed_cycles,
    "sweep-full": _sweep_full_cycles,
}


def iter_cycles(workload: str, seed: int):
    """The endless cycle sequence of a workload (same seed, same ops)."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))
