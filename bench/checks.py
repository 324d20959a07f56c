"""Output checks shared by the benchmark driver and its worker.

Nothing here imports casnuc: outputs are judged only by what the program
wrote.  A failed check raises CheckFailed; the operation then counts as
failed.
"""

from __future__ import annotations

import csv
import json
import math
import re

SWEEP_COLUMNS = ["L_fm", "T_K", "rho_m3", "omega_ep", "mu_ep", "kappa_1_m",
                 "F0_MeV", "Fn_MeV", "Ftot_MeV"]

# CSV cells carry 9 significant digits (half an ulp of that is 5e-9)
CSV_RTOL = 1e-8
# sampled rows against the mpmath oracle: covers CSV rounding plus the
# program's own truncation of the Matsubara sum (measured <= 3e-10)
ORACLE_RTOL = 1e-7
# cli-cold documents against the committed references
REFERENCE_TOL = {"json": (1e-9, 0.0), "csv": (1e-8, 0.0), "svg": (1e-6, 0.011)}
# plot pixels are printed with 2 decimals
PIXEL_ATOL = 0.011

_STATE_COLUMNS = slice(1, 6)     # T, rho, omega, mu, kappa
_NUMBER = re.compile(r"(-?\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)")
_POLYLINE = re.compile(r'<polyline points="([^"]*)"')


class CheckFailed(Exception):
    pass


def close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + atol


def _sweep_values(path: str, fmt: str):
    """Rows of a sweep output as lists of floats, in SWEEP_COLUMNS order."""
    with open(path, encoding="utf-8") as fh:
        if fmt == "json":
            for record in json.load(fh):
                if list(record) != SWEEP_COLUMNS:
                    raise CheckFailed(f"JSON keys {list(record)}")
                yield [float(record[k]) for k in SWEEP_COLUMNS]
            return
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != SWEEP_COLUMNS:
            raise CheckFailed(f"CSV header {header}")
        for cells in reader:
            yield [float(c) for c in cells]


def check_sweep(path: str, params: dict, sample: list[int]) -> dict[int, list[float]]:
    """Check every row of a sweep output; return the sampled rows.

    Every row must be finite with the grid separation, physical signs and
    Ftot = F0 + Fn; a pinned (fixed-mode) state must not vary along the
    sweep.  The sampled rows go on to the oracle.
    """
    lmin, lmax, points = params["Lmin"], params["Lmax"], params["points"]
    step = (lmax - lmin) / (points - 1)
    rtol = CSV_RTOL if params["format"] == "csv" else 1e-12
    wanted = set(sample)
    sampled: dict[int, list[float]] = {}
    first_state = None
    n = 0
    for i, row in enumerate(_sweep_values(path, params["format"])):
        n += 1
        if len(row) != len(SWEEP_COLUMNS) or not all(map(math.isfinite, row)):
            raise CheckFailed(f"row {i}: {row}")
        L, T, rho, omega, mu, kappa, f0, fn, ftot = row
        if not close(L, lmin + i * step, rtol):
            raise CheckFailed(f"row {i}: L_fm {L} off the grid")
        if not (T > 0 and rho > 0 and omega > 0 and mu >= 1 and kappa > 0):
            raise CheckFailed(f"row {i}: unphysical state {row[_STATE_COLUMNS]}")
        if not (f0 <= 0 and fn <= 0 and close(ftot, f0 + fn, rtol, 1e-300)):
            raise CheckFailed(f"row {i}: F0={f0} Fn={fn} Ftot={ftot}")
        if params["mode"] == "fixed":
            if first_state is None:
                first_state = row[_STATE_COLUMNS]
            elif row[_STATE_COLUMNS] != first_state:
                raise CheckFailed(f"row {i}: pinned state changed")
        if i in wanted:
            sampled[i] = row
    if n != points:
        raise CheckFailed(f"{n} rows, expected {points}")
    return sampled


def check_plot(path: str, params: dict, sample: list[int]) -> dict[int, list[float]]:
    """Check an SVG plot; return the pixel y of every series at the samples.

    Each series must hold one finite vertex per grid point, all series must
    share the x pixels, and those must be evenly spaced like the grid.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if not text.startswith("<svg") or not text.rstrip().endswith("</svg>"):
        raise CheckFailed("not an SVG document")
    series = [[tuple(map(float, p.split(","))) for p in m.split()]
              for m in _POLYLINE.findall(text)]
    expected = 2 if params["which"] == 1 else 3
    if len(series) != expected:
        raise CheckFailed(f"{len(series)} series, expected {expected}")
    points = params["points"]
    xs = [x for x, _ in series[0]]
    for s in series:
        if len(s) != points:
            raise CheckFailed(f"{len(s)} vertices, expected {points}")
        if [x for x, _ in s] != xs:
            raise CheckFailed("series do not share x pixels")
        if not all(math.isfinite(v) for xy in s for v in xy):
            raise CheckFailed("non-finite vertex")
    dx = (xs[-1] - xs[0]) / (points - 1)
    if not dx > 0:
        raise CheckFailed("x pixels do not increase")
    for i, x in enumerate(xs):
        if abs(x - (xs[0] + i * dx)) > PIXEL_ATOL:
            raise CheckFailed(f"vertex {i}: x pixel {x} off the grid")
    return {i: [s[i][1] for s in series] for i in sample}


def fits_pixel_map(values: list[float], pixels: list[float]) -> bool:
    """True when pixels = A + B * values (B < 0) to within PIXEL_ATOL.

    The chart maps data to pixels affinely; fitting A and B through the
    oracle values keeps the check independent of the chart layout.
    """
    n = len(values)
    mv, mp_ = sum(values) / n, sum(pixels) / n
    var = sum((v - mv) ** 2 for v in values)
    if var == 0.0:
        return False
    slope = sum((v - mv) * (p - mp_) for v, p in zip(values, pixels)) / var
    if not slope < 0:
        return False
    return all(abs(mp_ + slope * (v - mv) - p) <= 2 * PIXEL_ATOL
               for v, p in zip(values, pixels))


def document_format(argv: list[str]) -> str:
    if argv[0] == "plot":
        return "svg"
    if "--format" in argv:
        return argv[argv.index("--format") + 1]
    return "csv" if argv[0] in ("table", "sweep") else "json"


def matches_reference(text: str, reference: str, fmt: str) -> bool:
    """Same text between numbers, and every number within the tolerance."""
    rtol, atol = REFERENCE_TOL[fmt]
    got, want = _NUMBER.split(text), _NUMBER.split(reference)
    if len(got) != len(want):
        return False
    for k, (g, w) in enumerate(zip(got, want)):
        if k % 2 == 0:
            if g != w:
                return False
        elif not close(float(g), float(w), rtol, atol):
            return False
    return True
