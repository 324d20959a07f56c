"""Command-line front end.

Subcommands: constants, state, table, sweep, equilibrium, meson, linewidth,
plot, each listed once in _SUBCOMMANDS with its function and options.
Parameter precedence is CLI flag > environment variable (CASNUC_ prefix) >
--config key=value file > built-in default.  A subcommand returns its JSON
object as a dict, which run writes, or its CSV or SVG as finished text.
Output is written atomically when --out is given, to stdout otherwise.  Every
printed float is finite or exits 3, and -0.0 prints as 0.0; JSON keeps the
json.dumps(indent=2) layout.  Exit codes: 0 success, 2 usage/domain error,
3 numerical error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import operator
import os
import sys
from collections import namedtuple
from collections.abc import Iterable, Sequence

from . import constants, lifshitz, nuclear, plasma, svgplot
from ._version import __version__
from .constants import CONSTANTS_VINTAGE, K_B, R_PROTON_DEFAULT
from .errors import DomainError, NumericalError
from .units import J_PER_MEV, M_PER_FM, fm_to_m

ENV_PREFIX = "CASNUC_"

TABLE2_GRID_FM = (1.0, 1.5, 2.0, 2.6, 3.0)

# log grid for the closed-form vs composed-pipeline consistency table
_CHECK_GRID_POINTS = 25
_CHECK_L_MIN_FM = 0.1
_CHECK_L_MAX_FM = 100.0
# the column names of the PlasmaState fields after L, in both tables
_STATE_KEYS = ("T_K", "rho_m3", "omega_ep_rad_s", "mu_ep")
# the sweep's columns: the grid, sweep_rows' state and kappa, and energies per pair
_SWEEP_HEADER = ("L_fm", "T_K", "rho_m3", "omega_ep", "mu_ep", "kappa_1_m",
                 "F0_MeV", "Fn_MeV", "Ftot_MeV")

# largest sweep or plot grid (--points); 25x the largest benchmarked grid
MAX_GRID_POINTS = 1_000_000


class _Opt(namedtuple("_Opt", "dest kind default choices help", defaults=(None, None, ""))):
    """One option of a subcommand: kind converts its text (float, int or
    str), and the flag is --dest with each _ as -."""

    __slots__ = ()

    @property
    def flag(self) -> str:
        return "--" + self.dest.replace("_", "-")


# every subcommand takes --out; only the two that write tables take --format
_OUT = _Opt("out", str, None, help="output path (atomic write); stdout if omitted")
_TABLE_OUTPUT = [_OUT, _Opt("format", str, "csv", ("csv", "json"))]

_L = _Opt("L", float, 1.0, help="plate separation [fm]")
_R = _Opt("R", float, R_PROTON_DEFAULT / M_PER_FM, help="plate radius [fm]")
_CONVENTION = _Opt("convention", str, "table", plasma.CONVENTIONS)
_GRID = [
    _Opt("Lmin", float, 1.0, help="smallest separation [fm]"),
    _Opt("Lmax", float, 3.0, help="largest separation [fm]"),
    _Opt("points", int, 41, help=f"grid points, 2 to {MAX_GRID_POINTS}"),
]
# the model kinds of the subcommands without --H: the field kind needs it
_NO_FIELD_KINDS = ("unity", "spin")
_MU_MODEL = _Opt("mu_model", str, "spin", _NO_FIELD_KINDS)


@functools.cache  # one parser per process: run() only reads it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="casnuc",
        description="Screened Casimir interactions across a nuclear-scale pair plasma.",
    )
    parser.add_argument(
        "--version", action="version", version=f"casnuc {__version__} ({CONSTANTS_VINTAGE})"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, opts) in _SUBCOMMANDS.items():
        p = sub.add_parser(name)
        for o in opts:
            # an option with choices and no help text of its own lists them
            text = o.help or "|".join(map(str, o.choices))
            p.add_argument(o.flag, dest=o.dest, default=None, help=text)
        p.add_argument("--config", dest="config", default=None,
                       help="key=value file supplying defaults")
        p.set_defaults(subparser=p)  # run() reports leftover arguments under its usage
    return parser


def _coerce(opt: _Opt, text: str | None) -> object:
    if text is None:
        return None
    try:
        value = opt.kind(text)
        if opt.kind is float and not math.isfinite(value):
            raise ValueError("non-finite")
    except ValueError as exc:
        raise DomainError(f"bad value for {opt.flag}: {text!r}") from exc
    if opt.choices is not None and value not in opt.choices:
        choices = ", ".join(map(str, opt.choices))
        raise DomainError(f"bad value for {opt.flag}: {text!r} (choose from {choices})")
    return value


def _load_config(path: str) -> dict[str, str]:
    """Line-oriented key=value file; blank lines and # comments are skipped.

    Keys a subcommand does not take are ignored, so one config can serve
    every subcommand: format= reaches only table and sweep, and the others
    write their one format (JSON, or SVG for plot) whatever it says.
    """
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if "=" not in text:
                raise DomainError(f"{path}:{lineno}: expected key=value, got {text!r}")
            key, _, value = text.partition("=")
            values[key.strip()] = value.strip()
    return values


def _resolve_params(command: str, ns: argparse.Namespace) -> dict[str, object]:
    config = _load_config(ns.config) if ns.config else {}
    params: dict[str, object] = {}
    for o in _SUBCOMMANDS[command][1]:
        raw = getattr(ns, o.dest)
        if raw is None:
            raw = os.environ.get(ENV_PREFIX + o.dest.upper())
        if raw is None:
            raw = config.get(o.dest)
        value = _coerce(o, raw)
        params[o.dest] = o.default if value is None else value
    return params


def _model_from_params(params: dict[str, object]) -> plasma.PermeabilityModel:
    # only state has --H, and only state accepts the field kind
    H = params.get("H", 0.0)
    if params["mu_model"] == "field" and not H > 0.0:
        raise DomainError(f"--H must be > 0 for --mu-model field, got {H}")
    return plasma.PermeabilityModel(params["mu_model"], params["convention"], H)


def _state_at_L(params: dict[str, object]) -> plasma.PlasmaState:
    # the balance state at --L; linewidth, which has no --mu-model, reads the
    # default model's
    L = fm_to_m(params["L"], "separation", "L")
    model = _model_from_params(params) if "mu_model" in params else plasma.PermeabilityModel()
    return plasma.plasma_state_from_distance(L, model)


def _finite(value: float) -> float:
    # the one rule for every printed float: a non-finite value exits 3, and
    # adding 0.0 turns -0.0 into 0.0 and leaves every other float unchanged
    if not math.isfinite(value):
        raise NumericalError(f"non-finite value in output: {value}")
    return value + 0.0


def _finite_floats(obj: object) -> object:
    # obj with _finite applied to each float, nested dicts included, in
    # document order, so that the first non-finite value is the one named
    if isinstance(obj, float):
        return _finite(obj)
    if isinstance(obj, dict):
        return {key: _finite_floats(value) for key, value in obj.items()}
    return obj


def _json_document(obj: object) -> str:
    return json.dumps(_finite_floats(obj), indent=2) + "\n"


def _table_document(header: Sequence[str], columns: Sequence[Sequence[float]], fmt: str) -> str:
    """columns of floats, each under its header key, as CSV rows, or as a
    JSON list with one object per row.

    Each row is formatted by one % template, into which a column whose
    values all equal its first is formatted once: equal floats have one
    spelling, apart from 0.0 and -0.0, which the zero rule prints alike.
    _finite's two rules then run on the formatted body, where each case has
    one spelling, and a constant column's text is in every row of it.
    """
    if fmt == "json":
        # json.dumps([dict(zip(header, row)) for row in rows], indent=2) with
        # each key escaped once per document; no key holds a %
        fields = [json.dumps(key) + ": %r" for key in header]
        head, sep, tail = "[\n  ", ",\n  ", "\n]\n"
        row_open, joint, row_close = "{\n    ", ",\n    ", "\n  }"
        non_finite = (": inf", ": -inf", ": nan")
        negative_zeros = ((": -0.0,", ": 0.0,"), (": -0.0\n", ": 0.0\n"))
    else:
        # floats to 9 significant digits, scientific: lossless enough for
        # regression CSVs; no cell holds a comma, quote or newline to quote
        fields = ["%.8e"] * len(header)
        head, sep, tail = ",".join(header) + "\n", "\n", "\n"
        row_open, joint, row_close = "", ",", ""
        non_finite = ("n",)  # of inf and nan: %.8e spells a finite float with no n
        negative_zeros = (("-0.00000000e+00", "0.00000000e+00"),)
    length = len(columns[0])
    varying = []
    for i, column in enumerate(columns):
        first = column[0]
        if column[-1] == first and column.count(first) == length:
            fields[i] %= first  # no formatted float holds a %
        else:
            varying.append(column)
    template = row_open + joint.join(fields) + row_close
    body = sep.join(map(template.__mod__, zip(*varying) if varying else [()] * length))
    if any(marker in body for marker in non_finite):
        for row in zip(*columns):  # name the first non-finite value, in row order
            for value in row:
                _finite(value)
    for negative, zero in negative_zeros:
        if negative in body:
            body = body.replace(negative, zero)
    return "".join((head, body, tail))


def _cmd_constants(params: dict[str, object]) -> dict[str, object]:
    # output key -> (value, unit), in output order
    table = {
        "hbar": (constants.HBAR, "J*s"),
        "c": (constants.C, "m/s"),
        "k_B": (constants.K_B, "J/K"),
        "e": (constants.E_CHARGE, "C"),
        "m_e": (constants.M_E, "kg"),
        "eps0": (constants.EPS_0, "F/m"),
        "mu0": (constants.MU_0, "H/m"),
        "mu_B": (constants.MU_B, "J/T"),
        "zeta3": (constants.ZETA_3, "1"),
    }
    document: dict[str, object] = {key: value for key, (value, _) in table.items()}
    document["units"] = {key: unit for key, (_, unit) in table.items()}
    document["vintage"] = CONSTANTS_VINTAGE
    return document


def _cmd_state(params: dict[str, object]) -> dict[str, object]:
    state = _state_at_L(params)
    return {
        "L_fm": params["L"],
        "T_K": state.T,
        "rho_m3": state.rho,
        "omega_ep_rad_s": state.omega_ep,
        "mu_ep": state.mu_ep,
        "kappa_1_m": lifshitz.screening_wavevector(state.omega_ep, state.mu_ep),
        "kT_MeV": K_B * state.T / J_PER_MEV,
        "mu_model": params["mu_model"],
        "convention": params["convention"],
        "assumptions": plasma.state_assumptions(state),
    }


def _cmd_table(params: dict[str, object]) -> dict[str, object] | str:
    # --which 2 is the five-row state table, --which 1 the closed-form vs
    # composed-pipeline consistency report
    if params["which"] == 2:
        states = plasma.plasma_state_grid([L_fm * M_PER_FM for L_fm in TABLE2_GRID_FM])
        return _table_document(["L_fm", *_STATE_KEYS], [TABLE2_GRID_FM, *states[1:]],
                               params["format"])
    ratio = (_CHECK_L_MAX_FM / _CHECK_L_MIN_FM) ** (1.0 / (_CHECK_GRID_POINTS - 1))
    worst = [0.0] * len(_STATE_KEYS)
    for i in range(_CHECK_GRID_POINTS):
        L = _CHECK_L_MIN_FM * ratio**i * M_PER_FM
        closed = plasma.distance_closed_forms(L)
        composed = plasma.plasma_state_from_distance(L)
        worst = [max(dev, abs(c - p) / abs(p))
                 for dev, c, p in zip(worst, closed[1:], composed[1:])]
    deviations = dict(zip(_STATE_KEYS, worst))
    if params["format"] == "json":
        # the report as one object with its grid, not as a list of rows
        return {
            "grid_points": _CHECK_GRID_POINTS,
            "L_min_fm": _CHECK_L_MIN_FM,
            "L_max_fm": _CHECK_L_MAX_FM,
            "max_rel_dev": deviations,
        }
    return "quantity,max_rel_dev\n" + "".join(f"{key},{_finite(dev):.8e}\n"
                                               for key, dev in deviations.items())


def _sweep_grid(params: dict[str, object]) -> tuple[list[float], list[float], float, float]:
    """The evenly spaced grid of sweep and plot from --Lmin to --Lmax in fm
    and in m, the plate area pi R^2 [m^2] and the separation a fixed-mode
    state is pinned at [m] (--Linit, which plot lacks, or --Lmin)."""
    L_min, L_max, points, R = params["Lmin"], params["Lmax"], params["points"], params["R"]
    L_init = params.get("Linit")
    if not L_min > 0.0:
        raise DomainError(f"L_min must be positive, got {L_min}")
    if not L_max > L_min:
        raise DomainError("L_max must exceed L_min")
    if points < 2:
        raise DomainError(f"sweep needs at least 2 points, got {points}")
    if points > MAX_GRID_POINTS:
        raise DomainError(f"--points must be at most {MAX_GRID_POINTS}, got {points}")
    if not R > 0.0:
        raise DomainError(f"plate radius must be positive, got {R}")
    try:
        area = math.pi * (R * M_PER_FM) ** 2
    except OverflowError:
        area = math.inf
    if area == math.inf:  # above about 7.6e168 fm
        raise DomainError(f"plate radius too large: R = {R} fm, pi R^2 overflows")
    if area < sys.float_info.min:
        raise DomainError(f"plate radius too small: R = {R} fm, pi R^2 underflows")
    if L_init is not None and not L_init > 0.0:
        raise DomainError(f"L_init must be positive, got {L_init}")
    # every grid point is at least L_min, so it cannot underflow either
    pinned = fm_to_m(L_min, "separation", "L_min")
    if L_init is not None:
        pinned = fm_to_m(L_init, "separation", "L_init")
    step = (L_max - L_min) / (points - 1)
    grid_fm = [L_min + i * step for i in range(points)]
    return grid_fm, [L_fm * M_PER_FM for L_fm in grid_fm], area, pinned


def _per_pair_mev(column: Iterable[float], area: float) -> list[float]:
    # energies per unit area [J/m^2] as energies per plate pair [MeV]
    return [value * area / J_PER_MEV for value in column]


def _cmd_sweep(params: dict[str, object]) -> str:
    grid_fm, grid, area, pinned = _sweep_grid(params)
    *state, zeros, finites = lifshitz.sweep_rows(
        grid, _model_from_params(params), params["mode"], params["method"], pinned)
    columns = [grid_fm, *state, _per_pair_mev(zeros, area), _per_pair_mev(finites, area),
               _per_pair_mev(map(operator.add, zeros, finites), area)]
    del grid, state, zeros, finites  # only the columns are read while the table is written
    return _table_document(_SWEEP_HEADER, columns, params["format"])


def _cmd_equilibrium(params: dict[str, object]) -> dict[str, object]:
    res = nuclear.equilibrium_distance(fm_to_m(params["R"], "plate radius", "R"))
    L_eq_fm = res.L_eq / M_PER_FM
    if L_eq_fm == math.inf:  # from about R = 5.7743e307 fm
        raise DomainError(f"plate radius too large: R = {params['R']} fm, "
                          f"L_eq = x_tilde R overflows in fm")
    return {
        "R_fm": params["R"],
        "D": res.D,
        "x_tilde": res.x_tilde,
        "L_eq_m": res.L_eq,
        "L_eq_fm": L_eq_fm,
        "residual": res.residual,
    }


def _cmd_meson(params: dict[str, object]) -> dict[str, object]:
    state = _state_at_L(params)
    yq = nuclear.yukawa_quantities(state.omega_ep, state.mu_ep)
    return {
        "L_fm": params["L"],
        "mu_model": params["mu_model"],
        "rho_m3": state.rho,
        "mu_ep": state.mu_ep,
        "kappa_1_m": yq.kappa_source,
        "meson_mass_J": yq.meson_mass_energy,
        "meson_mass_MeV": yq.meson_mass_energy / J_PER_MEV,
        "screening_length_m": yq.screening_length,
        "screening_length_fm": yq.screening_length / M_PER_FM,
    }


def _cmd_linewidth(params: dict[str, object]) -> dict[str, object]:
    n = 0.5 * _state_at_L(params).rho  # one species carries half the pairs
    # the negative-bracket caveat is reported as a JSON field, not a warning
    eps_f, q_f, r, bracket, width = nuclear.plasmon_linewidth(n)
    return {
        "L_fm": params["L"],
        "q_ratio": nuclear.Q_RATIO,
        "n_m3": n,
        "density_convention": "per_species",
        "eps_F_J": eps_f,
        "eps_F_MeV": eps_f / J_PER_MEV,
        "q_F_1_m": q_f,
        "hbar_omega_p_over_2eps_F": r,
        "bracket": bracket,
        "bracket_negative": bracket < 0.0,
        "linewidth_J": width,
        "linewidth_MeV": width / J_PER_MEV,
    }


def _cmd_plot(params: dict[str, object]) -> str:
    grid_fm, grid, area, _ = _sweep_grid(params)

    def curve(label: str, column: list[float]) -> svgplot.Series:
        return label, grid_fm, _per_pair_mev(column, area)

    if params["which"] == 1:
        models = {"mu = 1": plasma.PermeabilityModel("unity"),
                  "spin permeability": plasma.PermeabilityModel("spin", params["convention"])}
        series = [curve(label, lifshitz.distance_coupled_breakdown(
                      grid, model, zero_freq_only=True).zero_freq)
                  for label, model in models.items()]
        return svgplot.render_line_chart(series, "L (fm)", "F0 per plate pair (MeV)",
                                         title="Zero-frequency interaction energy")
    b = lifshitz.distance_coupled_breakdown(grid, _model_from_params(params))
    series = [curve("zero frequency", b.zero_freq), curve("finite frequency", b.finite_freq),
              curve("total", b.total)]
    del b  # the unscaled columns are not needed while the chart is written
    return svgplot.render_line_chart(series, "L (fm)", "free energy per plate pair (MeV)",
                                     title="Interaction free energy breakdown")


# name -> (function, options), in --help order; each subcommand takes --config too
_SUBCOMMANDS = {
    "constants": (_cmd_constants, [_OUT]),
    "state": (_cmd_state, [
        _L,
        _Opt("mu_model", str, "spin", plasma.MODEL_KINDS),
        _Opt("H", float, 0.0, help="applied field [A/m], field model only"),
        _CONVENTION,
        _OUT,
    ]),
    "table": (_cmd_table, [
        _Opt("which", int, 2, (1, 2), help="1: closed-form check, 2: state table"),
    ] + _TABLE_OUTPUT),
    "sweep": (_cmd_sweep, _GRID + [
        _MU_MODEL,
        _Opt("mode", str, "coupled", lifshitz.SWEEP_MODES),
        _R,
        _Opt("method", str, "asymptote", lifshitz.SWEEP_METHODS),
        _Opt("Linit", float, None,
             help="fixed mode: separation the state is pinned at [fm]; default Lmin"),
        _CONVENTION,
    ] + _TABLE_OUTPUT),
    "equilibrium": (_cmd_equilibrium, [_R, _OUT]),
    "meson": (_cmd_meson, [_L, _MU_MODEL, _CONVENTION, _OUT]),
    "linewidth": (_cmd_linewidth, [_L, _OUT]),
    "plot": (_cmd_plot, [
        _Opt("which", int, 1, (1, 2), help="1: zero-freq comparison, 2: breakdown"),
    ] + _GRID + [
        _R,
        _Opt("mu_model", str, "unity", _NO_FIELD_KINDS,
             help="permeability model for the breakdown plot"),
        _CONVENTION,
        _OUT,
    ]),
}


def _write_output(document: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(document)
        return
    if not path:
        raise DomainError("--out must name a file, got ''")
    directory = os.path.dirname(os.path.abspath(path))
    tmp_path = os.path.join(directory, ".casnuc-tmp-" + os.urandom(8).hex())
    fd = None
    try:
        # 0o666 is the mode a shell redirect gives: the kernel applies the umask
        fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(document)
        os.replace(tmp_path, path)
    except BaseException as exc:
        if fd is not None:  # the temporary file is ours to remove
            try:
                os.unlink(tmp_path)
            except OSError:
                pass  # the original error is the one to report
        if isinstance(exc, OSError):
            # name the path asked for, not the random temporary file
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def run(argv: list[str]) -> int:
    """Parse argv, dispatch, and return the process exit code."""
    parser = _build_parser()
    try:
        ns, extras = parser.parse_known_args(argv)
        if extras:
            ns.subparser.error("unrecognized arguments: " + " ".join(extras))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        params = _resolve_params(ns.command, ns)
        document = _SUBCOMMANDS[ns.command][0](params)
        if isinstance(document, dict):  # CSV and SVG come back as finished text
            document = _json_document(document)
        _write_output(document, params.get("out"))
        return 0
    except (NumericalError, ArithmeticError) as exc:
        print(f"casnuc: numerical error: {exc}", file=sys.stderr)
        return 3
    except (DomainError, ValueError, OSError) as exc:
        print(f"casnuc: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
