"""Command-line front end.

Subcommands: constants, state, table, sweep, equilibrium, meson, linewidth,
plot.  Parameter precedence is CLI flag > environment variable (CASNUC_
prefix) > --config key=value file > built-in default.  Output is written
atomically when --out is given, to stdout otherwise.  Every printed float is
finite or exits 3, and -0.0 prints as 0.0; JSON keeps the json.dumps(indent=2)
layout.  Exit codes: 0 success, 2 usage/domain error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import json
import math
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


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


class _Opt(namedtuple("_Opt", "dest kind default choices help", defaults=(None, None, ""))):
    """One option of a subcommand: kind converts its text (float, int, str or
    _parse_bool, the one kind that is a flag), and the flag is --dest with
    each _ as -."""

    __slots__ = ()

    @property
    def flag(self) -> str:
        return "--" + self.dest.replace("_", "-")


# every subcommand takes --out; only the two that write tables take --format
_OUT = _Opt("out", str, None, help="output path (atomic write); stdout if omitted")
_TABLE_OUTPUT = [_OUT, _Opt("format", str, "csv", ("csv", "json"), help="csv|json")]

_L = _Opt("L", float, 1.0, help="plate separation [fm]")
_R = _Opt("R", float, R_PROTON_DEFAULT / M_PER_FM, help="plate radius [fm]")
_CONVENTION = _Opt("convention", str, "table", plasma.CONVENTIONS)
_GRID = [
    _Opt("Lmin", float, 1.0, help="smallest separation [fm]"),
    _Opt("Lmax", float, 3.0, help="largest separation [fm]"),
    _Opt("points", int, 41),
]
# the model kinds of the subcommands without --H: the field kind needs it
_NO_FIELD_KINDS = ("unity", "spin")
_MU_MODEL = _Opt("mu_model", str, "spin", _NO_FIELD_KINDS)

_SUBCOMMAND_OPTS: dict[str, list[_Opt]] = {
    "constants": [_OUT],
    "state": [
        _L,
        _Opt("mu_model", str, "spin", plasma.MODEL_KINDS),
        _Opt("H", float, 0.0, help="applied field [A/m], field model only"),
        _CONVENTION,
        _OUT,
    ],
    "table": [
        _Opt("which", int, 2, (1, 2), help="1: closed-form check, 2: state table"),
    ] + _TABLE_OUTPUT,
    "sweep": _GRID + [
        _MU_MODEL,
        _Opt("mode", str, "coupled", lifshitz.SWEEP_MODES),
        _R,
        _Opt("method", str, "asymptote", lifshitz.SWEEP_METHODS),
        _Opt("Linit", float, None,
             help="fixed mode: separation the state is pinned at [fm]; default Lmin"),
        _CONVENTION,
    ] + _TABLE_OUTPUT,
    "equilibrium": [_R, _OUT],
    "meson": [_L, _MU_MODEL, _CONVENTION, _OUT],
    "linewidth": [
        _L,
        _Opt("q_ratio", float, 0.1, help="wavevector over q_F"),
        _Opt("total_density", _parse_bool, False,
             help="use the full pair density instead of the per-species half"),
        _OUT,
    ],
    "plot": [
        _Opt("which", int, 1, (1, 2), help="1: zero-freq comparison, 2: breakdown"),
    ] + _GRID + [
        _R,
        _Opt("mu_model", str, "unity", _NO_FIELD_KINDS,
             help="permeability model for the breakdown plot"),
        _CONVENTION,
        _OUT,
    ],
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="casnuc",
        description="Screened Casimir interactions across a nuclear-scale pair plasma.",
    )
    parser.add_argument(
        "--version", action="version", version=f"casnuc {__version__} ({CONSTANTS_VINTAGE})"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, opts in _SUBCOMMAND_OPTS.items():
        p = sub.add_parser(name)
        for o in opts:
            if o.kind is _parse_bool:
                p.add_argument(o.flag, dest=o.dest, action="store_const", const=True,
                               default=None, help=o.help)
            else:
                p.add_argument(o.flag, dest=o.dest, default=None, help=o.help)
        p.add_argument("--config", dest="config", default=None,
                       help="key=value file supplying defaults")
        p.set_defaults(subparser=p)  # run() reports leftover arguments under its usage
    return parser


def _coerce(opt: _Opt, raw: object) -> object:
    if raw is None or isinstance(raw, bool):
        return raw
    text = str(raw)
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
    for o in _SUBCOMMAND_OPTS[command]:
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


def _finite(value: float) -> float:
    # the one rule for every printed float: a non-finite value exits 3, and
    # adding 0.0 turns -0.0 into 0.0 and leaves every other float unchanged
    if not math.isfinite(value):
        raise NumericalError(f"non-finite value in output: {value}")
    return value + 0.0


def _csv_document(header: Iterable[str], rows: Iterable[Iterable[object]]) -> str:
    # floats to 9 significant digits, scientific: lossless enough for
    # regression CSVs; no cell holds a comma, quote or newline to quote
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{_finite(v):.8e}" if isinstance(v, float) else str(v)
                              for v in row))
    return "\n".join(lines) + "\n"


def _json_text(obj: object, newline: str) -> str:
    # obj in exactly the json.dumps(indent=2) layout, nested at newline; json
    # escapes only the keys and strings
    if isinstance(obj, float):
        return repr(_finite(obj))
    inner = newline + "  "
    if isinstance(obj, dict) and obj:
        items = (json.dumps(key) + ": " + _json_text(value, inner) for key, value in obj.items())
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    return json.dumps(obj)  # str, int, bool, None or {}


def _json_document(obj: object) -> str:
    return _json_text(obj, "\n") + "\n"


def _table_document(header: Sequence[str], rows: Iterable[Iterable[object]], fmt: str) -> str:
    """rows under header as CSV, or as a JSON list with one object per row."""
    if fmt != "json":
        return _csv_document(header, rows)
    # _json_document([dict(zip(header, row)) for row in rows]), with each key
    # escaped once per document rather than once per row
    prefixes = [json.dumps(key) + ": " for key in header]
    objects = ("{\n    " + ",\n    ".join(prefix + _json_text(value, "\n    ")
                                         for prefix, value in zip(prefixes, row)) + "\n  }"
               for row in rows)
    return "[\n  " + ",\n  ".join(objects) + "\n]\n"


def _cmd_constants(params: dict[str, object]) -> str:
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
    return _json_document(document)


def _cmd_state(params: dict[str, object]) -> str:
    L = fm_to_m(params["L"], "separation", "L")
    model = _model_from_params(params)
    state = plasma.plasma_state_from_distance(L, model)
    kappa = lifshitz.screening_wavevector(state.rho, state.mu_ep)
    payload = {
        "L_fm": params["L"],
        "T_K": state.T,
        "rho_m3": state.rho,
        "omega_ep_rad_s": state.omega_ep,
        "mu_ep": state.mu_ep,
        "kappa_1_m": kappa,
        "kT_MeV": K_B * state.T / J_PER_MEV,
        "mu_model": params["mu_model"],
        "convention": params["convention"],
        "assumptions": plasma.state_assumptions(state),
    }
    return _json_document(payload)


def _cmd_table(params: dict[str, object]) -> str:
    # --which 2 is the five-row state table, --which 1 the closed-form vs
    # composed-pipeline consistency report
    if params["which"] == 2:
        rows = [[L_fm, *plasma.plasma_state_from_distance(L_fm * M_PER_FM)[1:]]
                for L_fm in TABLE2_GRID_FM]
        return _table_document(["L_fm", *_STATE_KEYS], rows, params["format"])
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
        return _json_document(
            {
                "grid_points": _CHECK_GRID_POINTS,
                "L_min_fm": _CHECK_L_MIN_FM,
                "L_max_fm": _CHECK_L_MAX_FM,
                "max_rel_dev": deviations,
            }
        )
    return _csv_document(["quantity", "max_rel_dev"], [[k, v] for k, v in deviations.items()])


def _sweep_spec(params: dict[str, object]) -> lifshitz.SweepSpec:
    # the separation grid, --points cap and plate area of sweep and plot;
    # plot has no --mode, --method or --Linit and keeps the SweepSpec defaults
    extras = {k: params[p] for k, p in (("mode", "mode"), ("method", "method"),
                                        ("L_init_fm", "Linit")) if p in params}
    return lifshitz.SweepSpec(
        L_min_fm=params["Lmin"],
        L_max_fm=params["Lmax"],
        points=params["points"],
        model=_model_from_params(params),
        R_fm=params["R"],
        **extras,
    )


def _cmd_sweep(params: dict[str, object]) -> str:
    rows = lifshitz.sweep_rows(_sweep_spec(params))
    return _table_document(lifshitz.SweepRow._fields, rows, params["format"])


def _cmd_equilibrium(params: dict[str, object]) -> str:
    R = fm_to_m(params["R"], "plate radius", "R")
    res = nuclear.equilibrium_distance(R)
    return _json_document(
        {
            "R_fm": params["R"],
            "D": res.D,
            "x_tilde": res.x_tilde,
            "L_eq_m": res.L_eq,
            "L_eq_fm": res.L_eq / M_PER_FM,
            "residual": res.residual,
        }
    )


def _cmd_meson(params: dict[str, object]) -> str:
    L = fm_to_m(params["L"], "separation", "L")
    model = _model_from_params(params)
    state = plasma.plasma_state_from_distance(L, model)
    yq = nuclear.yukawa_quantities(state.rho, state.mu_ep)
    return _json_document(
        {
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
    )


def _cmd_linewidth(params: dict[str, object]) -> str:
    L = fm_to_m(params["L"], "separation", "L")
    rho = plasma.density_from_distance(L)
    use_total = params["total_density"]
    n = rho if use_total else 0.5 * rho
    # the negative-bracket caveat is reported as a JSON field, not a warning
    eps_f, q_f, r, bracket, width = nuclear._plasmon_linewidth(n, params["q_ratio"])
    return _json_document(
        {
            "L_fm": params["L"],
            "q_ratio": params["q_ratio"],
            "n_m3": n,
            "density_convention": "total" if use_total else "per_species",
            "eps_F_J": eps_f,
            "eps_F_MeV": eps_f / J_PER_MEV,
            "q_F_1_m": q_f,
            "hbar_omega_p_over_2eps_F": r,
            "bracket": bracket,
            "bracket_negative": bracket < 0.0,
            "linewidth_J": width,
            "linewidth_MeV": width / J_PER_MEV,
        }
    )


def _cmd_plot(params: dict[str, object]) -> str:
    spec = _sweep_spec(params)
    grid_fm, area = spec.grid_fm(), spec.plate_area()

    def breakdowns(model: plasma.PermeabilityModel) -> list[lifshitz.FreeEnergyBreakdown]:
        return [lifshitz.distance_coupled_breakdown(L_fm * M_PER_FM, model)
                for L_fm in grid_fm]

    def curve(label: str, bs: list[lifshitz.FreeEnergyBreakdown], part: str) -> svgplot.Series:
        return label, grid_fm, [getattr(b, part) * area / J_PER_MEV for b in bs]

    if params["which"] == 1:
        spin = plasma.PermeabilityModel("spin", params["convention"])
        series = [curve("mu = 1", breakdowns(plasma.PermeabilityModel("unity")), "zero_freq"),
                  curve("spin permeability", breakdowns(spin), "zero_freq")]
        return svgplot.render_line_chart(series, "L (fm)", "F0 per plate pair (MeV)",
                                         title="Zero-frequency interaction energy")
    bs = breakdowns(spec.model)
    series = [curve("zero frequency", bs, "zero_freq"),
              curve("finite frequency", bs, "finite_freq"), curve("total", bs, "total")]
    return svgplot.render_line_chart(series, "L (fm)", "free energy per plate pair (MeV)",
                                     title="Interaction free energy breakdown")


_DISPATCH = {
    "constants": _cmd_constants,
    "state": _cmd_state,
    "table": _cmd_table,
    "sweep": _cmd_sweep,
    "equilibrium": _cmd_equilibrium,
    "meson": _cmd_meson,
    "linewidth": _cmd_linewidth,
    "plot": _cmd_plot,
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
        document = _DISPATCH[ns.command](params)
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
