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
import tempfile
import warnings
from collections.abc import Iterable
from dataclasses import dataclass, fields

from . import constants, lifshitz, nuclear, plasma, svgplot
from ._version import __version__
from .constants import CONSTANTS_VINTAGE, K_B, R_PROTON_DEFAULT
from .errors import DomainError, NumericalError
from .units import J_PER_MEV, M_PER_FM

ENV_PREFIX = "CASNUC_"

TABLE2_GRID_FM = (1.0, 1.5, 2.0, 2.6, 3.0)

# log grid for the closed-form vs composed-pipeline consistency table
_CHECK_GRID_POINTS = 25
_CHECK_L_MIN_FM = 0.1
_CHECK_L_MAX_FM = 100.0


@dataclass(frozen=True)
class _Opt:
    dest: str
    flag: str
    kind: str                       # float | int | str | bool
    default: object = None
    choices: tuple[str, ...] | None = None
    help: str = ""


def _output_opts(*formats: str) -> list[_Opt]:
    """--out and --format, shared by every subcommand; formats[0] is the default."""
    return [
        _Opt("out", "--out", "str", None, help="output path (atomic write); stdout if omitted"),
        _Opt("format", "--format", "str", formats[0], formats, help="|".join(formats)),
    ]


_SUBCOMMAND_OPTS: dict[str, list[_Opt]] = {
    "constants": _output_opts("json"),
    "state": [
        _Opt("L", "--L", "float", 1.0, help="plate separation [fm]"),
        _Opt("mu_model", "--mu-model", "str", "spin", plasma.MODEL_KINDS),
        _Opt("H", "--H", "float", 0.0, help="applied field [A/m], field model only"),
        _Opt("convention", "--convention", "str", "table", plasma.CONVENTIONS),
    ] + _output_opts("json"),
    "table": [
        _Opt("which", "--which", "int", 2, help="1: closed-form check, 2: state table"),
    ] + _output_opts("csv", "json"),
    "sweep": [
        _Opt("Lmin", "--Lmin", "float", 1.0, help="smallest separation [fm]"),
        _Opt("Lmax", "--Lmax", "float", 3.0, help="largest separation [fm]"),
        _Opt("points", "--points", "int", 41),
        _Opt("mu_model", "--mu-model", "str", "spin", ("unity", "spin")),
        _Opt("mode", "--mode", "str", "coupled", ("coupled", "fixed")),
        _Opt("R", "--R", "float", R_PROTON_DEFAULT / M_PER_FM, help="plate radius [fm]"),
        _Opt("method", "--method", "str", "asymptote", ("exact", "asymptote", "full")),
        _Opt("Linit", "--Linit", "float", None,
             help="fixed mode: separation the state is pinned at [fm]; default Lmin"),
        _Opt("convention", "--convention", "str", "table", plasma.CONVENTIONS),
    ] + _output_opts("csv", "json"),
    "equilibrium": [
        _Opt("R", "--R", "float", R_PROTON_DEFAULT / M_PER_FM, help="plate radius [fm]"),
    ] + _output_opts("json"),
    "meson": [
        _Opt("L", "--L", "float", 1.0, help="plate separation [fm]"),
        _Opt("mu_model", "--mu-model", "str", "spin", ("unity", "spin")),
        _Opt("convention", "--convention", "str", "table", plasma.CONVENTIONS),
    ] + _output_opts("json"),
    "linewidth": [
        _Opt("L", "--L", "float", 1.0, help="plate separation [fm]"),
        _Opt("q_ratio", "--q-ratio", "float", 0.1, help="wavevector over q_F"),
        _Opt("total_density", "--total-density", "bool", False,
             help="use the full pair density instead of the per-species half"),
    ] + _output_opts("json"),
    "plot": [
        _Opt("which", "--which", "int", 1, help="1: zero-freq comparison, 2: breakdown"),
        _Opt("Lmin", "--Lmin", "float", 1.0),
        _Opt("Lmax", "--Lmax", "float", 3.0),
        _Opt("points", "--points", "int", 41),
        _Opt("R", "--R", "float", R_PROTON_DEFAULT / M_PER_FM, help="plate radius [fm]"),
        _Opt("mu_model", "--mu-model", "str", "unity", ("unity", "spin"),
             help="permeability model for the breakdown plot"),
        _Opt("convention", "--convention", "str", "table", plasma.CONVENTIONS),
    ] + _output_opts("svg"),
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
            if o.kind == "bool":
                p.add_argument(o.flag, dest=o.dest, action="store_const", const=True,
                               default=None, help=o.help)
            else:
                p.add_argument(o.flag, dest=o.dest, default=None, help=o.help)
        p.add_argument("--config", dest="config", default=None,
                       help="key=value file supplying defaults")
    return parser


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise DomainError(f"cannot interpret {raw!r} as a boolean")


def _coerce(opt: _Opt, raw: object) -> object:
    if raw is None:
        return None
    if isinstance(raw, bool):
        return raw
    text = str(raw)
    try:
        if opt.kind == "float":
            value = float(text)
            if not math.isfinite(value):
                raise ValueError("non-finite")
            return value
        if opt.kind == "int":
            return int(text)
        if opt.kind == "bool":
            return _parse_bool(text)
    except ValueError as exc:
        raise DomainError(f"bad value for {opt.flag}: {text!r}") from exc
    if opt.choices is not None and text not in opt.choices:
        raise DomainError(
            f"bad value for {opt.flag}: {text!r} (choose from {', '.join(opt.choices)})"
        )
    return text


def _load_config(path: str) -> dict[str, str]:
    """Line-oriented key=value file; blank lines and # comments are skipped.

    Unknown keys are ignored so one config can serve several subcommands.
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
    H = float(params.get("H", 0.0))
    if params["mu_model"] == "field" and not H > 0.0:
        raise DomainError(f"--H must be > 0 for --mu-model field, got {H}")
    return plasma.PermeabilityModel(
        str(params["mu_model"]), str(params.get("convention", "table")), H
    )


def _finite(value: float) -> float:
    # the one rule for every printed float: a non-finite value exits 3, and
    # adding 0.0 turns -0.0 into 0.0 and leaves every other float unchanged
    if not math.isfinite(value):
        raise NumericalError(f"non-finite value in output: {value}")
    return value + 0.0


def _csv_document(header: list[str], rows: Iterable[Iterable[object]]) -> str:
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
    if isinstance(obj, list) and obj:
        items = (_json_text(value, inner) for value in obj)
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    return json.dumps(obj)  # str, int, bool, None, {} or []


def _json_document(obj: object) -> str:
    return _json_text(obj, "\n") + "\n"


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
    L = float(params["L"]) * M_PER_FM
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
    which, fmt = int(params["which"]), str(params["format"])
    if which == 2:
        header = ["L_fm", "T_K", "rho_m3", "omega_ep_rad_s", "mu_ep"]
        rows: list[list[object]] = []
        for L_fm in TABLE2_GRID_FM:
            s = plasma.plasma_state_from_distance(L_fm * M_PER_FM)
            rows.append([L_fm, s.T, s.rho, s.omega_ep, s.mu_ep])
        if fmt == "json":
            return _json_document([dict(zip(header, row)) for row in rows])
        return _csv_document(header, rows)
    if which == 1:
        ratio = (_CHECK_L_MAX_FM / _CHECK_L_MIN_FM) ** (1.0 / (_CHECK_GRID_POINTS - 1))
        deviations = {k: 0.0 for k in ("T_K", "rho_m3", "omega_ep_rad_s", "mu_ep")}
        for i in range(_CHECK_GRID_POINTS):
            L = _CHECK_L_MIN_FM * ratio**i * M_PER_FM
            closed = plasma.distance_closed_forms(L)
            s = plasma.plasma_state_from_distance(L)
            composed = {
                "T_K": s.T, "rho_m3": s.rho, "omega_ep_rad_s": s.omega_ep,
                "mu_ep": s.mu_ep,
            }
            for key, dev in deviations.items():
                rel = abs(closed[key] - composed[key]) / abs(composed[key])
                deviations[key] = max(dev, rel)
        if fmt == "json":
            return _json_document(
                {
                    "grid_points": _CHECK_GRID_POINTS,
                    "L_min_fm": _CHECK_L_MIN_FM,
                    "L_max_fm": _CHECK_L_MAX_FM,
                    "max_rel_dev": deviations,
                }
            )
        return _csv_document(
            ["quantity", "max_rel_dev"], [[k, v] for k, v in deviations.items()]
        )
    raise DomainError(f"table --which must be 1 or 2, got {which}")


def _sweep_spec(params: dict[str, object]) -> lifshitz.SweepSpec:
    # the separation grid, --points cap and plate area of sweep and plot;
    # plot has no --mode, --method or --Linit and keeps the SweepSpec defaults
    extras = {k: params[p] for k, p in (("mode", "mode"), ("method", "method"),
                                        ("L_init_fm", "Linit")) if p in params}
    return lifshitz.SweepSpec(
        L_min_fm=float(params["Lmin"]),
        L_max_fm=float(params["Lmax"]),
        points=int(params["points"]),
        model=_model_from_params(params),
        R_fm=float(params["R"]),
        **extras,
    )


def _cmd_sweep(params: dict[str, object]) -> str:
    rows = [vars(r) for r in lifshitz.sweep_rows(_sweep_spec(params))]
    if params["format"] == "json":
        return _json_document(rows)
    header = [f.name for f in fields(lifshitz.SweepRow)]
    return _csv_document(header, (r.values() for r in rows))


def _cmd_equilibrium(params: dict[str, object]) -> str:
    R = float(params["R"]) * M_PER_FM
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
    L = float(params["L"]) * M_PER_FM
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
    L = float(params["L"]) * M_PER_FM
    rho = plasma.density_from_distance(L)
    use_total = bool(params["total_density"])
    n = rho if use_total else 0.5 * rho
    eps_f, q_f = nuclear.fermi_quantities(n)
    r, bracket = nuclear.linewidth_bracket(n)
    with warnings.catch_warnings():
        # the negative-bracket caveat is reported as a JSON field instead
        warnings.simplefilter("ignore")
        width = nuclear.plasmon_linewidth(n, float(params["q_ratio"]))
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

    which = int(params["which"])
    if which == 1:
        spin = plasma.PermeabilityModel("spin", str(params["convention"]))
        series = [curve("mu = 1", breakdowns(plasma.PermeabilityModel("unity")), "zero_freq"),
                  curve("spin permeability", breakdowns(spin), "zero_freq")]
        return svgplot.render_line_chart(series, "L (fm)", "F0 per plate pair (MeV)",
                                         title="Zero-frequency interaction energy")
    if which == 2:
        bs = breakdowns(spec.model)
        series = [curve("zero frequency", bs, "zero_freq"),
                  curve("finite frequency", bs, "finite_freq"), curve("total", bs, "total")]
        return svgplot.render_line_chart(series, "L (fm)", "free energy per plate pair (MeV)",
                                         title="Interaction free energy breakdown")
    raise DomainError(f"plot --which must be 1 or 2, got {which}")


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
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".casnuc-tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(document)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def run(argv: list[str]) -> int:
    """Parse argv, dispatch, and return the process exit code."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
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
