import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from _oracles import matsubara_sum_mpmath, table_document_per_value
from casnuc import cli, lifshitz, plasma, units
from casnuc.constants import C, HBAR, K_B
from casnuc.errors import DomainError, NumericalError
from casnuc.lifshitz import FreeEnergyBreakdown


def run_cli(argv, capsys):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    lines = text.strip().split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


# hostile argv, the exit code and a fragment of the message it must print;
# every domain edge names the parameter it is about
HOSTILE_ARGV = [
    (["equilibrium", "--R", "inf"], 2, "bad value for --R"),
    (["state", "--L", "1e-200"], 2, "separation too small: L = 1e-215 m, L^3 underflows"),
    (["state", "--L", "1e200"], 2, "separation too large: L = 1e+185 m, L^3 overflows"),
    (["sweep", "--points", "100000000000000000000"], 2, "--points must be at most"),
    (["plot", "--points", "100000000000000000000"], 2, "--points must be at most"),
    (["state", "--L", "1e-120"], 2, "separation too small: L = 1e-135 m, L^3 underflows"),
    (["meson", "--L", "1e-120"], 2, "separation too small: L = 1e-135 m, L^3 underflows"),
    (["linewidth", "--L", "1e-120"], 2, "separation too small: L = 1e-135 m, L^3 underflows"),
    (["sweep", "--Lmin", "1e-120", "--Lmax", "2e-120"], 2,
     "separation too small: L = 1e-135 m, L^3 underflows"),
    (["plot", "--which", "2", "--Lmin", "1e-120", "--Lmax", "2e-120"], 2,
     "separation too small: L = 1e-135 m, L^3 underflows"),
    (["sweep", "--R", "1e160"], 3, "non-finite value in output"),
    (["plot", "--R", "-1"], 2, "plate radius must be positive"),
    (["sweep", "--Lmin", "1e-86", "--Lmax", "2e-86"], 2,
     "separation too small: L = 1.0000000000000002e-101 m, 2 L^3 m_e underflows"),
    (["plot", "--which", "1", "--Lmin", "1e-86", "--Lmax", "2e-86"], 2,
     "separation too small: L = 1.0000000000000002e-101 m, 2 L^3 m_e underflows"),
    (["plot", "--which", "2", "--Lmin", "1e-86", "--Lmax", "2e-86"], 2,
     "separation too small: L = 1.0000000000000002e-101 m, 2 L^3 m_e underflows"),
    (["plot", "--which", "2", "--Lmin", "2e-83", "--Lmax", "3e-83"], 2,
     "separation too small: L = 2.0000000000000002e-98 m, 2 L^3 m_e underflows"),
    (["sweep", "--Lmin", "1e-60", "--Lmax", "2e-60"], 2,
     "separation too small: L = 1.0000000000000001e-75 m, the closed forms are not finite"),
    (["sweep", "--mode", "fixed", "--Linit", "1e-120", "--points", "3"], 2,
     "separation too small: L = 1e-135 m, L^3 underflows"),
    (["sweep", "--Lmax", "1e110", "--points", "2"], 2, "density too small"),
    (["sweep", "--method", "exact", "--R", "1e-200", "--points", "2"], 2,
     "plate radius too small: R = 1e-200 fm"),
    (["sweep", "--R", "1e-145", "--points", "2"], 2, "plate radius too small: R = 1e-145 fm"),
    # the balance temperature's k_B gamma L underflows before L^3 can
    (["state", "--L", "1e-300"], 2, "separation too small: L = 1e-315 m, k_B gamma L underflows"),
    (["meson", "--L", "1e-300"], 2, "separation too small: L = 1e-315 m, k_B gamma L underflows"),
    (["linewidth", "--L", "1e-280"], 2,
     "separation too small: L = 1e-295 m, k_B gamma L underflows"),
    (["sweep", "--Lmin", "1e-300", "--Lmax", "2e-300", "--points", "2"], 2,
     "separation too small: L = 1e-315 m, k_B gamma L underflows"),
    (["sweep", "--mode", "fixed", "--Linit", "1e-300", "--points", "2"], 2,
     "separation too small: L = 1e-315 m, k_B gamma L underflows"),
    # pi R^2 overflows: by OverflowError at 1e170 fm, to inf at 1.2e169 fm
    (["sweep", "--R", "1e170", "--points", "2"], 2, "plate radius too large: R = 1e+170 fm"),
    (["plot", "--R", "1e170"], 2, "plate radius too large: R = 1e+170 fm"),
    (["sweep", "--R", "1.2e169", "--points", "2"], 2, "plate radius too large: R = 1.2e+169 fm"),
    # the pinned state comes from the one state builder, so --Linit has the L^3 edge
    (["sweep", "--mode", "fixed", "--Linit", "1e-89", "--points", "2"], 2,
     "separation too small: L = 1.0000000000000001e-104 m, L^3 underflows"),
    # omega_ep/xi_1 = 3.5e19 and terms that do not vanish: the n > 0 sum
    # would add about 1.8e19 terms directly
    (["sweep", "--method", "full", "--mode", "fixed", "--Linit", "1e-40", "--Lmin", "5e-59",
      "--Lmax", "6e-59", "--points", "2"], 2, "plasma frequency too high for the Matsubara sum"),
    # an option the subcommand does not take is reported under its own usage
    (["equilibrium", "--format", "json"], 2,
     "casnuc equilibrium: error: unrecognized arguments: --format json"),
    (["sweep", "--bogus", "1"], 2, "casnuc sweep: error: unrecognized arguments: --bogus 1"),
    # below about 2.5e-309 fm a length underflows to 0 m as it is converted
    (["state", "--L", "1e-310"], 2, "separation too small: L = 1e-310 fm underflows to 0 m"),
    (["meson", "--L", "1e-310"], 2, "separation too small: L = 1e-310 fm underflows to 0 m"),
    (["linewidth", "--L", "1e-310"], 2, "separation too small: L = 1e-310 fm underflows to 0 m"),
    (["sweep", "--Lmin", "1e-310"], 2, "separation too small: L_min = 1e-310 fm underflows"),
    (["plot", "--Lmin", "1e-310"], 2, "separation too small: L_min = 1e-310 fm underflows"),
    (["sweep", "--mode", "fixed", "--Linit", "1e-310"], 2,
     "separation too small: L_init = 1e-310 fm underflows"),
    (["equilibrium", "--R", "1e-310"], 2, "plate radius too small: R = 1e-310 fm underflows"),
    # a subnormal radius in metres has too few bits for L_eq = x R
    (["equilibrium", "--R", "3e-309"], 2, "radius too small: R = 5e-324 m is subnormal"),
    (["equilibrium", "--R", "2.2e-293"], 2, "radius too small: R = 2.2e-308 m is subnormal"),
    # from about 5.7743e307 fm L_eq = x R is finite in metres but not in fm
    (["equilibrium", "--R", "5.7743e307"], 2,
     "plate radius too large: R = 5.7743e+307 fm, L_eq = x_tilde R overflows in fm"),
    (["equilibrium", "--R", "6e307"], 2, "plate radius too large: R = 6e+307 fm"),
    # linewidth is evaluated at the one wavevector ratio, over the per-species density
    (["linewidth", "--q-ratio", "0.2"], 2,
     "casnuc linewidth: error: unrecognized arguments: --q-ratio 0.2"),
    (["linewidth", "--total-density"], 2,
     "casnuc linewidth: error: unrecognized arguments: --total-density"),
    # a state pinned at 1 fm leaves the L^2 of each grid point's prefactor to underflow
    (["sweep", "--mode", "fixed", "--Linit", "1", "--Lmin", "1e-200", "--Lmax", "1e-190",
      "--points", "3"], 2, "separation too small: L = 1e-215 m, L^2 underflows"),
    # a grid evaluated as columns still names its first failing point: here
    # the middle one, as every point after it fails too
    (["sweep", "--Lmin", "1", "--Lmax", "1e120", "--points", "3"], 2,
     "separation too large: L = 5.0000000000000003e+104 m, L^3 overflows"),
    (["plot", "--which", "1", "--Lmin", "1", "--Lmax", "1e120", "--points", "3"], 2,
     "separation too large: L = 5.0000000000000003e+104 m, L^3 overflows"),
    (["plot", "--which", "2", "--Lmin", "1", "--Lmax", "1e120", "--points", "3"], 2,
     "separation too large: L = 5.0000000000000003e+104 m, L^3 overflows"),
    (["sweep", "--Lmax", "1e110", "--points", "5"], 2,
     "density too small: rho = 1.2823175382096401e-285 1/m^3, rho e^2 underflows"),
    # from about 2.81e-88 to 7.08e-88 fm L^3 is a normal double but
    # omega_ep^2 = rho e^2/(eps0 m_e) overflows; at 7e-88 fm linewidth's
    # n = rho/2 alone would not
    (["state", "--L", "5e-88"], 2,
     "density too large: rho = 1.6028969227620506e+305 1/m^3, rho e^2/(eps0 m_e) overflows"),
    (["meson", "--L", "5e-88"], 2,
     "density too large: rho = 1.6028969227620506e+305 1/m^3, rho e^2/(eps0 m_e) overflows"),
    (["linewidth", "--L", "7e-88"], 2, "rho e^2/(eps0 m_e) overflows"),
    (["sweep", "--method", "full", "--Lmin", "3e-88", "--Lmax", "6e-88", "--points", "3"], 2,
     "density too large: rho = 7.420819086861346e+305 1/m^3, rho e^2/(eps0 m_e) overflows"),
    (["sweep", "--Lmin", "3e-88", "--Lmax", "6e-88", "--points", "3"], 2,
     "rho e^2/(eps0 m_e) overflows"),
    (["sweep", "--mode", "fixed", "--Linit", "5e-88", "--points", "3"], 2,
     "rho e^2/(eps0 m_e) overflows"),
    # linewidth reads the state's total density, so it meets the state's edge
    (["linewidth", "--L", "1e105"], 2,
     "density too small: rho = 2.0036211534525638e-272 1/m^3, rho e^2 underflows"),
    # below that edge the per-species half n = rho/2 meets its own, named n
    (["linewidth", "--L", "2.7e104"], 2,
     "density too small: n = 5.089725025282131e-271 1/m^3, n e^2 underflows"),
    # above 1.3e117 fm the pair density's 8 pi^2 L^3 overflows (rho would
    # round to 0.0), and between 4.5e117 and 5.6e117 fm the closed forms'
    # 2 L^3 m_e does (kappa would be 0.0)
    (["sweep", "--Lmin", "2e117", "--Lmax", "3e117", "--points", "2"], 2,
     "separation too large: L = 2.0000000000000002e+102 m, 8 pi^2 L^3 overflows"),
    (["plot", "--which", "2", "--Lmin", "1", "--Lmax", "5e117", "--points", "2"], 2,
     "separation too large: L = 5e+102 m, 2 L^3 m_e overflows"),
    # the grid's own checks, in the order they run
    (["sweep", "--Lmin", "0"], 2, "L_min must be positive, got 0.0"),
    (["sweep", "--Lmin", "3", "--Lmax", "1"], 2, "L_max must exceed L_min"),
    (["plot", "--points", "1"], 2, "sweep needs at least 2 points, got 1"),
    (["sweep", "--mode", "fixed", "--Linit", "0"], 2, "L_init must be positive, got 0.0"),
    # --Linit is checked in coupled mode too
    (["sweep", "--Linit", "-1"], 2, "L_init must be positive, got -1.0"),
]
HOSTILE_MESSAGES = {tuple(argv): message for argv, _, message in HOSTILE_ARGV}


class TestParsing:
    def test_no_arguments_is_usage_error(self, capsys):
        code, _, _ = run_cli([], capsys)
        assert code == 2

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run_cli(["teleport"], capsys)
        assert code == 2

    def test_version_banner(self, capsys):
        code, out, _ = run_cli(["--version"], capsys)
        assert code == 0
        assert out.strip() == "casnuc 0.1.0 (CODATA-2018)"

    def test_bad_numeric_flag(self, capsys):
        code, _, err = run_cli(["sweep", "--points", "many"], capsys)
        assert code == 2
        assert "bad value for --points" in err

    def test_nan_rejected(self, capsys):
        code, _, _ = run_cli(["state", "--L", "nan"], capsys)
        assert code == 2

    def test_one_parser_survives_a_usage_error(self, capsys):
        assert cli._build_parser() is cli._build_parser()
        code, _, err = run_cli(["sweep", "--points"], capsys)
        assert code == 2
        assert "casnuc sweep: error: argument --points: expected one argument" in err
        code, out, _ = run_cli(["constants"], capsys)
        assert code == 0
        assert json.loads(out)["vintage"] == "CODATA-2018"
        code, _, err = run_cli(["equilibrium", "--format", "json"], capsys)
        assert code == 2
        assert err.startswith("usage: casnuc equilibrium ")
        assert "casnuc equilibrium: error: unrecognized arguments: --format json" in err

    @pytest.mark.parametrize("argv, expected", [case[:2] for case in HOSTILE_ARGV])
    def test_hostile_values_exit_cleanly(self, argv, expected, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == expected
        assert out == ""
        # argparse prints the subcommand's usage before a usage error
        assert err.startswith(("casnuc: ", f"usage: casnuc {argv[0]} "))
        assert "Traceback" not in err
        assert HOSTILE_MESSAGES[tuple(argv)] in err

    @pytest.mark.parametrize(
        "argv", [["state"], ["sweep", "--method", "exact", "--points", "3"]],
        ids=["state-json", "sweep-csv"],
    )
    def test_non_finite_json_exits_3(self, argv, capsys, monkeypatch):
        monkeypatch.setattr(lifshitz, "screening_wavevector", lambda omega, mu: math.inf)
        code, out, err = run_cli(argv, capsys)
        assert code == 3
        assert out == ""
        assert "casnuc: numerical error:" in err


class TestConstants:
    def test_symbol_table(self, capsys):
        code, out, _ = run_cli(["constants"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["hbar"] == 1.054571817e-34
        assert doc["c"] == 299792458.0
        assert doc["k_B"] == 1.380649e-23
        assert doc["e"] == 1.602176634e-19
        assert doc["m_e"] == 9.1093837015e-31
        assert doc["eps0"] == 8.8541878128e-12
        assert doc["mu0"] == 1.25663706212e-6
        assert doc["mu_B"] == 9.2740100783e-24
        assert doc["zeta3"] == pytest.approx(1.2020569031595943, rel=1e-15)
        assert doc["vintage"] == "CODATA-2018"
        assert doc["units"]["hbar"] == "J*s"


class TestState:
    def test_default_state(self, capsys):
        code, out, _ = run_cli(["state", "--L", "1.0"], capsys)
        assert code == 0
        doc = json.loads(out)
        s = plasma.plasma_state_from_distance(1e-15)
        assert doc["L_fm"] == 1.0
        assert doc["T_K"] == pytest.approx(s.T, rel=1e-12)
        assert doc["mu_ep"] == pytest.approx(s.mu_ep, rel=1e-12)
        assert doc["mu_model"] == "spin"
        assert doc["assumptions"]["kT_over_me_c2"] > 100.0

    def test_unity_model(self, capsys):
        code, out, _ = run_cli(["state", "--mu-model", "unity"], capsys)
        assert code == 0
        assert json.loads(out)["mu_ep"] == 1.0

    def test_field_model_requires_positive_field(self, capsys):
        code, _, err = run_cli(["state", "--mu-model", "field", "--H", "0"], capsys)
        assert code == 2
        assert "casnuc: error:" in err

    def test_field_model_error_names_the_flag(self, capsys):
        code, _, err = run_cli(["state", "--mu-model", "field"], capsys)
        assert code == 2
        assert "--H" in err and "--mu-model field" in err

    def test_field_model(self, capsys):
        code, out, _ = run_cli(
            ["state", "--mu-model", "field", "--H", "1e12"], capsys
        )
        assert code == 0
        assert json.loads(out)["mu_ep"] > 1.0

    @pytest.mark.parametrize("H", ["1e-295", "1e-291", "1"])
    @pytest.mark.parametrize("L", ["1", "10"])
    @pytest.mark.parametrize("convention", ["table", "literal"])
    def test_weak_field_is_the_spin_state(self, H, L, convention, capsys):
        # the field model's weak-field limit is the static susceptibility of
        # the same convention, to the last bit
        common = ["state", "--L", L, "--convention", convention]
        _, spin, _ = run_cli(common, capsys)
        code, field, _ = run_cli(common + ["--mu-model", "field", "--H", H], capsys)
        assert code == 0
        assert json.loads(field)["mu_ep"] == json.loads(spin)["mu_ep"]


class TestTable:
    def test_state_table_header_and_rows(self, capsys):
        code, out, _ = run_cli(["table", "--which", "2"], capsys)
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["L_fm", "T_K", "rho_m3", "omega_ep_rad_s", "mu_ep"]
        assert [float(r[0]) for r in rows] == [1.0, 1.5, 2.0, 2.6, 3.0]
        for r in rows:
            s = plasma.plasma_state_from_distance(float(r[0]) * 1e-15)
            assert float(r[1]) == pytest.approx(s.T, rel=1e-8)
            assert float(r[2]) == pytest.approx(s.rho, rel=1e-8)
            assert float(r[3]) == pytest.approx(s.omega_ep, rel=1e-8)
            assert float(r[4]) == pytest.approx(s.mu_ep, rel=1e-8)

    def test_consistency_report(self, capsys):
        code, out, _ = run_cli(["table", "--which", "1"], capsys)
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["quantity", "max_rel_dev"]
        assert {r[0] for r in rows} == {"T_K", "rho_m3", "omega_ep_rad_s", "mu_ep"}
        for r in rows:
            assert float(r[1]) < 1e-10

    def test_json_format(self, capsys):
        code, out, _ = run_cli(["table", "--which", "2", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert len(doc) == 5
        assert doc[0]["L_fm"] == 1.0

    def test_unknown_table(self, capsys):
        code, _, err = run_cli(["table", "--which", "3"], capsys)
        assert code == 2
        assert "bad value for --which: '3' (choose from 1, 2)" in err


class TestSweep:
    def test_default_sweep_shape(self, capsys):
        code, out, _ = run_cli(["sweep"], capsys)
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["L_fm", "T_K", "rho_m3", "omega_ep", "mu_ep",
                          "kappa_1_m", "F0_MeV", "Fn_MeV", "Ftot_MeV"]
        assert len(rows) == 41
        assert float(rows[0][0]) == 1.0
        assert float(rows[-1][0]) == 3.0

    def test_zero_lmin_rejected(self, capsys):
        code, _, err = run_cli(["sweep", "--Lmin", "0"], capsys)
        assert code == 2
        assert "L_min must be positive" in err

    def test_points_flag(self, capsys):
        code, out, _ = run_cli(["sweep", "--points", "5"], capsys)
        assert code == 0
        _, rows = csv_rows(out)
        assert len(rows) == 5

    def test_grid_order_and_length(self):
        grid_fm, grid, area, pinned = cli._sweep_grid(dict(Lmin=1.0, Lmax=3.0, points=5, R=1.0))
        assert grid_fm == [1.0, 1.5, 2.0, 2.5, 3.0]
        assert grid == [L_fm * units.M_PER_FM for L_fm in grid_fm]
        assert area == math.pi * units.M_PER_FM ** 2
        assert pinned == units.M_PER_FM

    def test_grid_pins_the_initial_separation(self):
        params = dict(Lmin=1.0, Lmax=3.0, points=3, R=1.0, Linit=2.0)
        assert cli._sweep_grid(params)[3] == 2.0 * units.M_PER_FM

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(Lmin=0.0), "L_min must be positive"),
            (dict(Lmin=3.0, Lmax=1.0), "L_max must exceed L_min"),
            (dict(points=1), "sweep needs at least 2 points"),
            (dict(points=cli.MAX_GRID_POINTS + 1), "--points must be at most"),
            (dict(R=0.0), "plate radius must be positive"),
            (dict(R=1e200), "plate radius too large"),
            (dict(R=1e-170), "plate radius too small"),
            (dict(Linit=0.0), "L_init must be positive"),
            (dict(Linit=float("nan")), "L_init must be positive"),
            (dict(Lmin=1e-310), "separation too small: L_min"),
            (dict(Linit=1e-310), "separation too small: L_init"),
        ],
    )
    def test_grid_validation(self, overrides, message):
        params = {**dict(Lmin=1.0, Lmax=3.0, points=5, R=1.0), **overrides}
        with pytest.raises(DomainError, match=re.escape(message)):
            cli._sweep_grid(params)

    def test_full_sweep_at_small_xbar(self, capsys):
        # xbar of 7.6e-6 .. 1.5e-5 at the 100 fm state: the n > 0 sum once
        # stopped at 200,000 terms here and exited 3
        code, out, err = run_cli(
            ["sweep", "--method", "full", "--mode", "fixed", "--Linit", "100",
             "--Lmin", "0.001", "--Lmax", "0.002", "--points", "3"], capsys
        )
        assert (code, err) == (0, "")
        _, rows = csv_rows(out)
        assert len(rows) == 3
        assert all(math.isfinite(float(v)) for row in rows for v in row)

    def test_full_sweep_at_huge_separations(self, capsys):
        # the n > 0 sum once stopped after one term here, 1.5% off
        pytest.importorskip("mpmath")
        code, out, err = run_cli(
            ["sweep", "--method", "full", "--Lmin", "1e92", "--Lmax", "2e92", "--points", "3"],
            capsys)
        assert (code, err) == (0, "")
        header, rows = csv_rows(out)
        for row in rows:
            L = float(row[0]) * units.M_PER_FM
            state = plasma.plasma_state_from_distance(L)
            T, rho = state.T, state.rho
            xi_1 = 2.0 * math.pi * K_B * T / HBAR
            exact = (-K_B * T / (4.0 * math.pi * L * L)
                     * matsubara_sum_mpmath(2.0 * L * xi_1 / C, plasma.plasma_frequency(rho) / xi_1)
                     * lifshitz.DEFAULT_PLATE_AREA / units.J_PER_MEV)
            assert abs(float(row[header.index("Fn_MeV")]) / exact - 1.0) <= 1e-8

    @pytest.mark.parametrize("L_init, L_min, L_max, rows", [
        ("1e100", "1e-60", "2e-60", [
            "1.00000000e-60,8.69967987e-89,2.00362115e-257,2.52522067e-127,1.00000000e+00,"
            "8.42322947e-136,-7.94821804e+20,-5.99600745e+180,-5.99600745e+180",
            "1.50000000e-60,8.69967987e-89,2.00362115e-257,2.52522067e-127,1.00000000e+00,"
            "8.42322947e-136,-3.53254135e+20,-1.77659480e+180,-1.77659480e+180",
            "2.00000000e-60,8.69967987e-89,2.00362115e-257,2.52522067e-127,1.00000000e+00,"
            "8.42322947e-136,-1.98705451e+20,-7.49500931e+179,-7.49500931e+179",
        ]),
        ("1e71", "1e-85", "2e-85", [
            "1.00000000e-85,8.69967987e-60,2.00362115e-170,7.98544890e-84,1.00000000e+00,"
            "2.66365904e-92,-7.94821804e+99,-5.99600745e+255,-5.99600745e+255",
            "1.50000000e-85,8.69967987e-60,2.00362115e-170,7.98544890e-84,1.00000000e+00,"
            "2.66365904e-92,-3.53254135e+99,-1.77659480e+255,-1.77659480e+255",
            "2.00000000e-85,8.69967987e-60,2.00362115e-170,7.98544890e-84,1.00000000e+00,"
            "2.66365904e-92,-1.98705451e+99,-7.49500931e+254,-7.49500931e+254",
        ]),
    ], ids=["b5e-160", "b5e-156"])
    def test_full_sweep_where_b_squared_underflows(self, L_init, L_min, L_max, rows, capsys):
        # pinned far above the grid, b = 2 L xi_1/c is so small that b^2 is
        # subnormal; the sums reach the tail, whose bound is taken over b
        code, out, err = run_cli(
            ["sweep", "--method", "full", "--mode", "fixed", "--Linit", L_init,
             "--Lmin", L_min, "--Lmax", L_max, "--points", "3"], capsys)
        assert (code, err) == (0, "")
        assert out == "\n".join([",".join(cli._SWEEP_HEADER)] + rows) + "\n"

    def test_fixed_mode_holds_temperature(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--mode", "fixed", "--points", "7"], capsys
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert len({r[1] for r in rows}) == 1

    def test_fixed_mode_initial_separation(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--mode", "fixed", "--points", "3", "--Linit", "2.0"], capsys
        )
        assert code == 0
        _, rows = csv_rows(out)
        expected = plasma.plasma_state_from_distance(2e-15).T
        assert float(rows[0][1]) == pytest.approx(expected, rel=1e-8)

    def test_fixed_mode_pins_the_state(self, capsys):
        # the pinned row is the state at --Linit, bit for bit
        _, out, _ = run_cli(["state", "--L", "5"], capsys)
        state = json.loads(out)
        code, out, _ = run_cli(
            ["sweep", "--mode", "fixed", "--Linit", "5", "--Lmin", "5", "--Lmax", "6",
             "--points", "2", "--format", "json"], capsys
        )
        assert code == 0
        row = json.loads(out)[0]
        for key in ("T_K", "rho_m3", "mu_ep", "kappa_1_m"):
            assert row[key] == state[key], key
        assert row["omega_ep"] == state["omega_ep_rad_s"]

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--points", "3", "--format", "json"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert isinstance(doc, list)
        assert len(doc) == 3
        assert doc[0]["Ftot_MeV"] == pytest.approx(
            doc[0]["F0_MeV"] + doc[0]["Fn_MeV"], rel=1e-12
        )

    def test_total_column_is_sum(self, capsys):
        code, out, _ = run_cli(["sweep", "--points", "5"], capsys)
        assert code == 0
        _, rows = csv_rows(out)
        for r in rows:
            assert float(r[8]) == pytest.approx(
                float(r[6]) + float(r[7]), rel=1e-6
            )

    @pytest.mark.parametrize("mu_model", ["spin", "unity"])
    @pytest.mark.parametrize(
        "grid",
        [
            ["--points", "200"],
            ["--mode", "fixed", "--points", "200"],
            ["--mode", "fixed", "--Linit", "100", "--Lmin", "0.1", "--Lmax", "100",
             "--points", "2000"],
        ],
        ids=["coupled", "fixed", "fixed-Linit100"],
    )
    def test_exact_and_full_share_the_zero_frequency_term(self, grid, mu_model, capsys):
        # one n = 0 evaluator: the two methods differ only in the n > 0 terms
        f0 = {}
        for method in ("exact", "full"):
            argv = ["sweep", "--format", "json", "--mu-model", mu_model,
                    "--method", method, *grid]
            code, out, _ = run_cli(argv, capsys)
            assert code == 0
            f0[method] = [row["F0_MeV"] for row in json.loads(out)]
        assert f0["exact"] == f0["full"]


    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("extra", [
        ["--mu-model", "unity"], ["--mode", "fixed", "--Linit", "100", "--Lmin", "0.1",
                                  "--Lmax", "100", "--points", "50"],
    ], ids=["unity-coupled", "pinned"])
    def test_constant_columns_keep_the_per_value_bytes(self, fmt, extra, capsys):
        # the unity model's mu_ep, and five columns of a pinned state, are
        # written once into the row template
        argv = ["sweep", "--method", "full", "--format", fmt, *extra]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        params = cli._resolve_params("sweep", cli._build_parser().parse_args(argv))
        grid_fm, grid, area, pinned = cli._sweep_grid(params)
        *state, zeros, finites = lifshitz.sweep_rows(
            grid, cli._model_from_params(params), params["mode"], "full", pinned)
        totals = [zero + finite for zero, finite in zip(zeros, finites)]
        rows = list(zip(grid_fm, *state, *(cli._per_pair_mev(column, area)
                                           for column in (zeros, finites, totals))))
        assert len({row[4] for row in rows}) == 1
        assert out == table_document_per_value(cli._SWEEP_HEADER, rows, fmt)


class TestEquilibrium:
    def test_default_radius(self, capsys):
        code, out, _ = run_cli(["equilibrium", "--R", "0.84"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert "L_eq_fm" in doc
        assert doc["L_eq_fm"] == pytest.approx(2.6, rel=0.02)
        assert abs(doc["residual"]) < 1e-12
        assert doc["L_eq_m"] == pytest.approx(doc["L_eq_fm"] * 1e-15, rel=1e-12)

    def test_negative_radius(self, capsys):
        code, _, _ = run_cli(["equilibrium", "--R", "-1"], capsys)
        assert code == 2

    def test_largest_radius_in_fm(self, capsys):
        # the last radius whose L_eq is finite in fm; the next is a domain error
        code, out, _ = run_cli(["equilibrium", "--R", "5.7742e307"], capsys)
        assert code == 0
        assert json.loads(out)["L_eq_fm"] == pytest.approx(1.7976646357696348e308, rel=1e-15)


class TestMeson:
    def test_unity_model(self, capsys):
        code, out, _ = run_cli(["meson", "--mu-model", "unity"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["meson_mass_MeV"] == pytest.approx(329.0, rel=0.03)
        assert doc["mu_ep"] == 1.0

    def test_spin_model(self, capsys):
        code, out, _ = run_cli(["meson"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["meson_mass_MeV"] == pytest.approx(6242.0, rel=0.03)
        assert doc["screening_length_fm"] == pytest.approx(
            197.32698 / doc["meson_mass_MeV"], rel=1e-6
        )


class TestLinewidth:
    def test_default(self, capsys):
        code, out, _ = run_cli(["linewidth"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["density_convention"] == "per_species"
        assert doc["n_m3"] == pytest.approx(
            0.5 * plasma.plasma_state_from_distance(1e-15).rho, rel=1e-12
        )
        assert doc["bracket_negative"] is False
        assert doc["linewidth_MeV"] > 0.0
        assert doc["q_ratio"] == 0.1


class TestPlot:
    def test_comparison_plot(self, capsys):
        code, out, _ = run_cli(["plot", "--which", "1", "--points", "9"], capsys)
        assert code == 0
        assert out.startswith("<svg")
        assert "mu = 1" in out
        assert "spin permeability" in out

    def test_breakdown_plot_series(self, capsys):
        code, out, _ = run_cli(["plot", "--which", "2", "--points", "9"], capsys)
        assert code == 0
        assert out.count("<polyline") == 3
        for label in ("zero frequency", "finite frequency", "total"):
            assert label in out

    @pytest.mark.parametrize("which", ["1", "2"])
    def test_closed_forms_outlast_the_density_edge(self, which, capsys):
        # the plot reads no pair density, so the sweep's rho e^2 edge at
        # 2.8e104 fm is not its own
        code, out, _ = run_cli(["plot", "--which", which, "--Lmax", "1e110", "--points", "5"],
                               capsys)
        assert code == 0
        assert out.startswith("<svg") and out.endswith("</svg>\n")

    def test_sub_ulp_axis_span(self, capsys):
        argv = ["plot", "--which", "1", "--Lmin", "1", "--Lmax", "1.0000000000000002",
                "--points", "5"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert out.startswith("<svg") and out.endswith("</svg>\n")
        assert '="-' not in out  # no element placed left of or above the canvas

    def test_unknown_plot(self, capsys):
        code, _, _ = run_cli(["plot", "--which", "7"], capsys)
        assert code == 2

    def test_non_finite_exits_3(self, capsys, monkeypatch):
        def bad(Ls, model):
            return FreeEnergyBreakdown(*([math.nan] * len(Ls) for _ in range(4)))

        monkeypatch.setattr(lifshitz, "distance_coupled_breakdown", bad)
        code, _, err = run_cli(["plot", "--which", "2", "--points", "3"], capsys)
        assert code == 3
        assert "casnuc: numerical error:" in err


class TestPrecedence:
    def test_env_overrides_default(self, capsys, monkeypatch):
        monkeypatch.setenv("CASNUC_POINTS", "3")
        code, out, _ = run_cli(["sweep"], capsys)
        assert code == 0
        _, rows = csv_rows(out)
        assert len(rows) == 3

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("CASNUC_POINTS", "3")
        code, out, _ = run_cli(["sweep", "--points", "5"], capsys)
        assert code == 0
        _, rows = csv_rows(out)
        assert len(rows) == 5

    def test_config_overrides_default(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("# sweep defaults\npoints = 4\nirrelevant_key = 7\n")
        code, out, _ = run_cli(["sweep", "--config", str(cfg)], capsys)
        assert code == 0
        _, rows = csv_rows(out)
        assert len(rows) == 4

    def test_env_overrides_config(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("points = 4\n")
        monkeypatch.setenv("CASNUC_POINTS", "6")
        code, out, _ = run_cli(["sweep", "--config", str(cfg)], capsys)
        assert code == 0
        _, rows = csv_rows(out)
        assert len(rows) == 6

    def test_config_supplies_format(self, capsys, tmp_path):
        cfg = tmp_path / "fmt.cfg"
        cfg.write_text("format = json\n")
        code, out, _ = run_cli(
            ["sweep", "--points", "2", "--config", str(cfg)], capsys
        )
        assert code == 0
        assert isinstance(json.loads(out), list)

    def test_malformed_config_line(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("points 4\n")
        code, _, err = run_cli(["sweep", "--config", str(cfg)], capsys)
        assert code == 2
        assert "expected key=value" in err

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, _ = run_cli(
            ["sweep", "--config", str(tmp_path / "absent.cfg")], capsys
        )
        assert code == 2

    def test_keys_linewidth_does_not_take_are_ignored(self, capsys, tmp_path, monkeypatch):
        _, default, _ = run_cli(["linewidth"], capsys)
        cfg = tmp_path / "linewidth.cfg"
        cfg.write_text("q_ratio = 0.5\ntotal_density = on\n")
        monkeypatch.setenv("CASNUC_Q_RATIO", "0.2")
        monkeypatch.setenv("CASNUC_TOTAL_DENSITY", "yes")
        assert run_cli(["linewidth", "--config", str(cfg)], capsys) == (0, default, "")

    def test_invalid_format_for_subcommand(self, capsys):
        code, _, err = run_cli(["equilibrium", "--format", "csv"], capsys)
        assert code == 2
        assert "unrecognized arguments: --format" in err

    @pytest.mark.parametrize("command", sorted(cli._SUBCOMMANDS))
    @pytest.mark.parametrize("source, fmt", [("config", "csv"), ("env", "csv"), ("env", "json")])
    def test_shared_format_serves_every_subcommand(self, command, source, fmt, capsys,
                                                   tmp_path, monkeypatch):
        # only table and sweep choose a format; the others ignore the key
        if source == "config":
            cfg = tmp_path / "shared.cfg"
            cfg.write_text(f"format = {fmt}\npoints = 3\n")
            argv = [command, "--config", str(cfg)]
        else:
            monkeypatch.setenv("CASNUC_FORMAT", fmt)
            argv = [command]
        code, out, err = run_cli(argv, capsys)
        assert code == 0, err
        expected = fmt if command in ("table", "sweep") else "svg" if command == "plot" else "json"
        kind = "svg" if out.startswith("<svg") else "json" if out[0] in "[{" else "csv"
        assert kind == expected
        _check_document(expected, out)


class TestOutput:
    def test_atomic_write(self, capsys, tmp_path):
        target = tmp_path / "eq.json"
        code, out, _ = run_cli(["equilibrium", "--out", str(target)], capsys)
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert "L_eq_fm" in doc
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".casnuc-tmp-")]
        assert leftovers == []

    def test_missing_output_directory(self, capsys, tmp_path):
        target = tmp_path / "no" / "such" / "dir" / "x.json"
        code, _, err = run_cli(["equilibrium", "--out", str(target)], capsys)
        assert code == 2
        assert "casnuc: error:" in err

    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_file_mode_follows_umask(self, umask, capsys, tmp_path):
        # the mode a shell redirect gives, for a new and an existing file
        target = tmp_path / "c.json"
        old = os.umask(umask)
        try:
            for _ in range(2):
                code, _, _ = run_cli(["constants", "--out", str(target)], capsys)
                assert code == 0
                assert target.stat().st_mode & 0o777 == 0o666 & ~umask
        finally:
            os.umask(old)

    @pytest.mark.parametrize("command, target", [
        ("state", "missing/x.json"), ("constants", "existing"), ("state", ""),
    ], ids=["missing-dir", "existing-dir", "empty"])
    def test_failed_write_names_the_requested_path(self, command, target, capsys, tmp_path,
                                                   monkeypatch):
        work = tmp_path / "work"
        (work / "existing").mkdir(parents=True)
        monkeypatch.chdir(work)  # an empty --out resolves next to work, in tmp_path
        errors = []
        for _ in range(2):
            code, out, err = run_cli([command, "--out", target], capsys)
            assert (code, out) == (2, "")
            errors.append(err)
        assert errors[0] == errors[1]
        assert (repr(target) if target else "--out") in err
        assert ".casnuc-tmp-" not in err
        assert sorted(tmp_path.rglob("*")) == [work, work / "existing"]

    @pytest.mark.parametrize("unlink_fails", [False, True], ids=["removed", "unlink-fails"])
    def test_interrupted_write_leaves_the_target_alone(self, unlink_fails, tmp_path,
                                                       monkeypatch):
        # an error that is not an OSError propagates as it is, after the
        # temporary file is removed; when the removal fails too, the
        # original error is still the one raised
        target = tmp_path / "t.json"
        target.write_text("old")

        def failing(error):
            def call(*args):
                raise error
            return call

        monkeypatch.setattr(os, "replace", failing(KeyboardInterrupt))
        if unlink_fails:
            monkeypatch.setattr(os, "unlink", failing(PermissionError("unlink refused")))
        with pytest.raises(KeyboardInterrupt) as info:
            cli._write_output("new", str(target))
        assert info.value.__context__ is None
        assert target.read_text() == "old"
        left = [path.name for path in tmp_path.iterdir() if path != target]
        assert len(left) == unlink_fails
        assert all(name.startswith(".casnuc-tmp-") for name in left)

    def test_run_leaves_process_state_alone(self, capsys, tmp_path, monkeypatch):
        # cli.run also runs in-process: it neither sets the umask nor swaps
        # the warning filters, and a negative bracket does not warn
        def forbidden(*args, **kwargs):
            raise AssertionError("cli.run changed process-wide state")

        # the patches are undone before a failure is reported, which pytest
        # does under warnings.catch_warnings
        with warnings.catch_warnings(), monkeypatch.context() as patch:
            warnings.simplefilter("error")
            patch.setattr(os, "umask", forbidden)
            patch.setattr(warnings, "catch_warnings", forbidden)
            code, out, err = run_cli(["linewidth", "--L", "1e6"], capsys)
            assert code == 0, err
            assert json.loads(out)["bracket_negative"] is True
            target = tmp_path / "s.csv"
            code, _, err = run_cli(["sweep", "--points", "3", "--out", str(target)], capsys)
            assert code == 0, err
            assert target.read_text().startswith("L_fm,")

    def test_overwrite_existing(self, capsys, tmp_path):
        target = tmp_path / "t.csv"
        target.write_text("stale")
        code, _, _ = run_cli(
            ["sweep", "--points", "2", "--out", str(target)], capsys
        )
        assert code == 0
        assert target.read_text().startswith("L_fm,")


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["constants"],
            ["state", "--L", "1.3"],
            ["table", "--which", "2"],
            ["sweep", "--points", "7"],
            ["equilibrium"],
            ["meson"],
            ["linewidth"],
            ["plot", "--which", "1", "--points", "5"],
        ],
    )
    def test_reruns_identical(self, argv, capsys):
        code_a, out_a, _ = run_cli(argv, capsys)
        code_b, out_b, _ = run_cli(argv, capsys)
        assert code_a == code_b == 0
        assert out_a == out_b


class TestSignedZero:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--mode", "fixed", "--Linit", "1", "--Lmin", "1", "--Lmax", "2000",
             "--points", "3"],
            ["sweep", "--mode", "fixed", "--Linit", "1", "--Lmin", "1", "--Lmax", "2000",
             "--points", "3", "--format", "json"],
        ],
    )
    def test_no_negative_zero(self, argv, capsys):
        # these values underflow to -0.0 in the engine
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        cells = out.replace(",", " ").split()
        assert "-0.00000000e+00" not in cells
        assert "-0.0" not in cells
        assert "0.00000000e+00" in cells or "0.0" in cells

    def test_json_object_writer(self):
        # no argv is known to send a -0.0 through it, at the top level or nested
        document = {"L_fm": 1e9, "linewidth_J": -0.0, "units": {"zero": -0.0, "J": "J"}}
        expected = {"L_fm": 1e9, "linewidth_J": 0.0, "units": {"zero": 0.0, "J": "J"}}
        text = cli._json_document(document)
        assert text == json.dumps(expected, indent=2) + "\n"
        assert "-0.0" not in text


# Fn_MeV puts an n in the header, which spells no value
_WRITER_HEADER = ("L_fm", "Fn_MeV", "Ftot_MeV", "rho_m3")
_WRITER_ROW = (1.0, -2.5e-300, 3.0e10, 4.0)


def _writer_tables():
    # the edges of the double range, and -0.001, whose repr starts with -0.0
    yield [(5e-324, 1.7976931348623157e308, -1.7976931348623157e308, -0.001),
           (-0.001, -0.0, -5e-324, -0.0), _WRITER_ROW]
    # -0.0, inf, -inf and nan in each column, between two finite rows
    for column in range(len(_WRITER_HEADER)):
        for special in (-0.0, math.inf, -math.inf, math.nan):
            row = list(_WRITER_ROW)
            row[column] = special
            yield [_WRITER_ROW, tuple(row), _WRITER_ROW]
    # non-finite values in the last column, then in two columns of the next
    # row: the first in row order is named
    yield [(1.0, 2.0, 3.0, math.nan), (math.inf, -math.inf, 3.0, 4.0)]
    yield [_WRITER_ROW, (1.0, math.nan, -math.inf, 4.0), (math.inf, 2.0, 3.0, 4.0)]
    # a column whose values all equal its first is formatted once: 0.0 and
    # -0.0 in either order, inf (named), the one nan object of a repeated
    # row, every column constant, and tables of one row
    yield [(1.0, 0.0, 3.0, 4.0), (2.0, -0.0, 3.0, 4.0), (3.0, 0.0, 3.0, 4.0)]
    yield [(1.0, -0.0, 3.0, -0.0), (2.0, 0.0, 3.0, -0.0)]
    yield [(1.0, 2.0, math.inf, 4.0), (2.0, 2.0, math.inf, 4.0)]
    yield [(1.0, 2.0, 3.0, math.nan)] * 2
    yield [_WRITER_ROW] * 3
    yield [_WRITER_ROW]
    yield [(-0.0, 0.0, -5e-324, -0.001)]
    yield [(1.0, 2.0, -math.inf, 4.0)]


class TestTableWriter:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_matches_the_per_value_writer(self, fmt):
        for rows in _writer_tables():
            columns = list(zip(*rows))
            try:
                expected = table_document_per_value(_WRITER_HEADER, rows, fmt)
            except NumericalError as exc:
                with pytest.raises(NumericalError) as info:
                    cli._table_document(_WRITER_HEADER, columns, fmt)
                assert str(info.value) == str(exc), rows
            else:
                assert cli._table_document(_WRITER_HEADER, columns, fmt) == expected, rows


# three in four floats are positive, so that many argv get past validation
_HOSTILE_FLOATS = st.integers(0, 3).flatmap(
    lambda k: st.floats(min_value=1e-300, max_value=1e300) if k else st.sampled_from(
        [math.inf, -math.inf, math.nan, 0.0, -1e-300, -1e300]
    )
)


def _hostile_value(opt):
    if opt.kind is float:
        return _HOSTILE_FLOATS.map(repr)
    if opt.kind is int:
        # at most 3 grid points keeps every example cheap; 1 reaches --which 1
        return st.sampled_from(["1", "2", "3", "2", "3", "0", str(10**20)])
    return st.sampled_from(list(opt.choices) * 3 + ["bogus"])


def _check_document(fmt, out):
    if fmt == "json":
        def reject(token):
            raise ValueError(f"non-finite JSON constant {token}")
        # the stdlib encoder is the oracle for the writer's layout
        assert out == json.dumps(json.loads(out, parse_constant=reject), indent=2) + "\n"
    elif fmt == "csv":
        header, *rows = list(csv.reader(io.StringIO(out)))
        assert rows
        assert out.split("\n")[1:-1] == [",".join(row) for row in rows]  # nothing quoted
        for row in rows:
            assert len(row) == len(header)
            for cell in row:
                try:
                    assert math.isfinite(float(cell))
                except ValueError:
                    assert cell.isidentifier()  # the table's quantity names
    else:
        ET.fromstring(out)


class TestOneState:
    """The plasma state is derived once: the energies, kappa and the meson
    quantities read its omega_ep and mu_ep instead of evaluating the plasma
    frequency again from the density."""

    @pytest.mark.parametrize("argv, calls", [
        (["sweep", "--method", "full", "--points", "2000"], 2),
        (["sweep", "--method", "exact", "--points", "2000"], 2),
        (["sweep", "--method", "full", "--mode", "fixed", "--Linit", "10", "--points", "2000"],
         1),
        (["meson"], 1),
        (["state"], 1),
    ], ids=["coupled-full", "coupled-exact", "pinned-full", "meson", "state"])
    def test_plasma_frequency_calls(self, argv, calls, capsys, monkeypatch):
        # a coupled grid checks its two ends; one state is evaluated once
        original, counted = plasma.plasma_frequency, []

        def counting(rho):
            counted.append(rho)
            return original(rho)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "casnuc" and vars(module).get(
                    "plasma_frequency") is original:
                monkeypatch.setattr(module, "plasma_frequency", counting)
        code, _, _ = run_cli(argv, capsys)
        assert code == 0
        assert len(counted) == calls


class TestHostileArgv:
    """Every argv yields a valid, finite document (exit 0) or a message on
    stderr with exit 2 (usage/domain) or 3 (numerical)."""

    @pytest.mark.parametrize("command", sorted(cli._SUBCOMMANDS))
    @given(data=st.data())
    def test_exit_code_and_output_contract(self, command, data):
        opts = {o.dest: o for o in cli._SUBCOMMANDS[command][1] if o.dest != "out"}
        chosen = {dest: data.draw(_hostile_value(o))
                  for dest, o in opts.items() if data.draw(st.booleans())}
        argv = [command] + [f"{opts[d].flag}={v}" for d, v in chosen.items()]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        assert code in (0, 2, 3), (argv, err.getvalue())
        if code == 0:
            # only table and sweep take --format; plot writes SVG, the rest JSON
            default = opts["format"].default if "format" in opts else (
                "svg" if command == "plot" else "json")
            _check_document(chosen.get("format", default), out.getvalue())
        else:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("casnuc: "), (argv, err.getvalue())


class TestHelp:
    @pytest.mark.parametrize("command", sorted(cli._SUBCOMMANDS))
    def test_help_lists_the_option_table(self, command, capsys):
        code, out, _ = run_cli([command, "--help"], capsys)
        assert code == 0
        listed = re.findall(r"^ +(--[\w-]+)", out, re.MULTILINE)
        assert listed == [o.flag for o in cli._SUBCOMMANDS[command][1]] + ["--config"]
        # each option line is followed by its help, on that line or the next
        helped = re.findall(r"^ +(--[\w-]+)(?: \S+)?(?: {2,}|\n {3,})\S", out, re.MULTILINE)
        assert helped == listed


class TestGoldenOutput:
    def test_reference_documents_replay_byte_identical(self, capsys):
        path = Path(__file__).resolve().parents[1] / "bench" / "reference" / "cli_cold.json"
        with open(path, encoding="utf-8") as fh:
            reference = json.load(fh)
        assert len(reference) > 100
        mismatched = []
        for key, document in reference.items():
            code, out, _ = run_cli(key.split(" "), capsys)
            if code != 0 or out != document:
                mismatched.append(key)
        assert mismatched == []


def _loaded_by_cli_import(condition, *flags, runs=()):
    # the modules a fresh interpreter has loaded after import casnuc.cli, and
    # after cli.run of each argv in runs (each must exit 0), that satisfy
    # condition (an expression in the module name m)
    src = Path(__file__).resolve().parents[1] / "src"
    probe = ("import casnuc.cli, sys\n"
             f"if any(casnuc.cli.run(argv) for argv in {list(runs)!r}): sys.exit('a run failed')\n"
             f"print(sorted(m for m in sys.modules if {condition}))")
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, *flags, "-c", probe], env=env, capture_output=True, text=True,
        check=True,
    )
    return result.stdout.strip().splitlines()[-1]


class TestImports:
    def test_cli_imports_only_the_standard_library(self):
        condition = "m.split('.')[0] in ('scipy', 'numpy') or m.startswith('xml.sax')"
        assert _loaded_by_cli_import(condition) == "[]"

    def test_cli_skips_dataclasses_and_inspect(self):
        assert _loaded_by_cli_import("m in ('dataclasses', 'inspect')") == "[]"

    def test_cli_skips_heavy_modules_without_site(self, tmp_path):
        # without site nothing else preloads tempfile, random or typing; --out
        # needs neither tempfile nor random
        condition = "m in ('dataclasses', 'html', 'inspect', 'random', 'tempfile', 'typing')"
        runs = [["constants", "--out", str(tmp_path / "c.json")]]
        assert _loaded_by_cli_import(condition, "-S", runs=runs) == "[]"

    def test_matsubara_tail_loads_on_first_use(self):
        # coupled sums settle within their direct terms; a state pinned at
        # 100 fm, swept at 1-3 fm, reaches the Euler-Maclaurin tail
        tail = "m == 'casnuc._matsubara_tail'"
        coupled = [["sweep"], ["sweep", "--method", "full"]]
        assert _loaded_by_cli_import(tail, runs=coupled) == "[]"
        pinned = ["sweep", "--method", "full", "--mode", "fixed", "--Linit", "100"]
        assert _loaded_by_cli_import(tail, runs=[pinned]) == "['casnuc._matsubara_tail']"
