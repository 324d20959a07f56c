"""End-to-end acceptance checks.

Each test evaluates one shipping criterion at its stated tolerance and prints
a single PASS/FAIL line (visible under pytest -s) before asserting.
"""

import contextlib
import io
import math
import random
import time

from casnuc import cli
from casnuc.constants import K_B, HBAR_C, ZETA_3
from casnuc.lifshitz import (
    DEFAULT_PLATE_AREA,
    XBAR_CROSSOVER_10PCT,
    distance_coupled_breakdown,
    finite_freq_asymptote,
    finite_freq_sum,
    full_matsubara,
    matsubara_term,
    screening_wavevector,
    zero_freq_asymptote,
    zero_freq_exact,
)
from casnuc.nuclear import equilibrium_distance
from casnuc.plasma import PermeabilityModel, plasma_state_from_distance
from casnuc.units import J_PER_MEV, M_PER_FM

from _oracles import (
    balance_cubic_bisection,
    balance_cubic_residual,
    zero_freq_quadrature,
    zero_freq_series,
)

UNITY = PermeabilityModel("unity")
SPIN = PermeabilityModel("spin")

# reference state table: L [fm], T [K], rho [1/m^3], omega_ep [rad/s], mu_ep
STATE_TABLE = [
    (1.0, 8.70e11, 2.0e43, 2.5e23, 360.8),
    (1.5, 5.80e11, 5.9e42, 1.4e23, 160.9),
    (2.0, 4.35e11, 2.5e42, 8.9e22, 91.0),
    (2.6, 3.36e11, 11.40e41, 6.02e22, 54.2),
    (3.0, 2.90e11, 7.4e41, 4.9e22, 41.0),
]


def _line(n: int, ok: bool, desc: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({desc})")
    assert ok, f"criterion {n} failed: {desc}"


def _rel(x: float, y: float) -> float:
    scale = max(abs(x), abs(y))
    return 0.0 if scale == 0.0 else abs(x - y) / scale


def test_criterion_1_state_table_golden():
    start = time.perf_counter()
    states = [plasma_state_from_distance(L_fm * 1e-15) for L_fm, *_ in STATE_TABLE]
    elapsed = time.perf_counter() - start

    ok = elapsed < 0.010
    for s, (L_fm, T_ref, rho_ref, omega_ref, mu_ref) in zip(states, STATE_TABLE):
        ok = ok and _rel(s.T, T_ref) < 0.005
        ok = ok and _rel(s.rho, rho_ref) < 0.05
        ok = ok and _rel(s.omega_ep, omega_ref) < 0.05
        ok = ok and _rel(s.mu_ep, mu_ref) < 0.02
    _line(
        1,
        ok,
        f"five-row state table within T 0.5% / rho,omega 5% / mu 2%, "
        f"computed in {elapsed * 1e3:.2f} ms",
    )


def test_criterion_2_density_distance_invariant():
    coefficient = plasma_state_from_distance(1e-15).rho * (1e-15) ** 3
    ok = abs(coefficient - 0.0200) / 0.0200 < 0.01
    _line(2, ok, f"rho L^3 = {coefficient:.6f}, within 1% of 0.0200")


def test_criterion_3_equilibrium_separation():
    res = equilibrium_distance(0.84e-15)
    x_c = res.x_tilde
    x_b = balance_cubic_bisection(res.D)
    ok = abs(res.L_eq - 2.6e-15) / 2.6e-15 < 0.02
    ok = ok and abs(x_c - x_b) <= 1e-12 * abs(x_c)
    ok = ok and abs(balance_cubic_residual(res.x_tilde, res.D)) < 1e-12
    _line(
        3,
        ok,
        f"L_eq = {res.L_eq / M_PER_FM:.4f} fm (2.6 fm +/- 2%), "
        f"closed-form root and bisection oracle agree to 1e-12",
    )


def test_criterion_4_meson_masses_1fm():
    state = plasma_state_from_distance(1e-15, SPIN)
    unity_mev = 2.0 * HBAR_C * screening_wavevector(state.omega_ep, 1.0) / J_PER_MEV
    spin_mev = 2.0 * HBAR_C * screening_wavevector(state.omega_ep, state.mu_ep) / J_PER_MEV
    ok = abs(unity_mev - 329.0) / 329.0 < 0.03
    ok = ok and abs(spin_mev - 6242.0) / 6242.0 < 0.03
    _line(
        4,
        ok,
        f"meson masses at 1 fm: {unity_mev:.1f} MeV (329 +/- 3%), "
        f"{spin_mev:.0f} MeV (6242 +/- 3%)",
    )


def test_criterion_5_series_vs_quadrature():
    start = time.perf_counter()
    worst = 0.0
    for kappa_L in (0.0, 0.1, 1.0, 5.0, 20.0):
        for L_fm in (1.0, 2.0, 3.0):
            L = L_fm * 1e-15
            T = plasma_state_from_distance(L).T
            kappa = kappa_L / L
            worst = max(worst, _rel(zero_freq_exact(kappa, L, T),
                                    zero_freq_quadrature(kappa, L, T)))
    elapsed = time.perf_counter() - start

    L, T = 1e-15, plasma_state_from_distance(1e-15).T
    unscreened = -ZETA_3 * K_B * T / (8.0 * math.pi * L**2)
    limit_dev = _rel(zero_freq_exact(0.0, L, T), unscreened)

    ok = worst <= 1e-8 and limit_dev <= 1e-9 and elapsed < 1.0
    _line(
        5,
        ok,
        f"series vs quadrature worst {worst:.2e} (<= 1e-8), unscreened limit "
        f"dev {limit_dev:.2e} (<= 1e-9), grid in {elapsed:.2f} s",
    )


def test_criterion_6_asymptote_is_first_term():
    rng = random.Random(2026)
    worst = 0.0
    for _ in range(100):
        kappa = 10.0 ** rng.uniform(12.0, 17.0)
        L = 10.0 ** rng.uniform(-16.0, -13.0)
        T = 10.0 ** rng.uniform(10.0, 13.0)
        first = zero_freq_series(kappa, L, T, terms=1)
        worst = max(worst, _rel(zero_freq_asymptote(kappa, L, T), first))
    ok = worst <= 1e-12
    _line(6, ok, f"asymptote equals leading series term, worst dev {worst:.2e} over 100 draws")


def test_criterion_7_matsubara_structure():
    worst0 = 0.0
    for L_fm in (1.0, 2.0, 3.0):
        L = L_fm * 1e-15
        s = plasma_state_from_distance(L, SPIN)
        kappa = screening_wavevector(s.omega_ep, s.mu_ep)
        worst0 = max(
            worst0,
            _rel(matsubara_term(0, L, s.T, s.omega_ep, s.mu_ep), zero_freq_series(kappa, L, s.T)),
        )

    L = 1e-15
    T_cl = 5.0 * HBAR_C / (2.0 * K_B * L)
    classical_dev = _rel(
        full_matsubara(L, T_cl, 0.0, 1.0),
        -ZETA_3 * K_B * T_cl / (8.0 * math.pi * L**2),
    )

    omega = plasma_state_from_distance(L).omega_ep

    def asymptote_dev(xbar: float) -> float:
        T = xbar * HBAR_C / (2.0 * K_B * L)
        full = finite_freq_sum([L], [T], [omega])[0]
        return abs(finite_freq_asymptote(L, T, omega) - full) / abs(full)

    pinned = XBAR_CROSSOVER_10PCT
    at_pin = asymptote_dev(pinned)
    below_pin = asymptote_dev(pinned - 0.01)

    ok = worst0 <= 1e-12
    ok = ok and classical_dev < 0.01
    ok = ok and pinned == 1.65 and at_pin < 0.10 and below_pin >= 0.10
    _line(
        7,
        ok,
        f"n=0 term matches the series oracle (worst {worst0:.1e}), classical limit "
        f"dev {classical_dev:.1e} at xbar=5, asymptote crossover pinned at "
        f"xbar={pinned} (dev {at_pin:.4f}, below-grid {below_pin:.4f})",
    )


def test_criterion_8_figure_content():
    grid = [(1.0 + 0.05 * i) * 1e-15 for i in range(41)]
    b_u = distance_coupled_breakdown(grid, UNITY)
    b_s = distance_coupled_breakdown(grid, SPIN)
    ordering = all(abs(s) < abs(u) for s, u in zip(b_s.zero_freq, b_u.zero_freq))
    sum_identity = all(total == zero + finite for b in (b_u, b_s)
                       for zero, finite, total in zip(b.zero_freq, b.finite_freq, b.total))

    L = 1e-15
    s = plasma_state_from_distance(L, SPIN)
    direct = {
        "spin": full_matsubara(L, s.T, s.omega_ep, s.mu_ep) * DEFAULT_PLATE_AREA / J_PER_MEV,
        "unity": full_matsubara(L, s.T, s.omega_ep, 1.0) * DEFAULT_PLATE_AREA / J_PER_MEV,
    }
    in_window = all(-10.0 <= v <= -0.5 for v in direct.values())

    ok = ordering and sum_identity and in_window
    _line(
        8,
        ok,
        f"magnetic screening weakens the zero-frequency term on [1,3] fm, totals are "
        f"component sums, direct evaluation at 1 fm gives "
        f"{direct['spin']:.3f} / {direct['unity']:.3f} MeV inside [-10, -0.5]",
    )


def test_criterion_9_determinism_and_speed():
    commands = [
        ["constants"],
        ["state", "--L", "1.0"],
        ["table", "--which", "1"],
        ["table", "--which", "2"],
        ["sweep", "--points", "11"],
        ["equilibrium", "--R", "0.84"],
        ["meson", "--L", "1.0"],
        ["linewidth", "--L", "1.0"],
        ["plot", "--which", "1", "--points", "5"],
        ["plot", "--which", "2", "--points", "5"],
    ]
    identical = True
    for argv in commands:
        outputs = []
        for _ in range(2):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.run(argv)
            identical = identical and code == 0
            outputs.append(buf.getvalue().encode("utf-8"))
        identical = identical and outputs[0] == outputs[1]

    start = time.perf_counter()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(["sweep", "--points", "200"])
    elapsed = time.perf_counter() - start
    rows = buf.getvalue().strip().split("\n")
    fast = code == 0 and len(rows) == 201 and elapsed < 1.0

    ok = identical and fast
    _line(
        9,
        ok,
        f"all subcommand reruns byte-identical, 200-point sweep in {elapsed:.2f} s",
    )
