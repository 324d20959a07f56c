"""Independent reference values for sampled sweep rows and plot points.

Everything here is recomputed with mpmath at 30 digits from the physics, not
from casnuc: the CODATA-2018 constants are typed in again, the plasma state
is composed from its defining formulas, and the zero-frequency mode sum uses
the polylogarithm identity

    S(a) = sum_j e^(-j a) (a/j^2 + 1/j^3) = a Li_2(e^-a) + Li_3(e^-a).

The Matsubara sum over n > 0 is summed term by term until the geometric
bound on the remainder falls below 1e-13 of the partial sum.
"""

from __future__ import annotations

import mpmath as mp

mp.mp.dps = 30

HBAR = mp.mpf("1.054571817e-34")
C = mp.mpf("299792458")
K_B = mp.mpf("1.380649e-23")
E = mp.mpf("1.602176634e-19")
M_E = mp.mpf("9.1093837015e-31")
EPS_0 = mp.mpf("8.8541878128e-12")
MU_0 = mp.mpf("1.25663706212e-6")
MU_B = mp.mpf("9.2740100783e-24")
ZETA_3 = mp.zeta(3)
HBAR_C = HBAR * C
J_PER_MEV = E * mp.mpf(10) ** 6
FM = mp.mpf("1e-15")
R_DEFAULT_FM = mp.mpf("0.84")

_SUM_RTOL = mp.mpf("1e-13")


def _state_at_temperature(T, model: str):
    """(T, rho, omega, mu) of the thermal pair gas at temperature T."""
    kT = K_B * T
    rho = 3 * ZETA_3 / mp.pi**2 * (kT / HBAR_C) ** 3
    omega = mp.sqrt(rho * E**2 / (EPS_0 * M_E))
    # table-consistent spin susceptibility chi = 2 mu0 rho mu_B^2 / (k_B T)
    mu = 1 + 2 * MU_0 * rho * MU_B**2 / kT if model == "spin" else mp.mpf(1)
    return T, rho, omega, mu


def balance_temperature(L):
    """Black-body balance temperature at separation L [m]."""
    return HBAR_C / (K_B * mp.mpf(48) ** mp.mpf("0.25") * L)


def mode_series(a):
    if a == 0:
        return ZETA_3
    z = mp.exp(-a)
    return a * mp.polylog(2, z) + mp.polylog(3, z)


def _zero_asymptote(kappa, L, T):
    a = 2 * kappa * L
    return -K_B * T / (2 * mp.pi) * kappa**2 * mp.exp(-a) * (1 / a + 1 / a**2)


def _zero_exact(kappa, L, T):
    return -K_B * T / (8 * mp.pi * L**2) * mode_series(2 * kappa * L)


def _finite_asymptote(rho, T, L):
    kT = K_B * T
    xbar = 2 * kT * L / HBAR_C
    rhobar = rho * E**2 * HBAR**2 / (4 * mp.pi**2 * M_E * EPS_0 * kT**2)
    return -(kT**2) / HBAR_C * mp.exp(-mp.pi * rhobar * xbar - 2 * mp.pi * xbar) / L


def _finite_sum(rho, omega, T, L):
    """sum_{n>=1} -(k_B T / 4 pi L^2) S(a_n), a_n = 2 L sqrt(xi_n^2 + omega^2)/c."""
    prefactor = -K_B * T / (4 * mp.pi * L**2)
    xi_1 = 2 * mp.pi * K_B * T / HBAR
    total = mp.mpf(0)
    prev = None
    n = 0
    while True:
        n += 1
        xi = n * xi_1
        term = prefactor * mode_series(2 * L * mp.sqrt(xi**2 + omega**2) / C)
        total += term
        if prev is not None and prev != 0:
            ratio = term / prev
            if term == 0 or (ratio < 1 and abs(term) * ratio / (1 - ratio)
                             <= _SUM_RTOL * abs(total)):
                return total
        prev = term


def sweep_row(params: dict, L_fm: float) -> list[float]:
    """[T, rho, omega, mu, kappa, F0_MeV, Fn_MeV, Ftot_MeV] of one sweep row
    (default spin model, table convention, default plate radius)."""
    L = mp.mpf(L_fm) * FM
    if params["mode"] == "fixed":
        L_pin = mp.mpf(params["Linit"] or params["Lmin"]) * FM
        T, rho, omega, mu = _state_at_temperature(balance_temperature(L_pin), "spin")
    else:
        T, rho, omega, mu = _state_at_temperature(balance_temperature(L), "spin")
    kappa = mp.sqrt(mu) * omega / C
    method = params["method"]
    if method == "asymptote":
        zero, finite = _zero_asymptote(kappa, L, T), _finite_asymptote(rho, T, L)
    elif method == "exact":
        zero, finite = _zero_exact(kappa, L, T), _finite_asymptote(rho, T, L)
    else:
        # n = 0 at half weight equals the exact zero-frequency term
        zero, finite = _zero_exact(kappa, L, T), _finite_sum(rho, omega, T, L)
    area = mp.pi * (R_DEFAULT_FM * FM) ** 2
    to_mev = area / J_PER_MEV
    return [float(v) for v in (T, rho, omega, mu, kappa, zero * to_mev,
                               finite * to_mev, (zero + finite) * to_mev)]


def plot_series(which: int, L_fm: float) -> list[float]:
    """Per-pair energies [MeV] of each plotted series at one grid point.

    which=1: F0 with mu = 1 and with the spin permeability;
    which=2: F0, Fn and their sum with mu = 1 (the plot default).
    """
    L = mp.mpf(L_fm) * FM
    T = balance_temperature(L)
    to_mev = mp.pi * (R_DEFAULT_FM * FM) ** 2 / J_PER_MEV
    if which == 1:
        out = []
        for model in ("unity", "spin"):
            _, rho, omega, mu = _state_at_temperature(T, model)
            out.append(_zero_asymptote(mp.sqrt(mu) * omega / C, L, T) * to_mev)
        return [float(v) for v in out]
    _, rho, omega, mu = _state_at_temperature(T, "unity")
    zero = _zero_asymptote(omega / C, L, T)
    finite = _finite_asymptote(rho, T, L)
    return [float(v * to_mev) for v in (zero, finite, zero + finite)]
