"""Thermodynamics of the plate-generated electron-positron plasma.

The black-body balance between the plates fixes the temperature at a given
separation, the temperature fixes the pair density, and the density fixes the
plasma frequency and magnetic permeability.  The pair-density formula is the
relativistic-gas result and assumes k_B*T >> m_e*c^2; at femtometer
separations this holds by orders of magnitude (see state_assumptions()).

Every permeability model here is a static (zero-frequency) response: the
spin paramagnetism, with or without Langevin saturation in an applied
field.  It enters the Lifshitz sum only through its n = 0 term; by the
first Matsubara frequency, xi_1 = 2 pi k_B T/hbar (about 7e23 rad/s at
1 fm), the spin response has died out, so every n > 0 term uses mu = 1.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .constants import (
    C,
    E_CHARGE,
    EPS_0,
    GAMMA_BALANCE,
    HBAR_C,
    K_B,
    M_E,
    MU_0,
    MU_B,
    ZETA_3,
)
from .errors import DomainError

CONVENTIONS = ("table", "literal")
MODEL_KINDS = ("unity", "spin", "field")

# Langevin series branch below this |y|; see langevin()
Y_SWITCH = 1e-4


@dataclass(frozen=True)
class PlasmaState:
    """Plasma conditions between the plates at one separation."""

    L: float          # plate separation [m]
    T: float          # temperature [K]
    rho: float        # total e- + e+ number density [1/m^3]
    omega_ep: float   # plasma frequency [rad/s]
    mu_ep: float      # static relative permeability


@dataclass(frozen=True)
class PermeabilityModel:
    """Selects how the pair plasma's magnetic permeability is evaluated.

    kind:
        unity -- mu = 1 everywhere
        spin  -- zero-frequency spin paramagnetism
        field -- Langevin saturation of the electron moment mu_B in an
                 applied field H
    convention (spin kind):
        table   -- chi = 2*mu0*rho*mu_B^2/(k_B*T)
        literal -- chi = mu0*rho*mu_B^2/(k_B*T), half the above
    """

    kind: str = "spin"
    convention: str = "table"
    H: float = 0.0    # applied field [A/m], field kind only

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise DomainError(f"unknown permeability kind {self.kind!r}")
        if self.convention not in CONVENTIONS:
            raise DomainError(f"unknown convention {self.convention!r}")
        if self.kind == "field" and not self.H > 0.0:
            raise DomainError("field permeability requires H > 0")

    def static_mu(self, rho: float, T: float) -> float:
        """Zero-frequency permeability of the plasma state (rho, T)."""
        if self.kind == "unity":
            return 1.0
        if self.kind == "spin":
            return pair_permeability_static(rho, T, self.convention)
        # field: N enters per species
        return pair_permeability_in_field(self.H, 0.5 * rho, T)

    def coupled_mu(self, L: float) -> float:
        """Closed-form static permeability at the balance state of L, the
        parenthesis of the distance-coupled kappa (unity and spin kinds)."""
        if self.kind == "unity":
            return 1.0
        if self.kind != "spin":
            raise DomainError("distance-coupled closed forms are defined for unity|spin models")
        chi = _distance_susceptibility(L)
        if self.convention == "literal":
            chi *= 0.5
        return 1.0 + chi


def temperature_from_distance(L: float) -> float:
    """Black-body balance temperature, T = hbar*c/(k_B * 48^(1/4) * L)."""
    if not L > 0.0:
        raise DomainError(f"separation must be positive, got {L}")
    # below about 6.1e-286 m the denominator is no longer a normal double
    scale = K_B * GAMMA_BALANCE * L
    if scale < sys.float_info.min:
        raise DomainError(f"separation too small: L = {L} m, k_B gamma L underflows")
    return HBAR_C / scale


def pair_density(T: float) -> float:
    """Total e- + e+ number density of the thermal pair gas.

    rho = (3 zeta(3)/pi^2) (k_B T)^3 / (hbar c)^3.  Relativistic form,
    valid for k_B T >> m_e c^2.
    """
    if not T > 0.0:
        raise DomainError(f"temperature must be positive, got {T}")
    try:
        cube = (K_B * T / HBAR_C) ** 3
    except OverflowError:
        raise DomainError(f"temperature too large: T = {T} K, T^3 overflows") from None
    return 3.0 * ZETA_3 / math.pi**2 * cube


def _separation_cube(L: float) -> float:
    # L^3 of a plate separation; below about 2.8e-103 m it is no longer a
    # normal double, and the densities that scale as 1/L^3 overflow; above
    # about 5.6e102 m it overflows
    if not L > 0.0:
        raise DomainError(f"separation must be positive, got {L}")
    try:
        cube = L**3
    except OverflowError:
        raise DomainError(f"separation too large: L = {L} m, L^3 overflows") from None
    if cube < sys.float_info.min:
        raise DomainError(f"separation too small: L = {L} m, L^3 underflows")
    return cube


def density_from_distance(L: float) -> float:
    """Pair density at the balance temperature: rho = 3^(1/4) zeta(3)/(8 pi^2 L^3)."""
    return 3.0**0.25 * ZETA_3 / (8.0 * math.pi**2 * _separation_cube(L))


def plasma_frequency(rho: float) -> float:
    """omega_ep = sqrt(rho e^2 / (eps0 m_e)); rho = 0 maps to 0, and
    0 < rho < 8.7e-271 1/m^3, where rho e^2 underflows, raises DomainError."""
    if rho < 0.0:
        raise DomainError(f"density must be non-negative, got {rho}")
    charge = rho * E_CHARGE**2
    if rho > 0.0 and charge < sys.float_info.min:
        raise DomainError(f"density too small: rho = {rho} 1/m^3, rho e^2 underflows")
    return math.sqrt(charge / (EPS_0 * M_E))


def langevin(y: float) -> float:
    """Langevin function L(y) = coth(y) - 1/y.

    Below |y| = Y_SWITCH the series y/3 - y^3/45 + 2 y^5/945 is used; the
    direct branch evaluates ((u+2)x - u)/(u x) with u = expm1(2x) at x = |y|,
    which stays accurate where coth(y) - 1/y cancels catastrophically, and
    the sign is restored afterwards so oddness holds exactly on every branch.
    Beyond x = 20 the coth term is 1 to double precision and L = 1 - 1/x.
    """
    if math.isnan(y):
        raise DomainError("langevin argument must be finite")
    if math.isinf(y):
        return math.copysign(1.0, y)
    x = abs(y)
    if x < Y_SWITCH:
        y2 = y * y
        return y * (1.0 / 3.0 - y2 / 45.0 + 2.0 * y2 * y2 / 945.0)
    if x >= 20.0:
        return math.copysign(1.0 - 1.0 / x, y)
    u = math.expm1(2.0 * x)
    return math.copysign((u * x - (u - 2.0 * x)) / (u * x), y)


def pair_permeability_static(
    rho_total: float, T: float, convention: str = "table"
) -> float:
    """Zero-frequency permeability of the pair plasma.

    table (default): mu = 1 + 2 mu0 rho mu_B^2/(k_B T), the factor required
    by the tabulated 1 + sqrt(3) mu0 e^2 hbar zeta(3)/(8 pi^2 L^2 m^2 c)
    distance form.  literal: half that susceptibility.
    """
    if not T > 0.0:
        raise DomainError(f"temperature must be positive, got {T}")
    if rho_total < 0.0:
        raise DomainError(f"density must be non-negative, got {rho_total}")
    if convention not in CONVENTIONS:
        raise DomainError(f"unknown convention {convention!r}")
    chi = MU_0 * rho_total * MU_B**2 / (K_B * T)
    if convention == "table":
        chi *= 2.0
    return 1.0 + chi


def pair_permeability_in_field(H: float, N_per_species: float, T: float) -> float:
    """Field-dependent permeability mu(H) = 1 + 6 N mu_B L(y)/H, y = mu_B mu0 H/(k_B T).

    N is the per-species moment density.  As H -> 0 this recovers
    1 + 2 mu0 N mu_B^2/(k_B T); as H -> infinity mu -> 1 (saturation).
    """
    if not H > 0.0:
        raise DomainError("H must be positive; use pair_permeability_static for H = 0")
    if not T > 0.0:
        raise DomainError(f"temperature must be positive, got {T}")
    if N_per_species < 0.0:
        raise DomainError(f"moment density must be non-negative, got {N_per_species}")
    y = MU_B * MU_0 * H / (K_B * T)
    return 1.0 + 6.0 * N_per_species * MU_B * langevin(y) / H


def plasma_state_from_distance(
    L: float, model: PermeabilityModel | None = None
) -> PlasmaState:
    """Full plasma record at separation L under the chosen permeability model."""
    if model is None:
        model = PermeabilityModel()
    T = temperature_from_distance(L)
    rho = density_from_distance(L)
    omega = plasma_frequency(rho)
    mu = model.static_mu(rho, T)
    return PlasmaState(L=L, T=T, rho=rho, omega_ep=omega, mu_ep=mu)


def distance_closed_forms(L: float) -> dict[str, float]:
    """The four closed-form distance expressions for (T, rho, omega_ep, mu_ep).

    These are the tabulated single-formula versions of the composed pipeline;
    distance_closed_forms and plasma_state_from_distance must agree to
    rounding.  mu_ep uses the table convention.
    """
    if not L > 0.0:
        raise DomainError(f"separation must be positive, got {L}")
    T = HBAR_C / (2.0 * 3.0**0.25 * K_B * L)
    rho = 3.0**0.25 * ZETA_3 / (8.0 * math.pi**2 * L**3)
    omega = (3.0**0.125 / (2.0 * math.pi)) * math.sqrt(
        E_CHARGE**2 * ZETA_3 / (2.0 * M_E * EPS_0 * L**3)
    )
    mu = 1.0 + _distance_susceptibility(L)
    return {"T_K": T, "rho_m3": rho, "omega_ep_rad_s": omega, "mu_ep": mu}


def _distance_susceptibility(L: float) -> float:
    # table-convention spin susceptibility at the balance state of L, in closed
    # form; written via mu_B^2, not the substituted e^2 hbar/(m^2 c) form:
    # CODATA mu_B differs from e hbar/(2 m) at ~3e-10, which would break the
    # 1e-12 agreement with the composed pipeline
    return math.sqrt(3.0) * MU_0 * ZETA_3 * MU_B**2 / (2.0 * math.pi**2 * HBAR_C * L**2)


def state_assumptions(state: PlasmaState) -> dict[str, object]:
    """Modeling caveats for a state, for inclusion in output metadata."""
    thermal = K_B * state.T
    rest = M_E * C**2
    return {
        "relativistic_gas": "pair density assumes k_B*T >> m_e*c^2",
        "kT_over_me_c2": thermal / rest,
    }
