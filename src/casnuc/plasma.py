"""Thermodynamics of the plate-generated electron-positron plasma.

The black-body balance between the plates fixes the temperature at a given
separation, the temperature fixes the pair density, and the density fixes the
plasma frequency and magnetic permeability.  The pair-density formula is the
relativistic-gas result and assumes k_B*T >> m_e*c^2; at femtometer
separations this holds by orders of magnitude (see state_assumptions()).

Every permeability model here is a static (zero-frequency) response: the
spin paramagnetism, with or without Langevin saturation in an applied
field.  PermeabilityModel.static_mu is the one evaluator of its
susceptibility, chi = mu0 rho mu_B^2/(k_B T) times the convention scale (and,
in a field, times the saturation 3 L(y)/y).  It enters the Lifshitz sum only
through its n = 0 term; by the first Matsubara frequency,
xi_1 = 2 pi k_B T/hbar (about 7e23 rad/s at 1 fm), the spin response has
died out, so every n > 0 term uses mu = 1.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

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

# spin susceptibility of each convention in units of mu0 rho mu_B^2/(k_B T);
# table's 2 is the factor the tabulated distance form
# 1 + sqrt(3) mu0 e^2 hbar zeta(3)/(8 pi^2 L^2 m^2 c) requires
_CONVENTION_SCALE = {"table": 2.0, "literal": 1.0}
CONVENTIONS = tuple(_CONVENTION_SCALE)
MODEL_KINDS = ("unity", "spin", "field")

# levels of the continued fraction in _saturation; 28 already hold it within
# 4e-16 of mpmath everywhere below y = 20
_SATURATION_DEPTH = 30


class PlasmaState(namedtuple("PlasmaState", "L T rho omega_ep mu_ep")):
    """Plasma conditions between the plates at one separation: plate separation
    L [m], temperature T [K], total e- + e+ number density rho [1/m^3], plasma
    frequency omega_ep [rad/s] and static relative permeability mu_ep."""

    __slots__ = ()


class PermeabilityModel(namedtuple("PermeabilityModel", "kind convention H",
                                   defaults=("spin", "table", 0.0))):
    """Selects how the pair plasma's magnetic permeability is evaluated.

    kind:
        unity -- mu = 1 everywhere
        spin  -- zero-frequency spin paramagnetism
        field -- the spin susceptibility times the Langevin saturation
                 3 L(y)/y of the electron moment mu_B in an applied field H,
                 y = mu_B mu0 H/(k_B T)
    convention (spin and field kinds):
        table   -- chi = 2*mu0*rho*mu_B^2/(k_B*T)
        literal -- chi = mu0*rho*mu_B^2/(k_B*T), half the above
    H: the applied field [A/m], field kind only
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.kind not in MODEL_KINDS:
            raise DomainError(f"unknown permeability kind {self.kind!r}")
        if self.convention not in CONVENTIONS:
            raise DomainError(f"unknown convention {self.convention!r}")
        if self.kind == "field" and not self.H > 0.0:
            raise DomainError("field permeability requires H > 0")
        return self

    def static_mu(self, rho: float, T: float) -> float:
        """Zero-frequency permeability of the plasma state (rho, T)."""
        if self.kind == "unity":
            return 1.0
        if not T > 0.0:
            raise DomainError(f"temperature must be positive, got {T}")
        if rho < 0.0:
            raise DomainError(f"density must be non-negative, got {rho}")
        chi = MU_0 * rho * MU_B**2 / (K_B * T) * _CONVENTION_SCALE[self.convention]
        if self.kind == "field":
            chi *= _saturation(MU_B * MU_0 * self.H / (K_B * T))
        return 1.0 + chi

    def coupled_mu(self, L: float) -> float:
        """Closed-form static permeability at the balance state of L, the
        parenthesis of the distance-coupled kappa (unity and spin kinds)."""
        if self.kind == "unity":
            return 1.0
        if self.kind != "spin":
            raise DomainError("distance-coupled closed forms are defined for unity|spin models")
        return 1.0 + _CONVENTION_SCALE[self.convention] * _distance_susceptibility(L)


def temperature_from_distance(L: float) -> float:
    """Black-body balance temperature, T = hbar*c/(k_B * 48^(1/4) * L)."""
    if not L > 0.0:
        raise DomainError(f"separation must be positive, got {L}")
    # below about 6.1e-286 m the denominator is no longer a normal double
    scale = K_B * GAMMA_BALANCE * L
    if scale < sys.float_info.min:
        raise DomainError(f"separation too small: L = {L} m, k_B gamma L underflows")
    return HBAR_C / scale


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


def _saturation(y: float) -> float:
    """The field saturation 3 L(y)/y of the spin susceptibility, for y >= 0,
    with L(y) = coth(y) - 1/y the Langevin function.

    Below y = 20 Lambert's continued fraction
    3 L(y)/y = 3/(3 + y^2/(5 + y^2/(7 + ...))), cut after _SATURATION_DEPTH
    levels; every partial denominator is positive, so nothing cancels.  From
    y = 20 on coth(y) is 1 to double precision and s = 3 (1 - 1/y)/y.
    Within 5e-16 of mpmath from y = 0 to inf; s(0) = 1 and s(inf) = 0.
    """
    if y >= 20.0:
        return 3.0 * (1.0 - 1.0 / y) / y
    x = y * y
    t = 2.0 * _SATURATION_DEPTH + 3.0
    for k in range(_SATURATION_DEPTH, 0, -1):
        t = 2.0 * k + 1.0 + x / t
    return 3.0 / t


def plasma_state_from_distance(
    L: float, model: PermeabilityModel = PermeabilityModel()
) -> PlasmaState:
    """Full plasma record at separation L under the chosen permeability model."""
    T = temperature_from_distance(L)
    rho = density_from_distance(L)
    omega = plasma_frequency(rho)
    mu = model.static_mu(rho, T)
    return PlasmaState(L=L, T=T, rho=rho, omega_ep=omega, mu_ep=mu)


def distance_closed_forms(L: float) -> PlasmaState:
    """The PlasmaState at L from the four closed-form distance expressions.

    These are the tabulated single-formula versions of (T, rho, omega_ep,
    mu_ep) in the composed pipeline; distance_closed_forms and
    plasma_state_from_distance must agree to rounding.  mu_ep uses the
    table convention.
    """
    if not L > 0.0:
        raise DomainError(f"separation must be positive, got {L}")
    T = HBAR_C / (2.0 * 3.0**0.25 * K_B * L)
    rho = 3.0**0.25 * ZETA_3 / (8.0 * math.pi**2 * L**3)
    omega = (3.0**0.125 / (2.0 * math.pi)) * math.sqrt(
        E_CHARGE**2 * ZETA_3 / (2.0 * M_E * EPS_0 * L**3)
    )
    mu = PermeabilityModel().coupled_mu(L)
    return PlasmaState(L, T, rho, omega, mu)


def _distance_susceptibility(L: float) -> float:
    # literal-convention spin susceptibility at the balance state of L, in
    # closed form; written via mu_B^2, not the substituted e^2 hbar/(m^2 c) form:
    # CODATA mu_B differs from e hbar/(2 m) at ~3e-10, which would break the
    # 1e-12 agreement with the composed pipeline
    return math.sqrt(3.0) * MU_0 * ZETA_3 * MU_B**2 / (4.0 * math.pi**2 * HBAR_C * L**2)


def state_assumptions(state: PlasmaState) -> dict[str, object]:
    """Modeling caveats for a state, for inclusion in output metadata."""
    thermal = K_B * state.T
    rest = M_E * C**2
    return {
        "relativistic_gas": "pair density assumes k_B*T >> m_e*c^2",
        "kT_over_me_c2": thermal / rest,
    }
