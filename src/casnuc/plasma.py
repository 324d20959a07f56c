"""Thermodynamics of the plate-generated electron-positron plasma.

The black-body balance between the plates fixes the temperature at a given
separation, the temperature fixes the pair density, and the density fixes the
plasma frequency and magnetic permeability.  The pair-density formula is the
relativistic-gas result and assumes k_B*T >> m_e*c^2; at femtometer
separations this holds by orders of magnitude (see state_assumptions()).

Every permeability model here is a static (zero-frequency) response: the
spin paramagnetism, with or without Langevin saturation in an applied
field.  PermeabilityModel.static_mu_column is the one evaluator of its
susceptibility, chi = mu0 rho mu_B^2/(k_B T) times the convention scale (and,
in a field, times the saturation 3 L(y)/y).  It enters the Lifshitz sum only
through its n = 0 term; by the first Matsubara frequency,
xi_1 = 2 pi k_B T/hbar (about 7e23 rad/s at 1 fm), the spin response has
died out, so every n > 0 term uses mu = 1.

The balance states are evaluated a grid of separations at a time
(plasma_state_grid): each quantity is one pass over the grid, and the
one-point state is the grid of one point.  The state is the one source of
omega_ep and mu_ep: the Lifshitz energies, the screening wavevector and the
meson quantities read them from it.  The constant factors of the closed
forms are folded once, at import, each in its display's own operation order,
so that no bit of a result moves.
"""

from __future__ import annotations

import math
import operator
import sys
from collections import namedtuple
from collections.abc import Callable, Sequence

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

# constant factors of the closed forms below, folded once; each is the leading
# run of its display's products, evaluated left to right as the display is, so
# folding moves no bit of the result
_KB_GAMMA = K_B * GAMMA_BALANCE
_RHO_NUM = 3.0**0.25 * ZETA_3
_RHO_DEN = 8.0 * math.pi**2
_E2 = E_CHARGE**2
_EPS0_ME = EPS_0 * M_E
_MU_B2 = MU_B**2
_CHI_NUM = math.sqrt(3.0) * MU_0 * ZETA_3 * _MU_B2
_CHI_DEN = 4.0 * math.pi**2 * HBAR_C

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

    def static_mu_column(self, rhos: Sequence[float], Ts: Sequence[float]) -> list[float]:
        """Zero-frequency permeability at each state (rhos[i], Ts[i]),
        unchecked (T > 0 and rho >= 0 hold on every balance state): the one
        evaluator of the susceptibility."""
        if self.kind == "unity":
            return [1.0] * len(rhos)
        scale = _CONVENTION_SCALE[self.convention]
        # the spin kind saturates by 1.0, which moves no bit of chi
        saturations = ([1.0] * len(Ts) if self.kind == "spin" else
                       [_saturation(MU_B * MU_0 * self.H / (K_B * T)) for T in Ts])
        return [1.0 + MU_0 * rho * _MU_B2 / (K_B * T) * scale * saturation
                for rho, T, saturation in zip(rhos, Ts, saturations)]

    def coupled_mu_column(self, Ls: Sequence[float]) -> list[float]:
        """Closed-form static permeability at the balance state of each
        separation in Ls, the parenthesis of the distance-coupled kappa (unity
        and spin kinds).

        The spin susceptibility is written via mu_B^2, not the substituted
        e^2 hbar/(m^2 c) form: CODATA mu_B differs from e hbar/(2 m) at
        ~3e-10, which would break the 1e-12 agreement with the composed
        pipeline."""
        if self.kind == "unity":
            return [1.0] * len(Ls)
        if self.kind != "spin":
            raise DomainError("distance-coupled closed forms are defined for unity|spin models")
        scale = _CONVENTION_SCALE[self.convention]
        return [1.0 + scale * (_CHI_NUM / (_CHI_DEN * L**2)) for L in Ls]


def _separation_cube(L: float) -> float:
    # L^3 of a plate separation; below about 2.8e-103 m it is no longer a
    # normal double, and the densities that scale as 1/L^3 overflow; above
    # about 5.6e102 m it overflows
    if not L > 0.0:
        raise DomainError(f"separation must be positive, got {L}")
    try:
        cube = L**3
    except OverflowError:
        cube = math.inf
    if cube == math.inf:
        raise DomainError(f"separation too large: L = {L} m, L^3 overflows")
    if cube < sys.float_info.min:
        raise DomainError(f"separation too small: L = {L} m, L^3 underflows")
    return cube


def plasma_frequency(rho: float) -> float:
    """omega_ep = sqrt(rho e^2 / (eps0 m_e)); rho = 0 maps to 0.  Where
    0 < rho < 8.7e-271 1/m^3 rho e^2 underflows, and above about
    5.6e304 1/m^3 omega_ep^2 overflows: DomainError."""
    if rho < 0.0:
        raise DomainError(f"density must be non-negative, got {rho}")
    charge = rho * _E2
    if rho > 0.0 and charge < sys.float_info.min:
        raise DomainError(f"density too small: rho = {rho} 1/m^3, rho e^2 underflows")
    squared = charge / _EPS0_ME
    if not squared < math.inf:  # a nan fails it too
        raise DomainError(f"density too large: rho = {rho} 1/m^3, rho e^2/(eps0 m_e) overflows")
    return math.sqrt(squared)


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


def _check_grid(Ls: Sequence[float], point: Callable[[float], object]) -> None:
    """Raise the error that evaluating Ls point by point would raise first;
    point(L) evaluates or checks one separation.

    The checks of a separation fail on a prefix or on a suffix of an
    ascending grid (an argument underflows below some L, or overflows above
    some L), so on an ascending grid every point passes when both ends do.
    Where an end fails, or where the grid does not ascend, point runs on
    every separation in grid order, so the error names the first that fails.
    """
    if all(map(operator.le, Ls, Ls[1:])):  # ascending; a nan fails it
        try:
            if Ls:
                point(Ls[0])
            if len(Ls) > 1:
                point(Ls[-1])
            return
        except (DomainError, ArithmeticError):
            pass
    for L in Ls:
        point(L)


def _check_balance(L: float) -> None:
    # every check of one balance state, in the order the state meets them;
    # k_B gamma L is no longer a normal double below about 6.1e-286 m,
    # 8 pi^2 L^3 overflows above about 1.3e102 m
    if not L > 0.0:
        raise DomainError(f"separation must be positive, got {L}")
    if _KB_GAMMA * L < sys.float_info.min:
        raise DomainError(f"separation too small: L = {L} m, k_B gamma L underflows")
    denominator = _RHO_DEN * _separation_cube(L)
    if denominator == math.inf:
        raise DomainError(f"separation too large: L = {L} m, 8 pi^2 L^3 overflows")
    plasma_frequency(_RHO_NUM / denominator)


def plasma_state_grid(
    Ls: Sequence[float], model: PermeabilityModel = PermeabilityModel()
) -> PlasmaState:
    """The balance states at the separations Ls [m] as one PlasmaState of
    columns in grid order (its L is Ls), the only route from a separation to
    a state: at each L, T = hbar c/(k_B 48^(1/4) L), the pair density
    rho = 3^(1/4) zeta(3)/(8 pi^2 L^3), plasma_frequency(rho) and the
    permeability of model.static_mu_column at (rho, T).

    Each column is one pass in one operation order, so an entry's bits do
    not depend on the grid.  The checks (_check_balance) run at the ends of
    an ascending grid, or point by point (see _check_grid): a failing grid
    raises the error of its first failing point.  The one-point grid is
    plasma_state_from_distance.
    """
    _check_grid(Ls, _check_balance)
    Ts = [HBAR_C / (_KB_GAMMA * L) for L in Ls]
    rhos = [_RHO_NUM / (_RHO_DEN * L**3) for L in Ls]
    omegas = [math.sqrt(rho * _E2 / _EPS0_ME) for rho in rhos]
    return PlasmaState(Ls, Ts, rhos, omegas, model.static_mu_column(rhos, Ts))


def plasma_state_from_distance(
    L: float, model: PermeabilityModel = PermeabilityModel()
) -> PlasmaState:
    """Full plasma record at separation L under the chosen permeability model:
    the one-point plasma_state_grid."""
    return PlasmaState(*(column[0] for column in plasma_state_grid([L], model)))


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
    mu = PermeabilityModel().coupled_mu_column([L])[0]
    return PlasmaState(L, T, rho, omega, mu)


def state_assumptions(state: PlasmaState) -> dict[str, object]:
    """Modeling caveats for a state, for inclusion in output metadata."""
    thermal = K_B * state.T
    rest = M_E * C**2
    return {
        "relativistic_gas": "pair density assumes k_B*T >> m_e*c^2",
        "kT_over_me_c2": thermal / rest,
    }
