"""Nuclear-scale energy balance: ideal Casimir attraction vs Coulomb
repulsion, the resulting equilibrium separation, and the effective-meson
quantities carried by the screened zero-frequency interaction.

Each observable has one evaluator returning one record:
equilibrium_distance (EquilibriumResult), yukawa_quantities
(YukawaQuantities) and plasmon_linewidth (PlasmonLinewidth, at the one
wavevector ratio q/q_F = Q_RATIO).  yukawa_quantities reads omega_ep and
mu_ep from a PlasmaState; plasmon_linewidth evaluates the plasma frequency
at its own density n, one species' share of the pairs."""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .constants import E_CHARGE, EPS_0, HBAR, HBAR_C, M_E
from .errors import DomainError
from .lifshitz import screening_wavevector
from .plasma import _separation_cube, plasma_frequency


class EquilibriumResult(namedtuple("EquilibriumResult", "D x_tilde L_eq residual")):
    """Solution of the Casimir/Coulomb balance for plates of radius R: the
    dimensionless balance constant D = pi^4 eps0 hbar c/(180 e^2), x_tilde = L/R
    at equilibrium (the largest positive root of the cubic), the equilibrium
    separation L_eq [m], and the cubic residual at that root."""

    __slots__ = ()


class YukawaQuantities(namedtuple("YukawaQuantities",
                                  "meson_mass_energy screening_length kappa_source")):
    """Effective-meson view of the screened zero-frequency interaction: rest
    energy meson_mass_energy = 2 hbar sqrt(mu_ep) omega_ep [J] (equal to
    2 hbar c kappa up to rounding), screening_length = hbar c / mass energy
    [m], and kappa_source, the screening wavevector kappa of the same state
    [1/m], computed separately by lifshitz.screening_wavevector."""

    __slots__ = ()


class PlasmonLinewidth(namedtuple("PlasmonLinewidth", "eps_F q_F r bracket width")):
    """Plasmon damping by electron-electron collisions at number density n:
    the Fermi energy eps_F = hbar^2 q_F^2/(2 m) [J] and wavevector
    q_F = (3 pi^2 n)^(1/3) [1/m] (nonrelativistic electron-mass dispersion),
    r = hbar omega_p/(2 eps_F) with omega_p at the same n, the bracket
    10 ln 2 + 2 - 4.5 r, and the width (6 pi/5) eps_F (q/q_F)^2 r^3 bracket
    [J] at q/q_F = Q_RATIO.  The bracket is negative for r > ~1.985, outside
    the regime the damping expression was built for."""

    __slots__ = ()


def ideal_casimir(L: float, area: float) -> tuple[float, float]:
    """Ideal-mirror Casimir energy and force for plate area A at separation L.

    E = -pi^2 hbar c A/(720 L^3), F = -pi^2 hbar c A/(240 L^4); both negative
    (attraction), F L = 3 E.  Where L^3 or L^4 is not a normal double (L
    below about 1.2e-77 m or above about 1.2e77 m), and where E or F
    overflows (an infinite area among them), DomainError.
    """
    cube = _separation_cube(L)
    if not area > 0.0:
        raise DomainError(f"area must be positive, got {area}")
    try:
        quartic = L**4
    except OverflowError:
        raise DomainError(f"separation too large: L = {L} m, L^4 overflows") from None
    if quartic < sys.float_info.min:
        raise DomainError(f"separation too small: L = {L} m, L^4 underflows")
    energy = -math.pi**2 * HBAR_C * area / (720.0 * cube)
    force = -math.pi**2 * HBAR_C * area / (240.0 * quartic)
    if math.isinf(energy) or math.isinf(force):
        raise DomainError(f"area too large: A = {area} m^2, E or F at L = {L} m overflows")
    return energy, force


def coulomb_energy(R: float, L: float) -> float:
    """Coulomb repulsion e^2/(4 pi eps0 (2R + L)) of two unit charges whose
    centers sit one radius behind each plate face.  A non-finite R or L, or a
    denominator 4 pi eps0 (2R + L) that is not a normal double, raises
    DomainError."""
    if not 0.0 < R < math.inf:
        raise DomainError(f"radius must be positive and finite, got {R}")
    if not 0.0 <= L < math.inf:
        raise DomainError(f"separation must be non-negative and finite, got {L}")
    denominator = 4.0 * math.pi * EPS_0 * (2.0 * R + L)
    if not sys.float_info.min <= denominator < math.inf:
        raise DomainError(
            f"radius and separation out of range: R = {R} m, L = {L} m, "
            f"4 pi eps0 (2R + L) is not a normal double")
    return E_CHARGE**2 / denominator


# With x = L/R the balance condition reduces to x^3 - D x - 2 D = 0, the
# depressed cubic t^3 + p t + q with p = -D, q = -2D.  D is a constant, about
# 5.9 < 27, so the discriminant (q/2)^2 + (p/3)^3 is positive, Cardano's
# single real root applies, and both radicands D +- s are positive.
_D = math.pi**4 * EPS_0 * HBAR_C / (180.0 * E_CHARGE**2)
_S = math.sqrt(_D * _D - _D**3 / 27.0)
_X_TILDE = (_D + _S) ** (1.0 / 3.0) + (_D - _S) ** (1.0 / 3.0)
_RESIDUAL = _X_TILDE**3 - _D * _X_TILDE - 2.0 * _D


def equilibrium_distance(R: float) -> EquilibriumResult:
    """Separation at which Casimir attraction balances Coulomb repulsion.

    D = pi^4 eps0 hbar c/(180 e^2) does not depend on R, hence neither does
    x = L_eq/R, the largest positive root of x^3 - D x - 2 D = 0 (Cardano's
    closed form; the test suite checks it against an independent bisection).
    """
    if not R > 0.0:
        raise DomainError(f"radius must be positive, got {R}")
    if R < sys.float_info.min:
        # a subnormal R carries too few significant bits for x R
        raise DomainError(f"radius too small: R = {R} m is subnormal")
    L_eq = _X_TILDE * R
    if L_eq == math.inf:
        raise DomainError(f"radius too large: R = {R} m, L_eq = x_tilde R overflows")
    return EquilibriumResult(_D, _X_TILDE, L_eq, _RESIDUAL)


def yukawa_quantities(omega_ep: float, mu_ep: float) -> YukawaQuantities:
    """Meson rest energy, its range, and the screening wavevector they share,
    at the state (omega_ep, mu_ep) of a PlasmaState.

    The rest energy 2 hbar sqrt(mu_ep) omega_ep of the effective exchange
    boson is twice the screening scale: the Yukawa range of the
    zero-frequency interaction is hbar c/(2 hbar c kappa) = 1/(2 kappa).
    screening_wavevector checks mu_ep >= 1 and omega_ep.
    """
    kappa = screening_wavevector(omega_ep, mu_ep)
    mass = 2.0 * HBAR * math.sqrt(mu_ep) * omega_ep
    if not mass > 0.0:
        raise DomainError(f"mass energy must be positive, got {mass}")
    return YukawaQuantities(mass, HBAR_C / mass, kappa)


# the one wavevector ratio q/q_F at which plasmon_linewidth is evaluated
Q_RATIO = 0.1


def plasmon_linewidth(n: float) -> PlasmonLinewidth:
    """Plasmon energy width from electron-electron collisions at density n
    and wavevector ratio q/q_F = Q_RATIO (see PlasmonLinewidth).

    The width is finite wherever plasma_frequency(n) is: eps_F r^3 grows
    only as n^(1/6), to about 1.6e27 J at the largest n.  A negative bracket
    is returned as it is; the linewidth subcommand reports it as
    bracket_negative.
    """
    if not n > 0.0:
        raise DomainError(f"density must be positive, got {n}")
    if n * E_CHARGE**2 < sys.float_info.min:  # plasma_frequency(n) would call n rho
        raise DomainError(f"density too small: n = {n} 1/m^3, n e^2 underflows")
    q_f = (3.0 * math.pi**2 * n) ** (1.0 / 3.0)
    eps_f = HBAR**2 * q_f**2 / (2.0 * M_E)
    r = HBAR * plasma_frequency(n) / (2.0 * eps_f)
    bracket = 10.0 * math.log(2.0) + 2.0 - 4.5 * r
    width = 6.0 * math.pi / 5.0 * eps_f * Q_RATIO**2 * r**3 * bracket
    return PlasmonLinewidth(eps_f, q_f, r, bracket, width)
