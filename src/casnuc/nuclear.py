"""Nuclear-scale energy balance: ideal Casimir attraction vs Coulomb
repulsion, the resulting equilibrium separation, and the effective-meson
quantities carried by the screened zero-frequency interaction.

The plasmon linewidth has one evaluator, _plasmon_linewidth, which returns
the Fermi quantities, r, the bracket and the width together;
linewidth_bracket, plasmon_linewidth and the linewidth subcommand read
from it."""

from __future__ import annotations

import math
import sys
import warnings
from collections import namedtuple

from .constants import E_CHARGE, EPS_0, HBAR, HBAR_C, M_E
from .errors import DomainError
from .lifshitz import screening_wavevector
from .plasma import plasma_frequency


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


def ideal_casimir(L: float, area: float) -> tuple[float, float]:
    """Ideal-mirror Casimir energy and force for plate area A at separation L.

    E = -pi^2 hbar c A/(720 L^3), F = -pi^2 hbar c A/(240 L^4); both negative
    (attraction), F L = 3 E.
    """
    if not L > 0.0:
        raise DomainError(f"separation must be positive, got {L}")
    if not area > 0.0:
        raise DomainError(f"area must be positive, got {area}")
    energy = -math.pi**2 * HBAR_C * area / (720.0 * L**3)
    force = -math.pi**2 * HBAR_C * area / (240.0 * L**4)
    return energy, force


def coulomb_energy(R: float, L: float) -> float:
    """Coulomb repulsion e^2/(4 pi eps0 (2R + L)) of two unit charges whose
    centers sit one radius behind each plate face."""
    if not R > 0.0:
        raise DomainError(f"radius must be positive, got {R}")
    if L < 0.0:
        raise DomainError(f"separation must be non-negative, got {L}")
    return E_CHARGE**2 / (4.0 * math.pi * EPS_0 * (2.0 * R + L))


def _cbrt(v: float) -> float:
    # math.cbrt arrived in 3.11; the package supports 3.10
    return math.copysign(abs(v) ** (1.0 / 3.0), v)


def balance_cubic_residual(x: float, D: float) -> float:
    """Residual of the force-balance cubic x^3 - D x - 2 D."""
    return x**3 - D * x - 2.0 * D


def solve_balance_cubic(D: float) -> float:
    """Largest positive root of x^3 - D x - 2 D = 0 for D > 0, in closed form.

    Cardano's formula, switching to the trigonometric branch where the
    discriminant turns negative (D > 27, three real roots).  The test suite
    checks it against an independent bisection.
    """
    if not D > 0.0:
        raise DomainError(f"balance constant must be positive, got {D}")
    # depressed cubic t^3 + p t + q with p = -D, q = -2D
    disc = D * D - D**3 / 27.0  # (q/2)^2 + (p/3)^3
    if disc >= 0.0:
        s = math.sqrt(disc)
        return _cbrt(D + s) + _cbrt(D - s)
    # three real roots; k = 0 picks the largest
    return 2.0 * math.sqrt(D / 3.0) * math.cos(math.acos(math.sqrt(27.0 / D)) / 3.0)


def equilibrium_distance(R: float) -> EquilibriumResult:
    """Separation at which Casimir attraction balances Coulomb repulsion.

    With x = L/R the balance condition reduces to x^3 - D x - 2 D = 0,
    D = pi^4 eps0 hbar c/(180 e^2).  D is a constant (about 5.9, so
    Cardano's single-real-root branch applies), hence so is x = L_eq/R.
    """
    if not R > 0.0:
        raise DomainError(f"radius must be positive, got {R}")
    if R < sys.float_info.min:
        # a subnormal R carries too few significant bits for x R
        raise DomainError(f"radius too small: R = {R} m is subnormal")
    D = math.pi**4 * EPS_0 * HBAR_C / (180.0 * E_CHARGE**2)
    x = solve_balance_cubic(D)
    return EquilibriumResult(
        D=D, x_tilde=x, L_eq=x * R, residual=balance_cubic_residual(x, D)
    )


def meson_mass(rho: float, mu_ep: float) -> float:
    """Rest energy 2 hbar sqrt(mu_ep) omega_ep of the effective exchange boson.

    Twice the screening scale: the Yukawa range of the zero-frequency
    interaction is hbar c/(2 hbar c kappa) = 1/(2 kappa).
    """
    if rho < 0.0:
        raise DomainError(f"density must be non-negative, got {rho}")
    if mu_ep < 1.0:
        raise DomainError(f"mu_ep must be >= 1, got {mu_ep}")
    return 2.0 * HBAR * math.sqrt(mu_ep) * plasma_frequency(rho)


def screening_length(mass_energy: float) -> float:
    """Compton-style range hbar c / E of an exchange boson of rest energy E."""
    if not mass_energy > 0.0:
        raise DomainError(f"mass energy must be positive, got {mass_energy}")
    return HBAR_C / mass_energy


def yukawa_quantities(rho: float, mu_ep: float) -> YukawaQuantities:
    """Meson rest energy, its range, and the screening wavevector they share."""
    mass = meson_mass(rho, mu_ep)
    kappa = screening_wavevector(rho, mu_ep)
    return YukawaQuantities(
        meson_mass_energy=mass,
        screening_length=screening_length(mass),
        kappa_source=kappa,
    )


def fermi_quantities(n: float) -> tuple[float, float]:
    """(eps_F, q_F) of an ideal degenerate gas at number density n.

    q_F = (3 pi^2 n)^(1/3), eps_F = hbar^2 q_F^2/(2 m); nonrelativistic
    electron-mass dispersion is assumed throughout.
    """
    if not n > 0.0:
        raise DomainError(f"density must be positive, got {n}")
    q_f = (3.0 * math.pi**2 * n) ** (1.0 / 3.0)
    eps_f = HBAR**2 * q_f**2 / (2.0 * M_E)
    return eps_f, q_f


def _plasmon_linewidth(n: float, q_ratio: float) -> tuple[float, float, float, float, float]:
    # the one linewidth evaluator: (eps_F, q_F, r, bracket, width) at density
    # n, with r = hbar omega_p/(2 eps_F) and omega_p at that same n
    eps_f, q_f = fermi_quantities(n)
    r = HBAR * plasma_frequency(n) / (2.0 * eps_f)
    bracket = 10.0 * math.log(2.0) + 2.0 - 4.5 * r
    # both density checks come first, as the linewidth subcommand reports them
    if q_ratio < 0.0:
        raise DomainError(f"q_ratio must be non-negative, got {q_ratio}")
    try:
        q2 = q_ratio**2
    except OverflowError:
        raise DomainError(f"q_ratio too large: q_ratio = {q_ratio}, q_ratio^2 overflows") from None
    return eps_f, q_f, r, bracket, 6.0 * math.pi / 5.0 * eps_f * q2 * r**3 * bracket


def linewidth_bracket(n: float) -> tuple[float, float]:
    """(hbar omega_p/(2 eps_F), bracket) entering the plasmon linewidth.

    The bracket 10 ln 2 + 2 - 4.5 r goes negative for r > ~1.985, outside
    the regime the damping expression was built for.
    """
    return _plasmon_linewidth(n, 0.0)[2:4]


def plasmon_linewidth(n: float, q_ratio: float) -> float:
    """Plasmon energy width from electron-electron collisions.

    Delta E = (6 pi/5) eps_F (q/q_F)^2 r^3 (10 ln 2 + 2 - 4.5 r),
    r = hbar omega_p/(2 eps_F), with omega_p evaluated at the same density n
    the Fermi quantities use.  A negative bracket (r beyond ~1.985) is
    outside the expansion's validity and triggers a warning.
    """
    _, _, r, bracket, width = _plasmon_linewidth(n, q_ratio)
    if bracket < 0.0:
        warnings.warn(
            f"linewidth bracket negative (r={r:.4g}); expansion out of regime",
            stacklevel=2,
        )
    return width
