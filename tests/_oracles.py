"""Independent oracles for the test suite (not collected by pytest).

Every reference computation here uses the standard library or mpmath, a
test-only dependency: the package itself imports nothing beyond the
standard library.
"""

from __future__ import annotations

import math

import mpmath as mp

from casnuc.constants import HBAR_C, K_B, ZETA_3
from casnuc.errors import ConvergenceError, DomainError, NumericalError
from casnuc.nuclear import balance_cubic_residual


def zero_freq_quadrature(kappa: float, L: float, T: float) -> float:
    """Zero-frequency free energy per area by adaptive quadrature.

    Independent oracle for zero_freq_exact: integrates
    (k_B T / 8 pi L^2) u ln(1 - e^-u) over u in [a, a + 60], a = 2 kappa L
    (the integrand is below 1e-24 of its peak beyond the cap), with mpmath's
    tanh-sinh quadrature at 25 digits.  mp.quad's error target is absolute,
    so the integrand is scaled by e^a to order one.
    """
    if kappa < 0.0:
        raise DomainError(f"kappa must be non-negative, got {kappa}")
    if not L > 0.0 or not T > 0.0:
        raise DomainError(f"L and T must be positive, got L={L}, T={T}")
    a = 2.0 * kappa * L
    if a > 745.0:
        return 0.0
    with mp.workdps(25):
        scale = mp.exp(a)
        value, abserr = mp.quad(lambda u: scale * u * mp.log1p(-mp.exp(-u)), [a, a + 60.0],
                                error=True)
        value, abserr = value / scale, abserr / scale
    if value != 0.0 and abserr > 1e-6 * abs(value):
        raise ConvergenceError(
            f"quadrature failed to converge: a={a}, value={value}, abserr={abserr}"
        )
    return K_B * T / (8.0 * math.pi * L * L) * float(value)


def zero_freq_series(kappa: float, L: float, T: float, terms: int | None = None) -> float:
    """Zero-frequency free energy per area from its defining sum.

    Independent oracle for zero_freq_exact (stdlib only): math.fsum of
    -(k_B T / 8 pi L^2) e^(-j a) (a/j^2 + 1/j^3), a = 2 kappa L, over
    j <= terms.  By default j runs to 50/a + 1, which needs a >= 0.1: each
    neglected term is then below e^-50 of the first, so together they are
    below 1e-20 of the sum.  terms=1 gives the large-screening asymptote.
    """
    if not L > 0.0 or not T > 0.0:
        raise DomainError(f"L and T must be positive, got L={L}, T={T}")
    a = 2.0 * kappa * L
    if terms is None:
        if not a >= 0.1:
            raise DomainError(f"the summed series needs a = 2 kappa L >= 0.1, got {a}")
        terms = int(50.0 / a) + 1
    parts = [math.exp(-j * a) * (a / j**2 + 1.0 / j**3) for j in range(1, terms + 1)]
    return -K_B * T / (8.0 * math.pi * L * L) * math.fsum(parts)


def pair_density(T: float) -> float:
    """Total e- + e+ number density of the thermal pair gas at temperature T.

    Independent oracle for plasma.density_from_distance, which is this
    density at the balance temperature written in L alone:
    rho = (3 zeta(3)/pi^2) (k_B T)^3 / (hbar c)^3, the relativistic form,
    valid for k_B T >> m_e c^2.
    """
    if not T > 0.0:
        raise DomainError(f"temperature must be positive, got {T}")
    try:
        cube = (K_B * T / HBAR_C) ** 3
    except OverflowError:
        raise DomainError(f"temperature too large: T = {T} K, T^3 overflows") from None
    return 3.0 * ZETA_3 / math.pi**2 * cube


def blackbody_energy(T: float, volume: float) -> float:
    """Black-body photon energy pi^2 (k_B T)^4 V / (15 (hbar c)^3).

    Independent oracle for the balance temperature
    plasma.temperature_from_distance: at it, this energy in the gap volume
    equals the magnitude of the ideal Casimir energy of the plates.
    """
    return math.pi**2 / 15.0 * (K_B * T) ** 4 / HBAR_C**3 * volume


def balance_cubic_bisection(D: float) -> float:
    """Largest positive root of x^3 - D x - 2 D = 0 by bisection.

    Independent oracle for nuclear.solve_balance_cubic: doubles an upper
    bracket from 1 until the residual turns positive, then halves [0, hi]
    until the midpoint stops moving.
    """
    if not D > 0.0:
        raise DomainError(f"balance constant must be positive, got {D}")
    lo, hi = 0.0, 1.0
    for _ in range(200):
        if balance_cubic_residual(hi, D) > 0.0:
            break
        hi *= 2.0
    else:
        raise NumericalError(f"failed to bracket the cubic root for D={D}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if balance_cubic_residual(mid, D) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def matsubara_j_sum(b: float) -> float:
    """sum_{n>=1} S(b n) at zero density, summed over j first.

    Independent oracle for lifshitz.finite_freq_sum at rho = 0: with
    S(a) = sum_j e^(-j a) (a/j^2 + 1/j^3) the n-sums are geometric, leaving
    sum_j [b e^(-j b)/(j^2 (1 - e^(-j b))^2) + 1/(j^3 (e^(j b) - 1))],
    which mpmath's nsum extrapolates (30 digits).
    """
    with mp.workdps(30):
        b = mp.mpf(b)
        value = mp.nsum(lambda j: b * mp.exp(-j * b) / (j**2 * mp.expm1(-j * b) ** 2)
                        + 1 / (j**3 * mp.expm1(j * b)), [1, mp.inf])
    return float(value)


def matsubara_sum_mpmath(b: float, nu: float, head: int = 40, order: int = 6) -> float:
    """sum_{n>=1} S(b sqrt(n^2 + nu^2)) with mpmath (20 digits).

    Independent oracle for lifshitz.finite_freq_sum at a finite density
    (b = 2 L xi_1/c, nu = omega_ep/xi_1): the first `head` terms directly,
    the rest by the Euler-Maclaurin formula with the integral from mp.quad
    and the derivatives from mp.taylor, both numerical, in place of the
    closed forms.  mpmath's nsum extrapolation is 0.999 off at b = 6e-6 and
    its own Euler-Maclaurin method takes 10-80 s a sum, hence this one.
    """
    with mp.workdps(20):
        b, nu = mp.mpf(b), mp.mpf(nu)

        def f(x):
            a = b * mp.sqrt(x * x + nu * nu)
            z = mp.exp(-a)
            return a * mp.polylog(2, z) + mp.polylog(3, z)

        total = mp.fsum(f(n) for n in range(1, head + 1)) - f(head) / 2
        total += mp.quad(f, [head, 2 * head, 10 * head, mp.inf])
        derivatives = mp.taylor(f, head, 2 * order - 1)
        for k in range(1, order + 1):
            total -= mp.bernoulli(2 * k) / (2 * k) * derivatives[2 * k - 1]
    return float(total)
