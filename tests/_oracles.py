"""Independent oracles for the test suite (not collected by pytest).

scipy is a test-only dependency: the package itself imports nothing beyond
the standard library.
"""

from __future__ import annotations

import math

from scipy.integrate import quad

from casnuc.constants import K_B
from casnuc.errors import ConvergenceError, DomainError

_LN2 = math.log(2.0)


def _log1mexp(u: float) -> float:
    """log(1 - e^-u) for u > 0, stable at both ends."""
    if u < _LN2:
        return math.log(-math.expm1(-u))
    return math.log1p(-math.exp(-u))


def zero_freq_quadrature(kappa: float, L: float, T: float) -> float:
    """Zero-frequency free energy per area by adaptive quadrature.

    Independent oracle for zero_freq_exact: integrates
    (k_B T / 8 pi L^2) u ln(1 - e^-u) over u in [a, a + 60], a = 2 kappa L
    (the integrand is below 1e-24 of its peak beyond the cap).
    """
    if kappa < 0.0:
        raise DomainError(f"kappa must be non-negative, got {kappa}")
    if not L > 0.0 or not T > 0.0:
        raise DomainError(f"L and T must be positive, got L={L}, T={T}")
    a = 2.0 * kappa * L
    if a > 745.0:
        return 0.0

    def integrand(u: float) -> float:
        return u * _log1mexp(u) if u > 0.0 else 0.0

    value, abserr = quad(integrand, a, a + 60.0, epsabs=0.0, epsrel=1e-10, limit=200)
    if value != 0.0 and abserr > 1e-6 * abs(value):
        raise ConvergenceError(
            f"quadrature failed to converge: a={a}, value={value}, abserr={abserr}"
        )
    return K_B * T / (8.0 * math.pi * L * L) * value
