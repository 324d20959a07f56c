"""Inspect the Matsubara sum: term decay, the classical limit, and where the
finite-frequency asymptote takes over from the summed terms.

The scan fixes the separation and density and varies temperature through the
dimensionless xbar = 2 k_B T L / (hbar c), the knob the asymptote quality
depends on.
"""

import math

from casnuc.constants import HBAR_C, K_B, ZETA_3
from casnuc.lifshitz import (
    XBAR_CROSSOVER_10PCT,
    finite_freq_asymptote,
    finite_freq_sum,
    full_matsubara,
    matsubara_term,
)
from casnuc.plasma import PermeabilityModel, plasma_state_from_distance
from casnuc.units import M_PER_FM

L = M_PER_FM
UNITY = PermeabilityModel("unity")


def main() -> None:
    s = plasma_state_from_distance(L, UNITY)

    print("term-by-term decay at the 1 fm state (mu = 1):")
    total = 0.0
    for n in range(0, 9):
        term = matsubara_term(n, L, s.T, s.omega_ep, s.mu_ep)
        total += term
        print(f"  n = {n}: {term:>12.4e} J/m^2   running sum {total:>12.4e}")
    print(f"  full sum: {full_matsubara(L, s.T, s.omega_ep, s.mu_ep):>12.4e} J/m^2")
    print()

    # high-temperature limit: the n = 0 term dominates and the sum collapses
    # onto the unscreened classical value
    xbar = 5.0
    T_hot = xbar * HBAR_C / (2.0 * K_B * L)
    classical = -ZETA_3 * K_B * T_hot / (8.0 * math.pi * L**2)
    full = full_matsubara(L, T_hot, 0.0, 1.0)
    print(f"classical limit at xbar = {xbar}: "
          f"full/classical = {full / classical:.12f}")
    print()

    print("asymptote vs summed n > 0 terms (density pinned at the 1 fm value):")
    print(f"{'xbar':>6} {'rel deviation':>14}")
    for xbar in (0.5, 0.76, 1.0, 1.65, 2.0, 3.0, 5.0):
        T = xbar * HBAR_C / (2.0 * K_B * L)
        summed = finite_freq_sum([L], [T], [s.omega_ep])[0]
        asym = finite_freq_asymptote(L, T, s.omega_ep)
        print(f"{xbar:>6.2f} {abs(asym - summed) / abs(summed):>14.4f}")
    print(f"10% agreement first reached at xbar = {XBAR_CROSSOVER_10PCT}")


if __name__ == "__main__":
    main()
