"""Print the plasma state over the separations of interest.

For each separation the balance temperature, pair density, plasma frequency,
and static spin permeability are rebuilt from scratch, then the closed-form
distance expressions are checked against that pipeline on a wide log grid.
"""

import math

from casnuc.constants import ZETA_3
from casnuc.plasma import (
    distance_closed_forms,
    plasma_state_from_distance,
    state_assumptions,
)
from casnuc.units import M_PER_FM

GRID_FM = (1.0, 1.5, 2.0, 2.6, 3.0)


def main() -> None:
    print(f"{'L [fm]':>7} {'T [K]':>12} {'rho [1/m^3]':>13} "
          f"{'omega_ep [rad/s]':>17} {'mu_ep':>9}")
    for L_fm in GRID_FM:
        s = plasma_state_from_distance(L_fm * M_PER_FM)
        print(f"{L_fm:>7.2f} {s.T:>12.4e} {s.rho:>13.4e} "
              f"{s.omega_ep:>17.4e} {s.mu_ep:>9.2f}")

    s = plasma_state_from_distance(M_PER_FM)
    notes = state_assumptions(s)
    print()
    print(f"kT/(m_e c^2) at 1 fm: {notes['kT_over_me_c2']:.1f} "
          f"({notes['relativistic_gas']})")

    # closed forms vs composed pipeline, worst relative deviation
    worst = 0.0
    for i in range(25):
        L = 0.1 * 1000.0 ** (i / 24.0) * M_PER_FM
        closed, composed = distance_closed_forms(L), plasma_state_from_distance(L)
        for c, p in zip(closed[1:], composed[1:]):
            worst = max(worst, abs(c - p) / abs(p))
    print(f"closed-form vs composed pipeline, worst relative deviation: {worst:.2e}")

    rho_l3 = plasma_state_from_distance(M_PER_FM).rho * M_PER_FM**3
    print(f"dimensionless density rho L^3 = {rho_l3:.6f} "
          f"(3^(1/4) zeta(3)/(8 pi^2) = {3**0.25 * ZETA_3 / (8 * math.pi**2):.6f})")


if __name__ == "__main__":
    main()
