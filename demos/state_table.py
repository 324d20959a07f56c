"""Print the plasma state over the separations of interest.

For each separation the balance temperature, pair density, plasma frequency,
and static spin permeability are rebuilt from scratch, then the closed-form
distance expressions are checked against that pipeline on a wide log grid.
"""

import math

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

    s = plasma_state_from_distance(1e-15)
    notes = state_assumptions(s)
    print()
    print(f"kT/(m_e c^2) at 1 fm: {notes['kT_over_me_c2']:.1f} "
          f"({notes['relativistic_gas']})")

    # closed forms vs composed pipeline, worst relative deviation
    worst = 0.0
    for i in range(25):
        L = 0.1e-15 * (1000.0) ** (i / 24.0)
        closed = distance_closed_forms(L)
        s = plasma_state_from_distance(L)
        composed = {"T_K": s.T, "rho_m3": s.rho,
                    "omega_ep_rad_s": s.omega_ep, "mu_ep": s.mu_ep}
        for key, value in closed.items():
            worst = max(worst, abs(value - composed[key]) / abs(composed[key]))
    print(f"closed-form vs composed pipeline, worst relative deviation: {worst:.2e}")

    rho_l3 = plasma_state_from_distance(1e-15).rho * (1e-15) ** 3
    print(f"dimensionless density rho L^3 = {rho_l3:.6f} "
          f"(3^(1/4) zeta(3)/(8 pi^2) = {3**0.25 * 1.2020569031595943 / (8 * math.pi**2):.6f})")


if __name__ == "__main__":
    main()
