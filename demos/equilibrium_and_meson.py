"""Walk the nuclear-scale balance: attraction vs repulsion, then the
effective-boson reading of the screened interaction.

The equilibrium separation comes from the cubic the force balance reduces
to; the meson estimates come from the screening wavevector at 1 fm with and
without the spin permeability.
"""

from casnuc.constants import R_PROTON_DEFAULT
from casnuc.lifshitz import DEFAULT_PLATE_AREA
from casnuc.nuclear import (
    coulomb_energy,
    equilibrium_distance,
    ideal_casimir,
    plasmon_linewidth,
    yukawa_quantities,
)
from casnuc.plasma import PermeabilityModel, plasma_state_from_distance
from casnuc.units import J_PER_MEV, M_PER_FM


def main() -> None:
    res = equilibrium_distance(R_PROTON_DEFAULT)
    print(f"balance constant D = {res.D:.6f}")
    print(f"reduced root L/R   = {res.x_tilde:.6f}  (cubic residual {res.residual:.1e})")
    print(f"equilibrium L      = {res.L_eq / M_PER_FM:.4f} fm")
    print()

    # energy budget on both sides of the equilibrium
    print(f"{'L [fm]':>7} {'E_cas [MeV]':>12} {'E_coul [MeV]':>13}")
    for L_fm in (1.5, 2.0, res.x_tilde * R_PROTON_DEFAULT / M_PER_FM, 3.0, 3.5):
        L = L_fm * M_PER_FM
        e_cas, _ = ideal_casimir(L, DEFAULT_PLATE_AREA)
        e_coul = coulomb_energy(R_PROTON_DEFAULT, L)
        print(f"{L_fm:>7.3f} {e_cas / J_PER_MEV:>12.4f} "
              f"{e_coul / J_PER_MEV:>13.4f}")
    print()

    for label, model in (("mu = 1", PermeabilityModel("unity")),
                         ("spin mu", PermeabilityModel("spin"))):
        s = plasma_state_from_distance(M_PER_FM, model)
        yq = yukawa_quantities(s.omega_ep, s.mu_ep)
        print(f"{label:>8}: boson mass {yq.meson_mass_energy / J_PER_MEV:>8.1f} MeV, "
              f"range {yq.screening_length / M_PER_FM:.4f} fm")
    print()

    n = 0.5 * plasma_state_from_distance(M_PER_FM).rho  # one species carries half the pairs
    lw = plasmon_linewidth(n)
    print(f"plasmon damping at 1 fm (q = 0.1 q_F): "
          f"{lw.width / J_PER_MEV:.4f} MeV "
          f"(r = {lw.r:.3f}, bracket = {lw.bracket:.3f})")


if __name__ == "__main__":
    main()
