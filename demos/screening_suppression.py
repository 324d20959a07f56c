"""Show how plasma screening suppresses the zero-frequency attraction.

The exact series evaluation is compared against independent adaptive
quadrature over a grid of screening strengths, then against its own
large-screening asymptote, and finally the magnetic enhancement of the
screening wavevector is applied at the physical state.  The quadrature
needs mpmath, which casnuc itself does not.
"""

import math

from casnuc.constants import K_B
from casnuc.lifshitz import (
    DEFAULT_PLATE_AREA,
    screening_wavevector,
    zero_freq_asymptote,
    zero_freq_exact,
)
from casnuc.plasma import PermeabilityModel, plasma_state_from_distance
from casnuc.units import J_PER_MEV, M_PER_FM


def pair_energy_mev(f_per_area: float) -> float:
    return f_per_area * DEFAULT_PLATE_AREA / J_PER_MEV


def main() -> None:
    import mpmath as mp

    def quadrature(kappa: float, L: float, T: float) -> float:
        # (k_B T / 8 pi L^2) int_a^(a+60) u ln(1 - e^-u) du, a = 2 kappa L
        a = 2.0 * kappa * L
        with mp.workdps(25):
            value = mp.quad(lambda u: u * mp.log1p(-mp.exp(-u)), [a, a + 60.0])
        return K_B * T / (8.0 * math.pi * L * L) * float(value)

    L = M_PER_FM
    state = plasma_state_from_distance(L, PermeabilityModel("unity"))
    T = state.T

    print("series vs quadrature, L = 1 fm:")
    print(f"{'kappa*L':>8} {'series [MeV]':>14} {'quadrature [MeV]':>17} {'rel dev':>10}")
    for kappa_L in (0.0, 0.1, 1.0, 5.0, 20.0):
        kappa = kappa_L / L
        series = zero_freq_exact(kappa, L, T)
        quad_value = quadrature(kappa, L, T)
        dev = abs(series - quad_value) / max(abs(series), abs(quad_value), 1e-300)
        print(f"{kappa_L:>8.1f} {pair_energy_mev(series):>14.6f} "
              f"{pair_energy_mev(quad_value):>17.6f} {dev:>10.1e}")

    print()
    print("asymptote quality (ratio to exact series):")
    for kappa_L in (1.0, 2.0, 5.0, 10.0):
        kappa = kappa_L / L
        ratio = zero_freq_asymptote(kappa, L, T) / zero_freq_exact(kappa, L, T)
        print(f"  kappa*L = {kappa_L:>5.1f}: {ratio:.6f}")

    print()
    print("magnetic screening at the 1 fm state:")
    for label, model in (("mu = 1", PermeabilityModel("unity")),
                         ("spin mu", PermeabilityModel("spin"))):
        s = plasma_state_from_distance(L, model)
        kappa = screening_wavevector(s.omega_ep, s.mu_ep)
        f0 = zero_freq_exact(kappa, L, s.T)
        print(f"  {label:>8}: kappa*L = {kappa * L:>7.3f}, "
              f"F0 per pair = {pair_energy_mev(f0):>12.4e} MeV")


if __name__ == "__main__":
    main()
