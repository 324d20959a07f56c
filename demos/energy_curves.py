"""Render the interaction free energy curves as standalone SVG files.

Two charts: the zero-frequency term with and without the spin permeability,
and the component breakdown (zero-frequency, finite-frequency, total) of the
distance-coupled closed forms.  Output lands next to this script unless a
directory is given on the command line.
"""

import os
import sys

from casnuc.lifshitz import DEFAULT_PLATE_AREA, distance_coupled_breakdown
from casnuc.plasma import PermeabilityModel
from casnuc.svgplot import render_line_chart
from casnuc.units import J_PER_MEV, M_PER_FM

POINTS = 81
L_MIN_FM, L_MAX_FM = 1.0, 3.0


def grid() -> list[float]:
    step = (L_MAX_FM - L_MIN_FM) / (POINTS - 1)
    return [L_MIN_FM + i * step for i in range(POINTS)]


def main() -> None:
    out_dir = sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(os.path.abspath(__file__))
    unity = PermeabilityModel("unity")
    spin = PermeabilityModel("spin")
    xs = grid()

    def mev(f_per_area: float) -> float:
        return f_per_area * DEFAULT_PLATE_AREA / J_PER_MEV

    f0_unity, f0_spin = [], []
    zero, finite, total = [], [], []
    for L_fm in xs:
        L = L_fm * M_PER_FM
        b_u = distance_coupled_breakdown(L, unity)
        b_s = distance_coupled_breakdown(L, spin)
        f0_unity.append(mev(b_u.zero_freq))
        f0_spin.append(mev(b_s.zero_freq))
        zero.append(mev(b_u.zero_freq))
        finite.append(mev(b_u.finite_freq))
        total.append(mev(b_u.total))

    comparison = render_line_chart(
        [("mu = 1", xs, f0_unity), ("spin permeability", xs, f0_spin)],
        "L (fm)", "F0 per plate pair (MeV)",
        title="Zero-frequency term: magnetic screening suppression",
    )
    breakdown = render_line_chart(
        [("zero frequency", xs, zero), ("finite frequency", xs, finite),
         ("total", xs, total)],
        "L (fm)", "free energy per plate pair (MeV)",
        title="Free energy components, mu = 1",
    )

    for name, doc in (("f0_comparison.svg", comparison),
                      ("energy_breakdown.svg", breakdown)):
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(doc)
        print(f"wrote {path}")

    print(f"total at 1 fm (mu = 1): {total[0]:.4f} MeV")
    print(f"F0 suppression factor at 1 fm: {f0_spin[0] / f0_unity[0]:.2e}")


if __name__ == "__main__":
    main()
