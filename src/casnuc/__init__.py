"""casnuc: screened Casimir interactions across a nuclear-scale pair plasma.

A thermal electron-positron gas forms between closely spaced conducting
surfaces once the confined vacuum energy is balanced against black-body
radiation.  This package evaluates the resulting plasma state, the
Lifshitz/Matsubara interaction free energy with its magnetic corrections,
the Casimir/Coulomb equilibrium separation, and the effective-meson
picture of the screened zero-frequency term.
"""

from ._version import __version__
from .constants import CONSTANTS_VINTAGE
from .errors import (
    CasnucError,
    ConvergenceError,
    DomainError,
    NumericalError,
)
from .lifshitz import (
    DEFAULT_PLATE_AREA,
    FreeEnergyBreakdown,
    SweepRow,
    SweepSpec,
    distance_coupled_breakdown,
    finite_freq_asymptote,
    finite_freq_sum,
    full_matsubara,
    matsubara_term,
    screening_wavevector,
    sweep_rows,
    zero_freq_asymptote,
    zero_freq_exact,
)
from .nuclear import (
    EquilibriumResult,
    YukawaQuantities,
    blackbody_energy,
    coulomb_energy,
    equilibrium_distance,
    fermi_quantities,
    ideal_casimir,
    meson_mass,
    plasmon_linewidth,
    screening_length,
    yukawa_quantities,
)
from .plasma import (
    PermeabilityModel,
    PlasmaState,
    density_from_distance,
    distance_closed_forms,
    langevin,
    pair_density,
    pair_permeability_in_field,
    pair_permeability_static,
    plasma_frequency,
    plasma_state_from_distance,
    temperature_from_distance,
)

__all__ = [
    "__version__",
    "CONSTANTS_VINTAGE",
    "CasnucError",
    "ConvergenceError",
    "DomainError",
    "NumericalError",
    "PlasmaState",
    "PermeabilityModel",
    "temperature_from_distance",
    "pair_density",
    "density_from_distance",
    "plasma_frequency",
    "langevin",
    "pair_permeability_static",
    "pair_permeability_in_field",
    "plasma_state_from_distance",
    "distance_closed_forms",
    "FreeEnergyBreakdown",
    "DEFAULT_PLATE_AREA",
    "zero_freq_exact",
    "zero_freq_asymptote",
    "finite_freq_asymptote",
    "matsubara_term",
    "finite_freq_sum",
    "full_matsubara",
    "screening_wavevector",
    "distance_coupled_breakdown",
    "SweepSpec",
    "SweepRow",
    "sweep_rows",
    "EquilibriumResult",
    "YukawaQuantities",
    "ideal_casimir",
    "blackbody_energy",
    "coulomb_energy",
    "equilibrium_distance",
    "meson_mass",
    "screening_length",
    "yukawa_quantities",
    "fermi_quantities",
    "plasmon_linewidth",
]
