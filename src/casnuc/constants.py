"""Physical constants used throughout the package.

CODATA-2018 values, hard coded at full published precision so that results
do not drift with the installed scipy version.  All values are SI.
"""

from __future__ import annotations

CONSTANTS_VINTAGE = "CODATA-2018"

HBAR = 1.054571817e-34        # reduced Planck constant [J s]
C = 299792458.0               # speed of light in vacuum [m/s] (exact)
K_B = 1.380649e-23            # Boltzmann constant [J/K] (exact)
E_CHARGE = 1.602176634e-19    # elementary charge [C] (exact)
M_E = 9.1093837015e-31        # electron mass [kg]
EPS_0 = 8.8541878128e-12      # vacuum permittivity [F/m]
MU_0 = 1.25663706212e-6       # vacuum permeability [N/A^2]
MU_B = 9.2740100783e-24       # Bohr magneton [J/T]
ZETA_3 = 1.2020569031595943   # Riemann zeta(3) (Apery's constant)

HBAR_C = HBAR * C             # [J m]

# black-body balance constant: k_B T = hbar c / (gamma L), gamma = 48^(1/4)
GAMMA_BALANCE = 48.0 ** 0.25

# default plate radius, the proton charge radius [m]; a modeling default,
# not a CODATA value
R_PROTON_DEFAULT = 0.84e-15
