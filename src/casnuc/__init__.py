"""casnuc: screened Casimir interactions across a nuclear-scale pair plasma.

A thermal electron-positron gas forms between closely spaced conducting
surfaces once the confined vacuum energy is balanced against black-body
radiation.  This package evaluates the resulting plasma state, the
Lifshitz/Matsubara interaction free energy with its magnetic corrections,
the Casimir/Coulomb equilibrium separation, and the effective-meson
picture of the screened zero-frequency term.

Each name is imported from the one module that defines it: plasma, lifshitz,
nuclear, constants, units, errors, svgplot or cli.
"""

from ._version import __version__
