"""The two presentation units, MeV and fm.

Internally everything is SI; MeV and fm only appear at presentation
boundaries, as energy_J / J_PER_MEV and length_m / M_PER_FM.
"""

from __future__ import annotations

from .constants import E_CHARGE

J_PER_MEV = E_CHARGE * 1e6  # joules per MeV
M_PER_FM = 1e-15            # metres per fm
