"""The two presentation units, MeV and fm.

Internally everything is SI; MeV and fm only appear at presentation
boundaries, as energy_J / J_PER_MEV and length_m / M_PER_FM, and a length
given in fm enters through fm_to_m.
"""

from __future__ import annotations

from .constants import E_CHARGE
from .errors import DomainError

J_PER_MEV = E_CHARGE * 1e6  # joules per MeV
M_PER_FM = 1e-15            # metres per fm


def fm_to_m(value_fm: float, quantity: str, name: str) -> float:
    """value_fm [fm] in metres; a positive value below about 2.5e-309 fm,
    which underflows to 0 m, raises DomainError naming it in fm."""
    value = value_fm * M_PER_FM
    if value == 0.0 and value_fm > 0.0:
        raise DomainError(f"{quantity} too small: {name} = {value_fm} fm underflows to 0 m")
    return value
