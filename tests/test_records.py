"""The option and result records are immutable."""

import pytest

from casnuc import cli
from casnuc.lifshitz import distance_coupled_breakdown
from casnuc.nuclear import equilibrium_distance, plasmon_linewidth, yukawa_quantities
from casnuc.plasma import PermeabilityModel, plasma_state_from_distance

MODEL = PermeabilityModel()


def _yukawa():
    state = plasma_state_from_distance(1e-15)
    return yukawa_quantities(state.omega_ep, state.mu_ep)


RECORDS = {
    "_Opt": lambda: cli._SUBCOMMANDS["state"][1][0],
    "FreeEnergyBreakdown": lambda: distance_coupled_breakdown([1e-15], MODEL),
    "PlasmaState": lambda: plasma_state_from_distance(1e-15, MODEL),
    "PermeabilityModel": lambda: MODEL,
    "EquilibriumResult": lambda: equilibrium_distance(0.84e-15),
    "YukawaQuantities": _yukawa,
    "PlasmonLinewidth": lambda: plasmon_linewidth(1e43),
}


@pytest.mark.parametrize("name", RECORDS)
def test_attribute_assignment_raises(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], 0.0)
    with pytest.raises(AttributeError):
        record.extra = 0.0
