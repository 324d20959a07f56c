import math

import pytest

from casnuc.constants import (
    CONSTANTS_VINTAGE,
    C,
    E_CHARGE,
    EPS_0,
    GAMMA_BALANCE,
    HBAR,
    K_B,
    M_E,
    MU_0,
    MU_B,
    ZETA_3,
)


def test_published_values():
    assert HBAR == 1.054571817e-34
    assert C == 299792458.0
    assert K_B == 1.380649e-23
    assert E_CHARGE == 1.602176634e-19
    assert M_E == 9.1093837015e-31
    assert MU_B == 9.2740100783e-24
    assert abs(ZETA_3 - 1.2020569031595943) < 1e-15


def test_identities():
    # mu0 eps0 c^2 = 1 and mu_B = e hbar/(2 m_e), to 1e-9
    assert math.isclose(MU_0 * EPS_0 * C * C, 1.0, rel_tol=1e-9)
    assert math.isclose(MU_B, E_CHARGE * HBAR / (2.0 * M_E), rel_tol=1e-9)


def test_balance_constant():
    assert GAMMA_BALANCE == pytest.approx(48.0**0.25, rel=0, abs=0)
    assert math.isclose(GAMMA_BALANCE, 2.6321480259, rel_tol=1e-9)


def test_vintage_tag():
    assert CONSTANTS_VINTAGE == "CODATA-2018"
