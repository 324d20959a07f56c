import math
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from casnuc.constants import HBAR_C
from casnuc.errors import DomainError
from casnuc.lifshitz import screening_wavevector
from casnuc.nuclear import (
    balance_cubic_residual,
    coulomb_energy,
    equilibrium_distance,
    fermi_quantities,
    ideal_casimir,
    linewidth_bracket,
    meson_mass,
    plasmon_linewidth,
    screening_length,
    solve_balance_cubic,
    yukawa_quantities,
)
from casnuc.plasma import (
    PermeabilityModel,
    density_from_distance,
    temperature_from_distance,
)
from casnuc.units import J_PER_MEV, M_PER_FM

from _oracles import balance_cubic_bisection, blackbody_energy

AREA = math.pi * (0.84e-15) ** 2

# the linewidth bracket 10 ln 2 + 2 - 4.5 r changes sign at this
# r = hbar omega_p/(2 eps_F)
LINEWIDTH_BRACKET_ZERO = (10.0 * math.log(2.0) + 2.0) / 4.5


class TestIdealCasimir:
    def test_frozen_energy_1fm(self):
        energy, force = ideal_casimir(1e-15, AREA)
        assert energy / J_PER_MEV == pytest.approx(
            -5.9960074498831935, rel=1e-12
        )
        assert energy < 0.0
        assert force < 0.0

    @given(
        L=st.floats(min_value=1e-16, max_value=1e-13),
        area=st.floats(min_value=1e-32, max_value=1e-28),
    )
    def test_force_is_thrice_energy_over_distance(self, L, area):
        energy, force = ideal_casimir(L, area)
        assert force * L == pytest.approx(3.0 * energy, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            ideal_casimir(0.0, AREA)
        with pytest.raises(DomainError):
            ideal_casimir(1e-15, -1.0)


class TestBlackbody:
    def test_zero_temperature(self):
        assert blackbody_energy(0.0, 1e-45) == 0.0

    def test_quartic_scaling(self):
        e1 = blackbody_energy(3e11, 1e-45)
        e2 = blackbody_energy(6e11, 1e-45)
        assert e2 == pytest.approx(16.0 * e1, rel=1e-12)

    @given(L=st.floats(min_value=1e-16, max_value=1e-13))
    def test_balance_against_plate_attraction(self, L):
        # the defining property of the balance temperature: photon-gas energy
        # in the gap volume equals the plate binding energy in magnitude
        T = temperature_from_distance(L)
        gap = blackbody_energy(T, AREA * L)
        plates = abs(ideal_casimir(L, AREA)[0])
        assert gap == pytest.approx(plates, rel=1e-12)


class TestCoulomb:
    def test_frozen_contact_value(self):
        value = coulomb_energy(0.84e-15, 0.0)
        assert value / J_PER_MEV == pytest.approx(
            0.8571217546681946, rel=1e-12
        )

    def test_decreasing_in_separation(self):
        values = [coulomb_energy(0.84e-15, L * 1e-15) for L in (0.0, 1.0, 2.0, 3.0)]
        for a, b in zip(values, values[1:]):
            assert 0.0 < b < a

    def test_domain(self):
        with pytest.raises(DomainError):
            coulomb_energy(0.0, 1e-15)
        with pytest.raises(DomainError):
            coulomb_energy(0.84e-15, -1e-15)


class TestBalanceCubic:
    @pytest.mark.parametrize("D", [5.9013556946663135, 26.5, 27.5, 30.0, 500.0])
    def test_cardano_matches_bisection(self, D):
        x_c = solve_balance_cubic(D)
        assert x_c == pytest.approx(balance_cubic_bisection(D), rel=1e-12)
        assert abs(balance_cubic_residual(x_c, D)) < 1e-9 * max(abs(x_c) ** 3, 1.0)

    @given(D=st.floats(min_value=0.1, max_value=1000.0))
    def test_root_agreement_property(self, D):
        assert solve_balance_cubic(D) == pytest.approx(balance_cubic_bisection(D), rel=1e-12)

    def test_root_is_positive_and_beyond_sqrt_D(self):
        # x^3 = D(x + 2) with D > 0 forces x > sqrt(D)
        for D in (0.5, 5.9, 40.0):
            x = solve_balance_cubic(D)
            assert x > math.sqrt(D)

    def test_domain(self):
        with pytest.raises(DomainError):
            solve_balance_cubic(0.0)


class TestEquilibrium:
    def test_frozen_solution(self):
        res = equilibrium_distance(0.84e-15)
        assert res.D == pytest.approx(5.9013556946663135, rel=1e-12)
        assert res.x_tilde == pytest.approx(3.1132704717010746, rel=1e-12)
        assert abs(res.residual) < 1e-12

    def test_matches_observed_spacing(self):
        res = equilibrium_distance(0.84e-15)
        assert res.L_eq == pytest.approx(2.6e-15, rel=0.02)
        assert res.L_eq == pytest.approx(res.x_tilde * 0.84e-15, rel=1e-15)

    def test_radius_scaling(self):
        # D is radius-independent, so L_eq is linear in R
        a = equilibrium_distance(0.5e-15)
        b = equilibrium_distance(1.0e-15)
        assert b.L_eq == pytest.approx(2.0 * a.L_eq, rel=1e-12)
        assert b.x_tilde == pytest.approx(a.x_tilde, rel=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            equilibrium_distance(0.0)

    def test_subnormal_radius(self):
        # x R would keep only the few bits of a subnormal R
        with pytest.raises(DomainError, match="radius too small"):
            equilibrium_distance(3e-324)
        with pytest.raises(DomainError, match="radius too small"):
            equilibrium_distance(sys.float_info.min / 2.0)
        res = equilibrium_distance(sys.float_info.min)
        assert res.L_eq == res.x_tilde * sys.float_info.min


class TestMesonMass:
    def test_frozen_values_1fm(self):
        rho = density_from_distance(1e-15)
        T = temperature_from_distance(1e-15)

        unity = meson_mass(rho, 1.0) / J_PER_MEV
        assert unity == pytest.approx(332.4260872027714, rel=1e-12)
        assert unity == pytest.approx(329.0, rel=0.03)

        mu = PermeabilityModel().static_mu(rho, T)
        magnetic = meson_mass(rho, mu) / J_PER_MEV
        assert magnetic == pytest.approx(6321.184956045245, rel=1e-12)
        assert magnetic == pytest.approx(6242.0, rel=0.03)

    @given(
        rho=st.floats(min_value=1e40, max_value=1e45),
        mu=st.floats(min_value=1.0, max_value=1e3),
    )
    def test_mass_is_twice_screening_scale(self, rho, mu):
        mass = meson_mass(rho, mu)
        assert mass == pytest.approx(
            2.0 * HBAR_C * screening_wavevector(rho, mu), rel=1e-12
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            meson_mass(-1.0, 1.0)
        with pytest.raises(DomainError):
            meson_mass(1e43, 0.5)


class TestScreeningLength:
    def test_pion_scale(self):
        length = screening_length(135.0 * J_PER_MEV)
        assert length / M_PER_FM == pytest.approx(
            1.4616813358399736, rel=1e-12
        )

    @given(E_MeV=st.floats(min_value=1.0, max_value=1e4))
    def test_round_trip(self, E_MeV):
        E = E_MeV * J_PER_MEV
        assert screening_length(E) * E == pytest.approx(HBAR_C, rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            screening_length(0.0)


class TestYukawaQuantities:
    def test_consistency(self):
        rho = density_from_distance(1e-15)
        T = temperature_from_distance(1e-15)
        mu = PermeabilityModel().static_mu(rho, T)
        q = yukawa_quantities(rho, mu)
        assert q.kappa_source == pytest.approx(screening_wavevector(rho, mu), rel=1e-15)
        assert q.meson_mass_energy == pytest.approx(
            2.0 * HBAR_C * q.kappa_source, rel=1e-14
        )
        # range of the mediated force: half the inverse screening wavevector
        assert q.screening_length == pytest.approx(
            HBAR_C / q.meson_mass_energy, rel=1e-14
        )


class TestFermiQuantities:
    def test_frozen_values(self):
        eps_F, q_F = fermi_quantities(1e43)
        assert q_F == pytest.approx(666510506892997.5, rel=1e-12)
        assert eps_F == pytest.approx(2.7117355236930515e-9, rel=1e-12)

    def test_wavevector_scaling(self):
        _, q1 = fermi_quantities(1e43)
        _, q8 = fermi_quantities(8e43)
        assert q8 == pytest.approx(2.0 * q1, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            fermi_quantities(0.0)


class TestPlasmonLinewidth:
    def test_frozen_value(self):
        assert plasmon_linewidth(1e43, 0.1) == pytest.approx(
            3.804633913045759e-17, rel=1e-12
        )

    def test_quadratic_in_wavevector_ratio(self):
        w1 = plasmon_linewidth(1e43, 0.05)
        w2 = plasmon_linewidth(1e43, 0.10)
        assert w2 == pytest.approx(4.0 * w1, rel=1e-12)

    def test_bracket_zero_constant(self):
        # r scales as n^(-1/6), so the density n0 = n (r/r0)^6 has r = r0:
        # the bracket vanishes there
        r, _ = linewidth_bracket(1e26)
        r0, bracket0 = linewidth_bracket(1e26 * (r / LINEWIDTH_BRACKET_ZERO) ** 6)
        assert r0 == pytest.approx(LINEWIDTH_BRACKET_ZERO, rel=1e-14)
        assert abs(bracket0) < 1e-13
        r, bracket = linewidth_bracket(1e43)
        assert r < LINEWIDTH_BRACKET_ZERO
        assert bracket > 0.0

    def test_negative_bracket_warns(self):
        # dilute gas: the plasmon energy exceeds the particle-hole band and
        # the leading-order damping formula loses validity
        r, bracket = linewidth_bracket(1e26)
        assert r > LINEWIDTH_BRACKET_ZERO
        assert bracket < 0.0
        with pytest.warns(UserWarning):
            plasmon_linewidth(1e26, 0.1)

    def test_domain(self):
        with pytest.raises(DomainError):
            plasmon_linewidth(0.0, 0.1)
        with pytest.raises(DomainError):
            plasmon_linewidth(1e43, -0.1)

    def test_q_ratio_whose_square_overflows(self):
        with pytest.raises(DomainError, match=r"q_ratio too large: q_ratio = 1e\+200"):
            plasmon_linewidth(1e43, 1e200)
