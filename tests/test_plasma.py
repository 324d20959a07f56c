import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from casnuc import DomainError, plasma_state_from_distance
from casnuc.constants import E_CHARGE, EPS_0, K_B, M_E, MU_0, MU_B
from casnuc.plasma import (
    OMEGA_MU_DEFAULT,
    Y_SWITCH,
    PermeabilityModel,
    density_from_distance,
    distance_closed_forms,
    lande_g,
    langevin,
    pair_density,
    pair_permeability_dynamic,
    pair_permeability_in_field,
    pair_permeability_static,
    plasma_frequency,
    spin_susceptibility,
    state_assumptions,
    temperature_from_distance,
    temperature_from_force,
)
from casnuc.nuclear import ideal_casimir

# plate separations in metres, spanning the regime of interest
separations = st.floats(min_value=1e-16, max_value=1e-13)

# five reference separations with 2-s.f. published state values
REFERENCE_STATES = {
    1.0: (8.70e11, 2.0e43, 2.5e23, 360.8),
    1.5: (5.80e11, 5.9e42, 1.4e23, 160.9),
    2.0: (4.35e11, 2.5e42, 8.9e22, 91.0),
    2.6: (3.36e11, 1.140e42, 6.02e22, 54.2),
    3.0: (2.90e11, 7.4e41, 4.9e22, 41.0),
}


class TestTemperature:
    def test_frozen_1fm(self):
        assert temperature_from_distance(1e-15) == pytest.approx(
            869967986857.5667, rel=1e-12
        )

    def test_reference_values(self):
        assert temperature_from_distance(1e-15) == pytest.approx(8.70e11, rel=0.005)
        assert temperature_from_distance(2e-15) == pytest.approx(4.35e11, rel=0.005)

    @given(L=separations)
    def test_halving(self, L):
        assert temperature_from_distance(2 * L) == pytest.approx(
            temperature_from_distance(L) / 2.0, rel=1e-12
        )

    @pytest.mark.parametrize("L", [0.0, -1e-15])
    def test_domain(self, L):
        with pytest.raises(DomainError):
            temperature_from_distance(L)


class TestTemperatureFromForce:
    def test_matches_distance_route(self):
        # the pressure generated by ideal mirrors at L must map back to the
        # same balance temperature as the distance formula
        L = 1e-15
        _, force = ideal_casimir(L, 1.0)
        assert temperature_from_force(abs(force)) == pytest.approx(
            temperature_from_distance(L), rel=1e-12
        )

    def test_quartic_root_scaling(self):
        T1 = temperature_from_force(1e20)
        assert temperature_from_force(16e20) == pytest.approx(2 * T1, rel=1e-12)

    def test_small_force_small_temperature(self):
        assert temperature_from_force(1e-30) < 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            temperature_from_force(0.0)


class TestPairDensity:
    def test_reference_values(self):
        assert pair_density(8.70e11) == pytest.approx(2e43, rel=0.05)
        assert pair_density(2.90e11) == pytest.approx(7.4e41, rel=0.05)

    @given(T=st.floats(min_value=1e9, max_value=1e14))
    def test_cubic_scaling(self, T):
        assert pair_density(2 * T) == pytest.approx(8 * pair_density(T), rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            pair_density(0.0)


class TestDensityFromDistance:
    def test_coefficient(self):
        L = 1e-15
        coeff = density_from_distance(L) * L**3
        assert coeff == pytest.approx(0.0200, abs=0.0002)
        assert coeff == pytest.approx(0.020036211534525637, rel=1e-12)

    def test_reference_values(self):
        assert density_from_distance(1e-15) == pytest.approx(2.0e43, rel=0.05)
        assert density_from_distance(1.5e-15) == pytest.approx(5.9e42, rel=0.05)

    @given(L=separations)
    def test_composition_identity(self, L):
        composed = pair_density(temperature_from_distance(L))
        assert density_from_distance(L) == pytest.approx(composed, rel=1e-12)


class TestPlasmaFrequency:
    def test_reference_values(self):
        assert plasma_frequency(2e43) == pytest.approx(2.5e23, rel=0.05)
        assert plasma_frequency(7.4e41) == pytest.approx(4.9e22, rel=0.05)

    @given(rho=st.floats(min_value=1e30, max_value=1e45))
    def test_sqrt_scaling(self, rho):
        assert plasma_frequency(4 * rho) == pytest.approx(
            2 * plasma_frequency(rho), rel=1e-12
        )

    def test_zero_maps_to_zero(self):
        assert plasma_frequency(0.0) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            plasma_frequency(-1.0)


class TestLangevin:
    def test_zero(self):
        assert langevin(0.0) == 0.0

    def test_saturation(self):
        # true L(50) exceeds 0.98 by ~4e-44, below double resolution, so the
        # float boundary is inclusive
        assert langevin(50.0) >= 0.98
        assert langevin(50.0) == 1.0 - 1.0 / 50.0
        assert langevin(100.0) > 0.98
        assert langevin(1e6) == pytest.approx(1.0, abs=1e-5)
        assert langevin(float("inf")) == 1.0
        assert langevin(float("-inf")) == -1.0

    def test_unit_argument(self):
        assert langevin(1.0) == pytest.approx(0.313035, abs=1e-6)

    def test_branch_continuity(self):
        # series and direct evaluations must agree where the branch switches
        y = Y_SWITCH
        series = y / 3.0 - y**3 / 45.0 + 2.0 * y**5 / 945.0
        direct = 1.0 / math.tanh(y) - 1.0 / y
        assert abs(langevin(y) - series) < 1e-12
        assert abs(langevin(y) - direct) < 1e-12

    def test_saturation_branch_continuity(self):
        # the coth term is 1 to double precision past the handoff point, so
        # both evaluations agree at the boundary itself
        u = math.expm1(40.0)
        direct = (u * 20.0 - (u - 40.0)) / (u * 20.0)
        assert direct == langevin(20.0)

    @given(y=st.floats(min_value=1e-9, max_value=9e-5))
    def test_oddness_series_branch(self, y):
        assert langevin(-y) == -langevin(y)

    @given(y=st.floats(min_value=1e-4, max_value=30.0))
    def test_oddness_direct_branch(self, y):
        # the direct branch evaluates at |y| and restores the sign, so the
        # 1e-15 oddness budget is met exactly
        assert langevin(-y) == -langevin(y)

    @given(y=st.floats(min_value=-100.0, max_value=100.0))
    def test_bounded(self, y):
        assert abs(langevin(y)) < 1.0

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            langevin(float("nan"))


class TestLandeG:
    def test_electron(self):
        assert lande_g(0.5, 0.0, 0.5) == pytest.approx(2.0, rel=1e-15)

    @pytest.mark.parametrize("J", [0.5, 1.0, 1.5, 2.0])
    def test_pure_orbital(self, J):
        assert lande_g(0.0, J, J) == pytest.approx(1.0, rel=1e-15)

    def test_mixed(self):
        assert lande_g(0.5, 1.0, 1.5) == pytest.approx(4.0 / 3.0, rel=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            lande_g(0.5, 0.0, 0.0)


class TestSpinSusceptibility:
    def test_electron_reduction(self):
        # mu_bar = g mu_B sqrt(J(J+1)) with g = 2, J = 1/2 collapses the
        # quantum form to mu0 N mu_B^2/(k_B T)
        N, T = 1e43, 8.7e11
        mu_bar = 2.0 * MU_B * math.sqrt(0.5 * 1.5)
        expected = MU_0 * N * MU_B**2 / (K_B * T)
        assert spin_susceptibility(N, mu_bar, T) == pytest.approx(expected, rel=1e-14)

    def test_vacuum(self):
        assert spin_susceptibility(0.0, MU_B, 1e11) == 0.0

    @given(T=st.floats(min_value=1e8, max_value=1e14))
    def test_curie_decay(self, T):
        assert spin_susceptibility(1e40, MU_B, 2 * T) == pytest.approx(
            spin_susceptibility(1e40, MU_B, T) / 2.0, rel=1e-12
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            spin_susceptibility(1e40, MU_B, 0.0)


class TestStaticPermeability:
    def test_1fm_state(self):
        assert pair_permeability_static(2.0e43, 8.70e11) == pytest.approx(360.8, rel=0.02)

    def test_3fm_state(self):
        s = plasma_state_from_distance(3e-15)
        assert s.mu_ep == pytest.approx(41.0, rel=0.02)

    def test_vacuum(self):
        assert pair_permeability_static(0.0, 1e11) == 1.0

    def test_literal_convention_is_half(self):
        rho, T = 2e43, 8.7e11
        chi_table = pair_permeability_static(rho, T, "table_consistent") - 1.0
        chi_literal = pair_permeability_static(rho, T, "equation_literal") - 1.0
        assert chi_literal == pytest.approx(chi_table / 2.0, rel=1e-15)

    def test_unknown_convention(self):
        with pytest.raises(DomainError):
            pair_permeability_static(2e43, 8.7e11, "majority_vote")


class TestDynamicPermeability:
    def test_zero_frequency_reduction(self):
        rho, T = 2e43, 8.7e11
        assert pair_permeability_dynamic(0.0, rho, T) == pair_permeability_static(rho, T)

    def test_first_matsubara_negligible(self):
        # at the first Matsubara frequency the static response has fully
        # rolled off, justifying mu = 1 in every finite-frequency term
        T = 8.70e11
        xi1 = 2.0 * math.pi * K_B * T / 1.054571817e-34
        assert xi1 == pytest.approx(7.2e23, rel=0.02)
        mu = pair_permeability_dynamic(xi1, 2e43, T, OMEGA_MU_DEFAULT)
        assert mu - 1.0 < 1e-20

    def test_half_width_point(self):
        rho, T = 2e43, 8.7e11
        chi0 = pair_permeability_static(rho, T) - 1.0
        mu = pair_permeability_dynamic(OMEGA_MU_DEFAULT, rho, T, OMEGA_MU_DEFAULT)
        assert mu - 1.0 == pytest.approx(chi0 / 2.0, rel=1e-12)

    def test_strictly_decreasing(self):
        rho, T = 2e43, 8.7e11
        xis = [0.0, 1e9, 1e10, 1e11, 1e12]
        mus = [pair_permeability_dynamic(x, rho, T) for x in xis]
        assert all(a > b for a, b in zip(mus, mus[1:]))


class TestFieldPermeability:
    N, T = 1e43, 8.7e11

    def _field_for_y(self, y):
        return y * K_B * self.T / (MU_B * MU_0)

    def test_small_y_matches_zero_field(self):
        H = self._field_for_y(1e-6)
        zero_field = 1.0 + 2.0 * MU_0 * self.N * MU_B**2 / (K_B * self.T)
        assert pair_permeability_in_field(H, self.N, MU_B, self.T) == pytest.approx(
            zero_field, rel=1e-10
        )

    def test_saturation_suppression(self):
        H = self._field_for_y(50.0)
        chi0 = 2.0 * MU_0 * self.N * MU_B**2 / (K_B * self.T)
        chi_H = pair_permeability_in_field(H, self.N, MU_B, self.T) - 1.0
        assert chi_H < 0.07 * chi0

    def test_high_field_limit(self):
        # chi(H)/chi0 = 3 L(y)/y, so saturation leaves 3/y of the zero-field
        # susceptibility; drive y high enough for mu -> 1 in absolute terms
        chi0 = 2.0 * MU_0 * self.N * MU_B**2 / (K_B * self.T)
        H = self._field_for_y(1e6)
        chi = pair_permeability_in_field(H, self.N, MU_B, self.T) - 1.0
        assert chi / chi0 == pytest.approx(3e-6, rel=1e-3)
        H = self._field_for_y(1e12)
        assert pair_permeability_in_field(H, self.N, MU_B, self.T) - 1.0 < 1e-6

    def test_domain(self):
        with pytest.raises(DomainError):
            pair_permeability_in_field(0.0, self.N, MU_B, self.T)


class TestPermeabilityModel:
    def test_bad_kind(self):
        with pytest.raises(DomainError):
            PermeabilityModel(kind="astrology")

    def test_bad_convention(self):
        with pytest.raises(DomainError):
            PermeabilityModel(convention="consensus")

    def test_dynamic_needs_frequency(self):
        with pytest.raises(DomainError):
            PermeabilityModel(kind="dynamic", omega_mu=0.0)

    def test_field_needs_nonnegative_h(self):
        with pytest.raises(DomainError):
            PermeabilityModel(kind="field_dependent", H=-1.0)

    def test_field_needs_positive_h(self):
        with pytest.raises(DomainError):
            PermeabilityModel.in_field(0.0)

    def test_unity_static_mu(self):
        assert PermeabilityModel.unity().static_mu(2e43, 8.7e11) == 1.0


class TestStateFromDistance:
    @pytest.mark.parametrize("L_fm,expected", sorted(REFERENCE_STATES.items()))
    def test_reference_rows(self, L_fm, expected):
        T_ref, rho_ref, omega_ref, mu_ref = expected
        s = plasma_state_from_distance(L_fm * 1e-15)
        assert s.T == pytest.approx(T_ref, rel=0.005)
        assert s.rho == pytest.approx(rho_ref, rel=0.05)
        assert s.omega_ep == pytest.approx(omega_ref, rel=0.05)
        assert s.mu_ep == pytest.approx(mu_ref, rel=0.02)

    def test_unity_model(self):
        s = plasma_state_from_distance(1e-15, PermeabilityModel.unity())
        assert s.mu_ep == 1.0
        assert s.T == pytest.approx(8.70e11, rel=0.005)

    @given(L=separations)
    def test_plasma_frequency_invariant(self, L):
        s = plasma_state_from_distance(L)
        assert s.omega_ep**2 == pytest.approx(
            s.rho * E_CHARGE**2 / (EPS_0 * M_E), rel=1e-12
        )

    def test_monotone_decreasing_in_separation(self):
        grid = [(1.0 + 0.05 * i) * 1e-15 for i in range(41)]
        states = [plasma_state_from_distance(L) for L in grid]
        for a, b in zip(states, states[1:]):
            assert a.T > b.T
            assert a.rho > b.rho
            assert a.omega_ep > b.omega_ep
            assert a.mu_ep > b.mu_ep


class TestClosedForms:
    def test_matches_composed_pipeline(self):
        # 25-point log grid across three decades
        for i in range(25):
            L = 0.1e-15 * (1000.0) ** (i / 24)
            closed = distance_closed_forms(L)
            s = plasma_state_from_distance(L)
            assert closed["T_K"] == pytest.approx(s.T, rel=1e-12)
            assert closed["rho_m3"] == pytest.approx(s.rho, rel=1e-12)
            assert closed["omega_ep_rad_s"] == pytest.approx(s.omega_ep, rel=1e-12)
            assert closed["mu_ep"] == pytest.approx(s.mu_ep, rel=1e-12)


def test_assumption_metadata_reports_relativistic_regime():
    s = plasma_state_from_distance(1e-15)
    meta = state_assumptions(s)
    # at nuclear separations the gas is deep in the relativistic regime
    assert meta["kT_over_me_c2"] > 100.0
