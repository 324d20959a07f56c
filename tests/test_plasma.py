import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from casnuc.constants import C, E_CHARGE, EPS_0, HBAR, HBAR_C, K_B, M_E, MU_0, MU_B, ZETA_3
from casnuc.errors import DomainError
from casnuc.plasma import (
    _SATURATION_DEPTH,
    PermeabilityModel,
    _saturation,
    density_from_distance,
    distance_closed_forms,
    plasma_frequency,
    plasma_state_from_distance,
    state_assumptions,
    temperature_from_distance,
)
from casnuc.nuclear import ideal_casimir

from _oracles import pair_density

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
        # the temperature at which black-body radiation balances the pressure
        # F/A of ideal mirrors at L, T = (5 hbar^3 c^3 (F/A)/(pi^2 k_B^4))^(1/4),
        # must be the distance formula's T
        L = 1e-15
        _, force = ideal_casimir(L, 1.0)
        T_force = (5.0 * HBAR**3 * C**3 * abs(force) / (math.pi**2 * K_B**4)) ** 0.25
        assert T_force == pytest.approx(temperature_from_distance(L), rel=1e-12)


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

    def test_overflow_names_the_temperature(self):
        # (k_B T/hbar c)^3 overflows above about 1.3e100 K; below, the bits hold
        with pytest.raises(DomainError, match="temperature too large"):
            pair_density(1e120)
        T = 1e100
        assert pair_density(T) == 3.0 * ZETA_3 / math.pi**2 * (K_B * T / HBAR_C) ** 3


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

    def test_separation_too_large(self):
        # L^3 overflows above about 5.6e102 m
        with pytest.raises(DomainError, match="separation too large"):
            density_from_distance(1e103)
        assert math.isfinite(density_from_distance(5e102))


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

    def test_underflow_edge(self):
        # rho e^2 leaves the normal doubles below about 8.7e-271 1/m^3
        with pytest.raises(DomainError, match="density too small"):
            plasma_frequency(1e-271)
        assert plasma_frequency(1e-270) > 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            plasma_frequency(-1.0)


class TestLangevin:
    """The field saturation s(y) = 3 L(y)/y, L(y) = coth(y) - 1/y."""

    def test_zero(self):
        assert _saturation(0.0) == 1.0
        assert _saturation(5e-324) == 1.0

    def test_saturation(self):
        # true L(50) exceeds 0.98 by ~4e-44, below double resolution, so the
        # float boundary is inclusive
        assert 50.0 * _saturation(50.0) / 3.0 >= 0.98
        assert _saturation(50.0) == 3.0 * (1.0 - 1.0 / 50.0) / 50.0
        assert 100.0 * _saturation(100.0) / 3.0 > 0.98
        assert 1e6 * _saturation(1e6) / 3.0 == pytest.approx(1.0, abs=1e-5)
        assert _saturation(float("inf")) == 0.0

    def test_unit_argument(self):
        # L(1) = 0.313035...
        assert _saturation(1.0) == pytest.approx(3.0 * 0.313035, abs=3e-6)

    def test_branch_continuity(self):
        # the continued fraction is cut after _SATURATION_DEPTH levels; just
        # below y = 20, where it converges slowest, twice the depth changes
        # nothing and the cut meets the large-y form; at small y it is the
        # Taylor series 1 - y^2/15 + 2 y^4/315
        y = math.nextafter(20.0, 0.0)
        x, t = y * y, 4.0 * _SATURATION_DEPTH + 3.0
        for k in range(2 * _SATURATION_DEPTH, 0, -1):
            t = 2.0 * k + 1.0 + x / t
        assert _saturation(y) == pytest.approx(3.0 / t, rel=1e-15)
        assert _saturation(y) == pytest.approx(_saturation(20.0), rel=1e-15)
        y = 1e-3
        assert _saturation(y) == pytest.approx(1.0 - y**2 / 15.0 + 2.0 * y**4 / 315.0, rel=1e-15)

    def test_saturation_branch_continuity(self):
        # the coth term is 1 to double precision past the handoff point, so
        # both evaluations agree at the boundary itself
        u = math.expm1(40.0)
        direct = 3.0 * (u * 20.0 - (u - 40.0)) / (u * 400.0)
        assert direct == pytest.approx(_saturation(20.0), rel=1e-15)
        assert _saturation(20.0) == 3.0 * (1.0 - 1.0 / 20.0) / 20.0

    @given(y=st.floats(min_value=0.0, max_value=100.0))
    def test_bounded(self, y):
        assert 0.0 < _saturation(y) <= 1.0

    def test_nan_rejected(self):
        # NaN never reaches the saturation: the model rejects it first
        with pytest.raises(DomainError):
            PermeabilityModel("field", H=float("nan"))
        with pytest.raises(DomainError):
            PermeabilityModel("field", H=1.0).static_mu(1e43, float("nan"))

    def test_matches_mpmath(self):
        mp = pytest.importorskip("mpmath")
        ys = [10.0 ** (-15.0 + 19.0 * i / 2000) for i in range(2001)]
        ys += [math.nextafter(20.0, 0.0), 20.0, math.nextafter(20.0, math.inf)]
        with mp.workdps(80):
            for y in ys:
                exact = 3 * (mp.coth(y) - 1 / mp.mpf(y)) / y
                assert abs(_saturation(y) - exact) <= 2e-15 * exact, y
        assert _saturation(math.inf) == 0.0


class TestSpinSusceptibility:
    """chi = mu - 1 of the pair plasma's spin paramagnetism."""

    def test_electron_reduction(self):
        # the quantum Curie law mu0 N mu_bar^2/(3 k_B T), with
        # mu_bar = g mu_B sqrt(J(J+1)) at g = 2, J = 1/2, is the literal
        # convention's mu0 N mu_B^2/(k_B T)
        N, T = 1e43, 8.7e11
        mu_bar = 2.0 * MU_B * math.sqrt(0.5 * 1.5)
        expected = MU_0 * N * mu_bar**2 / (3.0 * K_B * T)
        chi = PermeabilityModel(convention="literal").static_mu(N, T) - 1.0
        assert chi == pytest.approx(expected, rel=1e-14)

    def test_vacuum(self):
        assert PermeabilityModel("field", H=1e15).static_mu(0.0, 1e11) == 1.0

    @given(T=st.floats(min_value=1e8, max_value=1e14))
    def test_curie_decay(self, T):
        # rho large enough that chi >> 1e-3 and mu - 1 keeps its digits
        rho, model = 1e50, PermeabilityModel()
        assert model.static_mu(rho, 2 * T) - 1.0 == pytest.approx(
            (model.static_mu(rho, T) - 1.0) / 2.0, rel=1e-12
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            PermeabilityModel().static_mu(1e40, 0.0)


class TestStaticPermeability:
    def test_1fm_state(self):
        assert PermeabilityModel().static_mu(2.0e43, 8.70e11) == pytest.approx(360.8, rel=0.02)

    def test_3fm_state(self):
        s = plasma_state_from_distance(3e-15)
        assert s.mu_ep == pytest.approx(41.0, rel=0.02)

    def test_vacuum(self):
        assert PermeabilityModel().static_mu(0.0, 1e11) == 1.0

    def test_literal_convention_is_half(self):
        rho, T = 2e43, 8.7e11
        chi_table = PermeabilityModel(convention="table").static_mu(rho, T) - 1.0
        chi_literal = PermeabilityModel(convention="literal").static_mu(rho, T) - 1.0
        assert chi_literal == pytest.approx(chi_table / 2.0, rel=1e-15)

    def test_unknown_convention(self):
        with pytest.raises(DomainError):
            PermeabilityModel(convention="majority_vote")


class TestFieldPermeability:
    # N per species, so the pair density is 2 N
    N, T = 1e43, 8.7e11

    def _field_for_y(self, y):
        return y * K_B * self.T / (MU_B * MU_0)

    def _mu(self, H, convention="literal"):
        return PermeabilityModel("field", convention, H).static_mu(2.0 * self.N, self.T)

    def test_small_y_matches_zero_field(self):
        H = self._field_for_y(1e-6)
        zero_field = 1.0 + 2.0 * MU_0 * self.N * MU_B**2 / (K_B * self.T)
        assert self._mu(H) == pytest.approx(zero_field, rel=1e-10)

    def test_saturation_suppression(self):
        H = self._field_for_y(50.0)
        chi0 = 2.0 * MU_0 * self.N * MU_B**2 / (K_B * self.T)
        chi_H = self._mu(H) - 1.0
        assert chi_H < 0.07 * chi0

    def test_high_field_limit(self):
        # chi(H)/chi0 = 3 L(y)/y, so saturation leaves 3/y of the zero-field
        # susceptibility; drive y high enough for mu -> 1 in absolute terms
        chi0 = 2.0 * MU_0 * self.N * MU_B**2 / (K_B * self.T)
        H = self._field_for_y(1e6)
        chi = self._mu(H) - 1.0
        assert chi / chi0 == pytest.approx(3e-6, rel=1e-3)
        H = self._field_for_y(1e12)
        assert self._mu(H) - 1.0 < 1e-6

    def test_domain(self):
        model = PermeabilityModel("field", H=1.0)
        with pytest.raises(DomainError, match="temperature must be positive"):
            model.static_mu(2.0 * self.N, 0.0)
        with pytest.raises(DomainError, match="density must be non-negative"):
            model.static_mu(-1.0, self.T)

    @pytest.mark.parametrize("convention", ["table", "literal"])
    def test_falls_monotonically_to_one(self, convention):
        # from the spin model's mu, bit for bit at weak field, down to 1
        state = plasma_state_from_distance(1e-15)
        mus = [
            PermeabilityModel("field", convention, 10.0**k).static_mu(state.rho, state.T)
            for k in range(-300, 301)
        ]
        assert all(a >= b for a, b in zip(mus, mus[1:]))
        assert mus[0] == PermeabilityModel("spin", convention).static_mu(state.rho, state.T)
        assert mus[-1] == 1.0


class TestPermeabilityModel:
    def test_bad_kind(self):
        with pytest.raises(DomainError):
            PermeabilityModel(kind="astrology")

    def test_bad_convention(self):
        with pytest.raises(DomainError):
            PermeabilityModel(convention="consensus")

    def test_dynamic_kind_retired(self):
        # every model is static; n > 0 Matsubara terms use mu = 1 for all
        with pytest.raises(DomainError):
            PermeabilityModel(kind="dynamic")

    def test_field_needs_nonnegative_h(self):
        with pytest.raises(DomainError):
            PermeabilityModel(kind="field", H=-1.0)

    def test_field_needs_positive_h(self):
        with pytest.raises(DomainError):
            PermeabilityModel("field", H=0.0)

    def test_unity_static_mu(self):
        assert PermeabilityModel("unity").static_mu(2e43, 8.7e11) == 1.0


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
        s = plasma_state_from_distance(1e-15, PermeabilityModel("unity"))
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
            assert closed.T == pytest.approx(s.T, rel=1e-12)
            assert closed.rho == pytest.approx(s.rho, rel=1e-12)
            assert closed.omega_ep == pytest.approx(s.omega_ep, rel=1e-12)
            assert closed.mu_ep == pytest.approx(s.mu_ep, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            distance_closed_forms(0.0)


def test_assumption_metadata_reports_relativistic_regime():
    s = plasma_state_from_distance(1e-15)
    meta = state_assumptions(s)
    # at nuclear separations the gas is deep in the relativistic regime
    assert meta["kT_over_me_c2"] > 100.0
