import math
import re
import sys
import warnings

import pytest
from hypothesis import given
from hypothesis import strategies as st

from casnuc.constants import E_CHARGE, EPS_0, HBAR_C, M_E
from casnuc.errors import DomainError
from casnuc.lifshitz import distance_coupled_breakdown, screening_wavevector
from casnuc.nuclear import (
    coulomb_energy,
    equilibrium_distance,
    ideal_casimir,
    plasmon_linewidth,
    yukawa_quantities,
)
from casnuc.plasma import _separation_cube, plasma_state_from_distance
from casnuc.units import J_PER_MEV

from _oracles import balance_cubic_bisection, balance_cubic_residual, blackbody_energy

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

    @pytest.mark.parametrize("L, message", [
        (1e-80, "L = 1e-80 m, L^4 underflows"),  # subnormal L^4
        (1e-90, "L = 1e-90 m, L^4 underflows"),  # L^4 is 0
        (1e80, "L = 1e+80 m, L^4 overflows"),
        (1e103, "L = 1e+103 m, L^3 overflows"),
    ])
    def test_separation_whose_powers_are_not_normal(self, L, message):
        with pytest.raises(DomainError, match="separation too (small|large): " + re.escape(message)):
            ideal_casimir(L, AREA)

    @pytest.mark.parametrize("L", [sys.float_info.min ** 0.25 * 1.001,
                                   sys.float_info.max ** 0.25 * 0.999])
    def test_edges_of_the_normal_range(self, L):
        energy, force = ideal_casimir(L, 1.0)
        assert math.isfinite(energy) and math.isfinite(force)

    @pytest.mark.parametrize("area", [math.inf, 1e300])
    def test_area_that_overflows(self, area):
        with pytest.raises(DomainError, match=re.escape(f"area too large: A = {area} m^2")):
            ideal_casimir(1e-15, area)


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
        T = plasma_state_from_distance(L).T
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


# lengths that are infinite or whose Coulomb denominator is not a normal
# double: each raises a DomainError that names the parameter
INF = math.inf
LENGTH_EDGES = [
    (coulomb_energy, (1e-320, 0.0), "radius and separation out of range: R = 1e-320 m"),
    (coulomb_energy, (5e-324, 0.0), "radius and separation out of range: R = 5e-324 m"),
    (coulomb_energy, (1e308, 1e308), "radius and separation out of range: R = 1e+308 m"),
    (coulomb_energy, (0.84e-15, math.nan), "separation must be non-negative and finite, got nan"),
    (coulomb_energy, (0.84e-15, INF), "separation must be non-negative and finite, got inf"),
    (coulomb_energy, (INF, 0.0), "radius must be positive and finite, got inf"),
    (_separation_cube, (INF,), "separation too large: L = inf m, L^3 overflows"),
    (ideal_casimir, (INF, 1.0), "separation too large: L = inf m, L^3 overflows"),
    (plasma_state_from_distance, (INF,), "separation too large: L = inf m, L^3 overflows"),
    (distance_coupled_breakdown, ([INF],), "separation too large: L = inf m, L^3 overflows"),
]


@pytest.mark.parametrize("evaluator, args, message", LENGTH_EDGES,
                         ids=[f"{f.__name__}{args}" for f, args, _ in LENGTH_EDGES])
def test_lengths_out_of_range(evaluator, args, message):
    with pytest.raises(DomainError) as info:
        evaluator(*args)
    assert str(info.value).startswith(message)


class TestBalanceCubic:
    @pytest.mark.parametrize("R", [sys.float_info.min, 1e-20, 0.84e-15, 1.0, 1e300])
    def test_closed_form_root_against_bisection(self, R):
        res = equilibrium_distance(R)
        assert abs(res.x_tilde - balance_cubic_bisection(res.D)) <= 1e-14 * res.x_tilde
        assert res.residual == balance_cubic_residual(res.x_tilde, res.D)
        assert res.L_eq == res.x_tilde * R

    def test_root_is_beyond_sqrt_D(self):
        # x^3 = D(x + 2) with D > 0 forces x > sqrt(D)
        res = equilibrium_distance(0.84e-15)
        assert res.x_tilde > math.sqrt(res.D)


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

    @pytest.mark.parametrize("R", [math.inf, 1e308])
    def test_radius_whose_separation_overflows(self, R):
        with pytest.raises(DomainError, match=re.escape(f"radius too large: R = {R} m")):
            equilibrium_distance(R)


class TestYukawaQuantities:
    def test_frozen_meson_mass_1fm(self):
        state = plasma_state_from_distance(1e-15)

        unity = yukawa_quantities(state.omega_ep, 1.0).meson_mass_energy / J_PER_MEV
        assert unity == pytest.approx(332.4260872027714, rel=1e-12)
        assert unity == pytest.approx(329.0, rel=0.03)

        magnetic = yukawa_quantities(state.omega_ep, state.mu_ep).meson_mass_energy / J_PER_MEV
        assert magnetic == pytest.approx(6321.184956045245, rel=1e-12)
        assert magnetic == pytest.approx(6242.0, rel=0.03)

    @given(
        omega=st.floats(min_value=5e20, max_value=2e23),
        mu=st.floats(min_value=1.0, max_value=1e3),
    )
    def test_mass_is_twice_screening_scale(self, omega, mu):
        q = yukawa_quantities(omega, mu)
        assert q.meson_mass_energy == pytest.approx(
            2.0 * HBAR_C * screening_wavevector(omega, mu), rel=1e-12
        )
        assert q.kappa_source == screening_wavevector(omega, mu)
        assert q.screening_length * q.meson_mass_energy == pytest.approx(HBAR_C, rel=1e-14)

    def test_consistency(self):
        state = plasma_state_from_distance(1e-15)
        q = yukawa_quantities(state.omega_ep, state.mu_ep)
        assert q.kappa_source == pytest.approx(
            screening_wavevector(state.omega_ep, state.mu_ep), rel=1e-15)
        assert q.meson_mass_energy == pytest.approx(
            2.0 * HBAR_C * q.kappa_source, rel=1e-14
        )
        # range of the mediated force: half the inverse screening wavevector
        assert q.screening_length == pytest.approx(
            HBAR_C / q.meson_mass_energy, rel=1e-14
        )

    @pytest.mark.parametrize("omega", [-1.0, math.inf, math.nan])
    def test_domain(self, omega):
        # screening_wavevector checks both inputs, mu_ep first
        with pytest.raises(DomainError, match="plasma frequency must be non-negative and finite"):
            yukawa_quantities(omega, 1.0)
        with pytest.raises(DomainError, match="mu_ep must be >= 1"):
            yukawa_quantities(omega, 0.5)

    def test_massless_at_zero_density(self):
        # omega_ep = 0 at rho = 0: no mass, so no range
        with pytest.raises(DomainError, match="mass energy must be positive, got 0.0"):
            yukawa_quantities(0.0, 1.0)


class TestPlasmonLinewidth:
    def test_frozen_fermi_quantities(self):
        lw = plasmon_linewidth(1e43)
        assert lw.q_F == pytest.approx(666510506892997.5, rel=1e-12)
        assert lw.eps_F == pytest.approx(2.7117355236930515e-9, rel=1e-12)

    def test_wavevector_scaling(self):
        q1 = plasmon_linewidth(1e43).q_F
        q8 = plasmon_linewidth(8e43).q_F
        assert q8 == pytest.approx(2.0 * q1, rel=1e-12)

    def test_frozen_value(self):
        assert plasmon_linewidth(1e43).width == pytest.approx(
            3.804633913045759e-17, rel=1e-12
        )

    def test_bracket_zero_constant(self):
        # r scales as n^(-1/6), so the density n0 = n (r/r0)^6 has r = r0:
        # the bracket vanishes there
        r = plasmon_linewidth(1e26).r
        at_zero = plasmon_linewidth(1e26 * (r / LINEWIDTH_BRACKET_ZERO) ** 6)
        assert at_zero.r == pytest.approx(LINEWIDTH_BRACKET_ZERO, rel=1e-14)
        assert abs(at_zero.bracket) < 1e-13
        dense = plasmon_linewidth(1e43)
        assert dense.r < LINEWIDTH_BRACKET_ZERO
        assert dense.bracket > 0.0

    def test_negative_bracket_is_a_field_not_a_warning(self):
        # dilute gas: the plasmon energy exceeds the particle-hole band and
        # the leading-order damping formula loses validity; the record's
        # bracket says so
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lw = plasmon_linewidth(1e26)
        assert lw.r > LINEWIDTH_BRACKET_ZERO
        assert lw.bracket < 0.0
        assert lw.width < 0.0

    def test_domain(self):
        with pytest.raises(DomainError, match="density must be positive"):
            plasmon_linewidth(0.0)
        # n e^2 leaves the normal doubles below about 8.7e-271 1/m^3
        with pytest.raises(DomainError, match=r"n = 5e-271 1/m\^3, n e\^2 underflows"):
            plasmon_linewidth(5e-271)

    def test_width_is_finite_up_to_the_plasma_frequency_edge(self):
        # eps_F r^3 grows as n^(1/6), so at q/q_F = 0.1 the width stays
        # finite up to the largest n whose omega_p^2 = n e^2/(eps0 m_e) is,
        # about 5.6e304 1/m^3
        def finite(n):
            return n * E_CHARGE**2 / (EPS_0 * M_E) < math.inf

        n = sys.float_info.max * (EPS_0 * M_E) / E_CHARGE**2  # a few ulps from it
        while not finite(n):
            n = math.nextafter(n, 0.0)
        while finite(math.nextafter(n, math.inf)):
            n = math.nextafter(n, math.inf)
        assert 5.6e304 < n < 5.7e304
        lw = plasmon_linewidth(n)
        assert math.isfinite(lw.width)
        assert lw.width == pytest.approx(1.6e27, rel=0.01)
        with pytest.raises(DomainError, match=r"density too large: rho = 5\.6\d*e\+304"):
            plasmon_linewidth(math.nextafter(n, math.inf))
