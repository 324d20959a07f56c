import math
import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from casnuc.constants import C, HBAR, HBAR_C, K_B, ZETA_3
from casnuc.errors import DomainError
from casnuc.lifshitz import (
    DEFAULT_PLATE_AREA,
    MAX_GRID_POINTS,
    XBAR_CROSSOVER_10PCT,
    SweepSpec,
    _SERIES_SPLIT,
    _mode_series,
    distance_coupled_breakdown,
    finite_freq_asymptote,
    finite_freq_sum,
    full_matsubara,
    matsubara_term,
    screening_wavevector,
    sweep_rows,
    zero_freq_asymptote,
    zero_freq_exact,
)
from casnuc.plasma import (
    PermeabilityModel,
    density_from_distance,
    plasma_frequency,
    plasma_state_from_distance,
    temperature_from_distance,
)
from casnuc.units import J_PER_MEV

from _oracles import zero_freq_quadrature, zero_freq_series

UNITY = PermeabilityModel("unity")
SPIN = PermeabilityModel("spin")


def state_at(L):
    s = plasma_state_from_distance(L, SPIN)
    return s.T, s.rho, s.mu_ep


def per_pair_mev(f_per_area):
    return f_per_area * DEFAULT_PLATE_AREA / J_PER_MEV


class TestModeSeries:
    def test_matches_mpmath_polylogs(self):
        mp = pytest.importorskip("mpmath")
        grid = [0.0] + [10.0 ** (-300 + k * (300 + math.log10(745.0)) / 599)
                        for k in range(600)]
        grid += [math.nextafter(_SERIES_SPLIT, 0.0), _SERIES_SPLIT,
                 math.nextafter(_SERIES_SPLIT, math.inf)]
        with mp.workdps(40):
            for a in grid:
                z = mp.exp(-mp.mpf(a))
                exact = a * mp.polylog(2, z) + mp.polylog(3, z)
                # one subnormal spacing: S itself is subnormal above a ~ 715
                tol = 1e-14 * abs(exact) + 5e-324
                assert abs(_mode_series(a) - exact) <= tol, a

    def test_continuous_across_split(self):
        below = _mode_series(math.nextafter(_SERIES_SPLIT, 0.0))
        assert _mode_series(_SERIES_SPLIT) == pytest.approx(below, rel=1e-15)

    def test_small_arguments_are_cheap(self):
        # summed term by term, S needs ~1e5 terms as a -> 0; the expansion
        # costs the same at every a below the split
        start = time.perf_counter()
        for k in range(100):
            _mode_series((0.0, 1e-6, 1e-3)[k % 3])
        assert time.perf_counter() - start < 0.1

    def test_domain(self):
        assert _mode_series(0.0) == ZETA_3
        assert _mode_series(math.inf) == 0.0
        for bad in (-1e-300, math.nan):
            with pytest.raises(DomainError):
                _mode_series(bad)


class TestZeroFreqExact:
    def test_unscreened_limit(self):
        L, T = 1e-15, 8.7e11
        expected = -ZETA_3 * K_B * T / (8.0 * math.pi * L**2)
        assert zero_freq_exact(0.0, L, T) == pytest.approx(expected, rel=1e-9)

    def test_frozen_nonmagnetic_1fm(self):
        L = 1e-15
        T = temperature_from_distance(L)
        kappa = screening_wavevector(density_from_distance(L), 1.0)
        value = zero_freq_exact(kappa, L, T)
        # pinned against the quadrature of the defining integral
        assert value == pytest.approx(-2.4775757123404278e17, rel=1e-10)
        assert -3.5 < per_pair_mev(value) < -3.3

    def test_strong_screening_vanishes(self):
        L, T = 1e-15, 8.7e11
        assert zero_freq_exact(400.0 / L, L, T) == 0.0
        weak = zero_freq_exact(100.0 / L, L, T)
        assert weak < 0.0
        assert abs(weak) < 1e-60 * abs(zero_freq_exact(0.0, L, T))

    @given(
        kappa=st.floats(min_value=0.0, max_value=1e17),
        L=st.floats(min_value=1e-16, max_value=1e-13),
        T=st.floats(min_value=1e10, max_value=1e13),
    )
    def test_never_positive(self, kappa, L, T):
        assert zero_freq_exact(kappa, L, T) <= 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            zero_freq_exact(-1.0, 1e-15, 1e11)
        with pytest.raises(DomainError):
            zero_freq_exact(1.0, 0.0, 1e11)
        with pytest.raises(DomainError):
            zero_freq_exact(1.0, 1e-15, 0.0)


class TestZeroFreqQuadrature:
    @pytest.mark.parametrize("kappa_L", [0.0, 0.1, 1.0, 5.0, 20.0])
    @pytest.mark.parametrize("L_fm", [1.0, 2.0, 3.0])
    def test_cross_validates_series(self, kappa_L, L_fm):
        L = L_fm * 1e-15
        T = temperature_from_distance(L)
        kappa = kappa_L / L
        series = zero_freq_exact(kappa, L, T)
        quad = zero_freq_quadrature(kappa, L, T)
        assert quad == pytest.approx(series, rel=1e-8)

    def test_unscreened_limit(self):
        L, T = 2e-15, 4.35e11
        expected = -ZETA_3 * K_B * T / (8.0 * math.pi * L**2)
        assert zero_freq_quadrature(0.0, L, T) == pytest.approx(expected, rel=1e-9)

    def test_monotone_toward_zero_in_kappa(self):
        L, T = 1e-15, 8.7e11
        values = [zero_freq_quadrature(k / L, L, T) for k in (0.0, 0.5, 1.0, 2.0, 5.0)]
        for a, b in zip(values, values[1:]):
            assert b > a


class TestZeroFreqAsymptote:
    def test_equals_first_series_term(self):
        rng = random.Random(74)
        for _ in range(100):
            kappa = 10.0 ** rng.uniform(12.0, 17.0)
            L = 10.0 ** rng.uniform(-16.0, -13.0)
            T = 10.0 ** rng.uniform(10.0, 13.0)
            a = 2.0 * kappa * L
            first_term = -K_B * T / (8.0 * math.pi * L**2) * math.exp(-a) * (a + 1.0)
            if first_term == 0.0:
                continue
            assert zero_freq_asymptote(kappa, L, T) == pytest.approx(
                first_term, rel=1e-12
            )

    def test_ratio_to_exact_approaches_one(self):
        L, T = 1e-15, 8.7e11
        kappa = 5.0 / L  # a = 10
        ratio = zero_freq_asymptote(kappa, L, T) / zero_freq_exact(kappa, L, T)
        assert ratio == pytest.approx(1.0, abs=0.01)

    def test_magnetic_suppression(self):
        L = 1e-15
        T, rho, mu = state_at(L)
        magnetic = zero_freq_asymptote(screening_wavevector(rho, mu), L, T)
        nonmagnetic = zero_freq_asymptote(screening_wavevector(rho, 1.0), L, T)
        assert abs(magnetic) < 1e-4 * abs(nonmagnetic)

    def test_kappa_zero_rejected(self):
        with pytest.raises(DomainError):
            zero_freq_asymptote(0.0, 1e-15, 8.7e11)

    def test_infinite_argument_gives_zero(self):
        # a = 2 kappa L overflows to inf (fixed-mode sweeps reach L = 1e293 m):
        # the j = 1 term is 0, not 0 x inf = nan
        assert zero_freq_asymptote(1.6e16, 1e293, 8.7e11) == 0.0


class TestFiniteFreqAsymptote:
    def test_frozen_coupled_1fm(self):
        L = 1e-15
        T = temperature_from_distance(L)
        rho = density_from_distance(L)
        value = per_pair_mev(finite_freq_asymptote(rho, T, L))
        assert value == pytest.approx(-0.39608348071692007, rel=1e-12)
        assert value == pytest.approx(-0.40, abs=0.01)

    def test_zero_density_blackbody_reduction(self):
        T, L = 8.7e11, 1e-15
        xbar = 2.0 * K_B * T * L / HBAR_C
        expected = -(K_B * T) ** 2 * math.exp(-2.0 * math.pi * xbar) / (HBAR_C * L)
        assert finite_freq_asymptote(0.0, T, L) == pytest.approx(expected, rel=1e-14)

    def test_magnitude_decreasing_in_separation(self):
        rho, T = 2e43, 8.7e11
        values = [abs(finite_freq_asymptote(rho, T, L * 1e-15)) for L in (1, 1.5, 2, 3)]
        for a, b in zip(values, values[1:]):
            assert b < a

    def test_domain(self):
        with pytest.raises(DomainError):
            finite_freq_asymptote(-1.0, 8.7e11, 1e-15)
        with pytest.raises(DomainError):
            finite_freq_asymptote(2e43, 0.0, 1e-15)


class TestFullMatsubara:
    def test_zero_term_matches_exact_evaluator(self):
        for L_fm in (1.0, 2.0, 3.0):
            L = L_fm * 1e-15
            T, rho, mu = state_at(L)
            term0 = matsubara_term(0, L, T, rho, SPIN)
            kappa = screening_wavevector(rho, mu)
            assert term0 == pytest.approx(zero_freq_series(kappa, L, T), rel=1e-12)

    def test_classical_limit(self):
        L = 1e-15
        xbar = 5.0
        T = xbar * HBAR_C / (2.0 * K_B * L)
        total = full_matsubara(L, T, 0.0, UNITY)
        classical = -ZETA_3 * K_B * T / (8.0 * math.pi * L**2)
        # the n > 0 terms add about 1e-12 at xbar = 5
        assert abs(total / classical - 1.0) < 1e-11

    def test_frozen_totals_at_1fm(self):
        L = 1e-15
        T, rho, _ = state_at(L)
        assert per_pair_mev(full_matsubara(L, T, rho, UNITY)) == pytest.approx(
            -3.94481727497596, rel=1e-10
        )
        assert per_pair_mev(full_matsubara(L, T, rho, SPIN)) == pytest.approx(
            -0.5169422008138735, rel=1e-10
        )

    def test_asymptote_crossover_pin(self):
        # scan of the n > 0 sum vs its large-xbar asymptote at L = 1 fm with
        # the density pinned to the 1 fm value; 10% agreement first occurs
        # at the pinned xbar on a 0.01 grid
        L = 1e-15
        rho = density_from_distance(L)

        def deviation(xbar):
            T = xbar * HBAR_C / (2.0 * K_B * L)
            full = finite_freq_sum(L, T, rho)
            return abs(finite_freq_asymptote(rho, T, L) - full) / abs(full)

        assert XBAR_CROSSOVER_10PCT == 1.65
        assert deviation(XBAR_CROSSOVER_10PCT) < 0.10
        assert deviation(XBAR_CROSSOVER_10PCT - 0.01) >= 0.10

    @pytest.mark.parametrize("rho", [0.0, 1e44])
    @pytest.mark.parametrize("xbar", [0.002, 0.005, 0.02])
    def test_truncation_within_stated_tolerance(self, xbar, rho):
        # small xbar: the terms decay slowly, so a small last term does not
        # bound the tail.  Oracle: the same terms summed with math.fsum out
        # to a_n > 80, past which the rest is below 1e-30 of the sum
        L = 1e-15
        T = xbar * HBAR_C / (2.0 * K_B * L)
        xi_1 = 2.0 * math.pi * K_B * T / HBAR
        omega = plasma_frequency(rho)
        prefactor = -K_B * T / (4.0 * math.pi * L * L)
        terms, n, a = [], 1, 0.0
        while a <= 80.0:
            a = 2.0 * L * math.hypot(n * xi_1, omega) / C
            terms.append(prefactor * _mode_series(a))
            n += 1
        exact = math.fsum(terms)
        assert abs(finite_freq_sum(L, T, rho) / exact - 1.0) <= 1e-12

    def test_finite_terms_are_model_free(self):
        # the permeability enters at n = 0 only: every n > 0 term has mu = 1
        L = 1e-15
        T, rho, _ = state_at(L)
        models = [UNITY, SPIN, PermeabilityModel("spin", "literal"),
                  PermeabilityModel("field", H=1e15)]
        for n in range(1, 6):
            assert len({matsubara_term(n, L, T, rho, m) for m in models}) == 1
        assert len({matsubara_term(0, L, T, rho, m) for m in models}) == len(models)
        for m in models:
            finite = full_matsubara(L, T, rho, m) - matsubara_term(0, L, T, rho, m)
            assert finite == pytest.approx(finite_freq_sum(L, T, rho), rel=1e-12)

    def test_terms_and_sum_share_one_rule(self):
        # single terms, summed until they stop adding, give the truncated sum
        L = 1e-15
        T, rho, _ = state_at(L)
        total, n = 0.0, 1
        while True:
            term = matsubara_term(n, L, T, rho, SPIN)
            if total + term == total:
                break
            total += term
            n += 1
        assert finite_freq_sum(L, T, rho) == pytest.approx(total, rel=1e-12)


class TestDistanceCoupled:
    def test_kappa_unity_1fm(self):
        b = distance_coupled_breakdown(1e-15, UNITY)
        assert b.kappa == pytest.approx(8.4e14, rel=0.01)

    def test_finite_term_exponent_constant(self):
        # exponent of the distance-coupled finite-frequency term at
        # xbar = 3^(-1/4); the familiar 4-decimal quote 4.7746 over-rounds
        # the true 4.774188...
        assert 2.0 * math.pi / 3.0**0.25 == pytest.approx(4.774188415956814, rel=1e-15)
        assert 2.0 * math.pi / 3.0**0.25 == pytest.approx(4.7746, abs=1e-3)

    @pytest.mark.parametrize("model", [UNITY, SPIN])
    @pytest.mark.parametrize("L_fm", [1.0, 2.0, 3.0])
    def test_composition_cross_check(self, model, L_fm):
        L = L_fm * 1e-15
        b = distance_coupled_breakdown(L, model)
        s = plasma_state_from_distance(L, model)
        kappa = screening_wavevector(s.rho, s.mu_ep)
        assert b.kappa == pytest.approx(kappa, rel=1e-10)
        assert b.zero_freq == pytest.approx(
            zero_freq_asymptote(kappa, L, s.T), rel=1e-10
        )
        assert b.finite_freq == pytest.approx(
            finite_freq_asymptote(s.rho, s.T, L), rel=1e-10
        )

    def test_components_at_1fm_unity(self):
        b = distance_coupled_breakdown(1e-15, UNITY)
        assert per_pair_mev(b.zero_freq) == pytest.approx(-3.3, abs=0.1)
        assert per_pair_mev(b.finite_freq) == pytest.approx(-0.40, abs=0.01)

    def test_breakdown_invariants(self):
        for L_fm in (1.0, 1.7, 2.6):
            b = distance_coupled_breakdown(L_fm * 1e-15, SPIN)
            assert b.zero_freq <= 0.0
            assert b.finite_freq <= 0.0
            assert b.total == b.zero_freq + b.finite_freq

    def test_field_model_rejected(self):
        with pytest.raises(DomainError):
            distance_coupled_breakdown(1e-15, PermeabilityModel("field", H=1.0))

    @pytest.mark.parametrize(
        "model, L",
        [
            (UNITY, 1e-101),  # 2 L^3 m underflows
            (UNITY, 1e-89),   # kappa finite, the zero-frequency energy is not
            (SPIN, 1e-64),    # kappa overflows
        ],
    )
    def test_separation_edge(self, model, L):
        with pytest.raises(DomainError, match="separation too small") as info:
            distance_coupled_breakdown(L, model)
        assert repr(L) in str(info.value)

    @pytest.mark.parametrize("model, L", [(UNITY, 3e-88), (SPIN, 1.2e-63)])
    def test_finite_just_above_the_edge(self, model, L):
        b = distance_coupled_breakdown(L, model)
        assert all(math.isfinite(v) for v in (b.kappa, b.total))

    def test_figure_ordering_magnetic_above_unity(self):
        for i in range(41):
            L = (1.0 + 0.05 * i) * 1e-15
            zero_spin = distance_coupled_breakdown(L, SPIN).zero_freq
            zero_unity = distance_coupled_breakdown(L, UNITY).zero_freq
            assert abs(zero_spin) < abs(zero_unity)

    @pytest.mark.parametrize("model", [UNITY, SPIN])
    def test_total_magnitude_decreasing_coupled(self, model):
        values = [
            abs(distance_coupled_breakdown((1.0 + 0.05 * i) * 1e-15, model).total)
            for i in range(41)
        ]
        for a, b in zip(values, values[1:]):
            assert b < a


class TestSweep:
    def test_grid_order_and_length(self):
        rows = sweep_rows(SweepSpec(1.0, 3.0, 5, UNITY))
        assert [r.L_fm for r in rows] == [1.0, 1.5, 2.0, 2.5, 3.0]

    def test_fixed_mode_pins_temperature(self):
        rows = sweep_rows(SweepSpec(1.0, 3.0, 5, UNITY, mode="fixed"))
        assert len({r.T_K for r in rows}) == 1
        assert rows[0].T_K == pytest.approx(temperature_from_distance(1e-15), rel=1e-12)

    def test_fixed_mode_honors_initial_separation(self):
        rows = sweep_rows(SweepSpec(1.0, 3.0, 3, UNITY, mode="fixed", L_init_fm=2.0))
        assert rows[0].T_K == pytest.approx(temperature_from_distance(2e-15), rel=1e-12)

    def test_full_method_matches_direct_sum(self):
        rows = sweep_rows(SweepSpec(1.0, 2.0, 2, SPIN, method="full"))
        L = 1e-15
        T, rho, _ = state_at(L)
        expected = per_pair_mev(full_matsubara(L, T, rho, SPIN))
        assert rows[0].Ftot_MeV == pytest.approx(expected, rel=1e-12)

    def test_total_column_is_component_sum(self):
        for row in sweep_rows(SweepSpec(1.0, 3.0, 9, SPIN, method="exact")):
            assert row.Ftot_MeV == pytest.approx(row.F0_MeV + row.Fn_MeV, rel=1e-13)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(L_min_fm=0.0, L_max_fm=3.0, points=5),
            dict(L_min_fm=3.0, L_max_fm=1.0, points=5),
            dict(L_min_fm=1.0, L_max_fm=3.0, points=1),
            dict(L_min_fm=1.0, L_max_fm=3.0, points=5, mode="periodic"),
            dict(L_min_fm=1.0, L_max_fm=3.0, points=5, method="magic"),
            dict(L_min_fm=1.0, L_max_fm=3.0, points=5, R_fm=0.0),
            dict(L_min_fm=1.0, L_max_fm=3.0, points=MAX_GRID_POINTS + 1),
        ],
    )
    def test_spec_validation(self, kwargs):
        with pytest.raises(DomainError):
            SweepSpec(model=UNITY, **kwargs)
