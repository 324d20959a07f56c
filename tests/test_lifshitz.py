import math
import random
import re
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from casnuc import lifshitz, plasma
from casnuc._matsubara_tail import _EM_SCALE, _EM_U, _EM_W0, _mode_series_tails
from casnuc.constants import C, HBAR, HBAR_C, K_B, ZETA_3
from casnuc.errors import DomainError
from casnuc.lifshitz import (
    DEFAULT_PLATE_AREA,
    XBAR_CROSSOVER_10PCT,
    FreeEnergyBreakdown,
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
from casnuc.nuclear import ideal_casimir
from casnuc.plasma import (
    PermeabilityModel,
    plasma_frequency,
    plasma_state_from_distance,
    plasma_state_grid,
)
from casnuc.units import J_PER_MEV

from _oracles import (
    breakdown_unfolded,
    coupled_mu_unfolded,
    density_unfolded,
    finite_freq_asymptote_mpmath,
    matsubara_j_sum,
    matsubara_sum_mpmath,
    mode_series_loop,
    mode_series_tails_loop,
    plasma_frequency_unfolded,
    plasma_state_unfolded,
    static_mu_unfolded,
    temperature_unfolded,
    zero_freq_quadrature,
    zero_freq_series,
)

UNITY = PermeabilityModel("unity")
SPIN = PermeabilityModel("spin")


def state_at(L):
    s = plasma_state_from_distance(L, SPIN)
    return s.T, s.omega_ep, s.mu_ep


def breakdown_at(L, model):
    # the breakdown at one separation, from the one-point grid
    return FreeEnergyBreakdown(*(column[0] for column in distance_coupled_breakdown([L], model)))


def sum_at(L, T, omega):
    # the n > 0 sum at one state: the one-point grid
    return finite_freq_sum([L], [T], [omega])[0]


def scales_at(L, T, omega):
    # (prefactor, b, nu) of one state
    return next(lifshitz._finite_freq_scales([L], [T], [omega]))[:3]


def sum_parts(L, T, omega):
    # (sum, direct terms, bound) of the one-point grid
    return lifshitz._finite_freq_sum(*next(lifshitz._finite_freq_scales([L], [T], [omega])))


def sum_parts_at_scales(b, nu):
    # (sum, direct terms, bound) of the sum with prefactor -1 at (b, nu)
    return lifshitz._finite_freq_sum(-1.0, b, nu, [nu])


def per_pair_mev(f_per_area):
    return f_per_area * DEFAULT_PLATE_AREA / J_PER_MEV


def bits(f, *args):
    # every float of the result as float.hex, or the DomainError message
    try:
        value = f(*args)
    except DomainError as exc:
        return str(exc)
    return [float(v).hex() for v in (value if isinstance(value, tuple) else (value,))]


CLOSED_FORM_MODELS = [PermeabilityModel(kind, convention)
                      for kind in ("spin", "unity") for convention in ("table", "literal")]


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

    def test_capped_loops_keep_every_bit(self):
        # both large-a loops stop by the 21st term at every a >= 1.5, so the
        # 21-term cap returns the bits of the 32-term loops; the ulps above
        # the split need the most terms
        grid = [_SERIES_SPLIT + k * (760.0 - _SERIES_SPLIT) / 20000 for k in range(20001)]
        a = _SERIES_SPLIT
        for _ in range(2000):
            a = math.nextafter(a, math.inf)
            grid.append(a)
        most = 0
        for a in grid:
            value, terms = mode_series_loop(a)
            tails, tail_terms = mode_series_tails_loop(a)
            assert _mode_series(a) == value, a
            assert _mode_series_tails(a) == tails, a
            most = max(most, terms, tail_terms)
        assert most == lifshitz._SERIES_MAX_TERMS == 21

    def test_split_needs_the_21st_term(self):
        assert mode_series_loop(_SERIES_SPLIT)[1] == 21
        assert mode_series_tails_loop(_SERIES_SPLIT)[1] == 21

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
        state = plasma_state_from_distance(L)
        T, kappa = state.T, screening_wavevector(state.omega_ep, 1.0)
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
        with pytest.raises(DomainError, match="L = 1e-160 m, L\\^2 underflows"):
            zero_freq_exact(1.0, 1e-160, 1e11)


class TestZeroFreqQuadrature:
    @pytest.mark.parametrize("kappa_L", [0.0, 0.1, 1.0, 5.0, 20.0])
    @pytest.mark.parametrize("L_fm", [1.0, 2.0, 3.0])
    def test_cross_validates_series(self, kappa_L, L_fm):
        L = L_fm * 1e-15
        T = plasma_state_from_distance(L).T
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
        T, omega, mu = state_at(L)
        magnetic = zero_freq_asymptote(screening_wavevector(omega, mu), L, T)
        nonmagnetic = zero_freq_asymptote(screening_wavevector(omega, 1.0), L, T)
        assert abs(magnetic) < 1e-4 * abs(nonmagnetic)

    def test_screening_wavevector_domain(self):
        with pytest.raises(DomainError, match="mu_ep must be >= 1"):
            screening_wavevector(1e22, 0.5)

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
        state = plasma_state_from_distance(L)
        value = per_pair_mev(finite_freq_asymptote(L, state.T, state.omega_ep))
        assert value == pytest.approx(-0.39608348071692007, rel=1e-12)
        assert value == pytest.approx(-0.40, abs=0.01)

    def test_zero_density_blackbody_reduction(self):
        T, L = 8.7e11, 1e-15
        xbar = 2.0 * K_B * T * L / HBAR_C
        expected = -(K_B * T) ** 2 * math.exp(-2.0 * math.pi * xbar) / (HBAR_C * L)
        assert finite_freq_asymptote(L, T, 0.0) == pytest.approx(expected, rel=1e-14)

    def test_magnitude_decreasing_in_separation(self):
        omega, T = plasma_frequency(2e43), 8.7e11
        values = [abs(finite_freq_asymptote(L * 1e-15, T, omega)) for L in (1, 1.5, 2, 3)]
        for a, b in zip(values, values[1:]):
            assert b < a

    def test_domain(self):
        with pytest.raises(DomainError):
            finite_freq_asymptote(1e-15, 8.7e11, -1.0)
        with pytest.raises(DomainError):
            finite_freq_asymptote(1e-15, 0.0, 2.5e23)

    def test_matches_mpmath_at_finite_density(self):
        # the display in xbar and rhobar against the evaluation in the
        # scales (b, nu), b = 2 pi xbar and nu^2 = rhobar
        pytest.importorskip("mpmath")
        compared = 0
        for L_fm in (0.01, 0.3, 1.0, 3.0, 30.0, 1e3):
            for T in (1e9, 1e10, 1e11, 8.7e11, 1e13):
                for rho in (1e25, 1e35, 1e40, 2e43, 1e45):
                    exact = finite_freq_asymptote_mpmath(L_fm * 1e-15, T, rho)
                    if abs(exact) <= 1e-290:
                        continue
                    value = finite_freq_asymptote(L_fm * 1e-15, T, plasma_frequency(rho))
                    assert abs(value / exact - 1.0) <= 1e-12, (L_fm, T, rho)
                    compared += 1
        assert compared >= 60

    @pytest.mark.parametrize("omega", [-1.0, -5e-324, math.inf, math.nan])
    def test_plasma_frequency_must_be_non_negative_and_finite(self, omega):
        # omega_ep enters through nu^2, so a negative one would act as
        # |omega_ep|: every evaluator that reads it rejects it instead
        evaluators = (finite_freq_asymptote, sum_at,
                      lambda L, T, omega: matsubara_term(1, L, T, omega, 1.0),
                      lambda L, T, omega: matsubara_term(0, L, T, omega, 1.0),
                      lambda L, T, omega: screening_wavevector(omega, 1.0))
        for evaluate in evaluators:
            with pytest.raises(DomainError, match="plasma frequency must be non-negative "
                                                  "and finite, got " + re.escape(repr(omega))):
                evaluate(1e-15, 8.7e11, omega)


class TestFullMatsubara:
    def test_zero_term_matches_exact_evaluator(self):
        for L_fm in (1.0, 2.0, 3.0):
            L = L_fm * 1e-15
            T, omega, mu = state_at(L)
            term0 = matsubara_term(0, L, T, omega, mu)
            kappa = screening_wavevector(omega, mu)
            assert term0 == pytest.approx(zero_freq_series(kappa, L, T), rel=1e-12)

    def test_classical_limit(self):
        L = 1e-15
        xbar = 5.0
        T = xbar * HBAR_C / (2.0 * K_B * L)
        total = full_matsubara(L, T, 0.0, 1.0)
        classical = -ZETA_3 * K_B * T / (8.0 * math.pi * L**2)
        # the n > 0 terms add about 1e-12 at xbar = 5
        assert abs(total / classical - 1.0) < 1e-11

    def test_frozen_totals_at_1fm(self):
        L = 1e-15
        T, omega, mu = state_at(L)
        assert per_pair_mev(full_matsubara(L, T, omega, 1.0)) == pytest.approx(
            -3.94481727497596, rel=1e-10
        )
        assert per_pair_mev(full_matsubara(L, T, omega, mu)) == pytest.approx(
            -0.5169422008138735, rel=1e-10
        )

    def test_asymptote_crossover_pin(self):
        # scan of the n > 0 sum vs its large-xbar asymptote at L = 1 fm with
        # the density pinned to the 1 fm value; 10% agreement first occurs
        # at the pinned xbar on a 0.01 grid
        L = 1e-15
        omega = plasma_state_from_distance(L).omega_ep

        def deviation(xbar):
            T = xbar * HBAR_C / (2.0 * K_B * L)
            full = sum_at(L, T, omega)
            return abs(finite_freq_asymptote(L, T, omega) - full) / abs(full)

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
        assert abs(sum_at(L, T, omega) / exact - 1.0) <= 1e-12

    def test_finite_terms_are_model_free(self):
        # the permeability enters at n = 0 only: every n > 0 term has mu = 1
        L = 1e-15
        models = [UNITY, SPIN, PermeabilityModel("spin", "literal"),
                  PermeabilityModel("field", H=1e15)]
        T, omega = state_at(L)[:2]
        mus = [plasma_state_from_distance(L, m).mu_ep for m in models]
        for n in range(1, 6):
            assert len({matsubara_term(n, L, T, omega, mu) for mu in mus}) == 1
        assert len({matsubara_term(0, L, T, omega, mu) for mu in mus}) == len(models)
        for mu in mus:
            finite = full_matsubara(L, T, omega, mu) - matsubara_term(0, L, T, omega, mu)
            assert finite == pytest.approx(sum_at(L, T, omega), rel=1e-12)

    def test_terms_and_sum_share_one_rule(self):
        # single terms, summed until they stop adding, give the truncated sum
        L = 1e-15
        T, omega, mu = state_at(L)
        total, n = 0.0, 1
        while True:
            term = matsubara_term(n, L, T, omega, mu)
            if total + term == total:
                break
            total += term
            n += 1
        assert sum_at(L, T, omega) == pytest.approx(total, rel=1e-12)

    @pytest.mark.parametrize("L_fm, L_init_fm", [(1.0, 1.0), (0.3, 10.0), (0.1, 100.0),
                                                 (2.0, 2.0)])
    def test_terms_and_sum_share_one_evaluator(self, L_fm, L_init_fm, monkeypatch):
        # every series argument a_n the sum evaluates is, bit for bit, the one
        # matsubara_term(n, ...) evaluates, at coupled and pinned states
        s = plasma_state_from_distance(L_init_fm * 1e-15, SPIN)
        L = L_fm * 1e-15
        seen = []

        def recording(a):
            seen.append(a)
            return _mode_series(a)

        monkeypatch.setattr(lifshitz, "_mode_series", recording)
        sum_at(L, s.T, s.omega_ep)
        from_sum = list(seen)
        seen.clear()
        for n in range(1, len(from_sum) + 1):
            matsubara_term(n, L, s.T, s.omega_ep, s.mu_ep)
        assert len(from_sum) > 1
        assert seen == from_sum

    @pytest.mark.parametrize("n", [1.5, 1.0, -1])
    def test_index_must_be_a_non_negative_integer(self, n):
        with pytest.raises(DomainError, match="Matsubara index n must be a non-negative integer"):
            matsubara_term(n, 1e-15, 8.7e11, 1.8e23, 1.0)


# xbar = 2 k_B T L/(hbar c) over 1e-6 .. 3; below 3e-5 the sum once ran out
# of terms
TAIL_XBARS = [1e-6, 1e-5, 1e-4, 1e-3, 0.01, 0.1, 0.3, 1.0, 3.0]
# pinned states: omega_ep/xi_1 = 0.035 at 100 fm, and 10.0 in the hot state at 1.245e-3 fm
PINNED_FM = [100.0, 1.245e-3]


def counted_sum(L, T, omega, monkeypatch):
    calls = []

    def counting(a):
        calls.append(a)
        return _mode_series(a)

    monkeypatch.setattr(lifshitz, "_mode_series", counting)
    value = sum_at(L, T, omega)
    monkeypatch.undo()
    return value, len(calls)


def at_xbar(xbar, T):
    return xbar * HBAR_C / (2.0 * K_B * T)


class TestMatsubaraTail:
    """The n > 0 sum with its Euler-Maclaurin tail, against oracles over
    1e-6 <= xbar <= 3: 1e-12 relative, at most 40 series calls a sum."""

    @pytest.mark.parametrize("xbar", TAIL_XBARS)
    def test_zero_density_against_the_j_sum(self, xbar, monkeypatch):
        pytest.importorskip("mpmath")
        L = 1e-15
        T = xbar * HBAR_C / (2.0 * K_B * L)
        value, calls = counted_sum(L, T, 0.0, monkeypatch)
        b = 2.0 * L * (2.0 * math.pi * K_B * T / HBAR) / C
        exact = -K_B * T / (4.0 * math.pi * L * L) * matsubara_j_sum(b)
        assert abs(value / exact - 1.0) <= 1e-12
        assert calls <= 40

    @pytest.mark.parametrize("L_init_fm", PINNED_FM, ids=["nu0.035", "nu10"])
    @pytest.mark.parametrize("xbar", [1e-6, 1e-5, 1e-3, 0.03, 0.3, 3.0])
    def test_pinned_density_against_mpmath(self, xbar, L_init_fm, monkeypatch):
        pytest.importorskip("mpmath")
        s = plasma_state_from_distance(L_init_fm * 1e-15, UNITY)
        L = at_xbar(xbar, s.T)
        value, calls = counted_sum(L, s.T, s.omega_ep, monkeypatch)
        xi_1 = 2.0 * math.pi * K_B * s.T / HBAR
        nu = s.omega_ep / xi_1
        assert nu == pytest.approx({100.0: 0.0353, 1.245e-3: 10.0}[L_init_fm], rel=1e-3)
        exact = (-K_B * s.T / (4.0 * math.pi * L * L)
                 * matsubara_sum_mpmath(2.0 * L * xi_1 / C, nu))
        assert abs(value / exact - 1.0) <= 1e-12
        assert calls <= 40

    @pytest.mark.parametrize("xbar", [1e-6, 1e-5, 1e-4, 1e-3, 0.01, 0.05, 0.1])
    def test_brown_maclay_low_temperature_law(self, xbar):
        # full/E0 = 1 + (45 zeta(3)/pi^3) xbar^3 - xbar^4 + O(e^(-pi/xbar)) at
        # rho = 0, E0 = -pi^2 hbar c/(720 L^3) the ideal Casimir energy per area
        # (Brown and Maclay, Phys. Rev. 184, 1272 (1969))
        L = 1e-15
        T = xbar * HBAR_C / (2.0 * K_B * L)
        energy, _ = ideal_casimir(L, 1.0)
        law = 1.0 + 45.0 * ZETA_3 / math.pi**3 * xbar**3 - xbar**4
        assert abs(full_matsubara(L, T, 0.0, 1.0) / (energy * law) - 1.0) <= 1e-12

    @pytest.mark.parametrize("xbar", [1e-5, 0.01, 0.1, 1.0])
    def test_private_sum_reports_terms_and_bound(self, xbar, monkeypatch):
        s = plasma_state_from_distance(1e-13, UNITY)
        L = at_xbar(xbar, s.T)
        value, calls = counted_sum(L, s.T, s.omega_ep, monkeypatch)
        total, n_direct, bound = sum_parts(L, s.T, s.omega_ep)
        assert total == value
        assert n_direct == calls
        assert 0.0 <= bound <= 1e-12 * abs(total)

    @pytest.mark.parametrize("L_fm", [0.5, 1.0, 3.0, 10.0])
    def test_head_sums_keep_the_direct_rule(self, L_fm):
        # coupled states converge within the direct terms: the sum is, bit for
        # bit, the prefactor times f(n) = S(b y_n), y_n = sqrt(n^2 + nu^2),
        # added until the rest's bound 2 f(n) y_n/(b n) <= 1e-12 sum f
        L = L_fm * 1e-15
        s = plasma_state_from_distance(L, SPIN)
        prefactor, b, nu = scales_at(L, s.T, s.omega_ep)
        total = 0.0
        for n in range(1, 1000):
            y = math.sqrt(n * n + nu * nu)
            f = _mode_series(b * y)
            total += f
            if f * y <= 0.5 * 1e-12 * b * n * total:
                break
        assert n < lifshitz._EM_HEAD
        assert sum_at(L, s.T, s.omega_ep) == prefactor * total

    @pytest.mark.parametrize("L_init_fm", PINNED_FM, ids=["nu0.035", "nu10"])
    def test_pinned_sums_across_b_1_against_fsum(self, L_init_fm):
        # the tail is tried only below b = 1: above it the direct rule ends
        # the sum.  Oracle: math.fsum of the terms out to a_n > 80, past which
        # the rest is below 1e-30 of the sum
        s = plasma_state_from_distance(L_init_fm * 1e-15, UNITY)
        xi_1 = 2.0 * math.pi * K_B * s.T / HBAR
        nu = s.omega_ep / xi_1
        for k in range(26):
            b = 0.5 + 0.1 * k
            L = b * C / (2.0 * xi_1)
            prefactor, b, _ = scales_at(L, s.T, s.omega_ep)
            terms, n, a = [], 1, 0.0
            while a <= 80.0:
                a = b * math.sqrt(n * n + nu * nu)
                terms.append(_mode_series(a))
                n += 1
            exact = prefactor * math.fsum(terms)
            assert abs(sum_at(L, s.T, s.omega_ep) / exact - 1.0) <= 1e-12, b

    def test_direct_terms_for_nu_up_to_10(self):
        # finite_freq_sum's claim: at most 37 direct terms for nu <= 10 at
        # any b.  The most are at b = 1, the smallest b with no tail
        most = max((sum_parts_at_scales(b, nu)[1], b, nu)
                   for b in [10.0 ** (k / 20.0) for k in range(-100, 11)]
                   for nu in [0.5 * j for j in range(21)])
        assert most == (37, 1.0, 10.0)
        below = max(sum_parts_at_scales(10.0 ** (k / 20.0), 10.0)[1] for k in range(-100, 0))
        assert below == 34

    @pytest.mark.parametrize("L_fm, L_init_fm", [
        (1e92, None), (1e100, None), (1e100, 1e104), (3e101, 1e104),
    ], ids=["coupled-1e92", "coupled-1e100", "pinned-1e100", "pinned-3e101"])
    def test_sum_at_huge_separations(self, L_fm, L_init_fm):
        # the prefactor -k_B T/(4 pi L^2) is near the bottom of the double
        # range here, so a stop test that carries it underflows
        pytest.importorskip("mpmath")
        L = L_fm * 1e-15
        s = plasma_state_from_distance((L_init_fm or L_fm) * 1e-15, UNITY)
        total, _, bound = sum_parts(L, s.T, s.omega_ep)
        xi_1 = 2.0 * math.pi * K_B * s.T / HBAR
        nu = s.omega_ep / xi_1
        exact = (-K_B * s.T / (4.0 * math.pi * L * L)
                 * matsubara_sum_mpmath(2.0 * L * xi_1 / C, nu))
        assert abs(total / exact - 1.0) <= 1e-12
        assert 0.0 < bound <= 1e-12 * abs(total)

    @pytest.mark.parametrize("L_fm", [1e80, 2e80])
    def test_pinned_sum_at_huge_separations_and_small_b(self, L_fm):
        # pinned at 1e104 fm, b = 2 pi xbar is about 5e-24 and nu 3.5e-53
        # (nu^2 is far below rounding), so the j-sum at rho = 0 is the oracle
        pytest.importorskip("mpmath")
        L = L_fm * 1e-15
        s = plasma_state_from_distance(1e104 * 1e-15, UNITY)
        total, _, bound = sum_parts(L, s.T, s.omega_ep)
        xi_1 = 2.0 * math.pi * K_B * s.T / HBAR
        assert s.omega_ep / xi_1 < 1e-50
        exact = -K_B * s.T / (4.0 * math.pi * L * L) * matsubara_j_sum(2.0 * L * xi_1 / C)
        assert abs(total / exact - 1.0) <= 1e-12
        assert 0.0 < bound <= 1e-12 * abs(total)

    @pytest.mark.parametrize("T", [1e-290, 1e-320])
    def test_scales_reject_an_underflowing_temperature(self, T):
        # k_B T is subnormal or 0: the n > 0 scales would lose their digits
        # or divide by xi_1 = 0
        for evaluator in (sum_at, finite_freq_asymptote,
                          lambda L, T, omega: matsubara_term(1, L, T, omega, 1.0)):
            with pytest.raises(DomainError, match="temperature too small"):
                evaluator(1e-15, T, 0.0)

    @pytest.mark.parametrize("L, T", [(1e-150, 1e-280), (1e150, 1e160)],
                             ids=["underflow", "overflow"])
    def test_scales_reject_a_b_that_is_not_normal(self, L, T):
        # b = 2 L xi_1/c is 0.0 or inf, and the sum's tail divides by b
        for evaluator in (sum_at, finite_freq_asymptote,
                          lambda L, T, omega: matsubara_term(1, L, T, omega, 1.0)):
            with pytest.raises(DomainError, match="L and T out of range"):
                evaluator(L, T, 0.0)

    @pytest.mark.parametrize("L, L_init", [
        (1e-75, 1e85), (1e-100, 1e56), (1e-100, None),
    ], ids=["pinned-1e100fm", "pinned-1e71fm", "T-1e-200"])
    def test_tail_bound_where_b_squared_underflows(self, L, L_init):
        # b is about 5e-160, 5e-156 and 5e-297: b^2 is subnormal or 0.0, yet
        # the bound -prefactor b^2 |B_8|/8! N^-5 [w_0 M_0 + sum u_i l_i] at
        # a = b N is a normal double in the first two states (below the
        # smallest double in the third, where the sum is 1/b large)
        mp = pytest.importorskip("mpmath")
        if L_init is None:
            T, omega = 1e-200, 0.0
        else:
            s = plasma_state_from_distance(L_init, UNITY)
            T, omega = s.T, s.omega_ep
        total, n, bound = sum_parts(L, T, omega)
        prefactor, b, nu = scales_at(L, T, omega)
        assert nu < 1e-30 and b < 1e-154
        assert abs(total / (prefactor * matsubara_j_sum(b)) - 1.0) <= 1e-12
        with mp.workdps(400):
            a = mp.mpf(b) * n
            z = mp.exp(-a)
            bracket = _EM_W0 * -mp.log1p(-z) + mp.fsum(
                u * a ** (i + 1) * mp.polylog(-i, z) for i, u in enumerate(_EM_U))
            expected = float(mp.mpf(K_B) * T / (4 * mp.pi * mp.mpf(L) ** 2) * _EM_SCALE
                             * mp.mpf(b) ** 2 * mp.mpf(n) ** -5 * bracket)
        assert abs(bound - expected) <= 1e-12 * expected
        assert bound <= 1e-12 * abs(total)
        assert (bound >= sys.float_info.min) == (L_init is not None)

    @pytest.mark.parametrize("T", [1e-100, 1e-200], ids=["nu-6.9e239", "nu-inf"])
    def test_bound_where_nu_squared_overflows(self, T):
        # nu = omega_ep/xi_1 is 6.9e239 or inf, so nu^2 and y_1 = sqrt(1 + nu^2)
        # are inf and the first term S(b y_1) is 0.0, as is every later one:
        # the sum is -0.0 (the limit finite_freq_asymptote also returns) and
        # its bound 0.0, not 0 x inf
        omega = plasma_frequency(1e300)
        total, n, bound = sum_parts(1e-15, T, omega)
        assert (math.copysign(1.0, total), total, n, bound) == (-1.0, 0.0, 1, 0.0)
        assert finite_freq_asymptote(1e-15, T, omega) == 0.0

    @pytest.mark.parametrize("b", [4.8e-24, 1e-12, 1e-6, 1e-2, 1.0])
    def test_mpmath_oracle_against_the_j_sum(self, b):
        # the quadrature in matsubara_sum_mpmath must follow the summand's
        # decay length 1/b
        pytest.importorskip("mpmath")
        assert abs(matsubara_sum_mpmath(b, 0.0) / matsubara_j_sum(b) - 1.0) <= 1e-12

    def test_plasma_frequency_edge(self):
        # omega_ep/xi_1 = 3.5e19 with terms that do not vanish would take
        # about 1.8e19 direct terms
        s = plasma_state_from_distance(1e-55, UNITY)
        with pytest.raises(DomainError, match="plasma frequency too high"):
            sum_at(5e-74, s.T, s.omega_ep)


class TestDistanceCoupled:
    def test_kappa_unity_1fm(self):
        b = breakdown_at(1e-15, UNITY)
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
        b = breakdown_at(L, model)
        s = plasma_state_from_distance(L, model)
        kappa = screening_wavevector(s.omega_ep, s.mu_ep)
        assert b.kappa == pytest.approx(kappa, rel=1e-10)
        assert b.zero_freq == pytest.approx(
            zero_freq_asymptote(kappa, L, s.T), rel=1e-10
        )
        assert b.finite_freq == pytest.approx(
            finite_freq_asymptote(L, s.T, s.omega_ep), rel=1e-10
        )

    def test_components_at_1fm_unity(self):
        b = breakdown_at(1e-15, UNITY)
        assert per_pair_mev(b.zero_freq) == pytest.approx(-3.3, abs=0.1)
        assert per_pair_mev(b.finite_freq) == pytest.approx(-0.40, abs=0.01)

    def test_breakdown_invariants(self):
        for L_fm in (1.0, 1.7, 2.6):
            b = breakdown_at(L_fm * 1e-15, SPIN)
            assert b.zero_freq <= 0.0
            assert b.finite_freq <= 0.0
            assert b.total == b.zero_freq + b.finite_freq

    def test_field_model_rejected(self):
        with pytest.raises(DomainError):
            breakdown_at(1e-15, PermeabilityModel("field", H=1.0))

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
            breakdown_at(L, model)
        assert repr(L) in str(info.value)

    @pytest.mark.parametrize("model", CLOSED_FORM_MODELS, ids=str)
    def test_folded_constants_keep_every_bit(self, model):
        # 20 points a decade from 1e-72 to 1e117 fm; the spin forms stop
        # being finite below about 1.2e-48 fm
        for k in range(189 * 20 + 1):
            L = 10.0 ** (-72.0 + k / 20.0) * 1e-15
            assert bits(breakdown_at, L, model) == bits(
                breakdown_unfolded, L, model), L
            assert bits(plasma_state_from_distance, L, model) == bits(
                plasma_state_unfolded, L, model), L
            rho, T = density_unfolded(L), temperature_unfolded(L)
            assert bits(plasma_frequency, rho) == bits(plasma_frequency_unfolded, rho), L
            assert bits(lambda rho, T: model.static_mu_column([rho], [T])[0], rho, T) == bits(
                static_mu_unfolded, model, rho, T), L
            assert bits(lambda L: model.coupled_mu_column([L])[0], L) == bits(
                coupled_mu_unfolded, model, L), L

    @pytest.mark.parametrize("model", CLOSED_FORM_MODELS, ids=str)
    @pytest.mark.parametrize(
        "L, words",
        [
            (1e-104, "L^3 underflows"),
            (1e-95, "2 L^3 m_e underflows"),
            (1e-89, "the closed forms are not finite"),
            (1e103, "L^3 overflows"),
        ],
    )
    def test_folded_constants_keep_every_edge(self, model, L, words):
        message = bits(breakdown_at, L, model)
        assert message == bits(breakdown_unfolded, L, model)
        assert isinstance(message, str) and words in message

    @pytest.mark.parametrize("model, L", [(UNITY, 3e-88), (SPIN, 1.2e-63)])
    def test_finite_just_above_the_edge(self, model, L):
        b = breakdown_at(L, model)
        assert all(math.isfinite(v) for v in (b.kappa, b.total))

    def test_figure_ordering_magnetic_above_unity(self):
        for i in range(41):
            L = (1.0 + 0.05 * i) * 1e-15
            zero_spin = breakdown_at(L, SPIN).zero_freq
            zero_unity = breakdown_at(L, UNITY).zero_freq
            assert abs(zero_spin) < abs(zero_unity)

    @pytest.mark.parametrize("model", [UNITY, SPIN])
    def test_total_magnitude_decreasing_coupled(self, model):
        values = [
            abs(breakdown_at((1.0 + 0.05 * i) * 1e-15, model).total)
            for i in range(41)
        ]
        for a, b in zip(values, values[1:]):
            assert b < a


# the n > 0 column of each sweep method, at one state
FINITE_FREQ = {"asymptote": finite_freq_asymptote, "exact": finite_freq_asymptote,
               "full": sum_at}


def per_point(Ls, evaluate):
    # evaluate at each separation in grid order: every result as float.hex,
    # or the message of the first DomainError
    try:
        return [[float(v).hex() for v in evaluate(L)] for L in Ls]
    except DomainError as exc:
        return str(exc)


def per_grid(evaluate, Ls):
    # evaluate on the whole grid, its columns regrouped by point as per_point
    try:
        columns = evaluate(Ls)
    except DomainError as exc:
        return str(exc)
    return [[float(v).hex() for v in point] for point in zip(*columns)]


def grid_m(L_min_fm, L_max_fm, points):
    # the separations [m] of a sweep or plot grid as the CLI builds it
    step = (L_max_fm - L_min_fm) / (points - 1)
    return [(L_min_fm + i * step) * 1e-15 for i in range(points)]


# grids as the CLI builds them, (separations [m], model), with ends in the physical window and around
# every separation at which a check starts to fail: L^3 underflows below
# 2.8e-88 fm, 2 L^3 m_e below 2.3e-78 fm, the closed forms stop being finite
# below 2.9e-73 fm (unity) or 1.2e-48 fm (spin), rho e^2 underflows above
# 2.8e104 fm, 8 pi^2 L^3 overflows above 1.3e117 fm, 2 L^3 m_e above 4.5e117 fm
# and L^3 above 5.6e117 fm
GRID_ENDS_FM = st.builds(
    lambda edge, decades: edge * 10.0**decades,
    st.sampled_from([2.8e-88, 2.3e-78, 2.9e-73, 1.2e-48, 0.1, 1.0, 100.0, 2.8e104, 5.6e117]),
    st.floats(-2.0, 2.0),
)
GRIDS = st.builds(
    lambda ends, points, model: (grid_m(*sorted(ends), points), model),
    st.tuples(GRID_ENDS_FM, GRID_ENDS_FM).filter(lambda ends: ends[0] != ends[1]),
    st.integers(2, 2000),
    st.sampled_from([UNITY, SPIN, PermeabilityModel("spin", "literal")]),
)


# a long grid in the physical window; a grid whose top end is above the
# edge where 8 pi^2 L^3 overflows; one that crosses every edge; one whose top
# end is where 2 L^3 m_e overflows; and one between those two edges
GRID_EXAMPLES = [
    (grid_m(0.1, 100.0, 2000), SPIN),
    (grid_m(2.8e-87, 5.6e117, 6), UNITY),
    (grid_m(1e-74, 1e118, 3), PermeabilityModel("spin", "literal")),
    (grid_m(2.9e-72, 5e117, 2), UNITY),
    (grid_m(2e117, 3e117, 2), SPIN),
]


def grid_examples(test):
    for grid in GRID_EXAMPLES:
        test = example(grid=grid)(test)
    return settings(max_examples=150)(given(grid=GRIDS)(test))


class TestGridEvaluators:
    """Every column of a grid evaluator has the bits of the per-point
    replicas, and a failing grid raises the first failing point's error."""

    @grid_examples
    def test_state_columns(self, grid):
        Ls, model = grid
        assert per_grid(lambda Ls: plasma_state_grid(Ls, model), Ls) == per_point(
            Ls, lambda L: plasma_state_unfolded(L, model))

    @grid_examples
    def test_breakdown_columns(self, grid):
        Ls, model = grid
        expected = per_point(Ls, lambda L: breakdown_unfolded(L, model))
        assert per_grid(lambda Ls: distance_coupled_breakdown(Ls, model), Ls) == expected
        zero_kappa = (expected if isinstance(expected, str)
                      else [[zero, kappa] for zero, _, _, kappa in expected])
        assert per_grid(lambda Ls: distance_coupled_breakdown(
            Ls, model, zero_freq_only=True)[::3], Ls) == zero_kappa

    @pytest.mark.parametrize("method", ["asymptote", "exact", "full"])
    @grid_examples
    def test_sweep_rows(self, method, grid):
        Ls, model = grid

        def row(L):
            state = plasma_state_unfolded(L, model)
            if method == "asymptote":  # the closed forms, with their own kappa
                zero, finite, _, kappa = breakdown_unfolded(L, model)
            else:
                _, T, _, omega, mu = state
                kappa = screening_wavevector(omega, mu)
                zero, finite = zero_freq_exact(kappa, L, T), FINITE_FREQ[method](L, T, omega)
            return (*state[1:], kappa, zero, finite)

        assert per_grid(lambda Ls: sweep_rows(Ls, model, "coupled", method, Ls[0]),
                        Ls) == per_point(Ls, row)

    @pytest.mark.parametrize("method", ["asymptote", "exact", "full"])
    @pytest.mark.parametrize("L_init_fm", [1e-3, 1.0, 10.0, 100.0])
    @pytest.mark.parametrize("Ls", [
        grid_m(0.1, 100.0, 400), grid_m(1.0, 3.0, 5), grid_m(1e-200, 1e-190, 3),
        [1e-15, 1e-215, 2e-15], [3e-15, 1e-15],
    ], ids=["0.1-100fm", "1-3fm", "L2-underflows", "inner-underflow", "descending"])
    def test_pinned_sweep_rows(self, method, L_init_fm, Ls):
        # the rows of a pinned state share its n > 0 scales and y_n; each has
        # the bits of the sum at its own one-point grid.  Pinned at 1, 10 and
        # 100 fm, the 0.1-100 fm grid crosses b = 1, where the tail stops
        # being tried
        s = plasma_state_from_distance(L_init_fm * 1e-15, SPIN)
        kappa = screening_wavevector(s.omega_ep, s.mu_ep)
        zero_freq = zero_freq_asymptote if method == "asymptote" else zero_freq_exact

        def row(L):
            return (*s[1:], kappa, zero_freq(kappa, L, s.T),
                    FINITE_FREQ[method](L, s.T, s.omega_ep))

        assert per_grid(lambda Ls: sweep_rows(Ls, SPIN, "fixed", method, L_init_fm * 1e-15),
                        Ls) == per_point(Ls, row)

    @pytest.mark.parametrize("Ls", [
        [2e-15, 1e-15, 3e-15], [1e-15, math.nan, 2e-15], [1e-15, 1e-89, 2e-15],
        [1e-15, 1e103, 2e-15], [1e-15, 1e103, 1e-89, 2e-15], [],
    ], ids=["unordered", "nan", "inner-not-finite", "inner-overflow", "both", "empty"])
    @pytest.mark.parametrize("model", [UNITY, SPIN], ids=str)
    def test_grids_that_do_not_ascend(self, Ls, model):
        # no end check can vouch for the inside of such a grid: it is checked
        # point by point
        assert per_grid(lambda Ls: plasma_state_grid(Ls, model), Ls) == per_point(
            Ls, lambda L: plasma_state_unfolded(L, model))
        assert per_grid(lambda Ls: distance_coupled_breakdown(Ls, model), Ls) == per_point(
            Ls, lambda L: breakdown_unfolded(L, model))

    def test_field_model_rejected_after_the_first_points_checks(self):
        field = PermeabilityModel("field", H=1.0)
        with pytest.raises(DomainError, match="defined for unity|spin"):
            distance_coupled_breakdown([1e-15, 1e103], field)
        with pytest.raises(DomainError, match="L = 1e-101 m, 2 L\\^3 m_e underflows"):
            distance_coupled_breakdown([1e-101, 1e-15], field)

    def test_each_end_is_checked_once(self, monkeypatch):
        # a one-point grid's two ends are one point: it is checked once
        checked, evaluated = [], []
        check_balance, closed_forms = plasma._check_balance, lifshitz._closed_forms
        monkeypatch.setattr(plasma, "_check_balance",
                            lambda L: checked.append(L) or check_balance(L))
        monkeypatch.setattr(lifshitz, "_closed_forms",
                            lambda Ls, *args: evaluated.append(Ls) or closed_forms(Ls, *args))
        plasma_state_from_distance(1e-15, SPIN)
        assert checked == [1e-15]
        plasma_state_grid([1e-15, 2e-15, 3e-15], SPIN)
        assert checked == [1e-15, 1e-15, 3e-15]
        distance_coupled_breakdown([1e-15], SPIN)
        assert evaluated == [[1e-15], [1e-15]]  # the check, then the grid

    def test_sum_columns_must_have_one_length(self):
        s = plasma_state_from_distance(1e-15, SPIN)
        with pytest.raises(ValueError):
            finite_freq_sum([1e-15, 2e-15], [s.T], [s.omega_ep])

    def test_one_point_records(self):
        for model in (UNITY, SPIN):
            state = plasma_state_from_distance(1e-15, model)
            assert state == tuple(column[0] for column in plasma_state_grid([1e-15], model))
            assert isinstance(state.T, float)


GRID_1_3_FM = grid_m(1.0, 3.0, 5)


class TestSweep:
    def test_seven_columns_in_grid_order(self):
        columns = sweep_rows(GRID_1_3_FM, UNITY, "coupled", "asymptote", 1e-15)
        assert len(columns) == 7
        assert all(len(column) == 5 for column in columns)
        assert columns[0] == [plasma_state_from_distance(L).T for L in GRID_1_3_FM]

    def test_fixed_mode_pins_temperature(self):
        Ts = sweep_rows(GRID_1_3_FM, UNITY, "fixed", "asymptote", 1e-15)[0]
        assert len(set(Ts)) == 1
        assert Ts[0] == pytest.approx(plasma_state_from_distance(1e-15).T, rel=1e-12)

    def test_fixed_mode_honors_initial_separation(self):
        Ts = sweep_rows(grid_m(1.0, 3.0, 3), UNITY, "fixed", "asymptote", 2e-15)[0]
        assert Ts[0] == pytest.approx(plasma_state_from_distance(2e-15).T, rel=1e-12)

    def test_full_method_matches_direct_sum(self):
        *_, zeros, finites = sweep_rows([1e-15, 2e-15], SPIN, "coupled", "full", 1e-15)
        L = 1e-15
        expected = full_matsubara(L, *state_at(L))
        assert zeros[0] + finites[0] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("mode, method, message", [
        ("periodic", "asymptote", "unknown sweep mode 'periodic'"),
        ("fixed", "magic", "unknown sweep method 'magic'"),
    ])
    def test_unknown_mode_or_method(self, mode, method, message):
        with pytest.raises(DomainError, match=message):
            sweep_rows(GRID_1_3_FM, UNITY, mode, method, 1e-15)
