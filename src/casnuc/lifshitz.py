"""Interaction free energies between perfectly conducting plates across the
pair plasma.

Both plates are ideal mirrors, so every Matsubara term reduces to the mode
series S(a) = sum_j e^(-j a) (a/j^2 + 1/j^3) = a Li2(e^-a) + Li3(e^-a) of a
single screening argument a = 2 kappa L, evaluated to double precision in a
bounded number of operations (_mode_series).  Each term has one evaluator:
zero_freq_exact the n = 0 term, the only one the permeability model enters,
and _finite_freq_term every n > 0 term (mu = 1), which both matsubara_term
and finite_freq_sum call.  The n > 0 sum derives its scales once, adds its
first terms directly and replaces the rest by an Euler-Maclaurin tail built
from closed forms (_matsubara_tail, which also decides where the tail is
tried), whose remainder is bounded below 1e-12 of the sum; it and its
large-x asymptote take (L, T, rho).  On top sit the distance-coupled closed
forms and separation sweeps.  The tests check S against mpmath, the sum
against the j-sum, mpmath and the Brown-Maclay law, and the closed forms
against the plasma pipeline.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .constants import (
    C,
    E_CHARGE,
    EPS_0,
    HBAR,
    HBAR_C,
    K_B,
    M_E,
    MU_0,
    R_PROTON_DEFAULT,
    ZETA_3,
)
from .errors import ConvergenceError, DomainError
from .plasma import (
    PermeabilityModel,
    _separation_cube,
    plasma_frequency,
    plasma_state_from_distance,
)
from .units import J_PER_MEV, M_PER_FM, fm_to_m

DEFAULT_PLATE_AREA = math.pi * R_PROTON_DEFAULT**2  # [m^2]

# mode series (see _mode_series): at a >= _SERIES_SPLIT the tail bound falls
# below _SERIES_RTOL within 21 terms, so no finite argument reaches the cap
_SERIES_SPLIT = 1.5
_SERIES_RTOL = 2.0**-53
_SERIES_MAX_TERMS = 32
_SERIES_INV_POWERS = tuple(
    (1.0 / (j * j), 1.0 / (j * j * j)) for j in range(1, _SERIES_MAX_TERMS + 1)
)
# (m - 1) B_(m-2) / ((m - 2) m!) = (1 - m) zeta(3 - m)/m!, the a^m coefficients
# of the expansion for m = 30, 28, ..., 4 (highest first, for Horner's rule in
# a^2); the first omitted term, m = 32, is below 1e-20 of S at the split
_SMALL_A_COEFFS = (
    -1.065894931790184e-25,
    4.85536681267784e-24,
    -2.236292417598161e-22,
    1.043371747795498e-20,
    -4.942883405813777e-19,
    2.3850172378549568e-17,
    -1.1769723251120078e-15,
    5.974346665484231e-14,
    -3.1453512730282697e-12,
    1.7397297489890083e-10,
    -1.0333994708994709e-08,
    6.889329805996473e-07,
    -5.787037037037037e-05,
    0.010416666666666666,
)

# Matsubara sum (see _finite_freq_sum): bound on the neglected tail, relative
# to the sum; the Euler-Maclaurin tail (_matsubara_tail) is tried from the
# _EM_HEAD-th direct term on
_MATSUBARA_RTOL = 1e-12
_EM_HEAD = 12

SWEEP_METHODS = ("asymptote", "exact", "full")
SWEEP_MODES = ("coupled", "fixed")

# largest sweep or plot grid (--points); 25x the largest benchmarked grid
MAX_GRID_POINTS = 1_000_000

# Smallest xbar = 2 k_B T L/(hbar c) (0.01 grid) at which the finite-frequency
# asymptote agrees with the summed n > 0 terms to better than 10%, scanned at
# L = 1 fm with rho pinned to the 1 fm balance density and T varied.  Measured
# against the full sum; regression-pinned.
XBAR_CROSSOVER_10PCT = 1.65


class FreeEnergyBreakdown(namedtuple("FreeEnergyBreakdown", "zero_freq finite_freq total kappa")):
    """Free energy per unit area split into Matsubara components [J/m^2]:
    zero_freq (n = 0) + finite_freq (n > 0) = total; kappa is the screening
    wavevector sqrt(mu_ep) omega_ep / c [1/m]."""

    __slots__ = ()


def _mode_series(a: float) -> float:
    """S(a) = sum_{j>=1} e^(-j a) (a/j^2 + 1/j^3) = a Li2(e^-a) + Li3(e^-a).

    Two exact evaluations, split at a = 1.5:

    * a < 1.5: the small-argument expansion, convergent for a < 2 pi,
      S = zeta(3) + a^2 (ln(a)/2 - 1/4) - a^3/6
          + sum_{m even >= 4} (1 - m) zeta(3 - m) a^m/m!,
      summed to m = 30 (the rest is below 1e-20 of S); S(0) = zeta(3).
    * a >= 1.5: the exponential sum.  Successive terms shrink by at least
      r = e^-a, so the tail after a term t is at most t r/(1 - r); the sum
      stops once that bound is below 2^-53 of the partial sum (at most 21
      terms).  e^-a enters as (e^(-a/2))^2 so that a subnormal e^-a costs
      no precision.

    Relative error below 6e-16 against a Li2(e^-a) + Li3(e^-a) (mpmath,
    6,500 points in 0 <= a <= 760) wherever S is a normal double; above
    a = 715, where S is subnormal, within one subnormal spacing.  Above
    a = 760 S rounds to 0.0.
    """
    if not a >= 0.0:
        raise DomainError(f"series argument must be non-negative, got {a}")
    if a < _SERIES_SPLIT:
        if a == 0.0:
            return ZETA_3
        x = a * a
        poly = 0.0
        for c in _SMALL_A_COEFFS:
            poly = poly * x + c
        return ZETA_3 + x * (0.5 * math.log(a) - 0.25 - a / 6.0 + x * poly)
    if a > 760.0:
        return 0.0  # S < (a + 1) e^-a/(1 - e^-a) is below the smallest subnormal
    half = math.exp(-0.5 * a)
    decay = half * half
    tol = _SERIES_RTOL * (1.0 - decay)
    power = 1.0  # e^(-(j-1) a); the common factor e^-a is applied at the end
    total = 0.0
    for inv2, inv3 in _SERIES_INV_POWERS:
        term = power * (a * inv2 + inv3)
        total += term
        if term * decay <= tol * total:
            return total * half * half
        power *= decay
    raise ConvergenceError(
        f"mode series did not converge: a={a}, terms={_SERIES_MAX_TERMS}, sum={total}"
    )


def _zero_freq_prefactor(kappa: float, L: float, T: float) -> float:
    # -k_B T/(8 pi L^2), the factor in front of S(a) in the n = 0 term
    if kappa < 0.0:
        raise DomainError(f"kappa must be non-negative, got {kappa}")
    _check_state(L, T, 0.0)
    return -K_B * T / (8.0 * math.pi * L * L)


def zero_freq_exact(kappa: float, L: float, T: float) -> float:
    """Zero-frequency free energy per area, exact series evaluation.

    F0/A = (k_B T / 2 pi) int_0^inf dk k ln(1 - e^(-2 kappa_2 L)) with
    kappa_2 = sqrt(k^2 + kappa^2), evaluated exactly as
    -(k_B T / 8 pi L^2) sum_j e^(-j a) (a/j^2 + 1/j^3), a = 2 kappa L.
    The only evaluator of the n = 0 term: matsubara_term(0, ...),
    full_matsubara and the exact and full sweeps all call it.

    Parameters
    ----------
    kappa : float
        Screening wavevector sqrt(mu_ep) omega_ep / c [1/m].
    L : float
        Plate separation [m].
    T : float
        Temperature [K].

    Returns
    -------
    float
        Free energy per unit area [J/m^2], always <= 0.
    """
    return _zero_freq_prefactor(kappa, L, T) * _mode_series(2.0 * kappa * L)


def zero_freq_asymptote(kappa: float, L: float, T: float) -> float:
    """Large-screening asymptote of the zero-frequency term: the exact series
    truncated at j = 1,

    F0/A = -(k_B T / 8 pi L^2) e^(-a) (1 + a),  a = 2 kappa L.
    """
    if not kappa > 0.0:
        raise DomainError("asymptote undefined at kappa = 0; use zero_freq_exact")
    prefactor = _zero_freq_prefactor(kappa, L, T)
    a = 2.0 * kappa * L
    # the j = 1 term of S is 0.0 beyond a = 746; the cut keeps a = inf from 0 x inf
    return prefactor * (math.exp(-a) * (1.0 + a) if a < 760.0 else 0.0)


def _check_state(L: float, T: float, rho: float) -> None:
    if not L > 0.0 or not T > 0.0:
        raise DomainError(f"L and T must be positive, got L={L}, T={T}")
    if rho < 0.0:
        raise DomainError(f"density must be non-negative, got {rho}")


def finite_freq_asymptote(L: float, T: float, rho: float) -> float:
    """Leading large-x asymptote of the summed n > 0 Matsubara terms.

    Fn/A = -((k_B T)^2 / hbar c) e^(-pi rhobar xbar) e^(-2 pi xbar) / L with
    xbar = 2 k_B T L/(hbar c) and rhobar = rho e^2 hbar^2/(4 pi^2 m eps0 (k_B T)^2).
    The untracked remainder of the source expansion is dropped.
    """
    _check_state(L, T, rho)
    kT = K_B * T
    xbar = 2.0 * kT * L / HBAR_C
    rhobar = rho * E_CHARGE**2 * HBAR**2 / (4.0 * math.pi**2 * M_E * EPS_0 * kT**2)
    return -(kT * kT) / HBAR_C * math.exp(-math.pi * rhobar * xbar - 2.0 * math.pi * xbar) / L


def _finite_freq_scales(L: float, T: float, rho: float) -> tuple[float, float, float]:
    # (omega_ep, prefactor -k_B T/(4 pi L^2), xi_1 = 2 pi k_B T/hbar) of the n > 0 terms
    _check_state(L, T, rho)
    return (plasma_frequency(rho), -K_B * T / (4.0 * math.pi * L * L),
            2.0 * math.pi * K_B * T / HBAR)


def _finite_freq_term(n: int, L: float, omega: float, prefactor: float,
                      xi_1: float) -> tuple[float, float, float]:
    """The one evaluator of the n > 0 terms: (term, root, xi) with xi = n xi_1,
    root = sqrt(xi^2 + omega_ep^2) and term = -(k_B T/4 pi L^2) S(a_n),
    a_n = 2 L root/c, for the scales (omega_ep, prefactor, xi_1) of
    _finite_freq_scales."""
    xi = n * xi_1
    root = math.sqrt(xi * xi + omega * omega)
    return prefactor * _mode_series(2.0 * L * root / C), root, xi


def matsubara_term(
    n: int, L: float, T: float, rho: float, model: PermeabilityModel = PermeabilityModel()
) -> float:
    """Single Matsubara term of the free energy per area (n = 0 at half weight).

    n = 0 delegates to zero_freq_exact with the model's static permeability.
    Every n > 0 term has mu = 1 whatever the model: the spin response has
    died out far below the first Matsubara frequency xi_1 = 2 pi k_B T/hbar.
    """
    if not isinstance(n, int) or n < 0:
        raise DomainError(f"Matsubara index n must be a non-negative integer, got {n!r}")
    if n > 0:
        return _finite_freq_term(n, L, *_finite_freq_scales(L, T, rho))[0]
    _check_state(L, T, rho)
    mu = model.static_mu(rho, T)
    return zero_freq_exact(screening_wavevector(rho, mu), L, T)


def _finite_freq_sum(L: float, T: float, rho: float) -> tuple[float, int, float]:
    """(sum of the n > 0 terms, direct terms added, bound on the rest) [J/m^2].

    With a_n = b sqrt(n^2 + nu^2), b = 2 L xi_1/c and nu = omega_ep/xi_1, the
    terms are -(k_B T/4 pi L^2) f(n), f(n) = S(a_n): a_n rises and is convex
    in n.  The direct terms stop at the first n at which one of two bounds on
    the rest is below 1e-12 of the partial sum:

    * the rest itself: int_a^inf S = sum_j e^(-j a) (a/j^3 + 2/j^4) <= 2 S(a)
      bounds it by 2 |t_n|/a'(n), a'(n) = (2L/c) xi_1 xi_n/sqrt(xi_n^2 + omega^2);
    * from the _EM_HEAD-th term on, the remainder of the Euler-Maclaurin
      formula that replaces it, which then is added.  _matsubara_tail.em_tail
      decides where to try it and refuses a state whose nu is too large for
      its quadrature (DomainError).
    """
    omega, prefactor, xi_1 = _finite_freq_scales(L, T, rho)
    tail_scale = _MATSUBARA_RTOL * L * xi_1 / C  # rtol a'(n) root/(2 xi), any n
    b = 2.0 * L * xi_1 / C
    nu = omega / xi_1
    n, check, total = 0, _EM_HEAD, 0.0
    while True:
        n += 1
        term, root, xi = _finite_freq_term(n, L, omega, prefactor, xi_1)
        total += term
        # the tail bound 2 |term|/a'(n) <= rtol |total|, times a'(n) root/2
        if term == 0.0 or abs(term) * root <= tail_scale * xi * abs(total):
            return total, n, abs(term) * root * C / (L * xi_1 * xi)
        if n == check:  # the tail, which most sums never reach
            from ._matsubara_tail import em_tail
            tail, rest = em_tail(n, 2.0 * L * root / C, term / prefactor, b, nu,
                                 _MATSUBARA_RTOL * total / prefactor)
            if tail is not None:
                return total + prefactor * tail, n, -prefactor * rest
            check = rest


def finite_freq_sum(L: float, T: float, rho: float) -> float:
    """Sum of all n > 0 Matsubara terms; the neglected remainder is bounded
    below 1e-12 of the sum.

    Model-free: every n > 0 term has mu = 1 (see matsubara_term).  The first
    terms are added directly, the rest by an Euler-Maclaurin tail from closed
    forms whose remainder is bounded (see _finite_freq_sum and
    _matsubara_tail), so
    the work does not grow as xbar falls: at most 34 terms for
    omega_ep/xi_1 <= 10 at any xbar, about omega_ep/(2 xi_1) above that.
    """
    return _finite_freq_sum(L, T, rho)[0]


def full_matsubara(
    L: float, T: float, rho: float, model: PermeabilityModel = PermeabilityModel()
) -> float:
    """Full Lifshitz free energy per area between perfect conductors.

    F/A = k_B T sum'_{n>=0} (1/2 pi) int dk k 2 ln(1 - e^(-2 kappa_2 L)),
    the n = 0 term at half weight.  Both polarizations contribute equally in
    the perfect-conductor limit.
    """
    return matsubara_term(0, L, T, rho, model) + finite_freq_sum(L, T, rho)


def screening_wavevector(rho: float, mu_ep: float) -> float:
    """kappa = sqrt(mu_ep) omega_ep / c for the state (rho, mu_ep)."""
    if mu_ep < 1.0:
        raise DomainError(f"mu_ep must be >= 1, got {mu_ep}")
    return math.sqrt(mu_ep) * plasma_frequency(rho) / C


def distance_coupled_breakdown(
    L: float, model: PermeabilityModel = PermeabilityModel()
) -> FreeEnergyBreakdown:
    """Free-energy breakdown with every state variable eliminated in favor of L.

    Evaluates the closed-form displays:
      kappa(L)  = (3^(1/8)/2 pi) sqrt(e^2 mu0 zeta(3)/(2 L^3 m) * P(L)),
                  P = model.coupled_mu(L): 1 (unity) or the closed-form
                  mu_ep(L) (spin);
      F0/A  = -(hbar c/(4 3^(1/4) pi L)) kappa^2 e^(-2 kappa L)
              [1/(2 kappa L) + 1/(2 kappa L)^2];
      Fn/A  = -(hbar c/(4 sqrt(3) L^3))
              exp(-sqrt(3) zeta(3) e^2 mu0/(8 pi^3 m L) - 2 pi/3^(1/4)).

    These must agree with composing the plasma pipeline into the generic
    asymptotes to relative 1e-10 (checked in the tests).  Below about
    1.2e-63 m (spin) or 2.9e-88 m (unity) they are not finite: DomainError.
    """
    cube = _separation_cube(L)
    denominator = 2.0 * cube * M_E
    if denominator < sys.float_info.min:
        raise DomainError(f"separation too small: L = {L} m, 2 L^3 m_e underflows")
    kappa = (3.0**0.125 / (2.0 * math.pi)) * math.sqrt(
        E_CHARGE**2 * MU_0 * ZETA_3 / denominator * model.coupled_mu(L)
    )
    a = 2.0 * kappa * L
    zero = (
        -HBAR_C
        / (4.0 * 3.0**0.25 * math.pi * L)
        * kappa**2
        * math.exp(-a)
        * (1.0 / a + 1.0 / a**2)
    )
    finite = (
        -HBAR_C
        / (4.0 * math.sqrt(3.0) * L**3)
        * math.exp(
            -math.sqrt(3.0) * ZETA_3 * E_CHARGE**2 * MU_0 / (8.0 * math.pi**3 * M_E * L)
            - 2.0 * math.pi / 3.0**0.25
        )
    )
    total = zero + finite
    if not (math.isfinite(kappa) and math.isfinite(total)):
        raise DomainError(f"separation too small: L = {L} m, the closed forms are not finite")
    return FreeEnergyBreakdown(zero_freq=zero, finite_freq=finite, total=total, kappa=kappa)


class SweepSpec(namedtuple(
    "SweepSpec", "L_min_fm L_max_fm points model mode method R_fm L_init_fm",
    defaults=("coupled", "asymptote", R_PROTON_DEFAULT / M_PER_FM, None),
)):
    """Parameters of a separation sweep (distances in fm at this boundary): mode
    is coupled | fixed, method asymptote | exact | full, and a fixed-mode state
    is pinned at L_init_fm (None: L_min_fm)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.L_min_fm > 0.0:
            raise DomainError(f"L_min must be positive, got {self.L_min_fm}")
        if not self.L_max_fm > self.L_min_fm:
            raise DomainError("L_max must exceed L_min")
        if self.points < 2:
            raise DomainError(f"sweep needs at least 2 points, got {self.points}")
        if self.points > MAX_GRID_POINTS:
            raise DomainError(
                f"--points must be at most {MAX_GRID_POINTS}, got {self.points}"
            )
        if self.mode not in SWEEP_MODES:
            raise DomainError(f"unknown sweep mode {self.mode!r}")
        if self.method not in SWEEP_METHODS:
            raise DomainError(f"unknown sweep method {self.method!r}")
        if not self.R_fm > 0.0:
            raise DomainError(f"plate radius must be positive, got {self.R_fm}")
        if self.plate_area() < sys.float_info.min:
            raise DomainError(f"plate radius too small: R = {self.R_fm} fm, pi R^2 underflows")
        if self.L_init_fm is not None and not self.L_init_fm > 0.0:
            raise DomainError(f"L_init must be positive, got {self.L_init_fm}")
        # every grid point is at least L_min, so it cannot underflow either
        fm_to_m(self.L_min_fm, "separation", "L_min")
        if self.L_init_fm is not None:
            fm_to_m(self.L_init_fm, "separation", "L_init")
        return self

    def grid_fm(self) -> list[float]:
        """The evenly spaced separations from L_min to L_max [fm]."""
        step = (self.L_max_fm - self.L_min_fm) / (self.points - 1)
        return [self.L_min_fm + i * step for i in range(self.points)]

    def plate_area(self) -> float:
        """Plate area pi R^2 [m^2]; above about 7.6e168 fm it overflows: DomainError."""
        try:
            area = math.pi * (self.R_fm * M_PER_FM) ** 2
        except OverflowError:
            area = math.inf
        if area == math.inf:
            raise DomainError(f"plate radius too large: R = {self.R_fm} fm, pi R^2 overflows")
        return area


class SweepRow(namedtuple("SweepRow",
                          "L_fm T_K rho_m3 omega_ep mu_ep kappa_1_m F0_MeV Fn_MeV Ftot_MeV")):
    """One sweep grid point in presentation units (CSV row)."""

    __slots__ = ()


def sweep_rows(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate a separation sweep in grid order."""
    area = spec.plate_area()
    fixed = spec.mode == "fixed"
    # coupled asymptote rows use the distance-coupled closed forms, with their own kappa
    closed = not fixed and spec.method == "asymptote"
    zero_freq = zero_freq_asymptote if spec.method == "asymptote" else zero_freq_exact
    finite_freq = finite_freq_sum if spec.method == "full" else finite_freq_asymptote
    if fixed:
        L_init = (spec.L_init_fm if spec.L_init_fm is not None else spec.L_min_fm) * M_PER_FM
        state = plasma_state_from_distance(L_init, spec.model)
        kappa = screening_wavevector(state.rho, state.mu_ep)

    rows: list[SweepRow] = []
    for L_fm in spec.grid_fm():
        L = L_fm * M_PER_FM
        if not fixed:
            state = plasma_state_from_distance(L, spec.model)
        if closed:
            b = distance_coupled_breakdown(L, spec.model)
            zero, finite, kappa = b.zero_freq, b.finite_freq, b.kappa
        else:
            if not fixed:
                kappa = screening_wavevector(state.rho, state.mu_ep)
            zero = zero_freq(kappa, L, state.T)
            finite = finite_freq(L, state.T, state.rho)
        rows.append(SweepRow(
            L_fm, state.T, state.rho, state.omega_ep, state.mu_ep, kappa,
            zero * area / J_PER_MEV, finite * area / J_PER_MEV, (zero + finite) * area / J_PER_MEV,
        ))
    return rows
