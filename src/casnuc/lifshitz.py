"""Interaction free energies between perfectly conducting plates across the
pair plasma.

Both plates are ideal mirrors, so every Matsubara term reduces to the mode
series S(a) = sum_j e^(-j a) (a/j^2 + 1/j^3) = a Li2(e^-a) + Li3(e^-a) of a
single screening argument a = 2 kappa L, evaluated to double precision in a
bounded number of operations (_mode_series).  _zero_freq_column is the one
evaluator of the n = 0 term, the only one the permeability model enters;
zero_freq_exact is its one-point case.  Every n > 0 term (mu = 1) depends on
the state only through the scales (prefactor, b, nu) of _finite_freq_scales:
it is prefactor S(b sqrt(n^2 + nu^2)), with prefactor = -k_B T/(4 pi L^2),
b = 2 L xi_1/c and nu = omega_ep/xi_1.  matsubara_term, the n > 0 sum and
its large-x asymptote all read these three numbers.  The sum adds its first
terms directly and, where b < 1, replaces the rest by an Euler-Maclaurin
tail built from closed forms (_matsubara_tail, which also decides where
next to try it), whose remainder is bounded below 1e-12 of the sum.  On top
sit the distance-coupled closed forms and separation sweeps.  Both the
closed forms and the Matsubara energies are evaluated a grid at a time, as
columns: the closed forms each in one pass over the grid, with their
constant factors folded once, at import, each in its display's own
operation order so that no bit of a result moves; the Matsubara columns
row by row, rows that share a state (T, omega_ep) sharing its n > 0 scales.  A
coupled sweep reads its plasma states as columns of the same grid.  The
tests check S against mpmath, the sum against the j-sum, mpmath, math.fsum
and the Brown-Maclay law, and the closed forms against the plasma pipeline
and, bit for bit, every grid against per-point replicas.

The evaluators that need omega_ep or mu_ep take them as a PlasmaState holds
them (plasma_state_grid derives them), never a density.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from collections.abc import Iterator, Sequence

from .constants import (
    C,
    E_CHARGE,
    HBAR,
    HBAR_C,
    K_B,
    M_E,
    MU_0,
    R_PROTON_DEFAULT,
    ZETA_3,
)
from .errors import DomainError
from .plasma import (
    PermeabilityModel,
    _check_grid,
    _separation_cube,
    plasma_state_from_distance,
    plasma_state_grid,
)

DEFAULT_PLATE_AREA = math.pi * R_PROTON_DEFAULT**2  # [m^2]

# mode series (see _mode_series): at a >= _SERIES_SPLIT the stop test holds
# by the 21st term, so the sum never runs past _SERIES_MAX_TERMS.  The 21st
# term t_21 = r^20 (a/441 + 1/9261), r = e^-a, passes once t_21 r is below
# 2^-53 (1 - r) of the partial sum, itself above its first term a + 1; the
# ratio r^21 (a/441 + 1/9261)/(2^-53 (1 - r)(a + 1)) is 0.34 at a = 1.5 and
# falls as a rises (its log falls at least 20 per unit of a).  The same
# holds for the two series of _matsubara_tail._mode_series_tails (0.55 at
# a = 1.5).  a = 1.5 still needs all 21 terms; a = 2 needs 16.
_SERIES_SPLIT = 1.5
_SERIES_RTOL = 2.0**-53
_SERIES_MAX_TERMS = 21
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

# Smallest xbar = 2 k_B T L/(hbar c) (0.01 grid) at which the finite-frequency
# asymptote agrees with the summed n > 0 terms to better than 10%, scanned at
# L = 1 fm with rho pinned to the 1 fm balance density and T varied.  Measured
# against the full sum; regression-pinned.
XBAR_CROSSOVER_10PCT = 1.65

# constant factors of the distance-coupled closed forms (see
# distance_coupled_breakdown), folded once; each is the leading run of its
# display's products, evaluated left to right as the display is, so folding
# moves no bit of the result
_NEG_HBAR_C = -HBAR_C
_KAPPA_SCALE = 3.0**0.125 / (2.0 * math.pi)
_KAPPA_NUM = E_CHARGE**2 * MU_0 * ZETA_3
_F0_DEN = 4.0 * 3.0**0.25 * math.pi
_FN_DEN = 4.0 * math.sqrt(3.0)
_FN_EXP_NUM = -math.sqrt(3.0) * ZETA_3 * E_CHARGE**2 * MU_0
_FN_EXP_DEN = 8.0 * math.pi**3 * M_E
_FN_EXP_SHIFT = 2.0 * math.pi / 3.0**0.25


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
      stops once that bound is below 2^-53 of the partial sum, which it is
      by the 21st term at every a >= 1.5 (see _SERIES_SPLIT), so 21 terms
      is the cap.  e^-a enters as (e^(-a/2))^2 so that a subnormal e^-a costs
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
            break
        power *= decay
    return total * half * half


def _zero_freq_prefactors(kappas: Sequence[float], Ls: Sequence[float],
                          Ts: Sequence[float]) -> Iterator[float]:
    # -k_B T/(8 pi L^2), the factor in front of S(a) in the n = 0 term, at
    # each row (kappas[i], Ls[i], Ts[i]), each checked before it is yielded
    for kappa, L, T in zip(kappas, Ls, Ts):
        if kappa < 0.0:
            raise DomainError(f"kappa must be non-negative, got {kappa}")
        _check_state(L, T)
        yield -K_B * T / (8.0 * math.pi * L * L)


def _zero_freq_column(kappas: Sequence[float], Ls: Sequence[float],
                      Ts: Sequence[float]) -> list[float]:
    # zero_freq_exact at each row, in row order: a row is checked, then
    # evaluated, before the next is checked, so the first failing row raises
    return [prefactor * _mode_series(2.0 * kappa * L)
            for prefactor, kappa, L in zip(_zero_freq_prefactors(kappas, Ls, Ts), kappas, Ls)]


def zero_freq_exact(kappa: float, L: float, T: float) -> float:
    """Zero-frequency free energy per area, exact series evaluation.

    F0/A = (k_B T / 2 pi) int_0^inf dk k ln(1 - e^(-2 kappa_2 L)) with
    kappa_2 = sqrt(k^2 + kappa^2), evaluated exactly as
    -(k_B T / 8 pi L^2) sum_j e^(-j a) (a/j^2 + 1/j^3), a = 2 kappa L.
    The one-point case of the only evaluator of the n = 0 term, which
    matsubara_term(0, ...), full_matsubara and the exact and full sweeps
    (a grid at a time) all call.

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
    return _zero_freq_column([kappa], [L], [T])[0]


def zero_freq_asymptote(kappa: float, L: float, T: float) -> float:
    """Large-screening asymptote of the zero-frequency term: the exact series
    truncated at j = 1,

    F0/A = -(k_B T / 8 pi L^2) e^(-a) (1 + a),  a = 2 kappa L.
    """
    if not kappa > 0.0:
        raise DomainError("asymptote undefined at kappa = 0; use zero_freq_exact")
    prefactor = next(_zero_freq_prefactors([kappa], [L], [T]))
    a = 2.0 * kappa * L
    # the j = 1 term of S is 0.0 beyond a = 746; the cut keeps a = inf from 0 x inf
    return prefactor * (math.exp(-a) * (1.0 + a) if a < 760.0 else 0.0)


def _check_state(L: float, T: float) -> None:
    if not L > 0.0 or not T > 0.0:
        raise DomainError(f"L and T must be positive, got L={L}, T={T}")
    if L * L < sys.float_info.min:  # the n >= 0 prefactors divide by L^2
        raise DomainError(f"separation too small: L = {L} m, L^2 underflows")


def _checked_omega(omega_ep: float) -> float:
    # omega_ep as a state holds it, checked where it enters: the n > 0 terms
    # read it only through nu^2, so a negative one would act as |omega_ep|
    if not 0.0 <= omega_ep < math.inf:  # a nan fails it too
        raise DomainError(f"plasma frequency must be non-negative and finite, got {omega_ep}")
    return omega_ep


def _finite_freq_scales(Ls: Sequence[float], Ts: Sequence[float], omegas: Sequence[float]
                        ) -> Iterator[tuple[float, float, float, list[float]]]:
    """Yield (prefactor, b, nu, ys) for each row (Ls[i], Ts[i], omegas[i]), in
    row order: the scales of the n > 0 terms prefactor S(b sqrt(n^2 + nu^2)),
    prefactor = -k_B T/(4 pi L^2), b = 2 L xi_1/c and nu = omega_ep/xi_1, with
    xi_1 = 2 pi k_B T/hbar the first Matsubara frequency, and the list ys of
    y_n = sqrt(n^2 + nu^2) (ys[0] = nu) that the sums extend as they reach n.
    The only n > 0 code that computes xi_1 or reads omega_ep; b = 2 pi xbar
    and nu^2 = rhobar.  A row whose state (T, omega_ep) is that of the row
    before shares its xi_1, nu and ys, so a pinned sweep computes them once.

    Each row is checked before it is yielded, in the order of the one-point
    case: L and T, then k_B T, omega_ep (non-negative and finite) and b.  A
    b that is not a normal double (L T below about 4e-312 m K, or above about
    3e304 m K) raises DomainError: the sum's tail divides by b."""
    T_state = omega_state = math.nan  # matches no row: the first computes its state
    for L, T, omega in zip(Ls, Ts, omegas, strict=True):
        _check_state(L, T)
        if T != T_state or omega != omega_state:
            if K_B * T < sys.float_info.min:
                raise DomainError(f"temperature too small: T = {T} K, k_B T underflows")
            xi_1 = 2.0 * math.pi * K_B * T / HBAR
            nu = _checked_omega(omega) / xi_1
            ys = [nu]
            T_state, omega_state = T, omega
        b = 2.0 * L * xi_1 / C
        if not sys.float_info.min <= b <= sys.float_info.max:
            raise DomainError(f"L and T out of range: L = {L} m, T = {T} K, b = 2 L xi_1/c = {b}")
        yield -K_B * T / (4.0 * math.pi * L * L), b, nu, ys


def _finite_freq_asymptotes(Ls: Sequence[float], Ts: Sequence[float],
                            omegas: Sequence[float]) -> list[float]:
    # finite_freq_asymptote at each row, in row order
    return [prefactor * b * math.exp(-b * (1.0 + 0.5 * nu * nu))
            for prefactor, b, nu, _ in _finite_freq_scales(Ls, Ts, omegas)]


def finite_freq_asymptote(L: float, T: float, omega_ep: float) -> float:
    """Leading large-x asymptote of the summed n > 0 Matsubara terms.

    Fn/A = -((k_B T)^2 / hbar c) e^(-pi rhobar xbar) e^(-2 pi xbar) / L with
    xbar = 2 k_B T L/(hbar c) and rhobar = rho e^2 hbar^2/(4 pi^2 m eps0 (k_B T)^2),
    evaluated as prefactor b e^(-b (1 + nu^2/2)) in the scales of
    _finite_freq_scales (b = 2 pi xbar, nu^2 = rhobar = (omega_ep/xi_1)^2).
    The untracked remainder of the source expansion is dropped.  The one-point case of the
    column the exact sweeps evaluate a grid at a time.
    """
    return _finite_freq_asymptotes([L], [T], [omega_ep])[0]


def matsubara_term(n: int, L: float, T: float, omega_ep: float, mu_ep: float) -> float:
    """Single Matsubara term of the free energy per area (n = 0 at half weight)
    at the state (T, omega_ep, mu_ep) of a PlasmaState.

    n = 0 delegates to zero_freq_exact with the static permeability mu_ep.
    Every n > 0 term has mu = 1 whatever mu_ep is: the spin response has
    died out far below the first Matsubara frequency xi_1 = 2 pi k_B T/hbar,
    and the term is prefactor S(b sqrt(n^2 + nu^2)) (see _finite_freq_scales).
    """
    if not isinstance(n, int) or n < 0:
        raise DomainError(f"Matsubara index n must be a non-negative integer, got {n!r}")
    if n > 0:
        prefactor, b, nu, _ = next(_finite_freq_scales([L], [T], [omega_ep]))
        return prefactor * _mode_series(b * math.sqrt(n * n + nu * nu))
    _check_state(L, T)
    return zero_freq_exact(screening_wavevector(omega_ep, mu_ep), L, T)


def _finite_freq_sum(prefactor: float, b: float, nu: float,
                     ys: list[float]) -> tuple[float, int, float]:
    """(sum of the n > 0 terms, direct terms added, bound on the rest) [J/m^2]
    at one row of _finite_freq_scales.

    In the scales (prefactor, b, nu) the terms are prefactor f(n), f(n) =
    S(a_n) with a_n = b y_n, y_n = sqrt(n^2 + nu^2): a_n rises and is convex
    in n, with a'(n) = b n/y_n.  The sum adds f(n) directly and multiplies by
    the prefactor once, at the end, so nothing in it underflows with the
    prefactor.  It stops at the first n at which one of two bounds on the
    rest is below 1e-12 of the partial sum:

    * the rest itself: int_a^inf S = sum_j e^(-j a) (a/j^3 + 2/j^4) <= 2 S(a)
      bounds it by 2 f(n)/a'(n) = 2 f(n) y_n/(b n);
    * where b < 1, from the _EM_HEAD-th term on, the remainder of the
      Euler-Maclaurin formula that replaces it, which then is added.
      _matsubara_tail.em_tail decides where to try it next and refuses a
      state whose nu is too large for its quadrature (DomainError; from
      b = 1 on, such a nu makes the first term 0.0).  From b = 1 on the
      direct rule stops the sum within 37 terms for nu <= 10, and a try of
      the tail there fails or costs more than the terms it would replace.

    A term of 0.0 ends the sum with a bound of 0.0, since every later term
    is 0.0 too; where nu^2 overflows, the first already is.
    """
    nu2 = nu * nu
    half_rtol_b = 0.5 * _MATSUBARA_RTOL * b
    check = _EM_HEAD if b < 1.0 else 0  # n never reaches 0: no tail from b = 1 on
    n, total, filled = 0, 0.0, len(ys)
    while True:
        n += 1
        if n == filled:  # the first row of the state to reach n
            ys.append(math.sqrt(n * n + nu2))
            filled += 1
        y = ys[n]
        f = _mode_series(b * y)
        total += f
        if f == 0.0:  # y is inf where nu^2 overflows: no 0 x inf in the bound
            return prefactor * total, n, 0.0
        # the tail bound 2 f y/(b n) <= rtol total, times b n/2
        if f * y <= half_rtol_b * n * total:
            return prefactor * total, n, -prefactor * (2.0 * f * y / (b * n))
        if n == check:  # the tail, which most sums never reach
            from ._matsubara_tail import em_tail
            tail, rest = em_tail(n, f, b, nu, _MATSUBARA_RTOL * total)
            if tail is not None:  # rest is the tail's bound over b
                return prefactor * (total + tail), n, -prefactor * b * rest
            check = rest


def finite_freq_sum(Ls: Sequence[float], Ts: Sequence[float],
                    omegas: Sequence[float]) -> list[float]:
    """Sum of all n > 0 Matsubara terms at each row (Ls[i], Ts[i], omegas[i])
    of a grid [m, K, rad/s], in grid order: prefactor sum_n S(b sqrt(n^2 +
    nu^2)) in the scales of _finite_freq_scales, with the neglected remainder
    bounded below 1e-12 of the sum.  The one-point grid is the sum at one
    state; rows that share a state (a pinned sweep) share its nu and y_n.
    The rows are checked and summed in grid order, so a failing grid raises
    the error of its first failing row; columns of different lengths raise
    ValueError.

    Model-free: every n > 0 term has mu = 1 (see matsubara_term).  The first
    terms are added directly, the rest, where b < 1, by an Euler-Maclaurin
    tail from closed forms whose remainder is bounded (see _finite_freq_sum
    and _matsubara_tail), so the work does not grow as b = 2 pi xbar falls:
    at most 37 terms for nu <= 10 at any b, about nu/2 above that.
    """
    return [_finite_freq_sum(*scales)[0] for scales in _finite_freq_scales(Ls, Ts, omegas)]


def full_matsubara(L: float, T: float, omega_ep: float, mu_ep: float) -> float:
    """Full Lifshitz free energy per area between perfect conductors at the
    state (T, omega_ep, mu_ep).

    F/A = k_B T sum'_{n>=0} (1/2 pi) int dk k 2 ln(1 - e^(-2 kappa_2 L)),
    the n = 0 term at half weight.  Both polarizations contribute equally in
    the perfect-conductor limit.
    """
    return matsubara_term(0, L, T, omega_ep, mu_ep) + finite_freq_sum([L], [T], [omega_ep])[0]


def screening_wavevector(omega_ep: float, mu_ep: float) -> float:
    """kappa = sqrt(mu_ep) omega_ep / c for the state (omega_ep, mu_ep)."""
    if mu_ep < 1.0:
        raise DomainError(f"mu_ep must be >= 1, got {mu_ep}")
    return math.sqrt(mu_ep) * _checked_omega(omega_ep) / C


def distance_coupled_breakdown(
    Ls: Sequence[float], model: PermeabilityModel = PermeabilityModel(),
    zero_freq_only: bool = False,
) -> FreeEnergyBreakdown:
    """Free-energy breakdowns with every state variable eliminated in favor of
    the separation, at each separation in Ls [m]: one FreeEnergyBreakdown of
    columns in grid order (finite_freq and total None when zero_freq_only).

    Evaluates the closed-form displays:
      kappa(L)  = (3^(1/8)/2 pi) sqrt(e^2 mu0 zeta(3)/(2 L^3 m) * P(L)),
                  P = model.coupled_mu_column: 1 (unity) or the closed-form
                  mu_ep(L) (spin);
      F0/A  = -(hbar c/(4 3^(1/4) pi L)) kappa^2 e^(-2 kappa L)
              [1/(2 kappa L) + 1/(2 kappa L)^2];
      Fn/A  = -(hbar c/(4 sqrt(3) L^3))
              exp(-sqrt(3) zeta(3) e^2 mu0/(8 pi^3 m L) - 2 pi/3^(1/4)).

    Each column is one pass over the grid.  These must agree with composing
    the plasma pipeline into the generic asymptotes to relative 1e-10
    (checked in the tests).  Below about 1.2e-63 m (spin) or 2.9e-88 m
    (unity) they are not finite, and above about 4.5e102 m 2 L^3 m_e
    overflows: DomainError.  The grid is checked as
    one-point grids at its ends, or point by point (see _check_grid), so a
    failing grid raises the error of its first failing point.
    """
    _check_grid(Ls, lambda L: _closed_forms([L], model, zero_freq_only))
    return _closed_forms(Ls, model, zero_freq_only)


def _closed_forms(Ls: Sequence[float], model: PermeabilityModel,
                  zero_freq_only: bool) -> FreeEnergyBreakdown:
    # distance_coupled_breakdown at Ls with the scalar checks of its first
    # point, all that a one-point grid needs: the caller checks a longer one
    if Ls:
        denominator = 2.0 * _separation_cube(Ls[0]) * M_E
        if denominator < sys.float_info.min:
            raise DomainError(f"separation too small: L = {Ls[0]} m, 2 L^3 m_e underflows")
        if denominator > sys.float_info.max:
            raise DomainError(f"separation too large: L = {Ls[0]} m, 2 L^3 m_e overflows")
    cubes = [L**3 for L in Ls]
    kappas = [_KAPPA_SCALE * math.sqrt(_KAPPA_NUM / (2.0 * cube * M_E) * mu)
              for cube, mu in zip(cubes, model.coupled_mu_column(Ls))]
    zeros = [_NEG_HBAR_C / (_F0_DEN * L) * kappa**2 * math.exp(-a) * (1.0 / a + 1.0 / a**2)
             for L, kappa in zip(Ls, kappas) for a in [2.0 * kappa * L]]
    if zero_freq_only:
        finites = totals = None
    else:
        finites = [_NEG_HBAR_C / (_FN_DEN * cube) * math.exp(
                   _FN_EXP_NUM / (_FN_EXP_DEN * L) - _FN_EXP_SHIFT) for L, cube in zip(Ls, cubes)]
        totals = [zero + finite for zero, finite in zip(zeros, finites)]
    # kappa and the total are finite wherever F0 is: a kappa of inf makes F0
    # nan, and Fn is finite at every L whose L^3 is a normal double
    if Ls and not math.isfinite(zeros[0]):
        raise DomainError(f"separation too small: L = {Ls[0]} m, the closed forms are not finite")
    return FreeEnergyBreakdown(zeros, finites, totals, kappas)


def sweep_rows(
    Ls: Sequence[float], model: PermeabilityModel, mode: str, method: str, L_init: float,
) -> tuple[list[float], ...]:
    """Evaluate a separation sweep at the separations Ls [m]: the columns
    (T, rho, omega_ep, mu_ep, kappa, F0/A, Fn/A) in SI units and grid order.

    mode is coupled | fixed, method asymptote | exact | full, and a
    fixed-mode state is pinned at L_init [m].  A coupled sweep reads its
    states as columns over the whole grid (plasma_state_grid), and the
    asymptote method its closed forms too (distance_coupled_breakdown).  The
    exact and full methods evaluate their energies as columns of the grid
    (_zero_freq_column, _finite_freq_asymptotes, finite_freq_sum), in which
    the rows of a pinned state share its n > 0 scales.  A failing sweep
    raises the error of its first failing row: the grid is then evaluated
    one point at a time.
    """
    if mode not in SWEEP_MODES:
        raise DomainError(f"unknown sweep mode {mode!r}")
    if method not in SWEEP_METHODS:
        raise DomainError(f"unknown sweep method {method!r}")
    if mode == "fixed":
        pinned = plasma_state_from_distance(L_init, model)
        pinned_kappa = screening_wavevector(pinned.omega_ep, pinned.mu_ep)

    def columns(Ls: Sequence[float]) -> tuple[list[float], ...]:
        if mode == "fixed":
            state = [[value] * len(Ls) for value in pinned[1:]]
            kappas = [pinned_kappa] * len(Ls)
        else:
            state = plasma_state_grid(Ls, model)[1:]
            if method == "asymptote":  # the closed forms, with their own kappa
                b = distance_coupled_breakdown(Ls, model)
                return (*state, b.kappa, b.zero_freq, b.finite_freq)
            kappas = list(map(screening_wavevector, state[2], state[3]))
        Ts, omegas = state[0], state[2]
        zeros = (list(map(zero_freq_asymptote, kappas, Ls, Ts)) if method == "asymptote"
                 else _zero_freq_column(kappas, Ls, Ts))
        finites = (finite_freq_sum if method == "full" else _finite_freq_asymptotes)(Ls, Ts, omegas)
        return (*state, kappas, zeros, finites)

    try:
        return columns(Ls)
    except (DomainError, ArithmeticError):
        for L in Ls:
            columns([L])  # raises the error of the first failing row
        raise
