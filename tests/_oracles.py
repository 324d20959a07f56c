"""Independent oracles for the test suite (not collected by pytest).

Every reference computation here uses the standard library or mpmath, a
test-only dependency: the package itself imports nothing beyond the
standard library.
"""

from __future__ import annotations

import json
import math
import re
import sys

import mpmath as mp

from casnuc.constants import (
    C,
    E_CHARGE,
    EPS_0,
    GAMMA_BALANCE,
    HBAR,
    HBAR_C,
    K_B,
    M_E,
    MU_0,
    MU_B,
    ZETA_3,
)
from casnuc.errors import DomainError, NumericalError
from casnuc.lifshitz import FreeEnergyBreakdown
from casnuc.plasma import _separation_cube
from casnuc.svgplot import (
    _HEIGHT,
    _MARGIN_BOTTOM,
    _MARGIN_LEFT,
    _MARGIN_RIGHT,
    _MARGIN_TOP,
    _WIDTH,
    _fmt,
)


def zero_freq_quadrature(kappa: float, L: float, T: float) -> float:
    """Zero-frequency free energy per area by adaptive quadrature.

    Independent oracle for zero_freq_exact: integrates
    (k_B T / 8 pi L^2) u ln(1 - e^-u) over u in [a, a + 60], a = 2 kappa L
    (the integrand is below 1e-24 of its peak beyond the cap), with mpmath's
    tanh-sinh quadrature at 25 digits.  mp.quad's error target is absolute,
    so the integrand is scaled by e^a to order one.
    """
    if kappa < 0.0:
        raise DomainError(f"kappa must be non-negative, got {kappa}")
    if not L > 0.0 or not T > 0.0:
        raise DomainError(f"L and T must be positive, got L={L}, T={T}")
    a = 2.0 * kappa * L
    if a > 745.0:
        return 0.0
    with mp.workdps(25):
        scale = mp.exp(a)
        value, abserr = mp.quad(lambda u: scale * u * mp.log1p(-mp.exp(-u)), [a, a + 60.0],
                                error=True)
        value, abserr = value / scale, abserr / scale
    if value != 0.0 and abserr > 1e-6 * abs(value):
        raise NumericalError(
            f"quadrature failed to converge: a={a}, value={value}, abserr={abserr}"
        )
    return K_B * T / (8.0 * math.pi * L * L) * float(value)


def zero_freq_series(kappa: float, L: float, T: float, terms: int | None = None) -> float:
    """Zero-frequency free energy per area from its defining sum.

    Independent oracle for zero_freq_exact (stdlib only): math.fsum of
    -(k_B T / 8 pi L^2) e^(-j a) (a/j^2 + 1/j^3), a = 2 kappa L, over
    j <= terms.  By default j runs to 50/a + 1, which needs a >= 0.1: each
    neglected term is then below e^-50 of the first, so together they are
    below 1e-20 of the sum.  terms=1 gives the large-screening asymptote.
    """
    if not L > 0.0 or not T > 0.0:
        raise DomainError(f"L and T must be positive, got L={L}, T={T}")
    a = 2.0 * kappa * L
    if terms is None:
        if not a >= 0.1:
            raise DomainError(f"the summed series needs a = 2 kappa L >= 0.1, got {a}")
        terms = int(50.0 / a) + 1
    parts = [math.exp(-j * a) * (a / j**2 + 1.0 / j**3) for j in range(1, terms + 1)]
    return -K_B * T / (8.0 * math.pi * L * L) * math.fsum(parts)


# 1/j^2, 1/j^3 and 2/j^4 for j = 1 .. 32, a table longer than the 21 terms
# the two loops below can need at a >= 1.5
_LOOP_INV_POWERS = tuple((1.0 / (j * j), 1.0 / (j * j * j), 2.0 / (j * j * j * j))
                         for j in range(1, 33))


def mode_series_loop(a: float) -> tuple[float, int]:
    """(S(a), terms summed) by the large-a loop of lifshitz._mode_series on
    up to 32 terms, a >= 1.5.

    Oracle for the 21-term loop, which must return the same bits: the sum
    stops once the next term's geometric tail bound is below 2^-53 of the
    partial sum, and the loop's length only decides where it gives up
    (NumericalError)."""
    half = math.exp(-0.5 * a)
    decay = half * half
    tol = 2.0**-53 * (1.0 - decay)
    power = 1.0
    total = 0.0
    for j, (inv2, inv3, _) in enumerate(_LOOP_INV_POWERS, 1):
        term = power * (a * inv2 + inv3)
        total += term
        if term * decay <= tol * total:
            return total * half * half, j
        power *= decay
    raise NumericalError(f"mode series did not stop within 32 terms: a={a}")


def mode_series_tails_loop(a: float) -> tuple[tuple[float, float], int]:
    """((Li2(e^-a), a Li3(e^-a) + 2 Li4(e^-a)), terms summed) by the large-a
    loop of _matsubara_tail._mode_series_tails on up to 32 terms, a >= 1.5;
    the oracle for its 21-term loop, as mode_series_loop is for S."""
    half = math.exp(-0.5 * a)
    decay = half * half
    tol = 2.0**-53 * (1.0 - decay)
    power = 1.0
    li2 = integral = 0.0
    for j, (inv2, inv3, inv4) in enumerate(_LOOP_INV_POWERS, 1):
        term2 = power * inv2
        term = power * (a * inv3 + inv4)
        li2 += term2
        integral += term
        if term2 * decay <= tol * li2 and term * decay <= tol * integral:
            return (li2 * decay, integral * decay), j
        power *= decay
    raise NumericalError(f"mode series tails did not stop within 32 terms: a={a}")


def pair_density(T: float) -> float:
    """Total e- + e+ number density of the thermal pair gas at temperature T.

    Independent oracle for the rho of plasma.plasma_state_from_distance,
    which is this density at the balance temperature written in L alone:
    rho = (3 zeta(3)/pi^2) (k_B T)^3 / (hbar c)^3, the relativistic form,
    valid for k_B T >> m_e c^2.
    """
    if not T > 0.0:
        raise DomainError(f"temperature must be positive, got {T}")
    try:
        cube = (K_B * T / HBAR_C) ** 3
    except OverflowError:
        raise DomainError(f"temperature too large: T = {T} K, T^3 overflows") from None
    return 3.0 * ZETA_3 / math.pi**2 * cube


def blackbody_energy(T: float, volume: float) -> float:
    """Black-body photon energy pi^2 (k_B T)^4 V / (15 (hbar c)^3).

    Independent oracle for the balance temperature, the T of
    plasma.plasma_state_from_distance: at it, this energy in the gap volume
    equals the magnitude of the ideal Casimir energy of the plates.
    """
    return math.pi**2 / 15.0 * (K_B * T) ** 4 / HBAR_C**3 * volume


def balance_cubic_residual(x: float, D: float) -> float:
    """Residual x^3 - D x - 2 D of the force-balance cubic."""
    return x**3 - D * x - 2.0 * D


def balance_cubic_bisection(D: float) -> float:
    """Largest positive root of x^3 - D x - 2 D = 0 by bisection.

    Independent oracle for the closed-form root behind
    nuclear.equilibrium_distance: doubles an upper bracket from 1 until the
    residual turns positive, then halves [0, hi] until the midpoint stops
    moving.
    """
    if not D > 0.0:
        raise DomainError(f"balance constant must be positive, got {D}")
    lo, hi = 0.0, 1.0
    for _ in range(200):
        if balance_cubic_residual(hi, D) > 0.0:
            break
        hi *= 2.0
    else:
        raise NumericalError(f"failed to bracket the cubic root for D={D}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if balance_cubic_residual(mid, D) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def matsubara_j_sum(b: float) -> float:
    """sum_{n>=1} S(b n) at zero density, summed over j first.

    Independent oracle for lifshitz.finite_freq_sum at rho = 0: with
    S(a) = sum_j e^(-j a) (a/j^2 + 1/j^3) the n-sums are geometric, leaving
    sum_j [b e^(-j b)/(j^2 (1 - e^(-j b))^2) + 1/(j^3 (e^(j b) - 1))],
    which mpmath's nsum extrapolates (30 digits).
    """
    with mp.workdps(30):
        b = mp.mpf(b)
        value = mp.nsum(lambda j: b * mp.exp(-j * b) / (j**2 * mp.expm1(-j * b) ** 2)
                        + 1 / (j**3 * mp.expm1(j * b)), [1, mp.inf])
    return float(value)


def matsubara_sum_mpmath(b: float, nu: float, head: int = 40, order: int = 6) -> float:
    """sum_{n>=1} S(b sqrt(n^2 + nu^2)) with mpmath (20 digits).

    Independent oracle for lifshitz.finite_freq_sum at a finite density
    (b = 2 L xi_1/c, nu = omega_ep/xi_1): the first `head` terms directly,
    the rest by the Euler-Maclaurin formula with the integral from mp.quad
    and the derivatives from mp.taylor, both numerical, in place of the
    closed forms.  The summand decays over x ~ 1/b, so the quadrature's
    breakpoints sit at head + 1/b, 10/b and 100/b.  mpmath's nsum
    extrapolation is 0.999 off at b = 6e-6 and its own Euler-Maclaurin
    method takes 10-80 s a sum, hence this one.
    """
    with mp.workdps(20):
        b, nu = mp.mpf(b), mp.mpf(nu)

        def f(x):
            a = b * mp.sqrt(x * x + nu * nu)
            z = mp.exp(-a)
            return a * mp.polylog(2, z) + mp.polylog(3, z)

        total = mp.fsum(f(n) for n in range(1, head + 1)) - f(head) / 2
        total += mp.quad(f, [head] + [head + k / b for k in (1, 10, 100)] + [mp.inf])
        derivatives = mp.taylor(f, head, 2 * order - 1)
        for k in range(1, order + 1):
            total -= mp.bernoulli(2 * k) / (2 * k) * derivatives[2 * k - 1]
    return float(total)


def finite_freq_asymptote_mpmath(L: float, T: float, rho: float) -> float:
    """The display of lifshitz.finite_freq_asymptote with mpmath (30 digits):
    -((k_B T)^2/hbar c) e^(-pi rhobar xbar) e^(-2 pi xbar)/L with
    xbar = 2 k_B T L/(hbar c) and rhobar = rho e^2 hbar^2/(4 pi^2 m eps0 (k_B T)^2)."""
    with mp.workdps(30):
        L, rho = mp.mpf(L), mp.mpf(rho)
        kT = mp.mpf(K_B) * mp.mpf(T)
        hbar = mp.mpf(HBAR)
        hbar_c = hbar * mp.mpf(C)
        xbar = 2 * kT * L / hbar_c
        rhobar = (rho * mp.mpf(E_CHARGE) ** 2 * hbar**2
                  / (4 * mp.pi**2 * mp.mpf(M_E) * mp.mpf(EPS_0) * kT**2))
        value = -kT * kT / hbar_c * mp.exp(-mp.pi * rhobar * xbar - 2 * mp.pi * xbar) / L
    return float(value)


def table_document_per_value(header, rows, fmt: str) -> str:
    """Oracle for cli._table_document: the same table written one value at a
    time, each value through the CLI's two output rules (a non-finite value
    raises NumericalError naming it, -0.0 prints as 0.0).

    CSV cells carry 9 significant digits; JSON is json.dumps(indent=2) of one
    object per row.
    """
    def finite(value: float) -> float:
        if not math.isfinite(value):
            raise NumericalError(f"non-finite value in output: {value}")
        return value + 0.0

    if fmt == "json":
        objects = [{key: finite(value) for key, value in zip(header, row)} for row in rows]
        return json.dumps(objects, indent=2) + "\n"
    lines = [",".join(header)]
    lines += [",".join(f"{finite(value):.8e}" for value in row) for row in rows]
    return "\n".join(lines) + "\n"


# The closed forms of casnuc.plasma and casnuc.lifshitz with every constant
# factor written out in the display, evaluated on each call.  Oracles for the
# folded evaluators, which must match them bit for bit: a factor folded in
# another operation order rounds differently at some separation.

_UNFOLDED_SCALE = {"table": 2.0, "literal": 1.0}


def temperature_unfolded(L: float) -> float:
    """The T of plasma.plasma_state_from_distance, unfolded."""
    if not L > 0.0:
        raise DomainError(f"separation must be positive, got {L}")
    scale = K_B * GAMMA_BALANCE * L
    if scale < sys.float_info.min:
        raise DomainError(f"separation too small: L = {L} m, k_B gamma L underflows")
    return HBAR_C / scale


def density_unfolded(L: float) -> float:
    """The rho of plasma.plasma_state_from_distance, unfolded."""
    denominator = 8.0 * math.pi**2 * _separation_cube(L)
    if denominator == math.inf:
        raise DomainError(f"separation too large: L = {L} m, 8 pi^2 L^3 overflows")
    return 3.0**0.25 * ZETA_3 / denominator


def plasma_frequency_unfolded(rho: float) -> float:
    """plasma.plasma_frequency, unfolded."""
    if rho < 0.0:
        raise DomainError(f"density must be non-negative, got {rho}")
    charge = rho * E_CHARGE**2
    if rho > 0.0 and charge < sys.float_info.min:
        raise DomainError(f"density too small: rho = {rho} 1/m^3, rho e^2 underflows")
    squared = charge / (EPS_0 * M_E)
    if not math.isfinite(squared):
        raise DomainError(f"density too large: rho = {rho} 1/m^3, rho e^2/(eps0 m_e) overflows")
    return math.sqrt(squared)


def static_mu_unfolded(model, rho: float, T: float) -> float:
    """PermeabilityModel.static_mu_column at one state, for the unity and spin
    kinds, unfolded."""
    if model.kind == "unity":
        return 1.0
    return 1.0 + MU_0 * rho * MU_B**2 / (K_B * T) * _UNFOLDED_SCALE[model.convention]


def susceptibility_unfolded(L: float) -> float:
    """The literal-convention closed-form susceptibility at the balance state of L."""
    return math.sqrt(3.0) * MU_0 * ZETA_3 * MU_B**2 / (4.0 * math.pi**2 * HBAR_C * L**2)


def coupled_mu_unfolded(model, L: float) -> float:
    """PermeabilityModel.coupled_mu_column at one separation, unfolded."""
    if model.kind == "unity":
        return 1.0
    return 1.0 + _UNFOLDED_SCALE[model.convention] * susceptibility_unfolded(L)


def plasma_state_unfolded(L: float, model) -> tuple[float, float, float, float, float]:
    """plasma.plasma_state_from_distance from the unfolded functions."""
    T = temperature_unfolded(L)
    rho = density_unfolded(L)
    return L, T, rho, plasma_frequency_unfolded(rho), static_mu_unfolded(model, rho, T)


def breakdown_unfolded(L: float, model) -> FreeEnergyBreakdown:
    """lifshitz.distance_coupled_breakdown for the unity and spin kinds, unfolded."""
    cube = _separation_cube(L)
    denominator = 2.0 * cube * M_E
    if denominator < sys.float_info.min:
        raise DomainError(f"separation too small: L = {L} m, 2 L^3 m_e underflows")
    if denominator > sys.float_info.max:
        raise DomainError(f"separation too large: L = {L} m, 2 L^3 m_e overflows")
    kappa = (3.0**0.125 / (2.0 * math.pi)) * math.sqrt(
        E_CHARGE**2 * MU_0 * ZETA_3 / denominator * coupled_mu_unfolded(model, L)
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


def polylines_per_vertex(doc: str, series) -> str:
    """Oracle for the polyline vertices of svgplot.render_line_chart: doc with
    the points of its i-th polyline rewritten from series i by the per-vertex
    writer f"{_fmt(px(x))},{_fmt(py(y))}", px and py the affine pixel maps.

    The bounds are those of all series together, widened by 1 on each side
    where they coincide.  Raises ValueError unless doc holds one polyline per
    series.
    """
    xmin = min(min(xs) for _, xs, _ in series)
    xmax = max(max(xs) for _, xs, _ in series)
    ymin = min(min(ys) for _, _, ys in series)
    ymax = max(max(ys) for _, _, ys in series)
    if xmin == xmax:
        xmin, xmax = xmin - 1.0, xmax + 1.0
    if ymin == ymax:
        ymin, ymax = ymin - 1.0, ymax + 1.0
    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(x: float) -> float:
        return _MARGIN_LEFT + (x - xmin) / (xmax - xmin) * plot_w

    def py(y: float) -> float:
        return _MARGIN_TOP + (1.0 - (y - ymin) / (ymax - ymin)) * plot_h

    pending = iter(series)

    def points(_match: re.Match) -> str:
        _, xs, ys = next(pending)
        return 'points="' + " ".join(f"{_fmt(px(x))},{_fmt(py(y))}"
                                     for x, y in zip(xs, ys)) + '"'

    rewritten, count = re.subn(r'(?<=<polyline )points="[^"]*"', points, doc)
    if count != len(series):
        raise ValueError(f"{count} polylines for {len(series)} series")
    return rewritten
