"""Interaction free energies between perfectly conducting plates across the
pair plasma.

The zero-frequency Matsubara term is evaluated by an exact exponential
series; the test suite checks it against an independent adaptive-quadrature
oracle of the same integral.  Asymptotic forms, the full Matsubara sum, and
the distance-coupled closed forms mirror one another and are cross-checked
in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import (
    C,
    E_CHARGE,
    EPS_0,
    HBAR,
    HBAR_C,
    K_B,
    M_E,
    MU_0,
    MU_B,
    R_PROTON_DEFAULT,
    ZETA_3,
)
from .errors import ConvergenceError, DomainError
from .plasma import (
    OMEGA_MU_DEFAULT,
    PermeabilityModel,
    pair_density,
    plasma_frequency,
    plasma_state_from_distance,
    temperature_from_distance,
)
from .units import convert

DEFAULT_PLATE_AREA = math.pi * R_PROTON_DEFAULT**2  # [m^2]

# series truncation: next term below this fraction of the accumulated sum
_SERIES_RTOL = 1e-15
_SERIES_MAX_TERMS = 500_000

# Matsubara truncation: term magnitude below this fraction of the partial sum
_MATSUBARA_RTOL = 1e-12
_MATSUBARA_MAX_TERMS = 200_000

SWEEP_METHODS = ("asymptote", "exact", "full")
SWEEP_MODES = ("coupled", "fixed")

# Smallest xbar = 2 k_B T L/(hbar c) (0.01 grid) at which the finite-frequency
# asymptote agrees with the summed n > 0 terms to better than 10%, scanned at
# L = 1 fm with rho pinned to the 1 fm balance density and T varied.  Measured
# against the full sum; regression-pinned.
XBAR_CROSSOVER_10PCT = 1.65


@dataclass(frozen=True)
class FreeEnergyBreakdown:
    """Free energy per unit area split into Matsubara components."""

    zero_freq: float    # n = 0 term [J/m^2]
    finite_freq: float  # n > 0 terms [J/m^2]
    total: float        # zero_freq + finite_freq [J/m^2]
    method: str         # exact_series | asymptote
    kappa: float        # screening wavevector sqrt(mu_ep) omega_ep / c [1/m]
    per_pair: float     # total x plate area [J]


@dataclass(frozen=True)
class LayerResponse:
    """Imaginary-axis response of one layer of the plate/medium stack.

    eps_kind selects the zero-frequency behavior of eps(i xi):
    "finite" keeps eps_value, "plasma" diverges as (omega_p/xi)^2, and
    "perfect_conductor" is the formal infinite-response limit.
    """

    eps_kind: str
    eps_value: float = 1.0
    omega_p: float = 0.0
    mu_static: float = 1.0
    omega_mu: float = OMEGA_MU_DEFAULT
    chi0: float = 0.0

    def __post_init__(self) -> None:
        if self.eps_kind not in ("finite", "plasma", "perfect_conductor"):
            raise DomainError(f"unknown layer kind {self.eps_kind!r}")
        if self.mu_static < 1.0:
            raise DomainError("mu_static must be >= 1")
        if self.omega_p < 0.0:
            raise DomainError("omega_p must be non-negative")

    @classmethod
    def vacuum(cls) -> "LayerResponse":
        return cls(eps_kind="finite", eps_value=1.0)

    @classmethod
    def dielectric(cls, eps: float, mu: float = 1.0) -> "LayerResponse":
        return cls(eps_kind="finite", eps_value=eps, mu_static=mu, chi0=mu - 1.0)

    @classmethod
    def plasma_layer(
        cls,
        omega_p: float,
        mu_static: float = 1.0,
        omega_mu: float = OMEGA_MU_DEFAULT,
    ) -> "LayerResponse":
        return cls(
            eps_kind="plasma",
            omega_p=omega_p,
            mu_static=mu_static,
            omega_mu=omega_mu,
            chi0=mu_static - 1.0,
        )

    @classmethod
    def perfect_conductor(cls) -> "LayerResponse":
        return cls(eps_kind="perfect_conductor")

    def eps(self, xi: float) -> float:
        if xi < 0.0:
            raise DomainError("imaginary frequency must be non-negative")
        if self.eps_kind == "finite":
            return self.eps_value
        if self.eps_kind == "plasma":
            return math.inf if xi == 0.0 else 1.0 + (self.omega_p / xi) ** 2
        return math.inf

    def mu(self, xi: float) -> float:
        if xi < 0.0:
            raise DomainError("imaginary frequency must be non-negative")
        return 1.0 + self.chi0 / (1.0 + (xi / self.omega_mu) ** 2)

    def q2(self, xi: float) -> float:
        """Limit of eps(i xi) mu(i xi) (xi/c)^2, finite at xi = 0 for a plasma."""
        if xi < 0.0:
            raise DomainError("imaginary frequency must be non-negative")
        if self.eps_kind == "perfect_conductor":
            return math.inf
        if self.eps_kind == "plasma":
            return self.mu(xi) * (xi * xi + self.omega_p**2) / C**2
        return self.eps_value * self.mu(xi) * (xi / C) ** 2

    def kappa(self, k_perp: float, xi: float) -> float:
        q2 = self.q2(xi)
        return math.inf if math.isinf(q2) else math.sqrt(k_perp**2 + q2)


def kappa_perp(k_perp: float, xi: float, eps: float, mu: float) -> float:
    """Perpendicular wavevector kappa = sqrt(k_perp^2 + eps mu (xi/c)^2)."""
    if k_perp < 0.0 or xi < 0.0:
        raise DomainError("k_perp and xi must be non-negative")
    radicand = k_perp**2 + eps * mu * (xi / C) ** 2
    if radicand < 0.0:
        raise DomainError(f"negative radicand {radicand} in kappa_perp")
    return math.sqrt(radicand)


def reflection_pair(
    eps_i: float,
    mu_i: float,
    eps_j: float,
    mu_j: float,
    k_perp: float,
    xi: float,
) -> tuple[float, float]:
    """Fresnel reflection amplitudes (r_TM, r_TE) on the imaginary axis.

    r_TM = (eps_j kappa_i - eps_i kappa_j)/(eps_j kappa_i + eps_i kappa_j),
    r_TE = (mu_j kappa_i - mu_i kappa_j)/(mu_j kappa_i + mu_i kappa_j).
    """
    kap_i = kappa_perp(k_perp, xi, eps_i, mu_i)
    kap_j = kappa_perp(k_perp, xi, eps_j, mu_j)
    den_tm = eps_j * kap_i + eps_i * kap_j
    den_te = mu_j * kap_i + mu_i * kap_j
    if den_tm == 0.0 or den_te == 0.0:
        raise DomainError("degenerate media: zero denominator in reflection_pair")
    r_tm = (eps_j * kap_i - eps_i * kap_j) / den_tm
    r_te = (mu_j * kap_i - mu_i * kap_j) / den_te
    return r_tm, r_te


def zero_freq_amplitudes(
    plate: LayerResponse, medium: LayerResponse, k_perp: float
) -> tuple[float, float]:
    """(A_TM, A_TE) = squared reflection amplitudes in the xi -> 0 limit.

    Identical outer plates are assumed, so each amplitude is the square of a
    single plate/medium reflection coefficient.  Perfect-conductor plates
    give exactly (1, 1).
    """
    if k_perp < 0.0:
        raise DomainError("k_perp must be non-negative")
    if medium.eps_kind == "perfect_conductor":
        raise DomainError("gap medium cannot be a perfect conductor")

    if plate.eps_kind == "perfect_conductor":
        return 1.0, 1.0

    kap_p = plate.kappa(k_perp, 0.0)
    kap_m = medium.kappa(k_perp, 0.0)

    # TM amplitude: eps of each side diverges as omega_p^2/xi^2 for plasma
    # layers, so only the ratio of plasma weights survives the limit.
    if plate.eps_kind == "plasma" and medium.eps_kind == "plasma":
        wp2, wm2 = plate.omega_p**2, medium.omega_p**2
        den = wp2 * kap_m + wm2 * kap_p
        if den == 0.0:
            raise DomainError("degenerate media in zero-frequency TM limit")
        r_tm = (wp2 * kap_m - wm2 * kap_p) / den
    elif plate.eps_kind == "plasma":
        r_tm = 1.0
    elif medium.eps_kind == "plasma":
        r_tm = -1.0
    else:
        den = plate.eps_value + medium.eps_value
        if den == 0.0:
            raise DomainError("degenerate media in zero-frequency TM limit")
        r_tm = (plate.eps_value - medium.eps_value) / den

    den_te = plate.mu_static * kap_m + medium.mu_static * kap_p
    if den_te == 0.0:
        raise DomainError("degenerate media in zero-frequency TE limit")
    r_te = (plate.mu_static * kap_m - medium.mu_static * kap_p) / den_te

    return r_tm * r_tm, r_te * r_te


def _mode_series(a: float) -> float:
    """sum_{j>=1} e^(-j a) (a/j^2 + 1/j^3)  =  -integral_a^inf u ln(1-e^-u) du.

    Truncated when the next term falls below 1e-15 of the running sum.
    """
    if a < 0.0:
        raise DomainError(f"series argument must be non-negative, got {a}")
    if a > 745.0:
        return 0.0  # e^-a underflows; the whole sum is below double precision
    decay = math.exp(-a)
    power = decay
    total = 0.0
    for j in range(1, _SERIES_MAX_TERMS + 1):
        term = power * (a / (j * j) + 1.0 / (j * j * j))
        total += term
        if term <= _SERIES_RTOL * total:
            return total
        power *= decay
    raise ConvergenceError(
        f"mode series did not converge: a={a}, terms={_SERIES_MAX_TERMS}, sum={total}"
    )


def zero_freq_exact(kappa: float, L: float, T: float) -> float:
    """Zero-frequency free energy per area, exact series evaluation.

    F0/A = (k_B T / 2 pi) int_0^inf dk k ln(1 - e^(-2 kappa_2 L)) with
    kappa_2 = sqrt(k^2 + kappa^2), evaluated exactly as
    -(k_B T / 8 pi L^2) sum_j e^(-j a) (a/j^2 + 1/j^3), a = 2 kappa L.

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
    if kappa < 0.0:
        raise DomainError(f"kappa must be non-negative, got {kappa}")
    if not L > 0.0 or not T > 0.0:
        raise DomainError(f"L and T must be positive, got L={L}, T={T}")
    return -K_B * T / (8.0 * math.pi * L * L) * _mode_series(2.0 * kappa * L)


def zero_freq_asymptote(kappa: float, L: float, T: float) -> float:
    """Large-screening asymptote of the zero-frequency term.

    F0/A = -(k_B T / 2 pi) kappa^2 e^(-2 kappa L) [1/(2 kappa L) + 1/(2 kappa L)^2];
    identically the j = 1 term of the exact series.
    """
    if not kappa > 0.0:
        raise DomainError("asymptote undefined at kappa = 0; use zero_freq_exact")
    if not L > 0.0 or not T > 0.0:
        raise DomainError(f"L and T must be positive, got L={L}, T={T}")
    a = 2.0 * kappa * L
    return -K_B * T / (2.0 * math.pi) * kappa**2 * math.exp(-a) * (1.0 / a + 1.0 / a**2)


def finite_freq_asymptote(rho: float, T: float, L: float) -> float:
    """Leading large-x asymptote of the summed n > 0 Matsubara terms.

    Fn/A = -((k_B T)^2 / hbar c) e^(-pi rhobar xbar) e^(-2 pi xbar) / L with
    xbar = 2 k_B T L/(hbar c) and rhobar = rho e^2 hbar^2/(4 pi^2 m eps0 (k_B T)^2).
    The untracked remainder of the source expansion is dropped.
    """
    if rho < 0.0:
        raise DomainError(f"density must be non-negative, got {rho}")
    if not T > 0.0 or not L > 0.0:
        raise DomainError(f"T and L must be positive, got T={T}, L={L}")
    kT = K_B * T
    xbar = 2.0 * kT * L / HBAR_C
    rhobar = rho * E_CHARGE**2 * HBAR**2 / (4.0 * math.pi**2 * M_E * EPS_0 * kT**2)
    return -(kT * kT) / HBAR_C * math.exp(-math.pi * rhobar * xbar - 2.0 * math.pi * xbar) / L


def _matsubara_mu(n: int, xi: float, mu_static: float, model: PermeabilityModel) -> float:
    # permeability entering the n-th term; 1 at n > 0 unless the dynamic
    # model is requested (static response rolls off far below xi_1)
    if n == 0:
        return mu_static
    if model.kind == "dynamic":
        return 1.0 + (mu_static - 1.0) / (1.0 + (xi / model.omega_mu) ** 2)
    return 1.0


def matsubara_term(
    n: int, L: float, T: float, rho: float, model: PermeabilityModel | None = None
) -> float:
    """Single Matsubara term of the free energy per area (n = 0 at half weight)."""
    if n < 0:
        raise DomainError("Matsubara index must be non-negative")
    if not L > 0.0 or not T > 0.0:
        raise DomainError(f"L and T must be positive, got L={L}, T={T}")
    if rho < 0.0:
        raise DomainError(f"density must be non-negative, got {rho}")
    if model is None:
        model = PermeabilityModel()
    omega = plasma_frequency(rho)
    mu_static = model.static_mu(rho, T)
    xi = 2.0 * math.pi * n * K_B * T / HBAR
    mu_n = _matsubara_mu(n, xi, mu_static, model)
    a = 2.0 * L * math.sqrt(mu_n * (xi * xi + omega * omega)) / C
    weight = 0.5 if n == 0 else 1.0
    return -weight * K_B * T / (4.0 * math.pi * L * L) * _mode_series(a)


def finite_freq_sum(
    L: float, T: float, rho: float, model: PermeabilityModel | None = None
) -> float:
    """Sum of all n > 0 Matsubara terms, truncated at 1e-12 relative."""
    if not L > 0.0 or not T > 0.0:
        raise DomainError(f"L and T must be positive, got L={L}, T={T}")
    if rho < 0.0:
        raise DomainError(f"density must be non-negative, got {rho}")
    if model is None:
        model = PermeabilityModel()
    omega = plasma_frequency(rho)
    mu_static = model.static_mu(rho, T)
    prefactor = -K_B * T / (4.0 * math.pi * L * L)
    xi_1 = 2.0 * math.pi * K_B * T / HBAR
    total = 0.0
    for n in range(1, _MATSUBARA_MAX_TERMS + 1):
        xi = n * xi_1
        mu_n = _matsubara_mu(n, xi, mu_static, model)
        a = 2.0 * L * math.sqrt(mu_n * (xi * xi + omega * omega)) / C
        term = prefactor * _mode_series(a)
        total += term
        if term == 0.0 or abs(term) <= _MATSUBARA_RTOL * abs(total):
            return total
    raise ConvergenceError(
        f"Matsubara sum did not converge: L={L}, T={T}, rho={rho}, "
        f"terms={_MATSUBARA_MAX_TERMS}, partial={total}"
    )


def full_matsubara(
    L: float, T: float, rho: float, model: PermeabilityModel | None = None
) -> float:
    """Full Lifshitz free energy per area between perfect conductors.

    F/A = k_B T sum'_{n>=0} (1/2 pi) int dk k 2 ln(1 - e^(-2 kappa_2 L)),
    the n = 0 term at half weight.  Both polarizations contribute equally in
    the perfect-conductor limit.
    """
    return matsubara_term(0, L, T, rho, model) + finite_freq_sum(L, T, rho, model)


def screening_wavevector(rho: float, mu_ep: float) -> float:
    """kappa = sqrt(mu_ep) omega_ep / c for the state (rho, mu_ep)."""
    if mu_ep < 1.0:
        raise DomainError(f"mu_ep must be >= 1, got {mu_ep}")
    return math.sqrt(mu_ep) * plasma_frequency(rho) / C


def _coupled_mu_factor(L: float, model: PermeabilityModel) -> float:
    # closed-form permeability parenthesis of the distance-coupled kappa;
    # written via mu_B^2 to match the composed pipeline exactly (CODATA mu_B
    # is not exactly e hbar/(2 m))
    if model.kind == "unity":
        return 1.0
    if model.kind != "static_spin":
        raise DomainError(
            "distance-coupled closed forms are defined for unity|static_spin models"
        )
    chi = math.sqrt(3.0) * MU_0 * ZETA_3 * MU_B**2 / (2.0 * math.pi**2 * HBAR_C * L**2)
    if model.convention == "equation_literal":
        chi *= 0.5
    return 1.0 + chi


def distance_coupled_breakdown(
    L: float,
    model: PermeabilityModel | None = None,
    area: float = DEFAULT_PLATE_AREA,
) -> FreeEnergyBreakdown:
    """Free-energy breakdown with every state variable eliminated in favor of L.

    Evaluates the closed-form displays:
      kappa(L)  = (3^(1/8)/2 pi) sqrt(e^2 mu0 zeta(3)/(2 L^3 m) * P(L)),
                  P = 1 (unity) or the closed-form mu_ep(L) (static spin);
      F0/A  = -(hbar c/(4 3^(1/4) pi L)) kappa^2 e^(-2 kappa L)
              [1/(2 kappa L) + 1/(2 kappa L)^2];
      Fn/A  = -(hbar c/(4 sqrt(3) L^3))
              exp(-sqrt(3) zeta(3) e^2 mu0/(8 pi^3 m L) - 2 pi/3^(1/4)).

    These must agree with composing the plasma pipeline into the generic
    asymptotes to relative 1e-10 (checked in the tests).
    """
    if not L > 0.0:
        raise DomainError(f"separation must be positive, got {L}")
    if not area > 0.0:
        raise DomainError(f"area must be positive, got {area}")
    if model is None:
        model = PermeabilityModel()
    kappa = (3.0**0.125 / (2.0 * math.pi)) * math.sqrt(
        E_CHARGE**2 * MU_0 * ZETA_3 / (2.0 * L**3 * M_E) * _coupled_mu_factor(L, model)
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
    return FreeEnergyBreakdown(
        zero_freq=zero,
        finite_freq=finite,
        total=total,
        method="asymptote",
        kappa=kappa,
        per_pair=total * area,
    )


def total_free_energy(
    L: float,
    model: PermeabilityModel | None = None,
    temperature_mode: str | tuple[str, float] = "coupled",
    area: float = DEFAULT_PLATE_AREA,
) -> FreeEnergyBreakdown:
    """Total interaction free energy, split into zero- and finite-frequency parts.

    temperature_mode "coupled" re-derives the plasma state from L at every
    separation (the self-consistent pipeline); ("fixed", T) pins the
    temperature, and with it the plasma state, at a caller-chosen value and
    evaluates zero_freq_exact + finite_freq_asymptote.
    """
    if not L > 0.0:
        raise DomainError(f"separation must be positive, got {L}")
    if not area > 0.0:
        raise DomainError(f"area must be positive, got {area}")
    if model is None:
        model = PermeabilityModel()
    if temperature_mode == "coupled":
        return distance_coupled_breakdown(L, model, area)
    if (
        isinstance(temperature_mode, tuple)
        and len(temperature_mode) == 2
        and temperature_mode[0] == "fixed"
    ):
        T = float(temperature_mode[1])
        if not T > 0.0:
            raise DomainError(f"fixed temperature must be positive, got {T}")
        rho = pair_density(T)
        mu = (model or PermeabilityModel()).static_mu(rho, T)
        kappa = screening_wavevector(rho, mu)
        zero = zero_freq_exact(kappa, L, T)
        finite = finite_freq_asymptote(rho, T, L)
        total = zero + finite
        return FreeEnergyBreakdown(
            zero_freq=zero,
            finite_freq=finite,
            total=total,
            method="exact_series",
            kappa=kappa,
            per_pair=total * area,
        )
    raise DomainError(
        f"temperature_mode must be 'coupled' or ('fixed', T), got {temperature_mode!r}"
    )


@dataclass(frozen=True)
class SweepSpec:
    """Parameters of a separation sweep (distances in fm at this boundary)."""

    L_min_fm: float
    L_max_fm: float
    points: int
    model: PermeabilityModel
    mode: str = "coupled"             # coupled | fixed
    method: str = "asymptote"         # asymptote | exact | full
    R_fm: float = R_PROTON_DEFAULT / 1e-15
    L_init_fm: float | None = None    # fixed mode: state pinned at this separation

    def __post_init__(self) -> None:
        if not self.L_min_fm > 0.0:
            raise DomainError(f"L_min must be positive, got {self.L_min_fm}")
        if not self.L_max_fm > self.L_min_fm:
            raise DomainError("L_max must exceed L_min")
        if self.points < 2:
            raise DomainError(f"sweep needs at least 2 points, got {self.points}")
        if self.mode not in SWEEP_MODES:
            raise DomainError(f"unknown sweep mode {self.mode!r}")
        if self.method not in SWEEP_METHODS:
            raise DomainError(f"unknown sweep method {self.method!r}")
        if not self.R_fm > 0.0:
            raise DomainError(f"plate radius must be positive, got {self.R_fm}")
        if self.L_init_fm is not None and not self.L_init_fm > 0.0:
            raise DomainError(f"L_init must be positive, got {self.L_init_fm}")


@dataclass(frozen=True)
class SweepRow:
    """One sweep grid point in presentation units (CSV row)."""

    L_fm: float
    T_K: float
    rho_m3: float
    omega_ep: float
    mu_ep: float
    kappa_1_m: float
    F0_MeV: float
    Fn_MeV: float
    Ftot_MeV: float


def sweep_rows(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate a separation sweep in grid order."""
    area = math.pi * (spec.R_fm * 1e-15) ** 2
    step = (spec.L_max_fm - spec.L_min_fm) / (spec.points - 1)
    grid_fm = [spec.L_min_fm + i * step for i in range(spec.points)]

    if spec.mode == "fixed":
        L_init = (spec.L_init_fm if spec.L_init_fm is not None else spec.L_min_fm) * 1e-15
        T0 = temperature_from_distance(L_init)
        rho0 = pair_density(T0)
        omega0 = plasma_frequency(rho0)
        mu0 = spec.model.static_mu(rho0, T0)
        kappa0 = screening_wavevector(rho0, mu0)

    rows: list[SweepRow] = []
    for L_fm in grid_fm:
        L = L_fm * 1e-15
        if spec.mode == "coupled":
            state = plasma_state_from_distance(L, spec.model)
            T, rho, omega, mu = state.T, state.rho, state.omega_ep, state.mu_ep
            kappa = screening_wavevector(rho, mu)
            if spec.method == "asymptote":
                b = distance_coupled_breakdown(L, spec.model, area)
                zero, finite, kappa = b.zero_freq, b.finite_freq, b.kappa
            elif spec.method == "exact":
                zero = zero_freq_exact(kappa, L, T)
                finite = finite_freq_asymptote(rho, T, L)
            else:
                zero = matsubara_term(0, L, T, rho, spec.model)
                finite = finite_freq_sum(L, T, rho, spec.model)
        else:
            T, rho, omega, mu, kappa = T0, rho0, omega0, mu0, kappa0
            if spec.method == "asymptote":
                zero = zero_freq_asymptote(kappa, L, T)
                finite = finite_freq_asymptote(rho, T, L)
            elif spec.method == "exact":
                zero = zero_freq_exact(kappa, L, T)
                finite = finite_freq_asymptote(rho, T, L)
            else:
                zero = matsubara_term(0, L, T, rho, spec.model)
                finite = finite_freq_sum(L, T, rho, spec.model)
        rows.append(
            SweepRow(
                L_fm=L_fm,
                T_K=T,
                rho_m3=rho,
                omega_ep=omega,
                mu_ep=mu,
                kappa_1_m=kappa,
                F0_MeV=convert(zero * area, "J", "MeV"),
                Fn_MeV=convert(finite * area, "J", "MeV"),
                Ftot_MeV=convert((zero + finite) * area, "J", "MeV"),
            )
        )
    return rows
