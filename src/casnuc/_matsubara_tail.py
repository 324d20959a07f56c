"""The Euler-Maclaurin tail of the n > 0 Matsubara sum.

lifshitz._finite_freq_sum adds the terms f(n) = S(a_n), a_n = b sqrt(n^2 + nu^2),
directly and, where b < 1, hands the rest to em_tail once its remainder
bound is small enough; em_tail also says at which n to try it next.  From
b = 1 on the direct stop rule ends every sum within 37 terms (nu <= 10), and
a try there fails or costs more than the terms it would save, so the sum
makes none.  Everything here is
closed form or elementary, apart from one fixed Gauss-Legendre rule, and
_mode_series runs nowhere here, so the series calls of a sum are its direct
terms.  The module is imported on first use: most sums, and every cold
process that runs no --method full sweep, never need it.
"""

from __future__ import annotations

import math

from .constants import ZETA_3
from .errors import DomainError
from .lifshitz import _SERIES_MAX_TERMS, _SERIES_RTOL, _SERIES_SPLIT, _SMALL_A_COEFFS

# the order p of the tail: it carries the odd derivatives up to f^(2p-1)
_EM_ORDER = 4
# the largest nu = omega_ep/xi_1 a sum may have once it reaches em_tail
_NU_MAX = 200_000
_ZETA_2 = math.pi**2 / 6.0
_ZETA_4 = math.pi**4 / 90.0
_LN_2 = math.log(2.0)

# The integral pieces of the Euler-Maclaurin tail, from the a^m coefficients
# of S: Li2(e^-a) = zeta(2) + a ln a - a - a^2/4 + sum m c_m a^(m-1)/(m - 1)
# (the integral of S'(a)/a = ln(1 - e^-a)) and int_a^inf S = 2 zeta(4)
# - zeta(3) a - a^3 (ln a/6 - 5/36) + a^4/24 - sum c_m a^(m+1)/(m + 1)
_SMALL_A_LI2 = tuple(c * m / (m - 1) for c, m in zip(_SMALL_A_COEFFS, range(30, 3, -2)))
_SMALL_A_INT = tuple(c / (m + 1) for c, m in zip(_SMALL_A_COEFFS, range(30, 3, -2)))
_TAIL_INV_POWERS = tuple((1.0 / (j * j), 1.0 / (j * j * j), 2.0 / (j * j * j * j))
                         for j in range(1, _SERIES_MAX_TERMS + 1))


def _mode_series_tails(a: float) -> tuple[float, float]:
    """(Li2(e^-a), int_a^inf S = a Li3(e^-a) + 2 Li4(e^-a)) for a > 0, with
    the split and stopping rule of _mode_series (relative error below 1e-15
    against mpmath)."""
    if a < _SERIES_SPLIT:
        x = a * a
        log_a = math.log(a)
        li2 = integral = 0.0
        for c2, ci in zip(_SMALL_A_LI2, _SMALL_A_INT):
            li2 = li2 * x + c2
            integral = integral * x + ci
        li2 = _ZETA_2 + a * log_a - a - 0.25 * x + a * x * li2
        integral = (2.0 * _ZETA_4 - ZETA_3 * a - a * x * (log_a / 6.0 - 5.0 / 36.0)
                    + x * x / 24.0 - a * x * x * integral)
        return li2, integral
    half = math.exp(-0.5 * a)
    decay = half * half
    tol = _SERIES_RTOL * (1.0 - decay)
    power = 1.0  # e^(-(j-1) a); the common factor e^-a is applied at the end
    li2 = integral = 0.0
    for inv2, inv3, inv4 in _TAIL_INV_POWERS:
        term2 = power * inv2
        term = power * (a * inv3 + inv4)
        li2 += term2
        integral += term
        if term2 * decay <= tol * li2 and term * decay <= tol * integral:
            break
        power *= decay
    return li2 * decay, integral * decay


def _ln1m_exp(a: float) -> float:
    # ln(1 - e^-a) for a > 0, accurate at both ends
    return math.log(-math.expm1(-a)) if a < _LN_2 else math.log1p(-math.exp(-a))


def _euler_maclaurin_tables(p: int):
    """The fixed coefficients of the order-p tail (see em_tail).

    Li_(-i)(e^-a) = sum_j j^i e^(-j a) is a polynomial q_i in beta = 1/(e^a - 1),
    q_0 = beta and q_(i+1) = (beta + beta^2) q_i'(beta), so with t = a beta,
    l_i = a^(i+1) Li_(-i)(e^-a) = sum_k q_ik t^k a^(i+1-k).  With D = (1/a) d/da,
    every term of D^m ln(1 - e^-a) (m >= 1) has the sign (-1)^(m-1), and
    M_m = |D^m ln(1 - e^-a)| = a^(-2m) sum_i d_mi l_i, where d_10 = 1 and
    d_(m+1),(i+1) += d_mi, d_(m+1),i += (2m - 1 - i) d_mi; M_0 = -ln(1 - e^-a).

    Returns (bose, corr, mix, w0, u, scale):
    bose  per i, q_i1, q_i2, ..., q_i(i+1);
    corr  per r = 1 .. 2p - 1, (j, e_rj) of Q_r(x) = sum_j e_rj x^(r-j), with
          sum_k B_2k/(2k)! f^(2k-1)(N) = sum_r (-b^2/2)^r M_(r-1) Q_r(2N);
    mix   (i, r, d_(r-1),i) for r >= 2;
    w0, u the weights of M_0 and of l_0, l_1, ... in the remainder bound;
    scale |B_2p|/(2p)!.
    """
    bernoulli = {2: 1.0 / 6.0, 4: -1.0 / 30.0, 6: 1.0 / 42.0, 8: -1.0 / 30.0}  # p <= 4
    bose = [[0, 1]]  # coefficients of beta^0, beta^1, ...
    for _ in range(2 * p - 2):
        q = [0] * (len(bose[-1]) + 1)
        for k, c in enumerate(bose[-1][1:], 1):  # (beta + beta^2) k c beta^(k-1)
            q[k] += k * c
            q[k + 1] += k * c
        bose.append(q)
    dlog = [None, {0: 1}]
    for m in range(1, 2 * p - 1):
        nxt: dict[int, int] = {}
        for i, c in dlog[m].items():
            nxt[i + 1] = nxt.get(i + 1, 0) + c
            nxt[i] = nxt.get(i, 0) + (2 * m - 1 - i) * c
        dlog.append(nxt)
    # f^(m)(N) = sum_j m!/(j! (m - 2j)!) (2N)^(m-2j) g^(m-j) with g^(r) = (-b^2/2)^r M_(r-1)
    corr = tuple(
        tuple((j, bernoulli[r + j + 1] / ((r + j + 1) * math.factorial(j) * math.factorial(r - j)))
              for j in range(r + 1) if (r + j) % 2 == 1 and r + j < 2 * p)
        for r in range(1, 2 * p))
    mix = tuple((i, r, c) for r in range(2, 2 * p) for i, c in dlog[r - 1].items())
    # int_N^inf |f^(2p)| <= (Y/N) b^(2p-1) sum_i w_i int_A^inf a^(i+3-2p) Li_(-i)(e^-a) da
    w = [0.0] * (2 * p - 1)
    for j in range(p + 1):
        binom = math.factorial(2 * p) / (math.factorial(j) * math.factorial(2 * p - 2 * j))
        for i, c in dlog[2 * p - j - 1].items():
            w[i] += binom * c / 2.0**j
    # ... <= (Y/N) b^2 Y^(3-2p) [w_0 M_0 + sum_i u_i l_i] (see em_tail)
    u = w[1:-1] + [0.0]
    u[-1] += w[-1]
    u[-2] += w[-1]
    return (tuple(tuple(q[1:]) for q in bose), corr, mix, w[0], tuple(u),
            abs(bernoulli[2 * p]) / math.factorial(2 * p))


_EM_BOSE, _EM_CORR, _EM_MIX, _EM_W0, _EM_U, _EM_SCALE = _euler_maclaurin_tables(_EM_ORDER)


def _gauss_legendre_tau(n: int) -> tuple[tuple[float, float, float], ...]:
    """The n-point Gauss-Legendre rule in sigma on [0, 1], as (tau, tau^2,
    weight) for int_0^1 F(tau) dtau with tau = sigma^2 (n even)."""
    rule = []
    for i in range(1, n // 2 + 1):
        x = math.cos(math.pi * (i - 0.25) / (n + 0.5))
        for _ in range(8):  # Newton on the Legendre polynomial P_n
            p0, p1 = 1.0, x
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            slope = n * (x * p1 - p0) / (x * x - 1.0)
            x -= p1 / slope
        weight = 2.0 / ((1.0 - x * x) * slope * slope)
        for sigma in (0.5 * (1.0 + x), 0.5 * (1.0 - x)):
            tau = sigma * sigma
            rule.append((tau, tau * tau, weight * sigma))
    return tuple(rule)


_TAIL_RULE = _gauss_legendre_tau(32)


def em_tail(N: int, s: float, b: float, nu: float,
            limit: float) -> tuple[float, float] | tuple[None, int]:
    """sum_{n>N} f(n) for f(n) = S(b sqrt(n^2 + nu2)), nu2 = nu^2, by the
    Euler-Maclaurin formula, given s = f(N) = S(a_N), a_N = b Y: (value,
    bound on its error over b), or (None, the next N to try) while N < nu/2
    or while that bound exceeds limit.  The bound comes over b because it
    carries b^2, which underflows for b below about 1.5e-154 where the
    bound times the sum's prefactor can still be a normal double.  The sum
    calls it only where b < 1 (see lifshitz._finite_freq_sum); nothing here
    depends on that.

    Below N = nu/2 the quadrature of R4 loses accuracy at large nu b (7e-10
    at nu = 1000, nu b = 100, N = 12), so the first try is at N >= nu/2; a
    nu above _NU_MAX, which would take nu/2 direct terms first, raises
    DomainError.  A failed bound costs about six direct terms, so the next
    try is placed where it should pass: bound/limit falls about as
    e^(-b N)/N, and at small b, where the bound falls as N^(3-2p) and the
    partial sum grows as N, as N^(2-2p); the skip takes N^(1-2p), which
    lands short of the pass point rather than past it.

    sum_{n>N} f(n) = int_N^inf f - f(N)/2 - sum_{k<=p} B_2k/(2k)! f^(2k-1)(N) + R.
    With Y = sqrt(N^2 + nu2), the integral is, in closed form,
      int_{a_N}^inf S/b + S(a_N)(Y - N) - (b nu2/2) Li2(e^-a_N) + R4,
      R4 = b^2 nu2^2/(4 (N + Y)) int_0^1 ln(1 - e^-(alpha/tau + gamma tau))
           (1 - v^2 tau^2) dtau,
    alpha = b (N + Y)/2, gamma = b nu2/(2 (N + Y)), v^2 = nu2/(N + Y)^2, and
    only R4, of order nu2^2, is integrated numerically (_TAIL_RULE).  As
    f(x) = g(x^2 + nu2) with g^(r) = (-b^2/2)^r M_(r-1)(a), every derivative
    is elementary (_euler_maclaurin_tables).  The terms of |g^(r)| fall with
    a >= b x, which bounds |R| <= |B_2p|/(2p)! int_N^inf |f^(2p)| by
      |B_2p|/(2p)! (Y/N) b^2 Y^(3-2p) [w_0 M_0(a_N) + sum_i u_i l_i(a_N)].
    Every piece is scaled to stay finite for any a in (0, 760].
    """
    if nu > _NU_MAX:
        raise DomainError(
            f"plasma frequency too high for the Matsubara sum: omega_ep/xi_1 = {nu:.6g} "
            f"exceeds {_NU_MAX} (it would take about omega_ep/(2 xi_1) direct terms)")
    if N < 0.5 * nu:
        return None, math.ceil(0.5 * nu)
    p2 = 2 * _EM_ORDER
    nu2 = nu * nu
    y2 = N * N + nu2
    y = math.sqrt(y2)
    a = b * y
    # l_i = t^(i+1) sum_k q_ik z^(i+1-k) with z = e^a - 1 = a/t below a = 1,
    # and a^(i+1) sum_k q_ik beta^k with beta = 1/z above: finite for any a
    lam = []
    if a < 1.0:
        z = math.expm1(a)
        t = power = a / z
        for q in _EM_BOSE:
            value = 0.0
            for c in q:
                value = value * z + c
            lam.append(value * power)
            power *= t
    else:
        beta = math.exp(-a) / -math.expm1(-a)
        power = a
        for q in _EM_BOSE:
            value = 0.0
            for c in reversed(q):
                value = (value + c) * beta
            lam.append(value * power)
            power *= a
    m0 = -_ln1m_exp(a)
    bracket = _EM_W0 * m0
    for u, l_i in zip(_EM_U, lam):
        bracket += u * l_i
    bound = _EM_SCALE * (y / N) * b * y ** (3 - p2) * bracket  # over b: b^2 may underflow
    if not bound * b <= limit:
        ratio = bound * b / limit if limit > 0.0 else 1.0
        skip = min(math.log(ratio) / (b + 1.0 / N), N * (ratio ** (1.0 / (p2 - 1)) - 1.0))
        return None, N + max(1, math.ceil(skip))
    # (-b^2/2)^r M_(r-1) = -(b^2/2) (-1/(2 Y^2))^(r-1) a^(2r-2) M_(r-1), a = b Y
    # ... Q_r(2N) = (-N/Y^2)^(r-1) sum_j e_rj (2N)^(1-j)
    x_pow = [2.0 * N]
    for _ in range(_EM_ORDER - 1):
        x_pow.append(x_pow[-1] * 0.5 / N)
    ratio = -N / y2
    q = []
    scale = 1.0
    for poly in _EM_CORR:
        value = 0.0
        for j, c in poly:
            value += c * x_pow[j]
        q.append(value * scale)
        scale *= ratio
    inner = m0 * q[0]
    for i, r, c in _EM_MIX:
        inner += c * q[r - 1] * lam[i]
    li2, integral = _mode_series_tails(a)
    value = integral / b - 0.5 * b * nu2 * li2 + 0.5 * b * b * inner + s * (nu2 / (y + N) - 0.5)
    if nu2:
        width = N + y
        alpha, gamma, v2 = 0.5 * b * width, 0.5 * b * nu2 / width, nu2 / (width * width)
        # -ln(1 - e^-u) <= min(ln(1 + 1/u), 1/(e^u - 1)), both falling in u; over b
        r4_bound = b * nu2 * nu2 / (4.0 * width) * min(
            (1.0 + alpha) * math.log1p(1.0 / alpha) - 1.0,
            1.0 / math.expm1(alpha) if alpha < 700.0 else 0.0)
        if (bound + r4_bound) * b <= limit:
            return value, bound + r4_bound
        r4 = 0.0
        for tau, tau2, weight in _TAIL_RULE:
            r4 += weight * _ln1m_exp(alpha / tau + gamma * tau) * (1.0 - v2 * tau2)
        value += b * b * nu2 * nu2 / (4.0 * width) * r4
    return value, bound
