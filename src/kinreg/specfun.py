"""Self-contained real special functions: Gamma, Kummer M, Tricomi U.

Everything here is double precision and dependency-free: Lanczos for the
Gamma function, compensated Taylor summation for the confluent
hypergeometric M, and the standard connection formula for U. Negative
arguments of U use the real Kummer-basis combination (cube roots taken
real), which is the branch relevant to the kinetic obstruction function;
adaptive Poincare series provide the large-argument regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

_EPS = 2.22e-16

# Lanczos, g = 7, 9 coefficients.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _sinpi(x: float) -> float:
    """sin(pi x) with argument reduction, accurate near integers."""
    m = round(x)
    r = x - m
    s = math.sin(math.pi * r)
    return -s if m % 2 else s


def _is_nonpositive_int(x: float, tol: float = 0.0) -> bool:
    return x <= 0.5 and abs(x - round(x)) <= tol and round(x) <= 0


def gamma_real(x: float) -> float:
    """Gamma(x) for real x, relative error below 1e-12 on [-20, 20].

    Poles at nonpositive integers raise; negative non-integers go through
    the reflection formula with careful sin(pi x).
    """
    if x != x:
        raise ValueError("gamma_real: nan argument")
    if x <= 0.0 and x == math.floor(x):
        raise ValueError(f"gamma_real: pole at {x}")
    if x < 0.5:
        # reflection: Gamma(x) Gamma(1-x) = pi / sin(pi x)
        return math.pi / (_sinpi(x) * gamma_real(1.0 - x))
    z = x - 1.0
    s = _LANCZOS_C[0]
    for i in range(1, 9):
        s += _LANCZOS_C[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * math.exp(-t) * s


def rgamma(x: float) -> float:
    """1 / Gamma(x); zero at the poles instead of raising."""
    if x <= 0.0 and x == math.floor(x):
        return 0.0
    return 1.0 / gamma_real(x)


class Regime(Enum):
    SERIES = "series"
    ASYMPTOTIC = "asymptotic"
    POLYNOMIAL_CASE = "polynomial_case"
    CONNECTION_FORMULA = "connection_formula"


@dataclass(frozen=True)
class HypergeomEval:
    value: float
    est_abs_error: float
    terms_used: int
    regime: Regime

    def __post_init__(self):
        if self.est_abs_error < 0:
            raise ValueError("error estimate must be nonnegative")


_SERIES_CAP = 10_000


def _kummer_series_raw(a: float, b: float, z: float) -> HypergeomEval:
    """Plain Taylor series of M(a;b;z) with Kahan summation.

    The error estimate includes both the truncation tail and the roundoff
    floor from cancellation (scale of the largest term)."""
    term = 1.0
    total = 1.0
    comp = 0.0
    max_abs = 1.0
    small_run = 0
    k = 0
    while k < _SERIES_CAP:
        term *= (a + k) * z / ((b + k) * (k + 1.0))
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        k += 1
        max_abs = max(max_abs, abs(term))
        if abs(term) < 1e-17 * max(abs(total), 1e-300):
            small_run += 1
            if small_run >= 3:
                break
        else:
            small_run = 0
    trunc = abs(term) * 2.0
    round_err = 4.0 * _EPS * max_abs * math.sqrt(k + 1.0)
    return HypergeomEval(total, trunc + round_err, k, Regime.SERIES)


def _kummer_poly(a: float, b: float, z: float) -> HypergeomEval:
    deg = int(round(-a))
    term = 1.0
    total = 1.0
    max_abs = 1.0
    for k in range(deg):
        term *= (a + k) * z / ((b + k) * (k + 1.0))
        total += term
        max_abs = max(max_abs, abs(term))
    return HypergeomEval(total, 4.0 * _EPS * max_abs * (deg + 1), deg, Regime.POLYNOMIAL_CASE)


def kummer_m(a: float, b: float, z: float) -> HypergeomEval:
    """Kummer's function M(a;b;z) = 1F1(a;b;z) for real arguments.

    Terminating cases (-a a nonnegative integer) are summed exactly; large
    negative z is routed through the Kummer transformation
    M(a;b;z) = e^z M(b-a;b;-z) so the summed series has positive terms.
    """
    if _is_nonpositive_int(b):
        raise ValueError(f"kummer_m: b = {b} is a nonpositive integer")
    if abs(z) > 700.0:
        raise ValueError("kummer_m: |z| > 700 would overflow double precision")
    if a == round(a) and a <= 0.0:
        return _kummer_poly(a, b, z)
    if z < -1.0:
        inner = kummer_m(b - a, b, -z)
        e = math.exp(z)
        return HypergeomEval(e * inner.value, e * inner.est_abs_error + _EPS * abs(e * inner.value),
                             inner.terms_used, inner.regime)
    return _kummer_series_raw(a, b, z)


def kummer_m_series(a: float, b: float, z: float) -> HypergeomEval:
    """Raw truncated Taylor evaluation, any sign of z; used as the second
    route in the transformation-identity checks."""
    if _is_nonpositive_int(b):
        raise ValueError(f"kummer_m_series: b = {b} is a nonpositive integer")
    if a == round(a) and a <= 0.0:
        return _kummer_poly(a, b, z)
    return _kummer_series_raw(a, b, z)


def _real_pow(z: float, e: float) -> float:
    """z^e for the exponents needed here (odd-root powers), real branch."""
    if z >= 0.0:
        return z ** e
    # 1 - b with b in {2/3, 4/3} gives e in {1/3, -1/3}: odd functions
    if abs(abs(e) - 1.0 / 3.0) < 1e-12:
        return -((-z) ** e)
    raise ValueError(f"real power of negative base undefined for exponent {e}")


def _asym_tail(terms):
    """Sum an asymptotic (Poincare) series to its smallest term."""
    total = 0.0
    prev = math.inf
    used = 0
    est = math.inf
    for t in terms:
        if abs(t) >= prev:
            est = abs(t)
            break
        total += t
        prev = abs(t)
        used += 1
        est = prev
    return total, est, used


def _poincare_terms(p: float, q: float, w: float):
    """Terms of the Poincare series sum_s (p)_s (q)_s / s! w^(-s), s <= 60."""
    t = 1.0
    yield t
    for s in range(60):
        t *= (p + s) * (q + s) / ((s + 1.0) * w)
        yield t


def _u_asym_pos(a: float, b: float, z: float):
    """U(a;b;z) ~ z^(-a) sum_s (a)_s (a-b+1)_s / s! (-z)^(-s), z large."""
    S, est, used = _asym_tail(_poincare_terms(a, a - b + 1.0, -z))
    return z ** (-a) * S, abs(z ** (-a)) * est, used


def _m_algebraic_branch(a: float, b: float, z: float):
    """Algebraic branch of M as z -> -inf:
    Gamma(b)/Gamma(b-a) (-z)^(-a) sum_s (a)_s (a-b+1)_s / s! (-z)^(-s)."""
    S, est, used = _asym_tail(_poincare_terms(a, a - b + 1.0, -z))
    pref = gamma_real(b) * rgamma(b - a) * (-z) ** (-a)
    return pref * S, abs(pref) * est, used


def _u_real_asym_neg(a: float, b: float, z: float):
    """Real-branch U for z -> -inf via the algebraic branches of both
    Kummer basis solutions (the exponential branches decay)."""
    c1 = gamma_real(1.0 - b) * rgamma(a + 1.0 - b)
    c2 = gamma_real(b - 1.0) * rgamma(a)
    v1, e1, k1 = _m_algebraic_branch(a, b, z)
    v2, e2, k2 = _m_algebraic_branch(a - b + 1.0, 2.0 - b, z)
    root = _real_pow(z, 1.0 - b)
    val = c1 * v1 + c2 * root * v2
    err = abs(c1) * e1 + abs(c2 * root) * e2
    return val, err, k1 + k2


_U_BLEND_LO = 20.0
_U_BLEND_HI = 40.0


def _u_connection(a: float, b: float, z: float):
    c1 = gamma_real(1.0 - b) * rgamma(a + 1.0 - b)
    c2 = gamma_real(b - 1.0) * rgamma(a)
    m1 = kummer_m_series(a, b, z)
    m2 = kummer_m_series(a - b + 1.0, 2.0 - b, z)
    root = _real_pow(z, 1.0 - b) if z != 0.0 else 0.0
    val = c1 * m1.value + c2 * root * m2.value
    err = abs(c1) * m1.est_abs_error + abs(c2 * root) * m2.est_abs_error
    return val, err, m1.terms_used + m2.terms_used


def tricomi_u(a: float, b: float, z: float) -> HypergeomEval:
    """Tricomi's confluent hypergeometric U(a;b;z), real branch for z < 0.

    For moderate z the connection formula through two M evaluations is
    used; the adaptive asymptotic series takes over beyond |z| = 40, with a
    linear blend of the two regimes on 20 <= |z| <= 40 (both are accurate
    there, and the blend keeps the evaluator continuous in z). b must be
    non-integer (the kinetic use has b in {2/3, 4/3}).
    """
    if abs(b - round(b)) < 1e-12:
        raise ValueError("tricomi_u: integer b (logarithmic case) not supported")
    az = abs(z)
    if az <= _U_BLEND_LO:
        val, err, used = _u_connection(a, b, z)
        return HypergeomEval(val, err, used, Regime.CONNECTION_FORMULA)
    asym = _u_asym_pos(a, b, z) if z > 0 else _u_real_asym_neg(a, b, z)
    if az >= _U_BLEND_HI:
        return HypergeomEval(asym[0], asym[1], asym[2], Regime.ASYMPTOTIC)
    ser = _u_connection(a, b, z)
    w = (az - _U_BLEND_LO) / (_U_BLEND_HI - _U_BLEND_LO)
    val = (1.0 - w) * ser[0] + w * asym[0]
    err = (1.0 - w) * ser[1] + w * asym[1] + abs(ser[0] - asym[0])
    return HypergeomEval(val, err, ser[2] + asym[2], Regime.ASYMPTOTIC)


def asymptotic_m(a: float, b: float, z: float) -> float:
    """Large-|z| value of M(a;b;z) from the Poincare expansions of
    eq-type  Gamma(b) [ e^z z^(a-b)/Gamma(a) + (-z)^(-a)/Gamma(b-a) ],
    each branch summed adaptively; only the real, dominant branch
    contributes for each sign of z."""
    if abs(z) < 30.0:
        raise ValueError("asymptotic_m requires |z| >= 30")
    if a == round(a) and a <= 0.0:
        raise ValueError("asymptotic_m: terminating case, use kummer_m")
    if z > 0:
        S, _, _ = _asym_tail(_poincare_terms(b - a, 1.0 - a, z))
        return gamma_real(b) * rgamma(a) * math.exp(z) * z ** (a - b) * S
    val, _, _ = _m_algebraic_branch(a, b, z)
    return val


def asymptotic_u_kinetic(a: float, tau: float) -> float:
    """Leading-order U(-a; 2/3; -tau^3) for |tau| >= 5:
    K |tau|^(3a) as tau -> +inf with K = 2 cos(pi (a + 1/3)), and
    |tau|^(3a) as tau -> -inf."""
    if abs(tau) < 5.0:
        raise ValueError("asymptotic_u_kinetic requires |tau| >= 5")
    if tau > 0:
        K = 2.0 * math.cos(math.pi * (a + 1.0 / 3.0))
        return K * abs(tau) ** (3.0 * a)
    return abs(tau) ** (3.0 * a)


def real_kummer_combo(lam: int, A: float, x: float, v: float) -> float:
    """The bounded homogeneous solution h(x, v) = x^((lam+2)/3) *
    U_real(-(lam+2)/3; 2/3; -v^3/(9 A x)) of v h_x - A h_vv = 0, x > 0.

    Written in the real Kummer basis
        C1 * x^((lam+2)/3) M(-(lam+2)/3; 2/3; tau)
      + C2 * v x^((lam+1)/3) M(-(lam+1)/3; 4/3; tau),   tau = -v^3/(9 A x),
    with C1 = Gamma(1/3)/Gamma(-(lam+1)/3) and
    C2 = -(9 A)^(-1/3) Gamma(-1/3)/Gamma(-(lam+2)/3), the unique ratio
    that cancels the exponentially growing branches. Real for every sign
    of v; the cube root of tau is always taken real.
    """
    if x <= 0.0:
        raise ValueError("real_kummer_combo requires x > 0")
    if A <= 0.0:
        raise ValueError("A must be positive")
    aU = -(lam + 2.0) / 3.0
    tau = -(v ** 3) / (9.0 * A * x)
    u = tricomi_u(aU, 2.0 / 3.0, tau)
    return x ** ((lam + 2.0) / 3.0) * u.value
