"""Self-contained real special functions: Gamma, Kummer M, Tricomi U.

Everything here is double precision and needs nothing beyond numpy and
the standard library: math.gamma for the Gamma function, compensated
Taylor summation for the confluent hypergeometric M, and the connection
formula for U (DLMF 13.2.42). Negative arguments of U use the real
Kummer-basis combination (cube roots taken real), which is the branch
relevant to the kinetic obstruction function. From |z| = 17 on, U is
instead the Poincare series (DLMF 13.7) summed to its smallest term; one
switch on |z| picks the formula, so each argument runs exactly one.

The series work lane by lane over numpy arrays, one lane per argument z,
following Pearson, Olver & Porter, Numer. Algorithms 74 (2017). Lanes are
grouped by the number of terms their own |z| needs, and each group is
summed in blocks of at most _BLOCK lanes: (lanes x terms) matrices whose
row-wise cumulative products and sums give every term and partial sum at
once. A block is as wide as its own lanes need, not as the largest |z| of
the call, and memory stays bounded whatever the number of lanes. Every
scan runs along a lane, so a lane's result does not depend on its block.
The scalar functions are one-lane calls of the array functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

import numpy as np

_EPS = 2.22e-16


def _is_nonpositive_int(x: float) -> bool:
    """x is 0, -1, -2, ...: a pole of Gamma and a zero of 1/Gamma."""
    return x <= 0.0 and math.isfinite(x) and x == math.floor(x)


def gamma_real(x: float) -> float:
    """Gamma(x) for real x by math.gamma, within a few ulps.

    NaN, inf, the poles at nonpositive integers and x above about 171.6,
    where Gamma overflows, raise ValueError. Below about -171, |Gamma| is
    under the smallest normal double away from the poles, and math.gamma's
    subnormal comes back as it is; below about -178 it is a signed zero.
    rgamma serves that range.
    """
    if not math.isfinite(x):
        raise ValueError(f"gamma_real: non-finite argument {x}")
    if _is_nonpositive_int(x):
        raise ValueError(f"gamma_real: pole at {x}")
    try:
        return math.gamma(x)
    except OverflowError:
        raise ValueError(f"gamma_real: Gamma({x}) overflows double precision") from None


def rgamma(x: float) -> float:
    """1 / Gamma(x); zero at the poles instead of raising.

    Where Gamma overflows (x above about 171.6) or is too small for its
    reciprocal to be finite (x below about -171), 1/|Gamma| comes from
    math.lgamma and the sign of Gamma(x) is (-1)^floor(x) for x < 0; it
    underflows to zero for large positive x and raises ValueError where
    it overflows itself."""
    if _is_nonpositive_int(x):
        return 0.0
    try:
        r = 1.0 / gamma_real(x)
        if math.isfinite(r):
            return r
    except ZeroDivisionError:  # Gamma underflows to +-0
        pass
    except ValueError:
        if not math.isfinite(x):
            raise
    sign = -1.0 if x < 0.0 and math.floor(x) % 2 else 1.0
    try:
        return sign * math.exp(-math.lgamma(x))
    except OverflowError:
        if x > 0.0:
            return 0.0
        raise ValueError(f"rgamma: 1/Gamma({x}) overflows double precision") from None


class Regime(Enum):
    SERIES = "series"
    ASYMPTOTIC = "asymptotic"
    POLYNOMIAL_CASE = "polynomial_case"
    CONNECTION_FORMULA = "connection_formula"


# Lane regimes are stored as indices into this table.
_REGIMES = np.array(list(Regime), dtype=object)
_SERIES, _ASYMPTOTIC, _POLYNOMIAL, _CONNECTION = range(4)


@dataclass(frozen=True)
class HypergeomEval:
    value: float
    est_abs_error: float
    terms_used: int
    regime: Regime

    def __post_init__(self):
        if self.est_abs_error < 0:
            raise ValueError("error estimate must be nonnegative")


class HypergeomLanes(NamedTuple):
    """HypergeomEval for an array of arguments, one entry per lane."""

    value: np.ndarray
    est_abs_error: np.ndarray
    terms_used: np.ndarray
    regime: np.ndarray  # of Regime members

    def lane(self, i: int = 0) -> HypergeomEval:
        return HypergeomEval(float(self.value.flat[i]), float(self.est_abs_error.flat[i]),
                             int(self.terms_used.flat[i]), self.regime.flat[i])


def _lanes(shape, value, err, used, code) -> HypergeomLanes:
    return HypergeomLanes(value.reshape(shape), err.reshape(shape), used.reshape(shape),
                          _REGIMES[code].reshape(shape))


def _finite_lanes(z, who: str) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if not np.isfinite(z).all():
        raise ValueError(f"{who}: non-finite argument")
    return z


def _finite_params(who: str, **params: float):
    """ValueError naming the first of params that is NaN or inf. Called
    before the lru_caches keyed by parameters: NaN keys always miss."""
    for name, value in params.items():
        if not math.isfinite(value):
            raise ValueError(f"{who}: {name} = {value} is not finite")


# Rows per block: a block's term matrix holds _BLOCK x (terms) doubles.
_BLOCK = 256
_SERIES_CAP = 10_000
_POINCARE_TERMS = 61  # s = 0 .. 60


def _two_sum(a, b):
    """s = fl(a + b) and its exact rounding error e: a + b = s + e (Knuth)."""
    s = a + b
    bv = s - a
    return s, (a - (s - bv)) + (b - bv)


def _two_prod(a, b):
    """p = fl(a * b) and its exact rounding error e: a * b = p + e
    (Dekker, with Veltkamp's split; no fused multiply-add needed)."""
    p = a * b
    t = 134217729.0 * a
    ah = t - (t - a)
    t = 134217729.0 * b
    bh = t - (t - b)
    return p, ((ah * bh - p) + ah * (b - bh) + (a - ah) * bh) + (a - ah) * (b - bh)


def _poly_degree(a: float) -> int:
    """-a when M(a;b;.) is a polynomial (a a nonpositive integer), else -1."""
    return int(round(-a)) if _is_nonpositive_int(a) else -1


@lru_cache(maxsize=64)
def _ratios(pairs: tuple, width: int) -> np.ndarray:
    """Row i holds the term ratios t_(k+1) / (z t_k) = (a+k) / ((b+k)(k+1)),
    k < width, of pairs[i] = (a, b)."""
    k = np.arange(width, dtype=float)
    r = np.array([(a + k) / ((b + k) * (k + 1.0)) for a, b in pairs])
    r.flags.writeable = False
    return r


# The last call of _taylor: (pairs, z bit patterns, (value, err, used)).
_kept_sums = None


def _taylor(pairs: tuple, z):
    """Compensated Taylor sums of M(a;b;z) = sum_k (a)_k z^k / ((b)_k k!)
    for every (a, b) of pairs at every lane of the 1-D float array z.

    A lane's sums depend on its z alone (_taylor_sums), so the last call is
    kept: a later call with equal pairs and bit-identical z (signed zeros
    differ) gets copies of its arrays, and every other call is summed and
    replaces it. The probes ask for the same arguments at every radius,
    because the Kummer argument of T is invariant under the kinetic
    dilation.
    """
    global _kept_sums
    bits = z.view(np.uint64)
    kept = _kept_sums
    if kept is None or kept[0] != pairs or not np.array_equal(kept[1], bits):
        kept = (pairs, bits.copy(), _taylor_sums(pairs, z))
        _kept_sums = kept
    return tuple(a.copy() for a in kept[2])


def _taylor_sums(pairs: tuple, z):
    """The sums of _taylor, computed.

    A polynomial case (a a nonpositive integer) is summed to degree -a;
    every other lane stops after three consecutive terms below 1e-17 of
    the partial sum. The partial sums S_k = fl(S_(k-1) + t_k) come from one
    cumulative sum, and the rounding error of each step (TwoSum) is added
    back: Ogita, Rump & Oishi's Sum2, as accurate as summing in twice the
    working precision. The error estimate covers the truncation tail and
    the roundoff floor from cancellation (scale of the largest term).
    Returns (value, est_abs_error, terms_used), each of shape
    (len(pairs), z.size).

    Lanes are grouped by their own starting width and summed in blocks of
    at most _BLOCK // len(pairs) lanes of one width (module docstring).
    """
    deg = [_poly_degree(a) for a, _ in pairs]
    size = _BLOCK // len(pairs)
    # each lane's starting width: about 2.7 |z| + 20 terms reach the stop
    # rule, in steps of 16 columns; a lane that needs more is summed again
    # with twice the width
    width = np.minimum(16.0 * np.ceil((24.0 + 3.0 * np.abs(z)) / 16.0), _SERIES_CAP)
    if z.size <= size and (z.size < 2 or width.min() == width.max()):
        return _taylor_block(pairs, deg, z, width.max(initial=32.0))  # 32: |z| = 0
    order = np.argsort(width, kind="stable")
    shape = (len(pairs), z.size)
    val, err, used = np.empty(shape), np.empty(shape), np.empty(shape, dtype=np.int64)
    for group in np.split(order, np.flatnonzero(np.diff(width[order])) + 1):
        for lo in range(0, group.size, size):
            lanes = group[lo:lo + size]
            val[:, lanes], err[:, lanes], used[:, lanes] = _taylor_block(
                pairs, deg, z[lanes], width[lanes[0]])
    return val, err, used


def _taylor_block(pairs, deg, z, width):
    """_taylor on lanes z that all start at the given width."""
    n = z.size
    width = max(int(width), *deg)
    deg = np.repeat(deg, n)
    factors = _ratios(pairs, width)[:, None, :] * z[:, None]
    done, val, err, used = _taylor_terms(factors.reshape(-1, width), deg)
    while not done.all():
        width = min(2 * width, _SERIES_CAP)
        redo = np.flatnonzero(~done)
        done[redo], val[redo], err[redo], used[redo] = _taylor_terms(
            _ratios(pairs, width)[redo // n] * z[redo % n, None], deg[redo])
    shape = (len(pairs), n)
    return val.reshape(shape), err.reshape(shape), used.reshape(shape)


def _taylor_terms(factors, deg):
    n, width = factors.shape
    X = np.empty((n, width + 1))
    X[:, 0] = 1.0
    factors.cumprod(axis=1, out=X[:, 1:])
    S = X.cumsum(axis=1)
    aX = np.abs(X)
    small = aX[:, 1:] < 1e-17 * np.maximum(np.abs(S[:, 1:]), 1e-300)
    run = small[:, 2:] & small[:, 1:-1] & small[:, :-2]
    lanes = np.arange(n)
    first = run.argmax(axis=1)
    stopped = run[lanes, first]
    poly = deg >= 0
    used = np.where(poly, deg, np.where(stopped, first + 3, width))
    # Sum2 up to the last term used: add the accumulated TwoSum errors of
    # the k additions to S_k
    m = used.max(initial=0) + 1
    S[:, 1:m] += _two_sum(S[:, :m - 1], X[:, 1:m])[1].cumsum(axis=1)
    # the largest term up to used; max is exact, so masking keeps the bits
    floor = 4.0 * _EPS * aX[:, :m].max(axis=1, where=np.arange(m) <= used[:, None], initial=0.0)
    err = np.where(poly, floor * (used + 1), 2.0 * aX[lanes, used] + floor * np.sqrt(used + 1.0))
    return poly | stopped | (width >= _SERIES_CAP), S[lanes, used], err, used


def _poincare(p: float, q: float, w):
    """sum_s (p)_s (q)_s / s! w^(-s), s <= 60, summed lane by lane to its
    smallest term. The terms may grow while s < max(-p, -q), so a rise
    counts only from s = ceil(max(-p, -q)) on: the sum stops at the first
    term after that which is not smaller than the one before. Returns
    (sum, estimate, terms_used); the estimate is twice the first omitted
    term (the last one when all 61 are used) plus the roundoff floor of
    _taylor_terms at the scale of the largest term used. Lanes go in
    blocks of at most _BLOCK."""
    if w.size > _BLOCK:
        parts = [_poincare(p, q, w[lo:lo + _BLOCK]) for lo in range(0, w.size, _BLOCK)]
        return tuple(np.concatenate(col) for col in zip(*parts))
    s = np.arange(_POINCARE_TERMS - 1, dtype=float)
    P = np.empty((w.size, _POINCARE_TERMS))
    P[:, 0] = 1.0
    np.cumprod((p + s) * (q + s) / ((s + 1.0) * w[:, None]), axis=1, out=P[:, 1:])
    aP = np.abs(P)
    rise = aP[:, 1:] >= aP[:, :-1]
    rise[:, :math.ceil(max(-p, -q, 0.0))] = False
    used = np.where(rise.any(axis=1), rise.argmax(axis=1) + 1, _POINCARE_TERMS)
    rows = np.arange(w.size)
    total = np.cumsum(P, axis=1)[rows, used - 1]
    big = aP.max(axis=1, where=np.arange(_POINCARE_TERMS) < used[:, None], initial=0.0)
    return (total, 2.0 * aP[rows, np.minimum(used, _POINCARE_TERMS - 1)]
            + 4.0 * _EPS * big * np.sqrt(used), used)


def _m_lanes(a: float, b: float, z, transform: bool):
    """M(a;b;z) over the lanes of a 1-D z as (value, error, terms, regime).

    With transform, lanes with z < -1 go through Kummer's transformation
    M(a;b;z) = e^z M(b-a;b;-z), so the summed series has positive terms.
    """
    _finite_params("kummer_m", a=a, b=b)
    if _is_nonpositive_int(b):
        raise ValueError(f"kummer_m: b = {b} is a nonpositive integer")
    flip = z < -1.0 if transform and _poly_degree(a) < 0 else np.zeros(z.size, dtype=bool)
    val = np.empty(z.size)
    err = np.empty(z.size)
    used = np.empty(z.size, dtype=np.int64)
    code = np.empty(z.size, dtype=np.int64)
    # an overflowing sum is caught by the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        for lanes, (aa, bb), arg in ((~flip, (a, b), z), (flip, (b - a, b), -z)):
            if lanes.any():
                (val[lanes],), (err[lanes],), (used[lanes],) = _taylor(((aa, bb),), arg[lanes])
                code[lanes] = _POLYNOMIAL if _poly_degree(aa) >= 0 else _SERIES
        if flip.any():
            e = np.exp(z[flip])
            val[flip] *= e
            err[flip] = e * err[flip] + _EPS * np.abs(val[flip])
    bad = ~(np.isfinite(val) & np.isfinite(err))
    if bad.any():
        raise ValueError(f"kummer_m: summing M({a}; {b}; z) overflows double precision "
                         f"at z = {z[bad][0]}")
    return val, err, used, code


def kummer_m_array(a: float, b: float, z) -> HypergeomLanes:
    """Kummer's function M(a;b;z) = 1F1(a;b;z) at every entry of z.

    Terminating cases (-a a nonnegative integer) are summed exactly; large
    negative z is routed through the Kummer transformation
    M(a;b;z) = e^z M(b-a;b;-z) so the summed series has positive terms.
    A lane whose sum overflows double precision raises ValueError naming
    its z.
    """
    z = _finite_lanes(z, "kummer_m")
    if (np.abs(z) > 700.0).any():
        raise ValueError("kummer_m: |z| > 700 would overflow double precision")
    return _lanes(z.shape, *_m_lanes(a, b, z.ravel(), transform=True))


def kummer_m(a: float, b: float, z: float) -> HypergeomEval:
    """One-lane kummer_m_array."""
    return kummer_m_array(a, b, z).lane()


def kummer_m_series_array(a: float, b: float, z) -> HypergeomLanes:
    """Raw truncated Taylor evaluation, any sign of z; used as the second
    route in the transformation-identity checks. Overflow raises as in
    kummer_m_array."""
    z = _finite_lanes(z, "kummer_m_series")
    return _lanes(z.shape, *_m_lanes(a, b, z.ravel(), transform=False))


def kummer_m_series(a: float, b: float, z: float) -> HypergeomEval:
    """One-lane kummer_m_series_array."""
    return kummer_m_series_array(a, b, z).lane()


# |z| at and above which U is summed from its Poincare series
_U_SWITCH = 17.0


@lru_cache(maxsize=64)
def _u_constants(a: float, b: float):
    """Gamma-ratio constants of U(a;b;.), computed once per (a, b).

    c1, c2 weigh M(a;b;z) and z^(1-b) M(a-b+1;2-b;z) in the connection
    formula. On z -> -inf both Kummer solutions reduce to their algebraic
    branches, Gamma(b)/Gamma(b-a) (-z)^(-a) S and Gamma(2-b)/Gamma(1-a)
    (-z)^(b-a-1) S with one Poincare sum S, so that with the real root
    z^(1-b) = -|z|^(1-b) U = |z|^(-a) S (g1 - g2).
    """
    c1 = gamma_real(1.0 - b) * rgamma(a + 1.0 - b)
    c2 = gamma_real(b - 1.0) * rgamma(a)
    g1 = c1 * gamma_real(b) * rgamma(b - a)
    g2 = c2 * gamma_real(2.0 - b) * rgamma(1.0 - a)
    return c1, c2, g1 - g2, abs(g1) + abs(g2)


def _u_connection(a, b, z, scale, scaled_root, offset):
    """offset + scale * U(a;b;z) by the connection formula (DLMF 13.2.42)
    for moderate z, with scaled_root = scale * z^(1-b) (real root).

    The larger product and both sums are compensated (TwoProduct, TwoSum)
    and rounded once, so the result is about as accurate as the two
    series and the factors c1 * scale and c2 * scaled_root. Those carry a
    few ulps each from Gamma and the root; the estimate adds them at the
    scale of each product, which dominates where the products cancel, as
    near |z| = 17 on z > 0."""
    c1, c2, _, _ = _u_constants(a, b)
    (m1, m2), (e1, e2), (k1, k2) = _taylor(((a, b), (a - b + 1.0, 2.0 - b)), z)
    p1, r1 = _two_prod(c1 * scale, m1)
    p2 = c2 * scaled_root * m2
    s, rs = _two_sum(p1, p2)
    t, rt = _two_sum(offset, s)
    return (t + (rt + rs + r1),
            np.abs(c1 * scale) * e1 + np.abs(c2 * scaled_root) * e2
            + 4.0 * _EPS * (np.abs(p1) + np.abs(p2)),
            k1 + k2)


def _u_asymptotic(a, b, z, scaled_pow, offset):
    """offset + scale * U(a;b;z) for large |z| from the Poincare series,
    with scaled_pow = scale * |z|^(-a)."""
    _, _, g, g_err = _u_constants(a, b)
    S, est, k = _poincare(a, a - b + 1.0, -z)
    neg = z < 0.0
    # both algebraic branches sum the same series on z < 0
    return (offset + scaled_pow * S * np.where(neg, g, 1.0),
            np.abs(scaled_pow) * est * np.where(neg, g_err, 1.0),
            np.where(neg, 2 * k, k))


def _u_lanes(a: float, b: float, z, scale, offset, scaled_pow=None, scaled_root=None):
    """offset + scale * U(a;b;z) over the lanes of a 1-D z, as (value,
    error, terms, regime); scale and offset are arrays like z.

    Each lane runs one formula, chosen by |z| alone: the connection formula
    through two Kummer series below |z| = 17, and at or above it the
    Poincare series U ~ |z|^(-a) sum_s (a)_s (a-b+1)_s / s! (-z)^(-s) (real
    branch for z < 0). At |z| = 17 the connection formula's e^z cancellation
    still leaves about 1e-13 relative, and the Poincare series, summed past
    the terms that grow at first, is as accurate. A caller that knows
    scale * |z|^(-a) and scale * z^(1-b) in closed form passes them as
    scaled_pow and scaled_root: near the grazing set that avoids overflow,
    and it keeps roundings that vary with z out of the result.
    """
    _finite_params("tricomi_u", a=a, b=b)
    if abs(b - round(b)) < 1e-12:
        raise ValueError("tricomi_u: integer b (logarithmic case) not supported")
    if abs(abs(1.0 - b) - 1.0 / 3.0) >= 1e-12 and (z < 0.0).any():
        # the real branch takes odd roots only
        raise ValueError(f"real power of negative base undefined for exponent {1.0 - b}")
    asy = np.abs(z) >= _U_SWITCH
    con = ~asy
    val = np.empty(z.size)
    err = np.empty(z.size)
    used = np.empty(z.size, dtype=np.int64)
    if con.any():
        zc = z[con]
        root = scaled_root[con] if scaled_root is not None else scale[con] * np.copysign(
            np.power(np.abs(zc), 1.0 - b, out=np.zeros(zc.size), where=zc != 0.0), zc)
        val[con], err[con], used[con] = _u_connection(a, b, zc, scale[con], root, offset[con])
    if asy.any():
        zpow = scale[asy] * np.abs(z[asy]) ** -a if scaled_pow is None else scaled_pow[asy]
        val[asy], err[asy], used[asy] = _u_asymptotic(a, b, z[asy], zpow, offset[asy])
    return val, err, used, np.where(asy, _ASYMPTOTIC, _CONNECTION)


def tricomi_u_array(a: float, b: float, z) -> HypergeomLanes:
    """Tricomi's confluent hypergeometric U(a;b;z) at every entry of z,
    real branch for z < 0.

    Below |z| = 17 the connection formula through two M evaluations is
    used; at or above it, the adaptive asymptotic series (_u_lanes). b
    must be non-integer (the kinetic use has b in {2/3, 4/3}). A lane whose
    value or error overflows double precision raises ValueError naming its
    z.
    """
    z = _finite_lanes(z, "tricomi_u")
    # an overflowing lane is caught by the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        val, err, used, code = _u_lanes(a, b, z.ravel(), np.ones(z.size), np.zeros(z.size))
    bad = ~(np.isfinite(val) & np.isfinite(err))
    if bad.any():
        raise ValueError(f"tricomi_u: U({a}; {b}; z) overflows double precision "
                         f"at z = {z.ravel()[bad][0]}")
    return _lanes(z.shape, val, err, used, code)


def tricomi_u(a: float, b: float, z: float) -> HypergeomEval:
    """One-lane tricomi_u_array."""
    return tricomi_u_array(a, b, z).lane()


def asymptotic_m(a: float, b: float, z: float) -> float:
    """Large-|z| value of M(a;b;z) from the Poincare expansions of
    eq-type  Gamma(b) [ e^z z^(a-b)/Gamma(a) + (-z)^(-a)/Gamma(b-a) ],
    each branch summed adaptively; only the real, dominant branch
    contributes for each sign of z."""
    _finite_params("asymptotic_m", a=a, b=b, z=z)
    if abs(z) < 30.0:
        raise ValueError("asymptotic_m requires |z| >= 30")
    if _is_nonpositive_int(a):
        raise ValueError("asymptotic_m: terminating case, use kummer_m")
    if z > 0:
        S = _poincare(b - a, 1.0 - a, np.array([z]))[0][0]
        return gamma_real(b) * rgamma(a) * math.exp(z) * z ** (a - b) * S
    S = _poincare(a, a - b + 1.0, np.array([-z]))[0][0]
    return gamma_real(b) * rgamma(b - a) * (-z) ** (-a) * S


def asymptotic_u_kinetic(a: float, tau: float) -> float:
    """Leading-order U(-a; 2/3; -tau^3) for |tau| >= 5:
    K |tau|^(3a) as tau -> +inf with K = 2 cos(pi (a + 1/3)), and
    |tau|^(3a) as tau -> -inf."""
    _finite_params("asymptotic_u_kinetic", a=a, tau=tau)
    if abs(tau) < 5.0:
        raise ValueError("asymptotic_u_kinetic requires |tau| >= 5")
    if tau > 0:
        K = 2.0 * math.cos(math.pi * (a + 1.0 / 3.0))
        return K * abs(tau) ** (3.0 * a)
    return abs(tau) ** (3.0 * a)
