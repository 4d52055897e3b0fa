"""Phase-space geometry: kinetic group, cylinders, and the kinetic distance.

Points z = (t, x, v) carry the non-commutative group law

    (s, y, w) o (t, x, v) = (s + t, x + y + t*w, v + w)

and the anisotropic scaling S_r(t, x, v) = (r^2 t, r^3 x, r v). Cylinders
Q_r(z0) are the balls of this geometry; the distance d_ell is the smallest
r such that both points lie in a common cylinder: in closed form for n = 1,
by bisection over r with a convex feasibility test in the slide velocity w
for n >= 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


def _as_tuple(u) -> tuple[float, ...]:
    if isinstance(u, (int, float)):
        return (float(u),)
    return tuple(float(c) for c in u)


@dataclass(frozen=True)
class KineticPoint:
    """A phase-space event z = (t, x, v) with dim(x) = dim(v) = n >= 1."""

    t: float
    x: tuple[float, ...]
    v: tuple[float, ...]

    def __init__(self, t, x, v):
        object.__setattr__(self, "t", float(t))
        object.__setattr__(self, "x", _as_tuple(x))
        object.__setattr__(self, "v", _as_tuple(v))
        if len(self.x) != len(self.v):
            raise ValueError(f"x has dim {len(self.x)} but v has dim {len(self.v)}")
        if len(self.x) < 1:
            raise ValueError("dimension must be >= 1")
        for c in (self.t, *self.x, *self.v):
            if not math.isfinite(c):
                raise ValueError("non-finite component in kinetic point")

    @property
    def n(self) -> int:
        return len(self.x)

    def norm(self) -> float:
        """Euclidean norm of the raw coordinate vector (t, x, v)."""
        return math.sqrt(self.t ** 2 + sum(c * c for c in self.x) + sum(c * c for c in self.v))


def origin(n: int) -> KineticPoint:
    return KineticPoint(0.0, (0.0,) * n, (0.0,) * n)


def _split(z):
    """The t, x and v column blocks of a KineticPoint or of rows (t, x..., v...)."""
    rz = np.array((z.t, *z.x, *z.v)) if isinstance(z, KineticPoint) else np.asarray(z, dtype=float)
    n, odd = divmod(rz.shape[-1] - 1, 2) if rz.ndim else (0, 0)
    if n < 1 or odd:
        raise ValueError(f"rows (t, x..., v...) need an odd length >= 3, got shape {rz.shape}")
    return rz[..., :1], rz[..., 1:1 + n], rz[..., 1 + n:]


def _join(t, x, v, *args):
    """A KineticPoint when every argument was one, else the rows; never non-finite."""
    out = np.concatenate([t, x, v], axis=-1)
    if not np.isfinite(out).all():
        raise ValueError("non-finite component in kinetic point")
    if all(isinstance(a, KineticPoint) for a in args):
        return KineticPoint(t[0], x, v)
    return out


def compose(a, b):
    """Group law a o b; not commutative. a and b are KineticPoints or
    arrays of rows (t, x..., v...) that broadcast against each other."""
    (ta, xa, va), (tb, xb, vb) = _split(a), _split(b)
    if xa.shape[-1] != xb.shape[-1]:
        raise ValueError("dimension mismatch in compose")
    return _join(ta + tb, xb + xa + tb * va, vb + va, a, b)


def inverse(z):
    """Group inverse: compose(inverse(z), z) = identity = (0, 0, 0)."""
    t, x, v = _split(z)
    return _join(-t, -x + t * v, -v, z)


def scale(r: float, z):
    """S_r z = (r^2 t, r^3 x, r v), 0 < r < inf."""
    if not 0.0 < r < math.inf:
        raise ValueError(f"scale factor must be positive and finite, got {r}")
    t, x, v = _split(z)
    return _join(r * r * t, np.float64(r) ** 3 * x, r * v, z)   # overflows to inf, not OverflowError


def frame_map(z0: KineticPoint, r: float, z):
    """z0 o S_r z, the zoom-in frame centered at z0 with scale r."""
    return compose(z0, scale(r, z))


def frame_unmap(z0: KineticPoint, r: float, z):
    """Exact inverse of frame_map: S_{1/r}(z0^{-1} o z)."""
    return scale(1.0 / r, compose(inverse(z0), z))


class Sided(Enum):
    TWO_SIDED = "two_sided"
    ONE_SIDED_PAST = "one_sided_past"


@dataclass(frozen=True)
class CylinderSpec:
    """Kinetic cylinder Q_r(z0) (two-sided) or Q~_r(z0) (past)."""

    center: KineticPoint
    radius: float
    sided: Sided = Sided.TWO_SIDED

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("cylinder radius must be positive")


def cylinder_contains(c: CylinderSpec, z: KineticPoint) -> bool:
    """Strict membership; one-sided cylinders include the top time t = t0."""
    z0, r = c.center, c.radius
    dt = z.t - z0.t
    if c.sided is Sided.TWO_SIDED:
        if not abs(dt) < r * r:
            return False
    else:
        if not (-r * r < dt <= 0.0):
            return False
    for xc, x0c, v0c in zip(z.x, z0.x, z0.v):
        if not abs(xc - x0c - dt * v0c) < r ** 3:
            return False
    for vc, v0c in zip(z.v, z0.v):
        if not abs(vc - v0c) < r:
            return False
    return True


@dataclass(frozen=True)
class HalfSpaceDomain:
    """Spatial half-space {x[normal_axis] > 0}.

    The outward unit normal on the boundary is -e_{normal_axis}; the grazing
    set gamma_0 is where the normal velocity vanishes.
    """

    normal_axis: int = 0


def reflect_velocity(z: KineticPoint, d: HalfSpaceDomain) -> KineticPoint:
    """Specular reflection R_x v = v - 2 (v . n) n; flips v[normal_axis].
    Paper: the specular reflection condition f(t, x, R_x v) = f(t, x, v)."""
    k = d.normal_axis
    v = list(z.v)
    v[k] = -v[k]
    return KineticPoint(z.t, z.x, tuple(v))


def reflected_set_membership(c: CylinderSpec, d: HalfSpaceDomain, z: KineticPoint) -> bool:
    """Membership in S(Q) = Q union R(Q).
    Paper: the set S(Q) of a cylinder Q that meets the specular boundary."""
    return cylinder_contains(c, z) or cylinder_contains(c, reflect_velocity(z, d))


# ---------------------------------------------------------------------------
# Kinetic distance
# ---------------------------------------------------------------------------


_TINY = np.finfo(float).smallest_subnormal


def _distance_1d(dt, dx, v1, v2):
    """d_ell for n = 1 from dt = t1 - t2, dx = x1 - x2, v1 and v2, exactly;
    floats or arrays that broadcast.

    Each condition on the level r is monotone in r: |dt| <= r^2,
    |v1 - v2| <= 2r, and the slide interval [max(v) - r, min(v) + r]
    meets {w : |dx - dt w| <= r^3}, which is r^3 + |dt| r >= q with
    q = max(|dt| max(v) - s dx, s dx - |dt| min(v), 0), s = sign(dt)
    (q = |dx| at dt = 0). So d_ell = max(sqrt|dt|, |v1 - v2|/2, rho) with
    rho the real root of rho^3 + |dt| rho = q, summed by Cardano without
    cancellation as q / (u^2 + |dt|/3 + (|dt|/(3u))^2). The cubic's
    symmetry (rho, |dt|, q) -> (l rho, l^2 |dt|, l^3 q), l a power of 2,
    scales twice: first so that the products in q cannot overflow, then
    q and |dt| to at most 1 so that q^2 and |dt|^3 neither overflow nor
    underflow. NaN or inf where dt, dx or v1 - v2 overflow."""
    p, s = np.abs(dt), np.sign(dt)
    # q at the scale 8^k, k the least with |dt| < 4^k, |dx| < 8^k and
    # |dt| max|v| < 8^k: |dt| is taken to [0.5, 1) and v to the rest of the
    # scale, so each factor and product is at most 1; what underflows is
    # below 2^-1022 of the term that sets k. |dt| = 0 and v = 0 count as
    # the least subnormal, not as frexp's exponent 0
    ep = np.frexp(np.maximum(p, _TINY))[1]
    ev = np.frexp(np.maximum(np.maximum(np.abs(v1), np.abs(v2)), _TINY))[1]
    k = np.maximum(np.maximum(-(-ep // 2), -(-(ep + ev) // 3)),
                   -(-np.frexp(np.maximum(np.abs(dx), _TINY))[1] // 3))
    a, xk = np.ldexp(p, -ep), np.ldexp(dx, -3 * k)
    q = np.maximum(np.maximum(a * np.ldexp(np.maximum(v1, v2), ep - 3 * k) - s * xk,
                              s * xk - a * np.ldexp(np.minimum(v1, v2), ep - 3 * k)),
                   (dt == 0.0) * np.abs(xk))
    # the scale exponent, ceil of the larger of log2(q)/3 and log2|dt|/2
    e = np.maximum(k - (-np.frexp(q)[1] // 3), -(-ep // 2))
    qs, ps = np.ldexp(q, 3 * (k - e)), np.ldexp(p, -2 * e)
    # u >= 0.28 once scaled, unless q = 0, where rho = 0 and the + 1 keeps out
    # 0/0; products, not powers, so that one lane and an array agree bit for bit
    u = np.cbrt(0.5 * qs + np.sqrt(0.25 * qs * qs + ps * ps * ps / 27.0)) + (q == 0.0)
    w = ps / (3.0 * u)
    rho = np.ldexp(qs / (u * u + ps / 3.0 + w * w), e)
    return np.maximum(np.maximum(np.sqrt(p), 0.5 * np.abs(v1 - v2)), rho)


def _dist_to_lens(p, c1, c2, r: float) -> float:
    """Distance from p to B(c1, r) cap B(c2, r); the lens is assumed
    nonempty (|c1 - c2| <= 2r). Exact in any dimension: either one of the
    single-ball projections already lands in the other ball, or the
    nearest point sits on the rim sphere of the lens."""
    d1 = math.sqrt(sum((a - b) ** 2 for a, b in zip(p, c1)))
    d2 = math.sqrt(sum((a - b) ** 2 for a, b in zip(p, c2)))
    if d1 <= r and d2 <= r:
        return 0.0
    if d1 > r:
        q = [b + (a - b) * (r / d1) for a, b in zip(p, c1)]
        if math.sqrt(sum((a - b) ** 2 for a, b in zip(q, c2))) <= r + 1e-15:
            return d1 - r
    if d2 > r:
        q = [b + (a - b) * (r / d2) for a, b in zip(p, c2)]
        if math.sqrt(sum((a - b) ** 2 for a, b in zip(q, c1))) <= r + 1e-15:
            return d2 - r
    cc = math.sqrt(sum((a - b) ** 2 for a, b in zip(c1, c2)))
    if cc < 1e-300:
        return max(d1 - r, 0.0)
    u = [(a - b) / cc for a, b in zip(c2, c1)]
    m = [0.5 * (a + b) for a, b in zip(c1, c2)]
    rim = math.sqrt(max(r * r - 0.25 * cc * cc, 0.0))
    w = [a - b for a, b in zip(p, m)]
    axial = sum(a * b for a, b in zip(w, u))
    rad2 = max(sum(a * a for a in w) - axial * axial, 0.0)
    return math.sqrt(axial * axial + (math.sqrt(rad2) - rim) ** 2)


def _feasible_nd(r: float, z1: KineticPoint, z2: KineticPoint) -> bool:
    """Level-set feasibility for n >= 2, decided exactly.

    The constraint set in w is the lens B(v1, r) cap B(v2, r) intersected
    with the transported ball B((x1-x2)/dt, r^3/|dt|); the intersection is
    nonempty iff the lens is nonempty and the ball center is within its
    radius of the lens, which the analytic lens distance decides without
    iteration (alternating projections stall exactly at the near-tangent
    levels the bisection needs to classify)."""
    dt = z1.t - z2.t
    if abs(dt) > r * r:
        return False
    dv = math.sqrt(sum((a - b) ** 2 for a, b in zip(z1.v, z2.v)))
    if dv > 2.0 * r:
        return False
    dx = [a - b for a, b in zip(z1.x, z2.x)]
    if dt == 0.0:
        return math.sqrt(sum(c * c for c in dx)) <= r ** 3
    cx = [c / dt for c in dx]
    return _dist_to_lens(cx, z1.v, z2.v, r) <= abs(r ** 3 / dt)


def _distance_nd(z1: KineticPoint, z2: KineticPoint, tol: float) -> float:
    """d_ell for n >= 2 to within tol: the sublevel set in w at height r is
    an intersection of convex sets, so membership is decided exactly and
    the radius found by bisection. The minimizing w need not be unique;
    only feasibility of the level set is used.
    Paper: d_ell, the metric of C^{4,1}_kin, for n >= 2; _feasible_nd, _dist_to_lens serve it."""
    if z1 == z2:
        return 0.0
    dt = z1.t - z2.t
    dv = math.sqrt(sum((a - b) ** 2 for a, b in zip(z1.v, z2.v)))
    dxv2 = math.sqrt(sum((x1 - x2 - dt * w) ** 2 for x1, x2, w in zip(z1.x, z2.x, z2.v)))
    hi = max(math.sqrt(abs(dt)), dxv2 ** (1.0 / 3.0), dv) + tol  # w = v2 is feasible
    lo = max(math.sqrt(abs(dt)), dv / 2.0)
    if lo > 0 and _feasible_nd(lo, z1, z2):
        return lo
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _feasible_nd(mid, z1, z2):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def kinetic_distance(z1, z2, tol: float = 1e-9):
    """Kinetic distance d_ell(z1, z2).

    d_ell = min over w of max(|t1-t2|^(1/2), |x1-x2-(t1-t2)w|^(1/3),
    |v1-w|, |v2-w|). z1 and z2 are KineticPoints or, for n = 1, arrays of
    rows (t, x, v) that broadcast against each other; the result is a
    float when both are points, else one distance per row. Exact for
    n = 1 (_distance_1d); to within tol by bisection for n >= 2. ValueError
    unless tol is positive and finite, and where t1 - t2, x1 - x2 or
    v1 - v2 overflow.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if isinstance(z1, KineticPoint) and isinstance(z2, KineticPoint):
        if z1.n != z2.n:
            raise ValueError("dimension mismatch in kinetic_distance")
        if z1.n >= 2:
            return _distance_nd(z1, z2, tol)
        t1, x1, v1, t2, x2, v2 = z1.t, z1.x[0], z1.v[0], z2.t, z2.x[0], z2.v[0]
    else:
        (t1, x1, v1), (t2, x2, v2) = _split(z1), _split(z2)
        if x1.shape[-1] != 1 or x2.shape[-1] != 1:
            raise ValueError("kinetic_distance takes rows for n = 1 only")
        t1, x1, v1, t2, x2, v2 = (c[..., 0] for c in (t1, x1, v1, t2, x2, v2))
    with np.errstate(all="ignore"):
        d = _distance_1d(t1 - t2, x1 - x2, v1, v2)
    if not np.isfinite(d).all():
        raise ValueError("kinetic distance overflows: coordinates too far apart")
    return d if isinstance(d, np.ndarray) else float(d)


def comparability_proxy(z1: KineticPoint, z2: KineticPoint) -> float:
    """max(|t1-t2|^(1/2), |x1-x2-(t1-t2)v1|^(1/3), |v1-v2|), the one-sided
    comparison quantity that matches d_ell up to a universal constant.
    Paper: C^{4,1}_kin is the same space for either quantity, as the constant is universal."""
    dt = z1.t - z2.t
    dx = math.sqrt(sum((x1 - x2 - dt * w) ** 2 for x1, x2, w in zip(z1.x, z2.x, z1.v)))
    dv = math.sqrt(sum((a - b) ** 2 for a, b in zip(z1.v, z2.v)))
    return max(math.sqrt(abs(dt)), dx ** (1.0 / 3.0), dv)
