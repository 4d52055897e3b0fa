"""The explicit obstruction solution T_{A,lam} on the half line {x >= 0}.

For lam = 6k + 3 the function

    T_{A,lam}(x, v) = A^(-(lam+2)/2) v^(lam+2)
                      - 2 * 9^((lam+2)/3) A^(-(lam+2)/6) x^((lam+2)/3)
                        * U(-(lam+2)/3; 2/3; -v^3 / (9 A x))

is (lam+2)-homogeneous under (x, v) -> (r^3 x, r v), solves
v T_x - A T_vv = -(lam+1)(lam+2) A^(-lam/2) v^lam for x > 0, and has an
even boundary trace T(0, v) = -3 A^(-(lam+2)/2) |v|^(lam+2). It is smooth
for x > 0 but only C^(5/3) in x at the grazing corner, which is exactly
the obstruction to C^5 regularity this package measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import KineticPoint
from .probe import phase_field, polyfit_on_cylinder, sample_cylinder
# gamma_real and tricomi_u are re-exported: perfbench/tracing.py wraps
# kinreg.tricomi.gamma_real and kinreg.tricomi.tricomi_u.
from .specfun import _u_lanes, gamma_real, tricomi_u  # noqa: F401


@dataclass(frozen=True)
class TricomiParams:
    """(A, lam) with A > 0 and lam in {3, 9, 15, ...}, where T's monomial
    coefficient A^(-(lam+2)/2) must be a finite, normal double."""

    A: float
    lam: int = 3

    def __post_init__(self):
        if not (self.A > 0 and np.isfinite(self.A)):
            raise ValueError("A must be positive and finite")
        if self.lam < 3 or (self.lam - 3) % 6 != 0:
            raise ValueError("lam must be of the form 6k + 3")
        with np.errstate(over="ignore", under="ignore"):
            coef = np.float64(self.A) ** (-(self.lam + 2) / 2.0)
        if not np.finfo(float).tiny <= coef < np.inf:
            raise ValueError(f"A = {self.A!r} is out of range for lam = {self.lam}: "
                             "A^(-(lam+2)/2) must be a finite, normal double")

    @property
    def homogeneity(self) -> int:
        return self.lam + 2


def residual_constant(p: TricomiParams) -> float:
    """The exact multiple of v^lam produced by v T_x - A T_vv.

    The hypergeometric part solves the homogeneous equation, so only the
    monomial A^(-(lam+2)/2) v^(lam+2) contributes:
    -(lam+1)(lam+2) A^(-lam/2).
    """
    lam = p.lam
    return -(lam + 1.0) * (lam + 2.0) * p.A ** (-lam / 2.0)


def boundary_trace(p: TricomiParams, v):
    """One-sided limit T(0+, v) = -3 A^(-(lam+2)/2) |v|^(lam+2)."""
    if not np.isfinite(v).all():
        raise ValueError("boundary_trace: v must be finite")
    return -3.0 * p.A ** (-(p.lam + 2) / 2.0) * np.abs(v) ** (p.lam + 2)


def require_finite_up_to(p: TricomiParams, v_max: float) -> None:
    """ValueError naming A unless T is finite at |v| = v_max, on the
    boundary and at x = 1, for a caller that evaluates T up to that |v|.

    T_A(x, v) = A^(-(lam+2)/2) T_1(A x, v): at the small A where T
    overflows, A x is small at every x such a caller samples, so T there
    is within rounding of its value at x = 1 (the interior form, which
    overflows first) or on the boundary. Nothing is kept for eval_tricomi.
    """
    try:
        _evaluate(p, np.array([0.0, 1.0, 1.0]), np.array([v_max, v_max, -v_max]))
    except ValueError:
        raise ValueError(f"A = {p.A!r} is out of range for lam = {p.lam} at |v| <= {v_max}: "
                         "T overflows double precision") from None


# The last evaluation of more than one lane: (p, x bits, v bits, T, lanes),
# where lanes maps (x bits, v bits) to a lane and is filled by the first
# one-lane lookup against this entry.
_last = None


def eval_tricomi(p: TricomiParams, x, v):
    """T_{A,lam}(x, v) for x >= 0 (boundary trace at x = 0).

    x and v broadcast against each other; an ndarray comes back for array
    input and a float for scalars. NaN or inf in any lane raises
    ValueError, and so does x < 0 or a T that overflows. The lanes are
    checked once, here; _interior assembles T on the lanes with x > 0,
    and points near the grazing set stay finite there.

    A lane's T does not depend on the other lanes of its call (see
    specfun), so the last evaluation of more than one lane is kept: a
    later call with equal p is answered from it when it asks for one lane
    whose (x, v) bit patterns the kept call had, or for bit-identical x
    and v arrays. Every other call is evaluated and checked as above, and
    one of more than one lane replaces the kept one. Kept lanes passed the
    checks, so a NaN, inf or negative x never matches one and still raises.
    """
    global _last
    x, v = np.asarray(x, dtype=float), np.asarray(v, dtype=float)
    if x.shape != v.shape:
        x, v = np.broadcast_arrays(x, v)
    xf, vf = x.ravel(), v.ravel()
    out = _recall(p, xf, vf)
    if out is None:
        out = _evaluate(p, xf, vf)
        if out.size > 1:
            _last = (p, xf.view(np.uint64).copy(), vf.view(np.uint64).copy(), out.copy(), {})
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


def _recall(p: TricomiParams, xf, vf):
    """A copy of the kept T at the 1-D lanes xf, vf, or None where the last
    array evaluation did not compute them."""
    last = _last
    if last is None or last[0] != p:
        return None
    _, xb, vb, T, lanes = last
    if xf.size == 1:
        if not lanes:
            lanes.update(zip(zip(xb.tolist(), vb.tolist()), range(len(T))))
        i = lanes.get((xf.view(np.uint64).item(), vf.view(np.uint64).item()))
        return None if i is None else T[i:i + 1].copy()
    if (xf.size == len(xb) and np.array_equal(xf.view(np.uint64), xb)
            and np.array_equal(vf.view(np.uint64), vb)):
        return T.copy()
    return None


def _evaluate(p: TricomiParams, xf, vf):
    """T at the 1-D lanes xf, vf, checked as eval_tricomi documents."""
    if not (np.isfinite(xf).all() and np.isfinite(vf).all()):
        raise ValueError("eval_tricomi: x and v must be finite")
    inner = xf > 0.0
    if not inner.all() and (xf < 0.0).any():
        raise ValueError("eval_tricomi requires x >= 0")
    # the check below catches overflow; tau = -inf at subnormal x is the asymptotic limit
    with np.errstate(over="ignore", invalid="ignore"):
        if inner.all():
            out = _interior(p, xf, vf)
        else:
            out = np.array(boundary_trace(p, vf), dtype=float)
            if inner.any():
                out[inner] = _interior(p, xf[inner], vf[inner])
    if not np.isfinite(out).all():
        raise ValueError("eval_tricomi: T overflows double precision")
    return out


def _interior(p: TricomiParams, x, v):
    """T at 1-D lanes with x > 0, unchecked; the result is not checked for
    overflow, and the caller sets the floating-point error state.

    The hypergeometric part h = x^c U(-c; 2/3; tau), c = (lam+2)/3 and
    tau = -v^3/(9 A x), is the bounded solution of v h_x - A h_vv = 0. In
    the real Kummer basis it reads
        C1 x^c M(-c; 2/3; tau) + C2 v x^(c-1/3) M(-(lam+1)/3; 4/3; tau)
    with C1 = Gamma(1/3)/Gamma(-(lam+1)/3) and
    C2 = -(9 A)^(-1/3) Gamma(-1/3)/Gamma(-c), the unique ratio that cancels
    the exponentially growing branches; the cube root of tau is taken real,
    so h is real for every sign of v. _u_lanes gets x^c |tau|^c and
    x^c tau^(1/3) in closed form, (|v|^3 / 9A)^c and -(9A)^(-1/3) x^(c-1/3) v:
    both stay finite as x -> 0+. The monomial is added to -K h with
    compensation and rounded once.
    """
    lam, A = p.lam, p.A
    c = (lam + 2.0) / 3.0
    K = 2.0 * 9.0 ** c * A ** (-(lam + 2) / 6.0)
    tau = -(v ** 3) / (9.0 * A * x)
    return _u_lanes(-c, 2.0 / 3.0, tau, -K * x ** c, A ** (-(lam + 2) / 2.0) * v ** (lam + 2),
                    scaled_pow=-K * (np.abs(v) ** 3 / (9.0 * A)) ** c,
                    scaled_root=K * (9.0 * A) ** (-1.0 / 3.0) * x ** (c - 1.0 / 3.0) * v)[0]


def as_field(p: TricomiParams) -> Callable[[KineticPoint], float]:
    """T as a function on phase space: z -> T(x[0], v[0]), with a
    values(pts) that evaluates a whole array of rows in one call."""
    return phase_field(lambda x, v: eval_tricomi(p, x, v))


def pde_residual(p: TricomiParams, x, v):
    """v T_x - A T_vv at (x, v), x > 0; x and v broadcast as in eval_tricomi.

    Centered second-order differences with steps h*(1+x) in x and
    h*(1+|v|) in v, h = 1e-4 (the x-step is halved to x/2 where it would
    leave x > 0), all stencil points in one eval_tricomi call. The exact
    value is residual_constant(p) * v^lam. Raises ValueError where a
    quotient is not finite, as when x is so small that x/2 rounds to 0.
    """
    x, v = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(v, dtype=float))
    if (x <= 0.0).any():
        raise ValueError("pde_residual requires x > 0")
    hx = 1e-4 * (1.0 + x)
    hv = 1e-4 * (1.0 + np.abs(v))
    hx = np.where(x - hx <= 0.0, 0.5 * x, hx)
    t = eval_tricomi(p, np.stack([x + hx, x - hx, x, x, x]),
                     np.stack([v, v, v + hv, v, v - hv]))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        tx = v * (t[0] - t[1]) / (2.0 * hx)
        tvv = (t[2] - 2.0 * t[3] + t[4]) / hv ** 2
        res = tx - p.A * tvv
    if not np.isfinite(res).all():
        raise ValueError("pde_residual: the difference quotients are not finite")
    return float(res) if res.ndim == 0 else res


def cusp_ratio(p: TricomiParams, x):
    """T(x, 0) / x^((lam+2)/3); constant in x by exact homogeneity.

    Equals -2 * 9^((lam+2)/3) A^(-(lam+2)/6) U(-(lam+2)/3; 2/3; 0), the
    coefficient of the x^(5/3)-type cusp along the grazing ray. Accepts an
    array of x.
    """
    x = np.asarray(x, dtype=float)
    if (x <= 0.0).any():
        raise ValueError("cusp_ratio requires x > 0")
    r = eval_tricomi(p, x, 0.0) / x ** ((p.lam + 2) / 3.0)
    return float(r) if x.ndim == 0 else r


def c41_seminorm_probe(p: TricomiParams, z_star: KineticPoint, r: float,
                       samples: int = 400, seed: int = 0) -> float:
    """Discrete C^{4,1} seminorm proxy on H_r(z_star):
    sup over samples of |T - best P4 fit| / d_ell^5.

    A least-squares fit over the degree-4 kinetic polynomials stands in
    for the inf over P4; pairs closer than 1e-6 to the base point are
    skipped to avoid the 0/0 at z_star itself.
    """
    if r <= 0 or r > 1:
        raise ValueError("require 0 < r <= 1")
    if z_star.x[0] < 0:
        raise ValueError("z_star must lie in the closed half space")
    from .geometry import kinetic_distance
    from .polynomials import full_space

    f = as_field(p)
    spec = full_space(4, 1)
    fit = polyfit_on_cylinder(f, z_star, r, spec, samples=samples, seed=seed)
    pts = sample_cylinder(z_star, r, max(samples, 200), seed=seed + 1)
    resid = np.abs(f.values(pts) - fit.values(pts))
    d = kinetic_distance(pts, z_star)
    far = d >= 1e-6
    return float(np.max(resid[far] / d[far] ** 5, initial=0.0))
