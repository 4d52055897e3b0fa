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
from .specfun import gamma_real, kummer_m_series, tricomi_u


@dataclass(frozen=True)
class TricomiParams:
    """(A, lam) with A > 0 and lam in {3, 9, 15, ...}."""

    A: float
    lam: int = 3

    def __post_init__(self):
        if self.A <= 0:
            raise ValueError("A must be positive")
        if self.lam < 3 or (self.lam - 3) % 6 != 0:
            raise ValueError("lam must be of the form 6k + 3")

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


def boundary_trace(p: TricomiParams, v: float) -> float:
    """One-sided limit T(0+, v) = -3 A^(-(lam+2)/2) |v|^(lam+2)."""
    return -3.0 * p.A ** (-(p.lam + 2) / 2.0) * abs(v) ** (p.lam + 2)


def eval_tricomi(p: TricomiParams, x: float, v: float) -> float:
    """T_{A,lam}(x, v) for x >= 0 (boundary trace at x = 0)."""
    if x < 0.0:
        raise ValueError("eval_tricomi requires x >= 0")
    lam, A = p.lam, p.A
    if x == 0.0:
        return boundary_trace(p, v)
    c = (lam + 2.0) / 3.0
    tau = -(v ** 3) / (9.0 * A * x)
    u = tricomi_u(-c, 2.0 / 3.0, tau)
    return A ** (-(lam + 2) / 2.0) * v ** (lam + 2) \
        - 2.0 * 9.0 ** c * A ** (-(lam + 2) / 6.0) * x ** c * u.value


def as_field(p: TricomiParams, normal_axis: int = 0, scale: float = 1.0) -> Callable[[KineticPoint], float]:
    """T as a function on phase space: z -> scale * T(x[axis], v[axis])."""

    def f(z: KineticPoint) -> float:
        return scale * eval_tricomi(p, z.x[normal_axis], z.v[normal_axis])

    return f


# ---------------------------------------------------------------------------
# Analytic derivatives (via M' = (a/b) M(a+1; b+1; .) on the Kummer basis)
# ---------------------------------------------------------------------------


def _combo_parts(p: TricomiParams, x: float, v: float):
    """Value and first tau-derivatives of the two Kummer basis pieces.

    Only valid in the series regime; callers guard |tau|.
    """
    lam, A = p.lam, p.A
    a1 = -(lam + 2.0) / 3.0
    a2 = -(lam + 1.0) / 3.0
    tau = -(v ** 3) / (9.0 * A * x)
    m1 = kummer_m_series(a1, 2.0 / 3.0, tau).value
    m1p = a1 / (2.0 / 3.0) * kummer_m_series(a1 + 1.0, 5.0 / 3.0, tau).value
    m2 = kummer_m_series(a2, 4.0 / 3.0, tau).value
    m2p = a2 / (4.0 / 3.0) * kummer_m_series(a2 + 1.0, 7.0 / 3.0, tau).value
    return tau, m1, m1p, m2, m2p


def _u_part_dx_dvv(p: TricomiParams, x: float, v: float):
    """(d/dx, d2/dv2) of h = x^c U(-c; 2/3; tau) by the chain rule.

    Uses M'' from Kummer's ODE: tau M'' = a M - (2/3 - tau) M' per basis
    function, assembled with the connection coefficients.
    """
    lam, A = p.lam, p.A
    c = (lam + 2.0) / 3.0
    a1 = -c
    a2 = -(lam + 1.0) / 3.0
    C1 = gamma_real(1.0 / 3.0) / gamma_real(-(lam + 1.0) / 3.0)
    C2 = -((9.0 * A) ** (-1.0 / 3.0)) * gamma_real(-1.0 / 3.0) / gamma_real(-c)
    tau, m1, m1p, m2, m2p = _combo_parts(p, x, v)

    # h = C1 x^c m1(tau) + C2 v x^(c-1/3) m2(tau)
    dtau_dx = -tau / x
    dtau_dv = -3.0 * v ** 2 / (9.0 * A * x)
    d2tau_dv2 = -6.0 * v / (9.0 * A * x)

    h_x = C1 * (c * x ** (c - 1.0) * m1 + x ** c * m1p * dtau_dx) \
        + C2 * v * ((c - 1.0 / 3.0) * x ** (c - 4.0 / 3.0) * m2 + x ** (c - 1.0 / 3.0) * m2p * dtau_dx)

    # second v-derivatives need m'' values; from the ODE z m'' + (b - z) m' - a m = 0
    def mpp(aa, bb, m, mp_):
        if tau == 0.0:
            # limit z -> 0: m'' = a (a+1) / (b (b+1))
            return aa * (aa + 1.0) / (bb * (bb + 1.0))
        return (aa * m - (bb - tau) * mp_) / tau

    m1pp = mpp(a1, 2.0 / 3.0, m1, m1p)
    m2pp = mpp(a2, 4.0 / 3.0, m2, m2p)

    h_vv = C1 * x ** c * (m1pp * dtau_dv ** 2 + m1p * d2tau_dv2) \
        + C2 * x ** (c - 1.0 / 3.0) * (2.0 * m2p * dtau_dv + v * (m2pp * dtau_dv ** 2 + m2p * d2tau_dv2))
    return h_x, h_vv


def pde_residual(p: TricomiParams, x: float, v: float, h: float = 1e-4,
                 method: str = "fd") -> float:
    """v T_x - A T_vv at (x, v), x > 0.

    method 'fd': centered second-order differences with steps
    h*(1+x) in x and h*(1+|v|) in v (requires x > 2 h^3 margin).
    method 'analytic': chain rule through the Kummer basis (series regime,
    |tau| <= 20).
    """
    if x <= 0.0:
        raise ValueError("pde_residual requires x > 0")
    lam, A = p.lam, p.A
    if method == "analytic":
        tau = -(v ** 3) / (9.0 * A * x)
        if abs(tau) > 20.0:
            raise ValueError("analytic residual restricted to the series regime |tau| <= 20")
        mono_vv = (lam + 2.0) * (lam + 1.0) * A ** (-(lam + 2) / 2.0) * v ** lam
        h_x, h_vv = _u_part_dx_dvv(p, x, v)
        pref = -2.0 * 9.0 ** ((lam + 2.0) / 3.0) * A ** (-(lam + 2) / 6.0)
        return v * pref * h_x - A * (mono_vv + pref * h_vv)
    if method != "fd":
        raise ValueError(f"unknown method {method!r}")
    hx = h * (1.0 + x)
    hv = h * (1.0 + abs(v))
    if hx <= 0 or hv <= 0:
        raise ValueError("step underflow")
    if x - hx <= 0.0:
        hx = 0.5 * x
    tx = v * (eval_tricomi(p, x + hx, v) - eval_tricomi(p, x - hx, v)) / (2.0 * hx)
    tvv = (eval_tricomi(p, x, v + hv) - 2.0 * eval_tricomi(p, x, v) + eval_tricomi(p, x, v - hv)) / hv ** 2
    return tx - A * tvv


def cusp_ratio(p: TricomiParams, x: float) -> float:
    """T(x, 0) / x^((lam+2)/3); constant in x by exact homogeneity.

    Equals -2 * 9^((lam+2)/3) A^(-(lam+2)/6) U(-(lam+2)/3; 2/3; 0), the
    coefficient of the x^(5/3)-type cusp along the grazing ray.
    """
    if x <= 0.0:
        raise ValueError("cusp_ratio requires x > 0")
    return eval_tricomi(p, x, 0.0) / x ** ((p.lam + 2) / 3.0)


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
    from .probe import sample_cylinder, polyfit_on_cylinder

    f = as_field(p)
    spec = full_space(4, 1)
    fit = polyfit_on_cylinder(f, z_star, r, spec, samples=samples, seed=seed)
    pts = sample_cylinder(z_star, r, max(samples, 200), seed=seed + 1)
    resid = np.abs(np.array([f(z) for z in pts]) - fit.values(pts))
    worst = 0.0
    for z, e in zip(pts, resid):
        d = kinetic_distance(z, z_star, tol=1e-10)
        if d < 1e-6:
            continue
        worst = max(worst, float(e) / d ** 5)
    return worst
