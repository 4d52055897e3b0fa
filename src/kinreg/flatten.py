"""Boundary flattening for 2-D graph domains and the curvature
obstruction condition.

The domain is Omega = {x2 > Gamma(x1)} near 0 with Gamma(0) = Gamma'(0) = 0.
The flattening inverse is the normal-ray (tubular neighborhood) map

    phi^{-1}(y1, y2) = (y1, Gamma(y1)) + y2 * nu(y1),

nu the inward unit normal, for which the signed distance satisfies
d(phi^{-1}(y)) = y2 exactly within the curvature reach. Velocities
transform by the Jacobian, Phi(t, x, v) = (t, phi(x), Dphi(x) v), which
preserves the specular reflection condition; the commutation identity is
checked numerically rather than assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .polynomials import KineticPolynomial, MultiIndex, mono

# Half-width of the boundary patch on which the flattening is built and checked.
PATCH_RADIUS = 0.25


@dataclass(frozen=True)
class GraphDomain:
    """Omega = {x2 > gamma(x1)} with normalized tangency at the origin;
    d1 and d2 are the first two derivatives of gamma."""

    gamma: Callable[[float], float]
    d1: Callable[[float], float]
    d2: Callable[[float], float]

    def __post_init__(self):
        if abs(self.gamma(0.0)) > 1e-12 or abs(self.d1(0.0)) > 1e-12:
            raise ValueError("need gamma(0) = 0 and gamma'(0) = 0")

    def outward_normal(self, x1: float) -> np.ndarray:
        g1 = self.d1(x1)
        s = math.hypot(1.0, g1)
        return np.array([g1 / s, -1.0 / s])


def flat_domain() -> GraphDomain:
    return GraphDomain(lambda x: 0.0, lambda x: 0.0, lambda x: 0.0)


def parabola_domain(curvature: float = 1.0) -> GraphDomain:
    if not math.isfinite(curvature):
        raise ValueError(f"curvature must be finite, got {curvature}")
    return GraphDomain(lambda x: 0.5 * curvature * x * x,
                       lambda x: curvature * x,
                       lambda x: curvature + 0.0 * x)


@dataclass
class FlattenMap:
    phi: Callable[[np.ndarray], np.ndarray]
    phi_inverse: Callable[[np.ndarray], np.ndarray]
    d_phi: Callable[[np.ndarray], np.ndarray]
    d_phi_inverse: Callable[[np.ndarray], np.ndarray]
    d2_phi: Callable[[np.ndarray], list[np.ndarray]]
    domain: GraphDomain

    def map_phase(self, t: float, x: np.ndarray, v: np.ndarray):
        """Phi(t, x, v) = (t, phi(x), Dphi(x) v)."""
        x = np.asarray(x, dtype=float)
        return t, self.phi(x), self.d_phi(x) @ np.asarray(v, dtype=float)


def build_flatten(dom: GraphDomain) -> FlattenMap:
    """Construct the flattening map on the boundary patch |y1| <= PATCH_RADIUS.

    Injectivity of the normal-ray map requires the patch to stay inside
    the curvature reach; this is checked by round-tripping a sample grid
    and raising when the inversion fails.
    """

    def phi_inverse(y):
        y1, y2 = float(y[0]), float(y[1])
        g1 = dom.d1(y1)
        s = math.hypot(1.0, g1)
        return np.array([y1 - y2 * g1 / s, dom.gamma(y1) + y2 / s])

    def d_phi_inverse(y):
        y1, y2 = float(y[0]), float(y[1])
        g1 = dom.d1(y1)
        g2 = dom.d2(y1)
        s = math.hypot(1.0, g1)
        # (g1/s)' = g2 / s^3, (1/s)' = -g1 g2 / s^3; s * s * s is inf, not
        # an OverflowError, where s^3 leaves the double range
        col1 = np.array([1.0 - y2 * g2 / (s * s * s), g1 - y2 * g1 * g2 / (s * s * s)])
        col2 = np.array([-g1 / s, 1.0 / s])
        return np.column_stack([col1, col2])

    def phi(x):
        x = np.asarray(x, dtype=float)
        y = x.copy()  # identity is a good seed near the origin
        for _ in range(60):
            res = phi_inverse(y) - x
            if np.max(np.abs(res)) < 1e-13:
                return y
            y = y - np.linalg.solve(d_phi_inverse(y), res)
        raise ValueError(f"phi: Newton inversion failed at {x} (outside the patch?)")

    def d_phi(x):
        return np.linalg.inv(d_phi_inverse(phi(x)))

    def d2_phi(x):
        """Hessians of the components of phi, centered FD at steps h and
        2h, h = 1e-5, with one Richardson extrapolation step."""
        x = np.asarray(x, dtype=float)

        def hess_at(step):
            H = np.zeros((2, 2, 2))
            for i in range(2):
                for j in range(2):
                    ei = np.zeros(2); ei[i] = step
                    ej = np.zeros(2); ej[j] = step
                    fpp = phi(x + ei + ej)
                    fpm = phi(x + ei - ej)
                    fmp = phi(x - ei + ej)
                    fmm = phi(x - ei - ej)
                    H[:, i, j] = (fpp - fpm - fmp + fmm) / (4.0 * step * step)
            return H

        Hh = hess_at(1e-5)
        H2h = hess_at(2e-5)
        H = (4.0 * Hh - H2h) / 3.0
        return [H[0], H[1]]

    fm = FlattenMap(phi, phi_inverse, d_phi, d_phi_inverse, d2_phi, dom)

    # verification of the defining boundary identities on the patch; each
    # check is written so that an inf or NaN fails it
    for y1 in np.linspace(-PATCH_RADIUS, PATCH_RADIUS, 9):
        x = phi_inverse(np.array([y1, 0.0]))
        if not abs(dom.gamma(x[0]) - x[1]) <= 1e-10:
            raise ValueError("boundary does not map to {y2 = 0}")
        # eq. of the normal column: d(phi^{-1})/dy2 = -outward normal
        col = d_phi_inverse(np.array([y1, 0.0]))[:, 1]
        if not np.max(np.abs(col + dom.outward_normal(x[0]))) <= 1e-10:
            raise ValueError("normal column identity fails")
        for y2 in (0.0, 0.4 * PATCH_RADIUS, 0.8 * PATCH_RADIUS):
            y = np.array([y1, y2])
            rt = phi(phi_inverse(y))
            if not np.max(np.abs(rt - y)) <= 1e-9:
                raise ValueError("injectivity check failed on the patch")
    return fm


def reflect_specular(v: np.ndarray, normal: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    return v - 2.0 * float(v @ normal) * normal


def reflection_commutation_check(fm: FlattenMap, seed: int = 0) -> float:
    """Max gap of Dphi^{-1}(y) R_y w = R_{phi^{-1}(y)} (Dphi^{-1}(y) w)
    over 100 boundary samples; also checks that the map preserves the
    incoming/outgoing split (sign of the normal velocity)."""
    rng = np.random.RandomState(seed)
    worst = 0.0
    for _ in range(100):
        y1 = rng.uniform(-PATCH_RADIUS, PATCH_RADIUS)
        y = np.array([y1, 0.0])
        w = rng.uniform(-2, 2, size=2)
        J = fm.d_phi_inverse(y)
        x = fm.phi_inverse(y)
        nx = fm.domain.outward_normal(x[0])
        lhs = J @ np.array([w[0], -w[1]])
        rhs = reflect_specular(J @ w, nx)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        # boundary-region preservation
        sign_flat = -w[1]               # -w . n_flat with n_flat = e2... outward is -e2
        sign_curved = float((J @ w) @ nx)
        if sign_flat * sign_curved < -1e-14:
            worst = max(worst, abs(sign_flat * sign_curved))
    return worst


def transform_coefficients(fm: FlattenMap, x: np.ndarray, v: np.ndarray):
    """Pointwise coefficients (a~, b~) of the flattened equation at (x, v).

    With A = Dphi(x), the equation d_t f + v.grad_x f - Laplace_v f = 0
    becomes d_t g + w.grad_y g - a~_ij d_wiwj g + b~.grad_w g = 0 with
      a~ = A A^T,   b~^i = <v, D2 phi^i(x) v>.
    The velocity-quadratic drift is what the chain rule produces from the
    transport term; the diffusion generates no first-order term because
    Dphi does not depend on v.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    A = fm.d_phi(x)
    hess = fm.d2_phi(x)
    return A @ A.T, np.array([float(v @ hess[i] @ v) for i in range(2)])


def counterexample_condition(d2phi_at_0: Sequence[np.ndarray],
                             d2v_f_at_z0: np.ndarray) -> dict:
    """Evaluate the curvature obstruction condition at a grazing point.

    d2phi_at_0: Hessian of each phi component at 0 (n matrices);
    d2v_f_at_z0: velocity Hessian of the solution at the base point.
    violated = True means the two sides differ by more than 1e-10, which
    rules out C^5 regularity of the solution at that point. Non-finite
    entries raise ValueError.
    """
    hess = [np.asarray(H, dtype=float) for H in d2phi_at_0]
    fvv = np.asarray(d2v_f_at_z0, dtype=float)
    n = fvv.shape[0]
    if len(hess) != n or any(H.shape != (n, n) for H in hess):
        raise ValueError("inconsistent dimensions")
    if not (np.isfinite(fvv).all() and all(np.isfinite(H).all() for H in hess)):
        raise ValueError("counterexample_condition: the Hessians must be finite")
    last = n - 1
    lhs = 0.0
    for j in range(n):
        for i in range(n - 1):
            if i != j:
                lhs += hess[j][i, last] * fvv[i, j]
    for i in range(n - 1):
        lhs += 2.0 * hess[i][i, last] * fvv[i, i]
    rhs = sum(hess[i][last, last] * fvv[i, last] for i in range(n - 1))
    return {"lhs": lhs, "rhs": rhs, "violated": bool(abs(lhs - rhs) > 1e-10)}


def limit_rhs_p1(d2phi_at_0: Sequence[np.ndarray], alpha: np.ndarray) -> KineticPolynomial:
    """The cubic polynomial p1 produced in the blow-up limit of the
    flattened equation, from the Hessians of phi and the velocity-quadratic
    coefficients alpha_{i,j} of the degree-4 approximating polynomial:

      p1 = sum_{i != j, k} [d2phi^j_{ik} + d2phi^i_{jk}] alpha_{ij} x_k
           + 4 sum_{i, k} d2phi^i_{ik} alpha_{ii} x_k
           - sum_{i,j,k} d2phi^i_{jk} v_j v_k sum_l (alpha_{il} + alpha_{li}) v_l.
    """
    hess = [np.asarray(H, dtype=float) for H in d2phi_at_0]
    alpha = np.asarray(alpha, dtype=float)
    n = alpha.shape[0]
    # KineticPolynomial drops the zero coefficients
    terms: dict[MultiIndex, float] = {}

    def add(beta: MultiIndex, val: float):
        terms[beta] = terms.get(beta, 0.0) + val

    for k in range(n):
        ex = tuple(1 if m == k else 0 for m in range(n))
        coef = 0.0
        for i in range(n):
            for j in range(n):
                if i != j:
                    coef += (hess[j][i, k] + hess[i][j, k]) * alpha[i, j]
        for i in range(n):
            coef += 4.0 * hess[i][i, k] * alpha[i, i]
        add(mono(n, bx=ex), coef)

    for j in range(n):
        for k in range(n):
            for i in range(n):
                w = hess[i][j, k]
                for l in range(n):
                    bv = [0] * n
                    bv[j] += 1
                    bv[k] += 1
                    bv[l] += 1
                    add(mono(n, bv=tuple(bv)), -(w * (alpha[i, l] + alpha[l, i])))
    return KineticPolynomial(n, terms)


def p1_normal_restriction(p1: KineticPolynomial) -> tuple[float, float]:
    """(alpha, beta) with p1(0, (0,..,x_n), (0,..,v_n)) = alpha x_n + beta v_n^3.
    The obstruction holds iff alpha != -2 beta (over the unit diffusion)."""
    n = p1.n
    ax = tuple(1 if m == n - 1 else 0 for m in range(n))
    bv3 = tuple(3 if m == n - 1 else 0 for m in range(n))
    alpha = float(p1.coefficient(mono(n, bx=ax)))
    beta = float(p1.coefficient(mono(n, bv=bv3)))
    return alpha, beta
