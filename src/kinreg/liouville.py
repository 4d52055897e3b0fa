"""Constructive classification of stationary half-space solutions in 1D.

For v f_x - A f_vv = p on {x > 0} with the specular condition
f(0, v) = f(0, -v) and polynomial growth, every homogeneous layer of p
yields either a polynomial solution or a polynomial plus one Tricomi
term. The dichotomy is decided by the v^(lam+2) coefficient c of the
particular solution's boundary trace:

  * lam even: the trace is automatically even; polynomial.
  * lam = 1 mod 6 / 5 mod 6: the stationary solutions of v h_x - A h_vv = 0
    that are homogeneous of degree lam + 2 form a line, spanned by a
    polynomial with a nonzero v^(lam+2) coefficient (a terminating Kummer
    series), which removes the trace; polynomial.
  * lam = 3 mod 6: no polynomial correction exists; c != 0 forces the
    Tricomi term with multiplier c * A^((lam+2)/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .geometry import kinetic_distance, origin
from .polynomials import (
    KineticPolynomial,
    OperatorSpec,
    apply_operator,
    mono,
    particular_solve_1d,
    _layer_kernel,
    _rat,
)
from .tricomi import (TricomiParams, eval_tricomi, pde_residual as tricomi_residual,
                      require_finite_up_to)

DEGREE_CAP = 9
# the largest |v| at which verify_solution evaluates a solution: its growth
# samples are at 3 * v for the grid's |v| <= 1.5
VERIFY_V_MAX = 4.5


@dataclass(frozen=True)
class HalfSpaceRHS:
    """Right-hand side p(x, v) (no t dependence) and diffusion A > 0."""

    p: KineticPolynomial
    A: float

    def __post_init__(self):
        if not (self.A > 0 and math.isfinite(self.A)):
            raise ValueError("A must be positive and finite")
        if self.p.n != 1:
            raise ValueError("half-space classification is one-dimensional")
        if any(b.bt != 0 for b in self.p.terms):
            raise ValueError("rhs must be stationary (no t dependence)")
        if self.p.degree() > DEGREE_CAP:
            raise ValueError(f"rhs kinetic degree exceeds cap {DEGREE_CAP}")
        for beta, c in self.p.terms.items():
            try:
                float(c)
            except OverflowError:
                raise ValueError(f"rhs coefficient of {beta} is beyond double range") from None
        for lam in range(3, DEGREE_CAP + 1, 6):
            if lam <= self.p.degree():  # a layer that can carry a T term
                TricomiParams(A=self.A, lam=lam)


@dataclass
class ClassificationResult:
    """particular + sum of m_l * T_{A, lam_l}; polynomial iff no T terms."""

    particular: KineticPolynomial
    tricomi_terms: list[tuple[int, float]] = field(default_factory=list)
    A: float = 1.0

    @property
    def is_polynomial(self) -> bool:
        return not self.tricomi_terms

    def solution(self):
        """The assembled solution as a callable on (x, v).

        x and v broadcast; an ndarray comes back for array input and a
        float for scalars, with one eval_tricomi call per Tricomi term."""
        terms = [(TricomiParams(A=self.A, lam=lam), m) for lam, m in self.tricomi_terms]
        poly = self.particular

        def f(x, v):
            val = _values(poly, x, v)
            for params, m in terms:
                val = val + m * eval_tricomi(params, x, v)
            return float(val) if np.ndim(val) == 0 else val

        return f


def _values(p: KineticPolynomial, x, v) -> np.ndarray:
    """p(0, x, v) for a one-dimensional p over broadcast arrays x, v."""
    x, v = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(v, dtype=float))
    out = np.zeros(x.shape)
    for b, c in p.terms.items():
        if b.bt == 0:
            out = out + float(c) * x ** b.bx[0] * v ** b.bv[0]
    return out


def _trace_v_coefficient(p: KineticPolynomial, degree: int) -> Fraction:
    """Coefficient of v^degree in p(0, v)."""
    return p.coefficient(mono(1, bv=(degree,)))


def classify_homogeneous(rhs: HalfSpaceRHS, lam: int) -> ClassificationResult:
    """Classify the layer with homogeneous rhs of kinetic degree lam."""
    p, A = rhs.p, rhs.A
    if not p.is_homogeneous(lam):
        raise ValueError(f"rhs is not homogeneous of degree {lam}")
    Arat = _rat(A)
    particular = KineticPolynomial.zero(1)
    for beta, c in p.terms.items():
        particular = particular + particular_solve_1d(beta.bx[0], beta.bv[0], c, Arat)
    c_trace = _trace_v_coefficient(particular, lam + 2)

    if lam % 2 == 0 or c_trace == 0:
        return ClassificationResult(particular, A=A)

    if lam % 6 == 3:  # the obstruction case
        p1 = particular - KineticPolynomial.monomial(1, c_trace, bv=(lam + 2,))
        m = float(c_trace) * A ** ((lam + 2) / 2.0)
        return ClassificationResult(p1, [(lam, m)], A=A)

    # lam = 1, 5 mod 6: the stationary kernel of degree lam + 2 is a line.
    # Its terms run from the highest power of x down, the order in which
    # _values sums the corrected particular
    cols = [mono(1, bx=(i,), bv=(lam + 2 - 3 * i,)) for i in range((lam + 2) // 3, -1, -1)]
    rows = [mono(1, bx=(i,), bv=(lam - 3 * i,)) for i in range(lam // 3, -1, -1)]
    (corr,) = _layer_kernel(OperatorSpec.make([[Arat]]), cols, rows)
    return ClassificationResult(particular - corr * (c_trace / _trace_v_coefficient(corr, lam + 2)), A=A)


def classify(rhs: HalfSpaceRHS) -> ClassificationResult:
    """Split p into homogeneous layers, classify each, and sum; the layers
    have distinct lam, so each Tricomi term comes from one layer."""
    parts = [classify_homogeneous(HalfSpaceRHS(layer, rhs.A), lam)
             for lam, layer in rhs.p.homogeneous_components().items()]
    return ClassificationResult(sum((r.particular for r in parts), KineticPolynomial.zero(1)),
                                [t for r in parts for t in r.tricomi_terms], A=rhs.A)


def flip_symmetric_shortcut(op: OperatorSpec, p: KineticPolynomial) -> bool:
    """True iff p(t, x', x_n, v', v_n) = p(t, x', -x_n, v', -v_n) termwise
    and a decouples the normal axis (a_{i,n} = 0 for i != n); then the
    mirror extension is a global solution and the classification must be
    polynomial."""
    n = p.n
    ax = n - 1
    for i in range(n):
        if i != ax and op.a[i][ax] != 0:
            return False
    for beta in p.terms:
        if (beta.bx[ax] + beta.bv[ax]) % 2 != 0:
            return False
    return True


@dataclass
class VerificationReport:
    pde_max_rel_residual: float
    trace_gap_rel: float
    growth_constant: float
    passed: bool
    notes: list[str] = field(default_factory=list)


def require_verifiable(rhs: HalfSpaceRHS) -> None:
    """ValueError naming A unless every T term that classify(rhs) can
    produce stays finite where verify_solution evaluates it."""
    for lam in range(3, DEGREE_CAP + 1, 6):
        if lam <= rhs.p.degree():
            require_finite_up_to(TricomiParams(A=rhs.A, lam=lam), VERIFY_V_MAX)


def verify_solution(res: ClassificationResult, rhs: HalfSpaceRHS) -> VerificationReport:
    """Numerical verification of a classification.

    (i) PDE residual on a grid of interior samples: the polynomial part is
    applied symbolically (exact) and each Tricomi term contributes its
    finite difference residual, compared against the layer rhs; it passes
    at relative error <= 2e-4.
    (ii) specular trace gap |f(eps, v) - f(eps, -v)| at eps = 1e-4,
    relative to the local solution scale.
    (iii) growth: |f(z)| <= C (1 + d_ell(z, 0))^(deg + 1) with the sampled
    constant C reported.
    """
    xs = np.array([0.15, 0.4, 0.8, 1.3, 2.0])
    vs = np.array([-1.4, -0.9, -0.3, 0.45, 0.9, 1.5])
    X, V = (g.ravel() for g in np.meshgrid(xs, vs, indexing="ij"))
    notes = []
    op = OperatorSpec.make([[_rat(rhs.A)]])
    lp = apply_operator(op, res.particular)
    t_params = [(TricomiParams(A=res.A, lam=lam), m) for lam, m in res.tricomi_terms]

    want = _values(rhs.p, X, V)
    got = _values(lp, X, V)
    for params, m in t_params:
        got = got + m * tricomi_residual(params, X, V)
    max_rel = float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))
    pde_ok = max_rel <= 2e-4
    if not pde_ok:
        notes.append(f"pde residual {max_rel:.3e} exceeds 2.0e-04")

    f = res.solution()
    eps = 1e-4
    scale = max(1.0, float(np.max(np.abs(f(X, V)))))
    pm = f(eps, np.stack([vs, -vs]))
    trace_rel = float(np.max(np.abs(pm[0] - pm[1]))) / scale
    trace_ok = trace_rel <= 1e-3
    if not trace_ok:
        notes.append(f"trace evenness gap {trace_rel:.3e} exceeds 1e-3")

    deg = max(int(res.particular.degree()) if not res.particular.is_zero() else 0,
              max((lam + 2 for lam, _ in res.tricomi_terms), default=0))
    d = kinetic_distance(np.column_stack([np.zeros_like(X), 4.0 * X, 3.0 * V]), origin(1))
    growth_c = float(np.max(np.abs(f(4.0 * X, 3.0 * V)) / (1.0 + d) ** (deg + 1)))
    growth_ok = math.isfinite(growth_c)

    return VerificationReport(max_rel, trace_rel, growth_c,
                              pde_ok and trace_ok and growth_ok, notes)
