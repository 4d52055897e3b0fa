"""Sparse kinetic polynomials graded by the kinetic degree 2*bt + 3*|bx| + |bv|.

Coefficients are exact rationals (fractions.Fraction) so that the operator
calculus, particular solves, and kernel computations are exact; numerical
work (quadrature, projections) converts to float at the boundary.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping

import numpy as np

from .geometry import KineticPoint


def _rat(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, float):
        if not math.isfinite(c):
            raise ValueError(f"coefficient {c!r} is not finite")
        return Fraction(c)  # exact binary value
    if isinstance(c, str):
        return Fraction(c)
    raise TypeError(f"cannot convert {c!r} to a rational coefficient")


@dataclass(frozen=True)
class MultiIndex:
    """beta = (beta_t, beta_x, beta_v) with kinetic degree 2bt + 3|bx| + |bv|."""

    bt: int
    bx: tuple[int, ...]
    bv: tuple[int, ...]

    def __post_init__(self):
        if self.bt < 0 or any(b < 0 for b in self.bx) or any(b < 0 for b in self.bv):
            raise ValueError("multi-index entries must be nonnegative")
        if len(self.bx) != len(self.bv):
            raise ValueError("bx and bv must have equal length")

    @property
    def n(self) -> int:
        return len(self.bx)

    @property
    def kinetic_degree(self) -> int:
        return 2 * self.bt + 3 * sum(self.bx) + sum(self.bv)


def mono(n: int, bt: int = 0, bx=None, bv=None) -> MultiIndex:
    bx = tuple(bx) if bx is not None else (0,) * n
    bv = tuple(bv) if bv is not None else (0,) * n
    return MultiIndex(bt, bx, bv)


class KineticPolynomial:
    """Finite map MultiIndex -> Fraction; zero coefficients are never stored."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[MultiIndex, object] | None = None):
        self.n = n
        clean: dict[MultiIndex, Fraction] = {}
        for beta, c in (terms or {}).items():
            if beta.n != n:
                raise ValueError("multi-index dimension mismatch")
            c = _rat(c)
            if c != 0:
                clean[beta] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "KineticPolynomial":
        return cls(n, {})

    @classmethod
    def monomial(cls, n: int, coeff, bt: int = 0, bx=None, bv=None) -> "KineticPolynomial":
        return cls(n, {mono(n, bt, bx, bv): _rat(coeff)})

    @classmethod
    def constant(cls, n: int, coeff) -> "KineticPolynomial":
        return cls.monomial(n, coeff)

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: "KineticPolynomial") -> "KineticPolynomial":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        out = dict(self.terms)
        for beta, c in other.terms.items():
            out[beta] = out.get(beta, Fraction(0)) + c
        return KineticPolynomial(self.n, out)

    def __sub__(self, other: "KineticPolynomial") -> "KineticPolynomial":
        return self + (other * -1)

    def __mul__(self, other) -> "KineticPolynomial":
        if isinstance(other, KineticPolynomial):
            if self.n != other.n:
                raise ValueError("dimension mismatch")
            out: dict[MultiIndex, Fraction] = {}
            for b1, c1 in self.terms.items():
                for b2, c2 in other.terms.items():
                    beta = MultiIndex(
                        b1.bt + b2.bt,
                        tuple(a + b for a, b in zip(b1.bx, b2.bx)),
                        tuple(a + b for a, b in zip(b1.bv, b2.bv)),
                    )
                    out[beta] = out.get(beta, Fraction(0)) + c1 * c2
            return KineticPolynomial(self.n, out)
        c = _rat(other)
        return KineticPolynomial(self.n, {b: c0 * c for b, c0 in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, KineticPolynomial) and self.n == other.n and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> float:
        """Max kinetic degree; -inf for the zero polynomial."""
        if not self.terms:
            return -math.inf
        return max(b.kinetic_degree for b in self.terms)

    def coefficient(self, beta: MultiIndex) -> Fraction:
        return self.terms.get(beta, Fraction(0))

    def homogeneous_components(self) -> dict[int, "KineticPolynomial"]:
        """Split into layers of fixed kinetic degree."""
        layers: dict[int, dict[MultiIndex, Fraction]] = {}
        for beta, c in self.terms.items():
            layers.setdefault(beta.kinetic_degree, {})[beta] = c
        return {d: KineticPolynomial(self.n, t) for d, t in sorted(layers.items())}

    def is_homogeneous(self, lam: int) -> bool:
        return all(b.kinetic_degree == lam for b in self.terms)

    def eval(self, z: KineticPoint) -> float:
        if z.n != self.n:
            raise ValueError("dimension mismatch in eval")
        total = 0.0
        for b, c in self.terms.items():
            m = float(c) * z.t ** b.bt
            for xc, e in zip(z.x, b.bx):
                if e:
                    m *= xc ** e
            for vc, e in zip(z.v, b.bv):
                if e:
                    m *= vc ** e
            total += m
        return total

    def pullback(self, z0: KineticPoint, r) -> "KineticPolynomial":
        """p_{z0,r}(z) = p(z0 o S_r z), exact when z0 and r are rational.

        Substitutes t -> t0 + r^2 t, x_i -> x0_i + r^3 x_i + r^2 t v0_i,
        v_i -> v0_i + r v_i; stays in the same kinetic-degree class.
        Paper: C^{4,1}_kin expands f in the frames z0 o S_r (uses constant and __mul__).
        """
        r = _rat(r)
        n = self.n
        t_sub = KineticPolynomial(n, {mono(n): _rat(z0.t), mono(n, bt=1): r * r})
        x_subs, v_subs = [], []
        for i in range(n):
            ex = tuple(1 if j == i else 0 for j in range(n))
            x_subs.append(KineticPolynomial(n, {
                mono(n): _rat(z0.x[i]),
                mono(n, bx=ex): r ** 3,
                mono(n, bt=1): r * r * _rat(z0.v[i]),
            }))
            v_subs.append(KineticPolynomial(n, {mono(n): _rat(z0.v[i]), mono(n, bv=ex): r}))
        out = KineticPolynomial.zero(n)
        for b, c in self.terms.items():
            term = KineticPolynomial.constant(n, c)
            for _ in range(b.bt):
                term = term * t_sub
            for i, e in enumerate(b.bx):
                for _ in range(e):
                    term = term * x_subs[i]
            for i, e in enumerate(b.bv):
                for _ in range(e):
                    term = term * v_subs[i]
            out = out + term
        return out

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "terms": [
                {"bt": b.bt, "bx": list(b.bx), "bv": list(b.bv), "c": str(c)}
                for b, c in sorted(self.terms.items(), key=lambda kv: (kv[0].bt, kv[0].bx, kv[0].bv))
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, d: dict) -> "KineticPolynomial":
        """Inverse of to_json_dict; ValueError names a missing or malformed field."""
        def field(obj, key, conv):
            try:
                return conv(obj[key])
            except (LookupError, TypeError, ValueError, ArithmeticError) as exc:
                raise ValueError(f"polynomial field {key!r}: {exc!r}") from None

        ints = lambda e: tuple(map(operator.index, e))
        n = field(d, "n", operator.index)
        terms = {}
        for t in field(d, "terms", list):
            beta = MultiIndex(field(t, "bt", operator.index), field(t, "bx", ints), field(t, "bv", ints))
            terms[beta] = field(t, "c", _rat)
        return cls(n, terms)

    @classmethod
    def from_json(cls, s: str) -> "KineticPolynomial":
        return cls.from_json_dict(json.loads(s))


# ---------------------------------------------------------------------------
# Operator and polynomial spaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OperatorSpec:
    """L p = d_t p + v.grad_x p - a_ij d_vivj p.

    a is a constant symmetric n x n matrix. L maps the kinetic polynomials
    of degree d + 2 onto those of degree d.
    """

    a: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def make(cls, a) -> "OperatorSpec":
        if isinstance(a, (int, float, Fraction, str)):
            a = [[a]]
        amat = tuple(tuple(_rat(x) for x in row) for row in a)
        n = len(amat)
        for row in amat:
            if len(row) != n:
                raise ValueError("a must be square")
        for i in range(n):
            for j in range(n):
                if amat[i][j] != amat[j][i]:
                    raise ValueError("a must be symmetric")
        return cls(amat)

    @property
    def n(self) -> int:
        return len(self.a)


def kolmogorov_operator(n: int) -> OperatorSpec:
    """The prototype operator with a = identity."""
    a = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    return OperatorSpec.make(a)


def _bump(e: tuple[int, ...], i: int, d: int) -> tuple[int, ...]:
    return e[:i] + (e[i] + d,) + e[i + 1:]


def _operator_image(a, b: MultiIndex) -> list[tuple[int, MultiIndex, Fraction]]:
    """L applied to the monomial with exponent b, read off the exponents:
    (term, exponent, coefficient) triples with nonzero coefficients. Term 0
    is d_t, term 1 + i is v_i d_x_i, and the diffusion terms (i, j) with
    i <= j follow in row-major order; (i, j) and (j, i) land on one
    exponent, so their images are added."""
    out = []
    if b.bt:
        out.append((0, MultiIndex(b.bt - 1, b.bx, b.bv), Fraction(b.bt)))
    for i, e in enumerate(b.bx):
        if e:
            out.append((1 + i, MultiIndex(b.bt, _bump(b.bx, i, -1), _bump(b.bv, i, 1)), Fraction(e)))
    pairs = [(i, j) for i in range(b.n) for j in range(i, b.n)]
    for k, (i, j) in enumerate(pairs, 1 + b.n):
        m = (2 - (i == j)) * b.bv[i] * (b.bv[j] - (i == j))
        if m and a[i][j]:
            out.append((k, MultiIndex(b.bt, b.bx, _bump(_bump(b.bv, i, -1), j, -1)), -m * a[i][j]))
    return out


def apply_operator(op: OperatorSpec, p: KineticPolynomial) -> KineticPolynomial:
    """L p, summed term of L by term of L, each over p in its order; the
    terms of the result, which float sums over them follow, come in that
    order. A coefficient that cancels to 0 leaves the sum and a later term
    of L puts it back at the end, as a sum of polynomials does."""
    if op.n != p.n:
        raise ValueError("dimension mismatch between operator and polynomial")
    images = [(k, beta, c * m) for b, c in p.terms.items() for k, beta, m in _operator_image(op.a, b)]
    out: dict[MultiIndex, Fraction] = {}
    for _, beta, c in sorted(images, key=lambda e: e[0]):
        if out.get(beta) == 0:
            del out[beta]
        out[beta] = out.get(beta, 0) + c
    return KineticPolynomial(p.n, out)


def transport_derivative(p: KineticPolynomial, beta: MultiIndex) -> KineticPolynomial:
    """D^beta p = (d_t + v.grad_x)^bt  dx^bx  dv^bv  p: falling factorials
    on the exponents in x and v, then L with a = 0 applied bt times.
    Paper: the grading of "C^{4,1}_kin, i.e. C^1_{t,x} and C^2_v" in the abstract."""
    terms = {}
    for b, c in p.terms.items():
        c *= math.prod(map(math.perm, b.bx + b.bv, beta.bx + beta.bv))
        if c:
            terms[MultiIndex(b.bt, tuple(map(operator.sub, b.bx, beta.bx)),
                             tuple(map(operator.sub, b.bv, beta.bv)))] = c
    out = KineticPolynomial(p.n, terms)
    for _ in range(beta.bt):
        out = apply_operator(OperatorSpec.make([[0] * p.n] * p.n), out)
    return out


class TricomiMarker:
    """Placeholder basis element standing for the Tricomi obstruction
    function T_{A,3}(x_n, v_n) inside an augmented polynomial space.
    Paper: T is what is left of f past C^{4,1}_kin, so f is not C^5_kin (criterion 7)."""

    __slots__ = ("A",)

    def __init__(self, A: float):
        if A <= 0:
            raise ValueError("A must be positive")
        self.A = float(A)


@dataclass(frozen=True)
class PolySpaceSpec:
    """Finite-dimensional approximation space on phase space.

    kind 'full': all kinetic polynomials of degree <= k.
    kind 'specular': the subspace with trace at {x_n = 0} even in v_n.
    kind 'tricomi_augmented': specular space of degree 5 plus the Tricomi
    obstruction function of (x_n, v_n) (requires k = 5 and A > 0).
    The normal axis is the last one, index n - 1.
    """

    kind: str
    k: int
    n: int = 1
    A: float | None = None

    def __post_init__(self):
        if self.kind not in ("full", "specular", "tricomi_augmented"):
            raise ValueError(f"unknown space kind {self.kind!r}")
        if self.kind == "tricomi_augmented":
            if self.k != 5:
                raise ValueError("tricomi_augmented space requires k = 5")
            if self.A is None or self.A <= 0:
                raise ValueError("tricomi_augmented space requires A > 0")


def full_space(k: int, n: int = 1) -> PolySpaceSpec:
    return PolySpaceSpec("full", k, n)


def specular_space(k: int, n: int = 1) -> PolySpaceSpec:
    """Paper: the polynomials that meet the specular reflection condition at x_n = 0."""
    return PolySpaceSpec("specular", k, n)


def tricomi_augmented_space(A: float) -> PolySpaceSpec:
    return PolySpaceSpec("tricomi_augmented", 5, 1, float(A))


def _indices_up_to(k: int, n: int):
    def vecs(total_max, length):
        if length == 0:
            yield ()
            return
        for first in range(total_max + 1):
            for rest in vecs(total_max - first, length - 1):
                yield (first,) + rest

    out = []
    for bt in range(k // 2 + 1):
        rem_x = (k - 2 * bt) // 3
        for bx in vecs(rem_x, n):
            rem_v = k - 2 * bt - 3 * sum(bx)
            for bv in vecs(rem_v, n):
                out.append(MultiIndex(bt, bx, bv))
    out.sort(key=lambda b: (b.kinetic_degree, b.bt, b.bx, b.bv))
    return out


@functools.lru_cache(maxsize=None)
def _space_indices(spec: PolySpaceSpec) -> tuple[MultiIndex, ...]:
    """Exponents of the monomial part of the space, in basis order."""
    idx = _indices_up_to(spec.k, spec.n)
    if spec.kind == "full":
        return tuple(idx)
    ax = spec.n - 1
    return tuple(b for b in idx if b.bx[ax] >= 1 or b.bv[ax] % 2 == 0)


def space_basis(spec: PolySpaceSpec) -> list:
    """Monomial basis of the space; the augmented space appends a marker."""
    basis: list = [KineticPolynomial(spec.n, {b: 1}) for b in _space_indices(spec)]
    if spec.kind == "tricomi_augmented":
        basis.append(TricomiMarker(spec.A))
    return basis


def space_dim(spec: PolySpaceSpec) -> int:
    return len(_space_indices(spec)) + (spec.kind == "tricomi_augmented")


def basis_matrix(spec: PolySpaceSpec, pts: np.ndarray,
                 marker_pts: np.ndarray | None = None) -> np.ndarray:
    """One row per row (t, x..., v...) of pts, one column per space_basis(spec) element.

    Monomial columns gather from a power table z^0, ..., z^kmax of every
    coordinate, built by repeated multiplication up to the largest
    exponent of the space; the Tricomi column of the augmented space is
    evaluated at marker_pts (default pts)."""
    e = np.array([(b.bt, *b.bx, *b.bv) for b in _space_indices(spec)])
    z = np.asarray(pts, dtype=float).reshape(len(pts), e.shape[1])
    # powers[c, k] = z[:, c]^k
    powers = np.empty((z.shape[1], e.max() + 1, len(z)))
    powers[:, 0] = 1.0
    for k in range(1, powers.shape[1]):
        np.multiply(powers[:, k - 1], z.T, out=powers[:, k])
    B = powers[0, e[:, 0]]
    for c in range(1, len(powers)):
        B *= powers[c, e[:, c]]
    B = B.T
    if spec.kind != "tricomi_augmented":
        return B
    from .tricomi import TricomiParams, eval_tricomi

    params = TricomiParams(A=spec.A, lam=3)
    ax = spec.n - 1
    at = z if marker_pts is None else np.asarray(marker_pts, dtype=float)
    marker = eval_tricomi(params, at[:, 1 + ax], at[:, 1 + spec.n + ax])
    return np.column_stack([B, marker])


# ---------------------------------------------------------------------------
# Exact linear algebra over the rationals
# ---------------------------------------------------------------------------


def _rref(M: list[list[Fraction]]):
    """In-place reduced row echelon form; returns pivot column list."""
    rows = len(M)
    cols = len(M[0]) if rows else 0
    pivots = []
    rank = 0
    for col in range(cols):
        pr = None
        for r in range(rank, rows):
            if M[r][col] != 0:
                pr = r
                break
        if pr is None:
            continue
        M[rank], M[pr] = M[pr], M[rank]
        pv = M[rank][col]
        M[rank] = [x / pv for x in M[rank]]
        for r in range(rows):
            if r != rank and M[r][col] != 0:
                f = M[r][col]
                M[r] = [a - f * b if b else a for a, b in zip(M[r], M[rank])]
        pivots.append(col)
        rank += 1
        if rank == rows:
            break
    return pivots


def solve_rational(A: list[list[Fraction]], rhs: list[Fraction]):
    """Solve A x = rhs exactly. Returns (particular, nullspace_basis) or
    (None, nullspace_basis) when inconsistent."""
    rows = len(A)
    cols = len(A[0]) if rows else 0
    aug = [list(A[r]) + [rhs[r]] for r in range(rows)]
    pivots = _rref(aug)
    # _rref reduces the rhs column too: an inconsistent system has a pivot there
    if pivots and pivots[-1] == cols:
        return None, _nullspace_from_rref(aug, pivots[:-1], cols)
    x = [Fraction(0)] * cols
    for r, col in enumerate(pivots):
        x[col] = aug[r][cols]
    return x, _nullspace_from_rref(aug, pivots, cols)


def _nullspace_from_rref(aug, pivots, cols):
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * cols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -aug[r][fc]
        basis.append(vec)
    return basis


def _min_norm_solve(M: list[list[Fraction]], rhs: list[Fraction]):
    """The minimum-norm solution of M x = rhs, or None when inconsistent.

    x = M^T y with (M M^T) y = rhs lies in the row space of M, so it is the
    unique minimum-norm solution, whichever y solve_rational returns."""
    rows = [{j: c for j, c in enumerate(row) if c != 0} for row in M]
    G = [[sum((c * rj[j] for j, c in ri.items() if j in rj), Fraction(0)) for rj in rows] for ri in rows]
    y, _ = solve_rational(G, rhs)
    if y is None:
        return None
    x = [Fraction(0)] * (len(M[0]) if M else 0)
    for row, yi in zip(rows, y):
        for j, c in row.items():
            x[j] += c * yi
    return x


# ---------------------------------------------------------------------------
# Particular solutions and kernels
# ---------------------------------------------------------------------------


def particular_solve_1d(lambda1: int, lambda2: int, amp, A) -> KineticPolynomial:
    """Homogeneous polynomial P of degree 3*lambda1 + lambda2 + 2 with
    (v d_x - A d_vv) P = amp * x^lambda1 * v^lambda2, exactly.

    Built by the induction on lambda1 whose base case is
    P = -amp / (A (lambda2+2)(lambda2+1)) * v^(lambda2+2).
    """
    if lambda1 < 0 or lambda2 < 0:
        raise ValueError("exponents must be nonnegative")
    amp = _rat(amp)
    A = _rat(A)
    if A <= 0:
        raise ValueError("A must be positive")
    if amp == 0:
        return KineticPolynomial.zero(1)
    base = -amp / (A * (lambda2 + 2) * (lambda2 + 1))
    if lambda1 == 0:
        return KineticPolynomial.monomial(1, base, bv=(lambda2 + 2,))
    head = KineticPolynomial.monomial(1, base, bx=(lambda1,), bv=(lambda2 + 2,))
    # L(head) = amp x^l1 v^l2 + l1*base * x^(l1-1) v^(l2+3); cancel the tail
    tail_amp = Fraction(lambda1) * base
    return head - particular_solve_1d(lambda1 - 1, lambda2 + 3, tail_amp, A)


def _operator_matrix(op: OperatorSpec, cols: list[MultiIndex], rows: list[MultiIndex]):
    """The matrix of L from the span of the monomials cols into that of rows."""
    pos = {b: i for i, b in enumerate(rows)}
    M = [[Fraction(0)] * len(cols) for _ in rows]
    for j, b in enumerate(cols):
        for _, beta, c in _operator_image(op.a, b):
            M[pos[beta]][j] = c
    return M


def _layer_kernel(op: OperatorSpec, cols: list[MultiIndex], rows: list[MultiIndex]) -> list[KineticPolynomial]:
    """Exact nullspace of L from the span of the monomials cols into that
    of rows: one polynomial per free column of the reduced row echelon
    form, with its terms in cols order."""
    M = _operator_matrix(op, cols, rows)
    return [KineticPolynomial(op.n, dict(zip(cols, vec)))
            for vec in _nullspace_from_rref(M, _rref(M), len(cols))]


def _layers(k: int, n: int) -> dict[int, list[MultiIndex]]:
    """The exponents of degree <= k grouped by kinetic degree, in basis order."""
    out: dict[int, list[MultiIndex]] = {}
    for b in _indices_up_to(k, n):
        out.setdefault(b.kinetic_degree, []).append(b)
    return out


def particular_solve_general(op: OperatorSpec, p: KineticPolynomial) -> KineticPolynomial:
    """Solve apply_operator(op, P) = p exactly on graded monomial bases,
    returning the P of minimal Euclidean coefficient norm.

    L maps degree d + 2 onto degree d, so each layer of p of degree d is
    solved on the monomials of degree d + 2 alone: the layer blocks have
    disjoint rows and columns, so the minimum-norm solution is theirs side
    by side (0 where p has no layer). Raises ValueError when no solution
    exists.
    """
    if p.is_zero():
        return KineticPolynomial.zero(p.n)
    dp = int(p.degree())
    layers = _layers(dp + 2, p.n)
    terms: dict[MultiIndex, Fraction] = {}
    for d, layer in p.homogeneous_components().items():
        cols = layers[d + 2]
        M = _operator_matrix(op, cols, layers[d])
        x = _min_norm_solve(M, [layer.coefficient(b) for b in layers[d]])
        if x is None:
            raise ValueError(f"particular_solve_general failed: no solution of degree <= {dp + 2}")
        terms.update(zip(cols, x))
    return KineticPolynomial(p.n, terms)


def kernel_basis(op: OperatorSpec, spec: PolySpaceSpec) -> list[KineticPolynomial]:
    """Exact nullspace of the operator restricted to span(spec).

    Row-reduces one layer at a time (degree d onto degree d - 2); reduced
    row echelon forms are unique, so the vectors and their order are those
    of the row reduction of the whole space.
    Paper: the polynomial solutions of the Liouville classification (criterion 5)."""
    if spec.kind == "tricomi_augmented":
        raise ValueError("kernel_basis is defined for polynomial spaces only")
    rows = _layers(spec.k, spec.n)
    cols: dict[int, list[MultiIndex]] = {}
    for b in _space_indices(spec):
        cols.setdefault(b.kinetic_degree, []).append(b)
    return [q for d, layer in cols.items() for q in _layer_kernel(op, layer, rows.get(d - 2, []))]


# ---------------------------------------------------------------------------
# L^2 projection over kinetic cylinders (n = 1, numerical)
# ---------------------------------------------------------------------------


def cylinder_quadrature(z0: KineticPoint, r: float, nodes: int):
    """Tensor Gauss-Legendre nodes, as rows (t, x, v), and weights on
    H_r(z0), n = 1; t-major, then x, then v.

    The x integration runs over the moving interval
    x in (x0 + (t-t0) v0 - r^3, x0 + (t-t0) v0 + r^3), clipped at x = 0.
    """
    if z0.n != 1:
        raise ValueError("cylinder quadrature implemented for n = 1")
    g, gw = np.polynomial.legendre.leggauss(nodes)
    t0, x0, v0 = z0.t, z0.x[0], z0.v[0]
    t = t0 + r * r * g
    wt_t = r * r * gw
    xc = x0 + (t - t0) * v0
    lo, hi = np.maximum(xc - r ** 3, 0.0), xc + r ** 3
    keep = hi > lo
    t, wt_t, lo, hi = t[keep], wt_t[keep], lo[keep, None], hi[keep, None]
    x = 0.5 * (lo + hi) + 0.5 * (hi - lo) * g
    wt_x = 0.5 * (hi - lo) * gw
    pts = np.column_stack([np.repeat(t, nodes * nodes), np.repeat(x, nodes), np.tile(v0 + r * g, x.size)])
    return pts, np.outer(wt_t[:, None] * wt_x * r, gw).ravel()


def l2_project(f: Callable[[KineticPoint], float], z0: KineticPoint, r: float,
               spec: PolySpaceSpec, quad_order: int | None = None) -> np.ndarray:
    """Coefficients of the L^2(H_r(z0)) projection of f onto span(spec).

    Gram solve on tensor Gauss-Legendre quadrature; raises on a singular
    Gram matrix (degenerate domain).
    """
    from .probe import field_values

    if spec.n != 1:
        raise ValueError("l2_project implemented for n = 1")
    nodes = quad_order if quad_order is not None else spec.k + 2
    nodes = max(nodes, spec.k + 1)
    pts, w = cylinder_quadrature(z0, r, nodes)
    if len(pts) == 0:
        raise ValueError("degenerate projection domain")
    B = basis_matrix(spec, pts)
    fv = field_values(f, pts)
    scal = np.sqrt(np.maximum((B * B * w[:, None]).sum(axis=0), 1e-300))
    Bs = B / scal
    G = (Bs * w[:, None]).T @ Bs
    rhs = (Bs * w[:, None]).T @ fv
    cond = np.linalg.cond(G)
    if not np.isfinite(cond) or cond > 1e13:
        raise ValueError(f"singular Gram matrix (cond={cond:.2e}) on degenerate domain")
    coef = np.linalg.solve(G, rhs)
    return coef / scal
