import math
from fractions import Fraction

import numpy as np
import pytest

from kinreg.geometry import KineticPoint, origin
from kinreg.polynomials import (
    KineticPolynomial,
    MultiIndex,
    OperatorSpec,
    apply_operator,
    basis_matrix,
    full_space,
    kernel_basis,
    kolmogorov_operator,
    l2_project,
    mono,
    particular_solve_1d,
    particular_solve_general,
    space_basis,
    space_dim,
    specular_space,
    transport_derivative,
    tricomi_augmented_space,
)
from kinreg.polynomials import _nullspace_from_rref, _operator_matrix, _rref, solve_rational

RNG = np.random.RandomState(7)


def rand_poly(n=1, k=5, nterms=6):
    terms = {}
    idx = [b for b in _all_indices(k, n)]
    for _ in range(nterms):
        b = idx[RNG.randint(len(idx))]
        terms[b] = Fraction(int(RNG.randint(-9, 10)), int(RNG.randint(1, 5)))
    return KineticPolynomial(n, terms)


def _all_indices(k, n):
    from kinreg.polynomials import _indices_up_to

    return _indices_up_to(k, n)


def test_multiindex_degree():
    b = MultiIndex(2, (1,), (3,))
    assert b.kinetic_degree == 2 * 2 + 3 * 1 + 3
    with pytest.raises(ValueError):
        MultiIndex(-1, (0,), (0,))


def test_eval_monomial():
    p = KineticPolynomial.monomial(1, 1, bt=1, bx=(1,), bv=(2,))
    assert p.eval(KineticPoint(2, 3, 4)) == 96.0
    assert KineticPolynomial.zero(1).eval(KineticPoint(1, 1, 1)) == 0.0


def test_eval_dim_mismatch():
    p = KineticPolynomial.monomial(2, 1, bv=(1, 0))
    with pytest.raises(ValueError):
        p.eval(KineticPoint(0, 0, 0))


def test_transport_derivative_basic():
    x = KineticPolynomial.monomial(1, 1, bx=(1,))
    d = transport_derivative(x, mono(1, bt=1))
    assert d == KineticPolynomial.monomial(1, 1, bv=(1,))  # (d_t + v d_x) x = v
    p = rand_poly()
    assert transport_derivative(p, mono(1)) == p


def test_transport_derivative_grading():
    for _ in range(30):
        p = rand_poly(k=6)
        if p.is_zero():
            continue
        beta = mono(1, bt=1, bv=(1,))
        d = transport_derivative(p, beta)
        if not d.is_zero():
            assert d.degree() <= p.degree() - beta.kinetic_degree


def test_apply_operator_worked_examples():
    op = kolmogorov_operator(1)
    const = KineticPolynomial.constant(1, 5)
    assert apply_operator(op, const).is_zero()
    xv2 = KineticPolynomial.monomial(1, 1, bx=(1,), bv=(2,))
    want = KineticPolynomial(1, {mono(1, bv=(3,)): 1, mono(1, bx=(1,)): -2})
    assert apply_operator(op, xv2) == want
    txv2 = KineticPolynomial.monomial(1, 1, bt=1, bx=(1,), bv=(2,))
    want2 = KineticPolynomial(1, {mono(1, bx=(1,), bv=(2,)): 1,
                                  mono(1, bt=1, bv=(3,)): 1,
                                  mono(1, bt=1, bx=(1,)): -2})
    assert apply_operator(op, txv2) == want2


def test_apply_operator_worked_examples_n2():
    # L = d_t + v1 d_x1 + v2 d_x2 - (2 d_v1v1 + 2 d_v1v2 + 3 d_v2v2): the
    # mixed derivative enters as a_12 + a_21 = 2
    op = OperatorSpec.make([[2, 1], [1, 3]])
    m = lambda bt=0, bx=(0, 0), bv=(0, 0): mono(2, bt, bx, bv)
    assert apply_operator(op, KineticPolynomial(2, {m(bv=(1, 1)): 1})) == KineticPolynomial(2, {m(): -2})
    # v1^2 v2^2 -> -2*2 v2^2 - 2*4 v1 v2 - 3*2 v1^2, in the order a_11, a_12, a_22
    got = apply_operator(op, KineticPolynomial(2, {m(bv=(2, 2)): 1}))
    want = {m(bv=(0, 2)): -4, m(bv=(1, 1)): -8, m(bv=(2, 0)): -6}
    assert got.terms == want and list(got.terms) == list(want)
    # t x1 v2 -> x1 v2 (from d_t) + t v1 v2 (from v1 d_x1)
    got = apply_operator(op, KineticPolynomial(2, {m(bt=1, bx=(1, 0), bv=(0, 1)): 1}))
    assert got == KineticPolynomial(2, {m(bx=(1, 0), bv=(0, 1)): 1, m(bt=1, bv=(1, 1)): 1})
    # x2 v1 v2^2 -> v1 v2^3 (from v2 d_x2) - 2*2 x2 v2 - 3*2 x2 v1
    got = apply_operator(op, KineticPolynomial(2, {m(bx=(0, 1), bv=(1, 2)): Fraction(1, 2)}))
    assert got == KineticPolynomial(2, {m(bv=(1, 3)): Fraction(1, 2), m(bx=(0, 1), bv=(0, 1)): -2,
                                        m(bx=(0, 1), bv=(1, 0)): -3})


def test_apply_operator_term_order():
    # the terms of L p come term of L by term of L; v cancels after v d_x
    # (t v -> v, -x -> -v) and the diffusion of v^3 puts it back at the end
    op = kolmogorov_operator(1)
    p = KineticPolynomial(1, {mono(1, bv=(1,), bt=1): 1, mono(1, bx=(1,)): -1,
                              mono(1, bx=(1,), bv=(1,)): 1, mono(1, bv=(3,)): 1})
    got = apply_operator(op, p)
    assert got == KineticPolynomial(1, {mono(1, bv=(2,)): 1, mono(1, bv=(1,)): -6})
    assert list(got.terms) == [mono(1, bv=(2,)), mono(1, bv=(1,))]


def test_transport_derivative_in_x():
    x2v3 = KineticPolynomial.monomial(1, 1, bx=(2,), bv=(3,))
    txv = KineticPolynomial.monomial(1, 1, bt=1, bx=(1,), bv=(1,))
    got = transport_derivative(x2v3 + txv, mono(1, bx=(1,)))
    assert got == KineticPolynomial(1, {mono(1, bx=(1,), bv=(3,)): 2, mono(1, bt=1, bv=(1,)): 1})
    # dv: 3 x^2 v^2, dx: 6 x v^2, d_t + v d_x: 6 v^3
    assert transport_derivative(x2v3, mono(1, bt=1, bx=(1,), bv=(1,))) == KineticPolynomial.monomial(1, 6, bv=(3,))
    assert transport_derivative(x2v3, mono(1, bx=(3,))).is_zero()
    q = KineticPolynomial(2, {mono(2, bx=(1, 2), bv=(1, 0)): 1, mono(2, bx=(0, 1)): 5})
    assert transport_derivative(q, mono(2, bx=(0, 2))) == KineticPolynomial(2, {mono(2, bx=(1, 0), bv=(1, 0)): 2})


@pytest.mark.parametrize("n", [1, 2])
def test_grading_property(n):
    # L maps P_k into P_{k-2} for every k <= 8, basis by basis
    op = kolmogorov_operator(n)
    for k in range(9):
        for q in space_basis(full_space(k, n)):
            img = apply_operator(op, q)
            if not img.is_zero():
                assert img.degree() <= k - 2


def test_space_dims():
    assert space_dim(full_space(0, 1)) == 1
    assert space_dim(full_space(2, 1)) == 4  # 1, v, v^2, t
    # specular subspace: drop odd-v_n monomials with no x_n factor
    assert space_dim(specular_space(2, 1)) == 3


def test_specular_space_trace_even():
    spec = specular_space(5, 1)
    for q in space_basis(spec):
        for b in q.terms:
            assert b.bx[0] >= 1 or b.bv[0] % 2 == 0


def test_tricomi_augmented_space():
    spec = tricomi_augmented_space(1.0)
    assert space_basis(spec) == space_basis(specular_space(5, 1))
    assert space_dim(spec) == space_dim(specular_space(5, 1)) + 1
    with pytest.raises(ValueError):
        from kinreg.polynomials import PolySpaceSpec

        PolySpaceSpec("tricomi_augmented", 4, 1, 1.0)


@pytest.mark.parametrize("spec", [full_space(5, 1), specular_space(5, 1),
                                  tricomi_augmented_space(1.0), full_space(4, 2)],
                         ids=["full5", "specular5", "augmented", "full4_n2"])
def test_basis_matrix_matches_pointwise_eval(spec):
    from kinreg.tricomi import TricomiParams, eval_tricomi

    rng = np.random.RandomState(11)   # own stream, so later tests' RNG draws do not shift

    def draw(count):
        return [KineticPoint(rng.uniform(-1, 1), rng.uniform(0.05, 1.5, spec.n),
                             rng.uniform(-2, 2, spec.n)) for _ in range(count)]

    pts, marker_pts = draw(40), draw(40)
    rows, marker_rows = (np.array([(z.t, *z.x, *z.v) for z in ps]) for ps in (pts, marker_pts))
    B = basis_matrix(spec, rows, marker_rows)
    assert B.shape == (len(pts), space_dim(spec))
    want = np.array([[q.eval(z) for q in space_basis(spec)] for z in pts])
    if spec.kind == "tricomi_augmented":
        tp = TricomiParams(A=spec.A, lam=3)
        want = np.column_stack([want, [eval_tricomi(tp, zm.x[0], zm.v[0]) for zm in marker_pts]])
    np.testing.assert_allclose(B, want, rtol=1e-14, atol=0)
    # the Tricomi column defaults to the points themselves
    np.testing.assert_array_equal(basis_matrix(spec, rows), basis_matrix(spec, rows, rows))


def test_pullback_stays_in_class_and_matches_eval():
    z0 = KineticPoint(0.5, -0.25, 0.75)
    r = 0.5
    from kinreg.geometry import frame_map

    for _ in range(20):
        p = rand_poly(k=5)
        q = p.pullback(z0, r)
        if not p.is_zero():
            assert q.degree() <= p.degree()
        for _ in range(5):
            z = KineticPoint(RNG.uniform(-1, 1), RNG.uniform(-1, 1), RNG.uniform(-1, 1))
            assert q.eval(z) == pytest.approx(p.eval(frame_map(z0, r, z)), rel=1e-12, abs=1e-12)


def test_particular_solve_1d_base_cases():
    assert particular_solve_1d(0, 1, 1, 1) == KineticPolynomial.monomial(1, Fraction(-1, 6), bv=(3,))
    assert particular_solve_1d(0, 0, 2, 1) == KineticPolynomial.monomial(1, -1, bv=(2,))


def test_particular_solve_1d_exact_grid():
    # symbolic residual identically zero on the full (lambda1, lambda2) grid
    op = kolmogorov_operator(1)
    for l1 in range(5):
        for l2 in range(7):
            amp = Fraction(3, 2)
            P = particular_solve_1d(l1, l2, amp, 1)
            rhs = KineticPolynomial.monomial(1, amp, bx=(l1,), bv=(l2,))
            assert apply_operator(op, P) == rhs
            assert P.is_homogeneous(3 * l1 + l2 + 2)


def test_particular_solve_1d_general_A():
    A = Fraction(5, 3)
    op = OperatorSpec.make([[A]])
    for l1, l2 in [(0, 0), (1, 2), (2, 1), (3, 0)]:
        P = particular_solve_1d(l1, l2, 1, A)
        rhs = KineticPolynomial.monomial(1, 1, bx=(l1,), bv=(l2,))
        assert apply_operator(op, P) == rhs


def test_particular_solve_general():
    op = kolmogorov_operator(1)
    assert particular_solve_general(op, KineticPolynomial.zero(1)).is_zero()
    p = KineticPolynomial(1, {mono(1, bv=(3,)): 1, mono(1, bx=(1,)): -2})
    P = particular_solve_general(op, p)
    assert apply_operator(op, P) == p
    # cross-check against the recursion for p = v
    v = KineticPolynomial.monomial(1, 1, bv=(1,))
    P2 = particular_solve_general(op, v)
    assert apply_operator(op, P2) == v


def _dense_particular(op, n, deg):
    """Reference for right-hand sides of degree deg: one square system over
    every degree <= deg + 2, then the particular solution projected off the
    nullspace through its Gram matrix. The system, its nullspace and the
    Gram matrix depend on (op, deg) alone, so they are built once; returns
    the solve for one right-hand side p."""
    idx = _all_indices(deg + 2, n)
    M = _operator_matrix(op, idx, idx)
    _, null = solve_rational(M, [Fraction(0)] * len(idx))
    # the Gram matrix over each null vector's nonzero support; it is
    # symmetric, so the upper triangle is summed and mirrored
    support = [{j: c for j, c in enumerate(u) if c} for u in null]
    G = [[Fraction(0)] * len(null) for _ in null]
    for i, su in enumerate(support):
        for j in range(i, len(null)):
            sw = support[j]
            G[i][j] = G[j][i] = sum((c * sw[k] for k, c in su.items() if k in sw), Fraction(0))

    def solve(p):
        assert p.degree() == deg
        x, _ = solve_rational(M, [p.coefficient(b) for b in idx])
        assert x is not None
        if null:
            coef, _ = solve_rational(G, [sum(a * b for a, b in zip(u, x)) for u in null])
            x = [xj - sum(c * u[j] for c, u in zip(coef, null)) for j, xj in enumerate(x)]
        return KineticPolynomial(n, dict(zip(idx, x)))

    return solve


def _dense_kernel(op, spec):
    """Reference: the RREF nullspace of the operator on the whole space."""
    basis = space_basis(spec)
    aug = _operator_matrix(op, [b for q in basis for b in q.terms], _all_indices(spec.k, spec.n))
    vecs = _nullspace_from_rref(aug, _rref(aug), len(basis))
    return [sum((q * c for c, q in zip(vec, basis) if c != 0), KineticPolynomial.zero(spec.n))
            for vec in vecs]


def _mixed_rhs(n, k, seed, nterms=6):
    """Random rational right-hand side with terms of several degrees, top degree k."""
    rng = np.random.RandomState(seed)
    idx = _all_indices(k, n)
    top = [b for b in idx if b.kinetic_degree == k]
    terms = {top[rng.randint(len(top))]: Fraction(int(rng.randint(1, 10)), int(rng.randint(1, 5)))}
    for _ in range(nterms - 1):
        terms[idx[rng.randint(len(idx))]] = Fraction(int(rng.randint(-9, 10)), int(rng.randint(1, 5)))
    return KineticPolynomial(n, terms)


@pytest.mark.parametrize("a, k", [
    ([[1]], 5),
    ([[Fraction(5, 3)]], 4),
    ([[1, 0], [0, 1]], 3),
    ([[2, 1], [1, 3]], 3),
])
def test_particular_solve_general_matches_dense_min_norm(a, k):
    op = OperatorSpec.make(a)
    n = op.n
    dense_particular = _dense_particular(op, n, k)
    for seed in range(3):
        p = _mixed_rhs(n, k, seed)
        assert len(p.homogeneous_components()) > 1
        P = particular_solve_general(op, p)
        assert P == dense_particular(p)
        assert apply_operator(op, P) == p
        # minimum norm: orthogonal to the kernel of L on the solution space
        for q in kernel_basis(op, full_space(k + 2, n)):
            assert sum(P.coefficient(b) * c for b, c in q.terms.items()) == 0


def test_particular_solve_general_degree_6_in_two_dimensions():
    for op in (kolmogorov_operator(2), OperatorSpec.make([[2, 1], [1, 3]])):
        p = _mixed_rhs(2, 6, seed=4)
        P = particular_solve_general(op, p)
        assert P.degree() == 8
        assert apply_operator(op, P) == p


@pytest.mark.parametrize("spec", [full_space(4, 2), specular_space(6, 2)])
def test_kernel_basis_matches_dense_rref(spec):
    for op in (kolmogorov_operator(2), OperatorSpec.make([[2, 1], [1, 3]])):
        assert kernel_basis(op, spec) == _dense_kernel(op, spec)


def test_solve_rational_reports_an_inconsistent_system():
    # x1 + x2 = 1 and x1 + x2 = 2: no solution, and the kernel (-1, 1)
    one, two = Fraction(1), Fraction(2)
    assert solve_rational([[one, one], [one, one]], [one, two]) == (None, [[-1, 1]])


def test_non_finite_coefficient_raises_value_error():
    for c in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError):
            KineticPolynomial.monomial(1, c)
    with pytest.raises(ValueError):
        KineticPolynomial.from_json('{"n": 1, "terms": [{"bt": 0, "bx": [0], "bv": [3], "c": Infinity}]}')


@pytest.mark.parametrize("text, field", [
    ('{"n": 1, "terms": 5}', "terms"), ("[1, 2]", "n"), ('{"terms": []}', "n"),
    ('{"n": 1, "terms": [{"bt": 0, "bx": [0], "bv": [3], "c": null}]}', "c"),
    ('{"n": 1, "terms": [{"bt": 0, "bx": [0], "bv": [3], "c": "1/0"}]}', "c"),
    ('{"n": 1, "terms": [{"bt": 0, "bx": 0, "bv": [3], "c": 1}]}', "bx"),
    ('{"n": 1, "terms": [{"bt": Infinity, "bx": [0], "bv": [3], "c": 1}]}', "bt"),
    ('{"n": 1, "terms": [{"bt": 0, "bx": [0], "bv": [3.7], "c": 1}]}', "bv")],
    ids=["terms-not-a-list", "top-level-list", "no-n", "c-null", "c-1/0", "bx-not-a-list", "bt-inf",
         "bv-not-an-integer"])
def test_malformed_json_raises_value_error_naming_the_field(text, field):
    with pytest.raises(ValueError, match=f"field '{field}'"):
        KineticPolynomial.from_json(text)


def test_kernel_basis_p1_is_everything():
    op = kolmogorov_operator(1)
    ker = kernel_basis(op, full_space(1, 1))
    assert len(ker) == space_dim(full_space(1, 1)) == 2


def test_kernel_basis_residuals_zero():
    for spec in (full_space(3, 1), specular_space(5, 1), full_space(4, 2)):
        op = kolmogorov_operator(spec.n)
        ker = kernel_basis(op, spec)
        for q in ker:
            assert apply_operator(op, q).is_zero()
        # kernel dimension bounded by dim(space) - rank lower bound
        assert len(ker) >= space_dim(spec) - space_dim(full_space(spec.k - 2, spec.n))


def test_kernel_contains_known_elements():
    op = kolmogorov_operator(1)
    ker = kernel_basis(op, specular_space(5, 1))
    # L(v^2 + t) = 1 - 2 = -1; the kernel must contain v^2 + 2t
    cand = KineticPolynomial(1, {mono(1, bv=(2,)): 1, mono(1, bt=1): 1})
    assert apply_operator(op, cand) == KineticPolynomial(1, {mono(1): -1})
    cand2 = KineticPolynomial(1, {mono(1, bv=(2,)): 1, mono(1, bt=1): 2})
    assert apply_operator(op, cand2).is_zero()
    M = np.array([[float(q.coefficient(b)) for q in ker]
                  for b in _all_indices(5, 1)])
    target = np.array([float(cand2.coefficient(b)) for b in _all_indices(5, 1)])
    coef, res, *_ = np.linalg.lstsq(M, target, rcond=None)
    assert np.linalg.norm(M @ coef - target) < 1e-10


def test_json_roundtrip():
    for _ in range(10):
        p = rand_poly(k=6)
        q = KineticPolynomial.from_json(p.to_json())
        assert p == q
    p = KineticPolynomial(2, {mono(2, bt=1, bx=(1, 0), bv=(0, 3)): Fraction(-7, 3)})
    assert KineticPolynomial.from_json(p.to_json()) == p


# ---------------------------------------------------------------------------
# L2 projection
# ---------------------------------------------------------------------------


def test_l2_project_reproduces_in_space():
    z0 = KineticPoint(0.1, 0.4, -0.2)
    spec = full_space(3, 1)
    basis = space_basis(spec)
    coefs = RNG.uniform(-2, 2, size=len(basis))
    p = KineticPolynomial.zero(1)
    for c, q in zip(coefs, basis):
        p = p + q * Fraction(c).limit_denominator(10 ** 6)
    got = l2_project(p.eval, z0, 0.7, spec)
    want = np.array([float(p.coefficient(next(iter(q.terms)))) for q in basis])
    assert np.max(np.abs(got - want)) < 1e-10


def test_l2_project_constant_is_average():
    z0 = origin(1)
    f = lambda z: math.sin(z.t) + z.x[0] ** 2 + z.v[0]
    c = l2_project(f, z0, 0.5, full_space(0, 1), quad_order=12)[0]
    # independent average by quadrature
    from kinreg.polynomials import cylinder_quadrature

    pts, w = cylinder_quadrature(z0, 0.5, 16)
    pts = [KineticPoint(*row) for row in pts]
    avg = sum(wi * f(z) for z, wi in zip(pts, w)) / w.sum()
    assert c == pytest.approx(avg, rel=1e-8)


def test_l2_project_orthogonality():
    z0 = KineticPoint(0.0, 0.0, 0.0)
    spec = full_space(4, 1)
    f = lambda z: math.exp(z.v[0]) * (1 + z.x[0])
    coef = l2_project(f, z0, 0.6, spec, quad_order=14)
    basis = space_basis(spec)
    from kinreg.polynomials import cylinder_quadrature

    pts, w = cylinder_quadrature(z0, 0.6, 14)
    pts = [KineticPoint(*row) for row in pts]
    resid = np.array([f(z) for z in pts]) - sum(
        c * np.array([q.eval(z) for z in pts]) for c, q in zip(coef, basis))
    fnorm = math.sqrt(float(w @ np.array([f(z) ** 2 for z in pts])))
    for q in basis:
        qv = np.array([q.eval(z) for z in pts])
        qnorm = math.sqrt(float(w @ qv ** 2))
        assert abs(float(w @ (resid * qv))) <= 1e-9 * max(fnorm * qnorm, 1.0)


def test_l2_project_augmented_space_recovers_tricomi():
    from kinreg.probe import phase_field
    from kinreg.tricomi import TricomiParams, eval_tricomi

    spec = tricomi_augmented_space(1.0)
    f = phase_field(lambda x, v: 2.5 * eval_tricomi(TricomiParams(A=1.0, lam=3), x, v))
    z0 = origin(1)
    coef = l2_project(f, z0, 0.5, spec, quad_order=10)
    assert coef[-1] == pytest.approx(2.5, abs=1e-6)
