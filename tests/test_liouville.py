from fractions import Fraction

import numpy as np
import pytest

from kinreg.liouville import (
    ClassificationResult,
    HalfSpaceRHS,
    classify,
    classify_homogeneous,
    flip_symmetric_shortcut,
    verify_solution,
)
from kinreg.polynomials import (
    KineticPolynomial,
    OperatorSpec,
    apply_operator,
    kolmogorov_operator,
    mono,
)

RNG = np.random.RandomState(23)
OP1 = kolmogorov_operator(1)


def poly_1d(terms):
    return KineticPolynomial(1, {mono(1, bx=(bx,), bv=(bv,)): Fraction(c)
                                 for (bx, bv), c in terms.items()})


def rand_homogeneous(lam, allow_zero=False):
    terms = {}
    for bx in range(lam // 3 + 1):
        bv = lam - 3 * bx
        if RNG.rand() < 0.6:
            terms[(bx, bv)] = int(RNG.randint(-5, 6))
    if not terms and not allow_zero:
        terms[(0, lam)] = 1
    return poly_1d(terms)


def test_rhs_validation():
    with pytest.raises(ValueError):
        HalfSpaceRHS(poly_1d({(0, 1): 1}), A=0.0)
    with pytest.raises(ValueError):
        HalfSpaceRHS(KineticPolynomial.monomial(1, 1, bt=1), A=1.0)
    with pytest.raises(ValueError):
        HalfSpaceRHS(KineticPolynomial.monomial(1, 1, bv=(10,)), A=1.0)
    with pytest.raises(ValueError, match="one-dimensional"):
        HalfSpaceRHS(KineticPolynomial.monomial(2, 1, bv=(1, 0)), A=1.0)


def test_classification_rejects_mixed_input():
    with pytest.raises(ValueError, match="not homogeneous of degree 1"):
        classify_homogeneous(HalfSpaceRHS(poly_1d({(0, 1): 1, (0, 2): 1}), 1.0), 1)


def test_classify_zero():
    res = classify(HalfSpaceRHS(KineticPolynomial.zero(1), 1.0))
    assert res.is_polynomial and res.particular.is_zero()


def test_classify_v_gives_x():
    # p = v: the trace-correcting Kummer polynomial turns -v^3/6 into x
    res = classify(HalfSpaceRHS(poly_1d({(0, 1): 1}), 1.0))
    assert res.is_polynomial
    assert res.particular == KineticPolynomial.monomial(1, 1, bx=(1,))
    assert verify_solution(res, HalfSpaceRHS(poly_1d({(0, 1): 1}), 1.0)).passed


def test_classify_thm_exception_rhs():
    # p = v^3 - 2Ax stays polynomial with particular x v^2
    p = poly_1d({(0, 3): 1, (1, 0): -2})
    res = classify(HalfSpaceRHS(p, 1.0))
    assert res.is_polynomial
    assert res.particular == KineticPolynomial.monomial(1, 1, bx=(1,), bv=(2,))


def test_classify_v3_is_tricomi():
    p = poly_1d({(0, 3): 1})
    res = classify(HalfSpaceRHS(p, 1.0))
    assert not res.is_polynomial
    assert res.tricomi_terms == [(3, -0.05)]
    assert res.particular.is_zero()
    rep = verify_solution(res, HalfSpaceRHS(p, 1.0))
    assert rep.passed, rep.notes


def test_classify_v3_general_A():
    for A in (0.5, 2.0):
        p = poly_1d({(0, 3): 1})
        res = classify(HalfSpaceRHS(p, A))
        (lam, m), = res.tricomi_terms
        assert lam == 3
        assert m == pytest.approx(-A ** 2.5 / (20.0 * A), rel=1e-12)  # c A^{5/2}, c = -1/(20A)
        assert verify_solution(res, HalfSpaceRHS(p, A)).passed


def test_classify_mixed_layers():
    p = poly_1d({(0, 3): 1, (0, 1): 1})
    res = classify(HalfSpaceRHS(p, 1.0))
    assert [lam for lam, _ in res.tricomi_terms] == [3]
    rep = verify_solution(res, HalfSpaceRHS(p, 1.0))
    assert rep.passed, rep.notes


def test_classify_constant_plus_v():
    p = poly_1d({(0, 0): 1, (0, 1): 1})
    res = classify(HalfSpaceRHS(p, 1.0))
    assert res.is_polynomial
    assert res.particular.degree() <= 3
    assert apply_operator(OP1, res.particular) == p


def test_dichotomy_all_layers_to_7():
    # every homogeneous monomial rhs with lam <= 7: Tricomi iff lam = 3
    # and the particular trace coefficient is nonzero
    for lam in range(8):
        for bx in range(lam // 3 + 1):
            bv = lam - 3 * bx
            p = poly_1d({(bx, bv): 2})
            res = classify_homogeneous(HalfSpaceRHS(p, 1.0), lam)
            rep = verify_solution(res, HalfSpaceRHS(p, 1.0))
            assert rep.passed, (lam, bx, bv, rep.notes)
            if lam != 3:
                assert res.is_polynomial, (lam, bx, bv)
                assert apply_operator(OP1, res.particular) == p
            else:
                # single monomial layers of degree 3
                assert len(res.tricomi_terms) <= 1


def test_lambda3_dichotomy_detail():
    # v^3 and x both generate nonzero trace; the combination v^3 - 2x cancels
    for terms, is_poly in [({(0, 3): 1}, False), ({(1, 0): 1}, False),
                           ({(0, 3): 1, (1, 0): -2}, True)]:
        res = classify_homogeneous(HalfSpaceRHS(poly_1d(terms), 1.0), 3)
        assert res.is_polynomial == is_poly


def test_lambda9_layer_if_enabled():
    # the generic lam = 9 layer carries T_{A,9}
    p = poly_1d({(0, 9): 1})
    res = classify_homogeneous(HalfSpaceRHS(p, 1.0), 9)
    assert not res.is_polynomial
    (lam, m), = res.tricomi_terms
    assert lam == 9
    rep = verify_solution(res, HalfSpaceRHS(p, 1.0))
    assert rep.passed, rep.notes


def test_degree_le_4_always_polynomial():
    # growth below 5: every rhs in P_2 classifies as polynomial
    for lam in (0, 1, 2):
        for _ in range(20):
            p = rand_homogeneous(lam)
            res = classify_homogeneous(HalfSpaceRHS(p, 1.0), lam)
            assert res.is_polynomial


def test_linearity_of_classification():
    for _ in range(30):
        p1 = rand_homogeneous(3)
        p2 = rand_homogeneous(3)
        r1 = classify(HalfSpaceRHS(p1, 1.0))
        r2 = classify(HalfSpaceRHS(p2, 1.0))
        rs = classify(HalfSpaceRHS(p1 + p2, 1.0))
        m1 = dict(r1.tricomi_terms)
        m2 = dict(r2.tricomi_terms)
        ms = dict(rs.tricomi_terms)
        for lam in set(m1) | set(m2) | set(ms):
            assert ms.get(lam, 0.0) == pytest.approx(m1.get(lam, 0.0) + m2.get(lam, 0.0), abs=1e-12)
        # particulars may differ by a kernel element only
        diff = rs.particular - r1.particular - r2.particular
        assert apply_operator(OP1, diff).is_zero()


def test_flip_shortcut_coefficient_test():
    assert flip_symmetric_shortcut(OP1, poly_1d({(0, 2): 1}))
    assert not flip_symmetric_shortcut(OP1, poly_1d({(0, 3): 1}))
    assert flip_symmetric_shortcut(OP1, poly_1d({(1, 1): 1}))  # x v even
    assert not flip_symmetric_shortcut(OP1, poly_1d({(1, 0): 1}))


def test_flip_shortcut_blocks_on_coupled_a():
    op = OperatorSpec.make([[1, Fraction(1, 4)], [Fraction(1, 4), 1]])
    p = KineticPolynomial.monomial(2, 1, bv=(0, 2))
    assert not flip_symmetric_shortcut(op, p)
    op_ok = OperatorSpec.make([[1, 0], [0, 2]])
    assert flip_symmetric_shortcut(op_ok, p)


def test_flip_shortcut_implies_polynomial_500():
    count = 0
    trials = 0
    while count < 500:
        trials += 1
        deg = int(RNG.randint(0, 8))
        p = rand_homogeneous(deg, allow_zero=True)
        # graft several layers together
        for extra in range(int(RNG.randint(0, 2))):
            p = p + rand_homogeneous(int(RNG.randint(0, 8)), allow_zero=True)
        if p.degree() > 7 or not flip_symmetric_shortcut(OP1, p):
            continue
        res = classify(HalfSpaceRHS(p, 1.0))
        assert res.is_polynomial, p
        count += 1
    assert count == 500


def test_verify_structured_failure():
    # a deliberately broken result fails with notes
    p = poly_1d({(0, 3): 1})
    res = classify(HalfSpaceRHS(p, 1.0))
    broken = ClassificationResult(res.particular + KineticPolynomial.monomial(1, 1, bv=(5,)),
                                  res.tricomi_terms, A=1.0)
    rep = verify_solution(broken, HalfSpaceRHS(p, 1.0))
    assert not rep.passed and rep.notes


def test_solution_callable():
    p = poly_1d({(0, 3): 1})
    res = classify(HalfSpaceRHS(p, 1.0))
    f = res.solution()
    from kinreg.tricomi import TricomiParams, eval_tricomi

    want = -0.05 * eval_tricomi(TricomiParams(A=1.0, lam=3), 0.7, 0.9)
    assert f(0.7, 0.9) == pytest.approx(want, rel=1e-12)


def test_rhs_rejects_non_finite_A():
    for A in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            HalfSpaceRHS(poly_1d({(0, 3): 1}), A=A)


def test_solution_broadcasts_over_arrays():
    # a polynomial part plus T_{A,3} and T_{A,9} terms
    p = poly_1d({(0, 3): 2, (1, 2): -1, (0, 9): 1})
    res = classify(HalfSpaceRHS(p, 1.5))
    assert [lam for lam, _ in res.tricomi_terms] == [3, 9]
    f = res.solution()
    x = np.array([[0.0], [1e-4], [0.3], [1.7]])
    v = np.array([-1.2, -0.1, 0.0, 0.8])
    got = f(x, v)
    assert got.shape == (4, 4)
    want = np.array([[f(float(xi), float(vj)) for vj in v] for xi in x[:, 0]])
    assert np.allclose(got, want, rtol=1e-14, atol=0.0)
    assert isinstance(f(0.3, 0.8), float)


def test_verify_solution_batches_tricomi_calls(monkeypatch):
    # one residual grid, one scale grid, one trace set, one growth set per term
    import kinreg.liouville as liouville
    import kinreg.tricomi as tricomi

    calls = []
    real = tricomi.eval_tricomi

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(tricomi, "eval_tricomi", counted)
    monkeypatch.setattr(liouville, "eval_tricomi", counted)
    rhs = HalfSpaceRHS(poly_1d({(0, 3): 2, (1, 6): 1, (0, 9): -1}), 1.0)
    res = classify(rhs)
    assert len(res.tricomi_terms) == 2
    assert verify_solution(res, rhs).passed
    assert len(calls) == 4 * len(res.tricomi_terms)


def test_odd_layers_corrected_exactly():
    # lam = 1, 5, 7: the stationary kernel of degree lam + 2 is a line, so
    # L P = p and a zero v^(lam+2) coefficient pin the particular exactly
    for A in (1.0, 0.5, 1.7):
        op = OperatorSpec.make([[A]])
        for lam in (1, 5, 7):
            for bx in range(lam // 3 + 1):
                p = poly_1d({(bx, lam - 3 * bx): 2})
                P = classify_homogeneous(HalfSpaceRHS(p, A), lam).particular
                assert P.coefficient(mono(1, bv=(lam + 2,))) == 0, (A, lam, bx)
                assert apply_operator(op, P) == p, (A, lam, bx)


def test_rhs_rejects_A_out_of_range_for_its_tricomi_layers():
    # A^(-(lam+2)/2) must be a finite, normal double for every lam = 3 mod 6
    # up to the degree of p; lower layers carry no T term
    for A in (1e-300, 1e300):
        with pytest.raises(ValueError, match="out of range"):
            HalfSpaceRHS(poly_1d({(0, 3): 1}), A=A)
        assert classify(HalfSpaceRHS(poly_1d({(0, 1): 1}), A)).is_polynomial
    # lam = 9 narrows the range: 1e60^(-11/2) underflows, 1e60^(-5/2) does not
    HalfSpaceRHS(poly_1d({(0, 3): 1}), A=1e60)
    with pytest.raises(ValueError, match="lam = 9"):
        HalfSpaceRHS(poly_1d({(0, 3): 1, (0, 9): 1}), A=1e60)
