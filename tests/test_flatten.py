import math

import numpy as np
import pytest

from kinreg.flatten import (
    GraphDomain,
    build_flatten,
    counterexample_condition,
    flat_domain,
    limit_rhs_p1,
    p1_normal_restriction,
    parabola_domain,
    reflection_commutation_check,
    transform_coefficients,
)
from kinreg.polynomials import mono

RNG = np.random.RandomState(5)


def test_domain_normalization_enforced():
    with pytest.raises(ValueError):
        GraphDomain(lambda x: 1.0 + 0 * x, lambda x: 0.0, lambda x: 0.0)
    with pytest.raises(ValueError):
        GraphDomain(lambda x: x, lambda x: 1.0, lambda x: 0.0)


def test_flat_domain_is_identity():
    fm = build_flatten(flat_domain())
    for _ in range(20):
        x = RNG.uniform(-0.2, 0.2, size=2)
        x[1] = abs(x[1])
        assert np.allclose(fm.phi(x), x, atol=1e-12)
        assert np.allclose(fm.d_phi(x), np.eye(2), atol=1e-12)
    assert reflection_commutation_check(fm) == 0.0


def test_parabola_identity_normalization():
    fm = build_flatten(parabola_domain(1.0))
    assert np.allclose(fm.phi(np.zeros(2)), np.zeros(2), atol=1e-12)
    assert np.allclose(fm.d_phi(np.zeros(2)), np.eye(2), atol=1e-10)


def test_boundary_maps_to_flat():
    dom = parabola_domain(0.8)
    fm = build_flatten(dom)
    for x1 in np.linspace(-0.2, 0.2, 9):
        y = fm.phi(np.array([x1, dom.gamma(x1)]))
        assert abs(y[1]) <= 1e-10


def test_inverse_consistency():
    fm = build_flatten(parabola_domain(1.0))
    for _ in range(40):
        y = np.array([RNG.uniform(-0.2, 0.2), RNG.uniform(0.0, 0.2)])
        assert np.max(np.abs(fm.phi(fm.phi_inverse(y)) - y)) <= 1e-10
        x = fm.phi_inverse(y)
        assert np.max(np.abs(fm.phi_inverse(fm.phi(x)) - x)) <= 1e-10


def test_parabola_hessians():
    fm = build_flatten(parabola_domain(1.0))
    H = fm.d2_phi(np.zeros(2))
    assert np.allclose(H[0], [[0, 1], [1, 0]], atol=1e-8)
    assert np.allclose(H[1], [[-1, 0], [0, 0]], atol=1e-8)


def test_reflection_commutation_parabola():
    fm = build_flatten(parabola_domain(1.0))
    assert reflection_commutation_check(fm) <= 1e-8


def test_transform_coefficients_identity_at_origin():
    fm = build_flatten(parabola_domain(1.0))
    a_t, b_t = transform_coefficients(fm, np.zeros(2), np.array([0.4, -0.2]))
    assert np.allclose(a_t, np.eye(2), atol=1e-10)
    # b~^i = <v, D2 phi^i v> at the origin
    v = np.array([0.4, -0.2])
    H = fm.d2_phi(np.zeros(2))
    want = np.array([v @ H[0] @ v, v @ H[1] @ v])
    assert np.allclose(b_t, want, atol=1e-8)


def test_transformed_a_first_order_expansion():
    # a~^{i,i}(x) = 1 + 2 sum_k d2phi^i_{ik} x_k + O(|x|^2)
    fm = build_flatten(parabola_domain(1.0))
    H = fm.d2_phi(np.zeros(2))
    for _ in range(10):
        s = RNG.uniform(-1, 1, size=2)
        s /= np.linalg.norm(s)
        for eps in (1e-3,):
            x = eps * s
            x[1] = abs(x[1])  # stay inside the domain patch
            a_t, *_ = transform_coefficients(fm, x, np.zeros(2))
            for i in range(2):
                lin = 1.0 + 2.0 * sum(H[i][i, k] * x[k] for k in range(2))
                assert a_t[i, i] == pytest.approx(lin, abs=5e-5)


def test_transformed_a_spd_on_patch():
    fm = build_flatten(parabola_domain(1.0))
    for _ in range(30):
        x = np.array([RNG.uniform(-0.15, 0.15), RNG.uniform(0.0, 0.15)])
        x = fm.phi_inverse(np.array([x[0], x[1]]))
        a_t, *_ = transform_coefficients(fm, x, np.zeros(2))
        w = np.linalg.eigvalsh(a_t)
        assert np.allclose(a_t, a_t.T)
        # delta is set by the patch size times the curvature; the recorded
        # range for this patch is [1.0, 1.38]
        assert 0.7 <= w[0] <= w[1] <= 1.45


def test_chain_rule_identity():
    # f(t,x,v) = ftilde(t, phi(x), Dphi(x) v) satisfies the original
    # equation iff ftilde satisfies the transformed one
    fm = build_flatten(parabola_domain(1.0))

    def ftilde(t, y, w):
        return math.sin(1 + y[0]) * w[1] ** 2 + y[1] * w[0] + 0.3 * w[0] * w[1] + t * y[0]

    def f(t, x, v):
        tt, y, w = fm.map_phase(t, x, v)
        return ftilde(tt, y, w)

    t0 = 0.2
    x0 = np.array([0.05, 0.05 ** 2 / 2 + 0.03])
    v0 = np.array([0.4, -0.7])
    h = 1e-5
    ft = (f(t0 + h, x0, v0) - f(t0 - h, x0, v0)) / (2 * h)
    gx = np.array([(f(t0, x0 + d, v0) - f(t0, x0 - d, v0)) / (2 * h)
                   for d in (np.array([h, 0]), np.array([0, h]))])
    lap = sum((f(t0, x0, v0 + d) - 2 * f(t0, x0, v0) + f(t0, x0, v0 - d)) / h ** 2
              for d in (np.array([h, 0]), np.array([0, h])))
    lhs = ft + v0 @ gx - lap

    tt, y0, w0 = fm.map_phase(t0, x0, v0)
    a_t, b_t = transform_coefficients(fm, x0, v0)
    ft2 = (ftilde(tt + h, y0, w0) - ftilde(tt - h, y0, w0)) / (2 * h)
    gy = np.array([(ftilde(tt, y0 + d, w0) - ftilde(tt, y0 - d, w0)) / (2 * h)
                   for d in (np.array([h, 0]), np.array([0, h]))])
    gw = np.array([(ftilde(tt, y0, w0 + d) - ftilde(tt, y0, w0 - d)) / (2 * h)
                   for d in (np.array([h, 0]), np.array([0, h]))])
    d2w = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            ei = np.zeros(2); ei[i] = h
            ej = np.zeros(2); ej[j] = h
            d2w[i, j] = (ftilde(tt, y0, w0 + ei + ej) - ftilde(tt, y0, w0 + ei - ej)
                         - ftilde(tt, y0, w0 - ei + ej) + ftilde(tt, y0, w0 - ei - ej)) / (4 * h * h)
    rhs = ft2 + w0 @ gy - float(np.sum(a_t * d2w)) + b_t @ gw
    assert lhs == pytest.approx(rhs, abs=2e-4 * (1 + abs(lhs)))


def test_specular_condition_preserved_under_map():
    # f(t, x, R_x v) = f(t, x, v) iff the flattened field is even in w_2
    fm = build_flatten(parabola_domain(1.0))
    dom = fm.domain

    def ftilde(t, y, w):
        return w[1] ** 2 + 0.5 * w[0] + y[0] - 2.0 * y[1] * w[1]  # even in w2 at y2=0

    for _ in range(50):
        x1 = RNG.uniform(-0.2, 0.2)
        x = np.array([x1, dom.gamma(x1)])
        v = RNG.uniform(-1.5, 1.5, size=2)
        nx = dom.outward_normal(x1)
        rv = v - 2 * float(v @ nx) * nx
        tt, y, w = fm.map_phase(0.0, x, v)
        tt, yr, wr = fm.map_phase(0.0, x, rv)
        assert np.allclose(y, yr, atol=1e-10)
        assert ftilde(0, y, w) == pytest.approx(ftilde(0, yr, wr), abs=1e-10)


def test_counterexample_condition_flat_vs_parabola():
    fvv = np.diag([2.0, -2.0])  # expansion v1^2 - v2^2
    flat = build_flatten(flat_domain())
    out = counterexample_condition(flat.d2_phi(np.zeros(2)), fvv)
    assert not out["violated"]
    par = build_flatten(parabola_domain(1.0))
    out2 = counterexample_condition(par.d2_phi(np.zeros(2)), fvv)
    assert out2["violated"]
    assert out2["lhs"] == pytest.approx(4.0, abs=1e-6)


def test_counterexample_iff_mixed_hessian():
    # for the v1^2 - v2^2 expansion the condition reduces to
    # d2phi^1_{12}(0) != 0: synthetic Hessians with the entry switched off
    fvv = np.diag([2.0, -2.0])
    H_off = [np.zeros((2, 2)), np.array([[-1.0, 0.0], [0.0, 0.0]])]
    assert not counterexample_condition(H_off, fvv)["violated"]
    H_on = [np.array([[0.0, 0.7], [0.7, 0.0]]), np.array([[-1.0, 0.0], [0.0, 0.0]])]
    assert counterexample_condition(H_on, fvv)["violated"]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_counterexample_condition_rejects_non_finite(bad):
    fvv = np.diag([2.0, -2.0])
    H = build_flatten(parabola_domain(1.0)).d2_phi(np.zeros(2))
    with pytest.raises(ValueError, match="finite"):
        counterexample_condition(H, np.array([[bad, 0.0], [0.0, -2.0]]))
    with pytest.raises(ValueError, match="finite"):
        counterexample_condition([H[0], np.full((2, 2), bad)], fvv)


def test_counterexample_condition_rejects_inconsistent_dimensions():
    fvv = np.diag([2.0, -2.0])
    for hess in ([np.zeros((2, 2))], [np.zeros((3, 3))] * 2, [np.zeros((2, 2))] * 3):
        with pytest.raises(ValueError, match="inconsistent dimensions"):
            counterexample_condition(hess, fvv)


def test_limit_rhs_p1_zero_hessians():
    p1 = limit_rhs_p1([np.zeros((2, 2)), np.zeros((2, 2))], np.eye(2))
    assert p1.is_zero()


def test_limit_rhs_p1_single_entry():
    H1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    H2 = np.zeros((2, 2))
    alpha = np.array([[1.0, 0.0], [0.0, 0.0]])
    p1 = limit_rhs_p1([H1, H2], alpha)
    # frozen symbolic evaluation: 4 x_2 - 2 v_1 v_2 * (2 alpha_11 v_1) = 4 x2 - 4 v1^2 v2
    assert float(p1.coefficient(mono(2, bx=(0, 1)))) == 4.0
    assert float(p1.coefficient(mono(2, bv=(2, 1)))) == -4.0
    assert len(p1.terms) == 2


def test_restriction_obstruction_consistency():
    # alpha != -2 beta iff the theorem-level condition holds, on random data
    for _ in range(100):
        H = [RNG.uniform(-1, 1, size=(2, 2)) for _ in range(2)]
        H = [0.5 * (M + M.T) for M in H]
        al = RNG.uniform(-1, 1, size=(2, 2))
        p1 = limit_rhs_p1(H, al)
        a, b = p1_normal_restriction(p1)
        fvv = al + al.T
        cond = counterexample_condition(H, fvv)
        assert (abs(a + 2 * b) > 1e-10) == cond["violated"] or \
            abs(abs(a + 2 * b) - 1e-10) < 1e-9  # tolerance boundary slack
        assert a + 2 * b == pytest.approx(cond["lhs"] - cond["rhs"], abs=1e-9)
