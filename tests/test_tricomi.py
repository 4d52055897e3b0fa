import numpy as np
import pytest

from kinreg import tricomi
from kinreg.geometry import KineticPoint, origin
from kinreg.polynomials import full_space, space_dim, tricomi_augmented_space
from kinreg.probe import sample_cylinder
from kinreg.specfun import gamma_real
from kinreg.tricomi import (
    TricomiParams,
    as_field,
    boundary_trace,
    c41_seminorm_probe,
    cusp_ratio,
    eval_tricomi,
    pde_residual,
    residual_constant,
)

RNG = np.random.RandomState(11)

# T_{1,3}(1, 0), frozen from the high-precision oracle before the build
T13_AT_X1_V0 = -68.4790800812908113905114
# T_{1,3}(1e-300, v) for v = 1, -1 (tools/freeze_oracles.py): the trace -3
T13_GRAZING = {1.0: -3.0, -1.0: -3.0}
# T_{1,15}(1e-3, v) for v = 0.6, -0.6 (tools/freeze_oracles.py): tau = -+24
T115_GOLDEN = {0.6: -0.001784600367926274827889, -0.6: -0.0002325497957330528982518}


def test_params_validation():
    with pytest.raises(ValueError):
        TricomiParams(A=0.0, lam=3)
    with pytest.raises(ValueError):
        TricomiParams(A=1.0, lam=5)
    assert TricomiParams(A=1.0, lam=9).homogeneity == 11


def test_params_reject_A_whose_monomial_coefficient_is_not_normal():
    # where A^(-(lam+2)/2) overflows or is subnormal, T, its trace or its
    # residual constant would overflow or vanish
    for A, lam in ((1e-130, 3), (1e-300, 3), (1e300, 3), (1e125, 3), (1e-60, 9), (1e60, 9)):
        with pytest.raises(ValueError, match="out of range"):
            TricomiParams(A=A, lam=lam)
    for A, lam in ((1e-120, 3), (1e120, 3), (1e-50, 9), (1e50, 9)):
        p = TricomiParams(A=A, lam=lam)
        assert np.isfinite(residual_constant(p)) and residual_constant(p) != 0.0
        assert np.isfinite(boundary_trace(p, 0.5)) and boundary_trace(p, 0.5) != 0.0
        assert np.isfinite(eval_tricomi(p, 1e-3, 0.5))


def test_golden_value_at_origin_ray():
    p = TricomiParams(A=1.0, lam=3)
    assert eval_tricomi(p, 1.0, 0.0) == pytest.approx(T13_AT_X1_V0, rel=1e-12)
    closed = -2.0 * 9.0 ** (5.0 / 3.0) * gamma_real(1 / 3) / gamma_real(-4 / 3)
    assert eval_tricomi(p, 1.0, 0.0) == pytest.approx(closed, rel=1e-12)


def test_homogeneity_exact():
    p = TricomiParams(A=1.0, lam=3)
    for _ in range(200):
        x = RNG.uniform(0.01, 2.0)
        v = RNG.uniform(-1.5, 1.5)
        r = 10.0 ** RNG.uniform(-2, 2)
        base = eval_tricomi(p, x, v)
        scaled = eval_tricomi(p, r ** 3 * x, r * v)
        assert abs(scaled - r ** 5 * base) <= 1e-10 * (1.0 + r ** 5 * abs(base))


def test_homogeneity_worked_example():
    p = TricomiParams(A=1.0, lam=3)
    assert eval_tricomi(p, 8.0, 2.0) == pytest.approx(32.0 * eval_tricomi(p, 1.0, 1.0), rel=1e-12)


def test_residual_is_multiple_of_v_cubed():
    p = TricomiParams(A=1.0, lam=3)
    want = residual_constant(p)
    assert want == -20.0
    vals = []
    for x in np.linspace(0.1, 2.0, 20):
        for v in np.linspace(0.4, 1.5, 20):
            vals.append(pde_residual(p, float(x), float(v)) / v ** 3)
            vals.append(pde_residual(p, float(x), float(-v)) / (-v) ** 3)
    vals = np.array(vals)
    assert np.max(np.abs(vals - want)) <= 1e-3 * abs(want)


def test_residual_analytic_route_agrees():
    p = TricomiParams(A=1.0, lam=3)
    for x, v in [(0.3, 0.7), (1.1, -0.9), (2.0, 1.3)]:
        fd = pde_residual(p, x, v)
        assert fd == pytest.approx(residual_constant(p) * v ** 3, rel=1e-5)


def test_residual_general_A():
    for A in (0.5, 2.0):
        p = TricomiParams(A=A, lam=3)
        want = -20.0 * A ** -1.5
        assert residual_constant(p) == pytest.approx(want, rel=1e-14)
        got = pde_residual(p, 0.5, 0.8) / 0.8 ** 3
        assert got == pytest.approx(want, rel=1e-4)


def test_residual_vanishes_at_v0():
    p = TricomiParams(A=1.0, lam=3)
    assert abs(pde_residual(p, 1.0, 0.0)) <= 1e-4


@pytest.mark.parametrize("x", [5e-324, 0.0], ids=["subnormal-x", "zero-x"])
def test_residual_step_underflow_raises(x):
    # x = 0, or an x whose step 0.5 x rounds to 0: a ValueError, not a silent NaN
    with pytest.raises(ValueError, match="pde_residual"):
        pde_residual(TricomiParams(A=1.0), x, 0.2)


def test_homogeneous_part_annihilated():
    # removing the monomial leaves a numerical solution of the
    # homogeneous equation: residual of T - A^{-5/2} v^5 is ~0
    p = TricomiParams(A=1.0, lam=3)
    for x in (0.1, 0.7, 2.0):
        for v in (-1.2, 0.5, 1.4):
            full = pde_residual(p, x, v)
            mono_part = -20.0 * v ** 3  # exact residual of the v^5 monomial
            scale = max(abs(eval_tricomi(p, x, v)), 1.0)
            assert abs(full - mono_part) <= 1e-4 * scale


def test_cusp_ratio_constant():
    p = TricomiParams(A=1.0, lam=3)
    r0 = cusp_ratio(p, 1.0)
    for x in (1e-6, 1e-3, 1.0):
        assert cusp_ratio(p, x) == pytest.approx(r0, rel=1e-10)
    # tau = 0 closed form: -2 * 9^{5/3} A^{-5/6} U(-5/3; 2/3; 0)
    from kinreg.specfun import tricomi_u

    closed = -2.0 * 9.0 ** (5 / 3) * tricomi_u(-5 / 3, 2 / 3, 0.0).value
    assert r0 == pytest.approx(closed, rel=1e-12)


def test_cusp_second_difference_blowup():
    # (T(x+h,0) - 2T(x,0) + T(x-h,0))/h^2 ~ x^{5/3 - 2}: slope -1/3 on log-log
    p = TricomiParams(A=1.0, lam=3)
    xs = np.array([2.0 ** -k for k in range(2, 9)])
    vals = []
    for x in xs:
        h = 0.05 * x
        d2 = (eval_tricomi(p, x + h, 0.0) - 2 * eval_tricomi(p, x, 0.0)
              + eval_tricomi(p, x - h, 0.0)) / h ** 2
        vals.append(abs(d2))
    slope = np.polyfit(np.log(xs), np.log(vals), 1)[0]
    assert slope == pytest.approx(-1.0 / 3.0, abs=0.05)


def test_boundary_trace_and_evenness_limit():
    p = TricomiParams(A=1.0, lam=3)
    assert eval_tricomi(p, 0.0, 1.0) == boundary_trace(p, 1.0) == -3.0
    assert eval_tricomi(p, 0.0, -2.0) == -3.0 * 32.0
    gaps = [abs(eval_tricomi(p, x, 1.0) - eval_tricomi(p, x, -1.0))
            for x in (1e-2, 1e-3, 1e-4)]
    assert gaps[0] > gaps[1] > gaps[2]
    # linear-in-x decay: fitted exponent near 1
    xs = np.array([1e-2, 1e-3, 1e-4])
    theta = np.polyfit(np.log(xs), np.log(gaps), 1)[0]
    assert theta > 0.9


def test_evenness_gap_scale_invariant_in_v():
    # gap(x, v) = |v|^2 x * const by homogeneity of the linear term
    p = TricomiParams(A=1.0, lam=3)
    g1 = abs(eval_tricomi(p, 1e-3, 1.0) - eval_tricomi(p, 1e-3, -1.0))
    g2 = abs(eval_tricomi(p, 8e-3, 2.0) - eval_tricomi(p, 8e-3, -2.0))
    assert g2 == pytest.approx(32.0 * g1, rel=1e-6)


def test_grazing_limit_stays_finite():
    # x^c |tau|^c overflowed at x = 1e-200 and gave NaN at x = 1e-320
    p = TricomiParams(A=1.0, lam=3)
    xs = [1e-30, 1e-100, 1e-200, 1e-300, 1e-320]
    for x in xs:
        for v in (1.0, -1.0):
            assert abs(eval_tricomi(p, x, v) + 3.0) <= 1e-12, (x, v)
    batch = eval_tricomi(p, np.array(xs)[:, None], np.array([1.0, -1.0]))
    assert batch.shape == (5, 2)
    assert np.all(np.abs(batch + 3.0) <= 1e-12)
    for v, want in T13_GRAZING.items():
        assert abs(eval_tricomi(p, 1e-300, v) - want) <= 4 * np.spacing(3.0)


@pytest.mark.parametrize("x, v", [(np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0), (1.0, np.inf),
                                  (0.0, -np.inf), ([0.5, np.nan], 1.0)])
def test_eval_rejects_non_finite(x, v):
    with pytest.raises(ValueError):
        eval_tricomi(TricomiParams(A=1.0, lam=3), x, v)


def test_batch_matches_one_point_calls(monkeypatch):
    # x = 0 rows, both signs of tau, both sides of the regime switch at
    # |tau| = 17 and far into the asymptotic regime in one batch; the
    # one-point calls evaluate afresh, not from the kept batch
    monkeypatch.setattr(tricomi, "_last", None)
    p = TricomiParams(A=1.0, lam=3)
    xs = np.array([0.0, 1e-3, 3e-3, 0.01, 0.3, 1.7])
    vs = np.array([-1.4, -1.0, -0.2, 0.0, 0.45, 1.0, 1.3])
    batch = eval_tricomi(p, xs[:, None], vs[None, :])
    assert batch.shape == (6, 7)
    taus = set()
    for i, x in enumerate(xs):
        for j, v in enumerate(vs):
            one = _one_lane_fresh(p, float(x), float(v))
            tau = -v ** 3 / (9.0 * x) if x > 0 else 0.0
            taus.add(np.sign(tau) * min(abs(tau) // 20, 2))
            assert abs(batch[i, j] - one) <= 1e-14 * abs(one), (x, v)
    assert {-2, -1, 0, 1, 2} <= taus
    for got, x, v in zip(pde_residual(p, xs[1:], vs[1:6]), xs[1:], vs[1:6]):
        assert got == pytest.approx(pde_residual(p, float(x), float(v)), rel=1e-14, abs=1e-14)
    np.testing.assert_allclose(cusp_ratio(p, xs[1:]), [cusp_ratio(p, float(x)) for x in xs[1:]],
                               rtol=1e-14)


def test_eval_rejects_negative_x():
    with pytest.raises(ValueError):
        eval_tricomi(TricomiParams(A=1.0, lam=3), -0.1, 1.0)


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda p: boundary_trace(p, np.nan), "v must be finite", id="trace-nan"),
    pytest.param(lambda p: boundary_trace(p, np.array([1.0, -np.inf])), "v must be finite",
                 id="trace-lane-inf"),
    pytest.param(lambda p: cusp_ratio(p, 0.0), "x > 0", id="cusp-x-0"),
    pytest.param(lambda p: c41_seminorm_probe(p, origin(1), 0.0), "0 < r <= 1", id="c41-r-0"),
    pytest.param(lambda p: c41_seminorm_probe(p, origin(1), 2.0), "0 < r <= 1", id="c41-r-2"),
    pytest.param(lambda p: c41_seminorm_probe(p, KineticPoint(0.0, -0.1, 0.0), 0.5),
                 "closed half space", id="c41-x-negative"),
])
def test_bad_trace_and_step_raise_value_error(call, match):
    with pytest.raises(ValueError, match=match):
        call(TricomiParams(A=1.0, lam=3))


def test_lambda9_basics():
    p = TricomiParams(A=1.0, lam=9)
    # 11-homogeneous
    base = eval_tricomi(p, 0.5, 0.9)
    assert eval_tricomi(p, 8 * 0.5, 2 * 0.9) == pytest.approx(2.0 ** 11 * base, rel=1e-10)
    # residual -(10)(11) v^9
    got = pde_residual(p, 0.8, 1.1) / 1.1 ** 9
    assert got == pytest.approx(-110.0, rel=1e-3)
    # even boundary trace
    assert eval_tricomi(p, 0.0, 1.3) == eval_tricomi(p, 0.0, -1.3)


def test_lambda15_golden_past_the_regime_switch():
    # |tau| = 24 is summed from the Poincare series, whose first terms grow
    # for lam = 15 before they shrink
    p = TricomiParams(A=1.0, lam=15)
    for v, want in T115_GOLDEN.items():
        assert abs(eval_tricomi(p, 1e-3, v) - want) <= 1e-13 * abs(want), v


def test_c41_seminorm_probe_bounded():
    p = TricomiParams(A=1.0, lam=3)
    vals = []
    for _ in range(20):
        z = KineticPoint(RNG.uniform(-0.5, 0.5), RNG.uniform(0.0, 1.0), RNG.uniform(-1, 1))
        vals.append(c41_seminorm_probe(p, z, 0.5, samples=240))
    # oracle run recorded max ~3.0e3 at A = 1 and ~4.7e3 at A = 0.5 (the
    # constant depends on the A-range through the A^{-5/2} scale of T)
    bound = 2.0e4
    assert all(np.isfinite(v) for v in vals)
    assert max(vals) <= bound
    for A in (0.5, 2.0):
        z = KineticPoint(0.0, 0.2, 0.1)
        assert c41_seminorm_probe(TricomiParams(A=A, lam=3), z, 0.5, samples=240) <= bound


def test_c41_probe_zero_for_polynomial():
    # the analogous degree-5 fit of the pure monomial v^5 is exact
    from kinreg.polynomials import full_space
    from kinreg.probe import polyfit_on_cylinder, sample_cylinder
    from kinreg.geometry import kinetic_distance

    f = lambda z: z.v[0] ** 5
    z0 = KineticPoint(0.0, 0.3, 0.0)
    fit = polyfit_on_cylinder(f, z0, 0.5, full_space(5, 1), seed=3)
    rows = sample_cylinder(z0, 0.5, 200, seed=5)
    worst = 0.0
    for z, fz in zip(map(lambda row: KineticPoint(*row), rows), fit.values(rows)):
        d = kinetic_distance(z, z0, tol=1e-10)
        if d < 1e-6:
            continue
        worst = max(worst, abs(f(z) - fz) / d ** 5)
    assert worst <= 1e-9


def test_as_field_wraps_axis():
    p = TricomiParams(A=1.0, lam=3)
    f = as_field(p)
    z = KineticPoint(0.3, 0.7, -0.4)
    assert f(z) == eval_tricomi(p, 0.7, -0.4)
    z2 = KineticPoint(0.1, 0.0, 1.2)
    np.testing.assert_allclose(f.values(np.array([(0.3, 0.7, -0.4), (0.1, 0.0, 1.2)])),
                               [f(z), f(z2)], rtol=1e-14)


# The last array evaluation answers later calls for the same lanes. That is
# only sound because a lane's T does not depend on the other lanes of its
# call: with the kept evaluation dropped first, each one-lane call must give
# the bits of its lane in the array call.

def _one_lane_fresh(p, x, v):
    tricomi._last = None
    return eval_tricomi(p, x, v)


def _assert_lanes_match_one_lane_calls(p, xs, vs):
    batch = eval_tricomi(p, xs, vs)
    for x, v, t in zip(xs.tolist(), vs.tolist(), batch.tolist()):
        assert _one_lane_fresh(p, x, v) == t, (p, x, v)


@pytest.mark.parametrize("z0, radii, dim", [
    (origin(1), (1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125), space_dim(full_space(5, 1))),
    (origin(1), (0.5, 0.25, 0.125), space_dim(tricomi_augmented_space(1.0))),
    (KineticPoint(0.0, 0.3, 0.2), (0.5,), space_dim(full_space(4, 1))),
])
def test_one_lane_calls_equal_their_lane_on_sample_sets(monkeypatch, z0, radii, dim):
    monkeypatch.setattr(tricomi, "_last", None)
    p = TricomiParams(A=1.0, lam=3)
    for r in radii:
        pts = sample_cylinder(z0, r, 20 * dim, seed=3)
        _assert_lanes_match_one_lane_calls(p, pts[:, 1], pts[:, 2])


@pytest.mark.parametrize("lam", [3, 9])
def test_one_lane_calls_equal_their_lane_on_random_lanes(monkeypatch, lam):
    monkeypatch.setattr(tricomi, "_last", None)
    rng = np.random.RandomState(lam)
    A = 0.7
    x = 10.0 ** rng.uniform(-12.0, 1.0, 800)
    tau = rng.choice((-1.0, 1.0), 800) * 10.0 ** rng.uniform(-6.0, 13.0, 800)
    v = np.cbrt(-9.0 * A * x * tau)
    # x = 0 lanes (the boundary trace) and both zeros of v
    x = np.concatenate([x, [0.0, 0.0, 0.0, 0.3, 0.3, 1e-12]])
    v = np.concatenate([v, [0.8, 0.0, -0.0, 0.0, -0.0, -0.0]])
    _assert_lanes_match_one_lane_calls(TricomiParams(A=A, lam=lam), x, v)


@pytest.fixture
def evaluations(monkeypatch):
    """Drop the kept evaluation and count the calls that evaluate T."""
    monkeypatch.setattr(tricomi, "_last", None)
    calls = []
    evaluate = tricomi._evaluate

    def counted(p, xf, vf):
        calls.append(xf.size)
        return evaluate(p, xf, vf)

    monkeypatch.setattr(tricomi, "_evaluate", counted)
    return calls


XS = np.array([0.0, 1e-9, 0.02, 0.3, 1.7])
VS = np.array([0.5, -0.3, 0.0, 1.1, -1.4])


@pytest.mark.parametrize("x, v", [(np.nan, 0.5), (0.3, np.inf), (-0.3, 1.1), (-1e-300, 0.5)])
def test_kept_evaluation_never_answers_bad_lanes(evaluations, x, v):
    p = TricomiParams(A=1.0, lam=3)
    eval_tricomi(p, XS, VS)
    with pytest.raises(ValueError):
        eval_tricomi(p, x, v)
    with pytest.raises(ValueError):
        eval_tricomi(p, np.where(XS == 0.3, x, XS), np.where(XS == 0.3, v, VS))


@pytest.mark.parametrize("q", [TricomiParams(A=2.0, lam=3), TricomiParams(A=1.0, lam=9)])
def test_other_params_miss_and_get_their_own_value(evaluations, q):
    p = TricomiParams(A=1.0, lam=3)
    eval_tricomi(p, XS, VS)
    got_one, got_all = eval_tricomi(q, 0.3, 1.1), eval_tricomi(q, XS, VS)
    assert evaluations == [5, 1, 5]
    assert got_one == _one_lane_fresh(q, 0.3, 1.1) != eval_tricomi(p, 0.3, 1.1)
    assert np.array_equal(got_all, [_one_lane_fresh(q, x, v) for x, v in zip(XS, VS)])


def test_hits_hand_out_copies(evaluations):
    p = TricomiParams(A=1.0, lam=3)
    xs, vs = XS.copy(), VS.copy()
    first = eval_tricomi(p, xs, vs)
    want = first.copy()
    first[:] = 0.0
    again = eval_tricomi(p, xs, vs)
    assert np.array_equal(again, want)
    again[:] = 7.0
    one = eval_tricomi(p, xs[3:4], vs[3:4])
    one[0] = 7.0
    assert eval_tricomi(p, float(xs[3]), float(vs[3])) == want[3]
    assert np.array_equal(eval_tricomi(p, xs, vs), want)
    assert evaluations == [5]
    # the kept bits are a copy of the input too: changed input misses
    xs[3] = 0.4
    assert eval_tricomi(p, xs, vs)[3] == _one_lane_fresh(p, 0.4, vs[3])
    assert evaluations == [5, 5, 1]


def test_second_array_call_replaces_the_first(evaluations):
    p = TricomiParams(A=1.0, lam=3)
    first = eval_tricomi(p, XS, VS)
    second = eval_tricomi(p, XS + 0.5, VS)
    assert eval_tricomi(p, float(XS[4]) + 0.5, float(VS[4])) == second[4]
    assert evaluations == [5, 5]
    for i, (x, v) in enumerate(zip(XS.tolist(), VS.tolist())):
        assert eval_tricomi(p, x, v) == first[i]
    assert evaluations == [5, 5] + [1] * 5
    assert np.array_equal(eval_tricomi(p, XS, VS), first)


def test_zero_signs_are_different_lanes(evaluations):
    p = TricomiParams(A=1.0, lam=3)
    t = eval_tricomi(p, XS, VS)
    assert eval_tricomi(p, 0.02, 0.0) == t[2]
    assert evaluations == [5]
    assert eval_tricomi(p, 0.02, -0.0) == _one_lane_fresh(p, 0.02, -0.0)
    assert evaluations == [5, 1, 1]


def test_hits_keep_the_result_type(evaluations):
    p = TricomiParams(A=1.0, lam=3)
    t = eval_tricomi(p, XS[:, None], VS[:, None])
    assert t.shape == (5, 1)
    scalar = eval_tricomi(p, 0.3, 1.1)
    assert type(scalar) is float and scalar == t[3, 0]
    lane = eval_tricomi(p, np.array([0.3]), 1.1)
    assert isinstance(lane, np.ndarray) and lane.shape == (1,) and lane[0] == t[3, 0]
    assert eval_tricomi(p, XS, VS).shape == (5,)
    assert evaluations == [5]
