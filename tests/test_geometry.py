import numpy as np
import pytest

from kinreg.geometry import (
    CylinderSpec,
    HalfSpaceDomain,
    KineticPoint,
    Sided,
    comparability_proxy,
    compose,
    cylinder_contains,
    frame_map,
    frame_unmap,
    inverse,
    kinetic_distance,
    origin,
    reflect_velocity,
    reflected_set_membership,
    scale,
)

RNG = np.random.RandomState(20240817)


def rand_point(n=1, scale_=2.0):
    return KineticPoint(RNG.uniform(-scale_, scale_),
                        RNG.uniform(-scale_, scale_, size=n),
                        RNG.uniform(-scale_, scale_, size=n))


def close(a: KineticPoint, b: KineticPoint, tol=1e-12):
    gap = abs(a.t - b.t) + sum(abs(p - q) for p, q in zip(a.x, b.x)) \
        + sum(abs(p - q) for p, q in zip(a.v, b.v))
    return gap <= tol * (1.0 + a.norm() + b.norm())


def test_compose_identity():
    z = rand_point()
    assert close(compose(origin(1), z), z)
    assert close(compose(z, origin(1)), z)


def test_point_and_cylinder_reject_bad_input():
    with pytest.raises(ValueError, match="x has dim 2 but v has dim 1"):
        KineticPoint(0.0, (1.0, 2.0), (0.0,))
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        KineticPoint(0.0, (), ())
    with pytest.raises(ValueError, match="radius must be positive"):
        CylinderSpec(origin(1), 0.0)


def test_compose_worked_example():
    out = compose(KineticPoint(1, 2, 3), KineticPoint(1, 1, 1))
    assert out.t == 2 and out.x == (6.0,) and out.v == (4.0,)


def test_compose_not_commutative():
    a, b = KineticPoint(1, 0, 1), KineticPoint(1, 0, 2)
    assert not close(compose(a, b), compose(b, a), tol=1e-15)


def test_compose_dim_mismatch():
    with pytest.raises(ValueError):
        compose(KineticPoint(0, (1, 2), (0, 0)), KineticPoint(0, 1, 1))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_group_laws_randomized(n):
    for _ in range(400):
        a, b, c = rand_point(n), rand_point(n), rand_point(n)
        assert close(compose(compose(a, b), c), compose(a, compose(b, c)))
        assert close(compose(a, inverse(a)), origin(n))
        assert close(compose(inverse(a), a), origin(n))


def test_inverse_worked_example():
    out = inverse(KineticPoint(1, 1, 1))
    assert out.t == -1 and out.x == (0.0,) and out.v == (-1.0,)


def test_scale_properties():
    z = KineticPoint(1, 1, 1)
    assert close(scale(1.0, z), z)
    s = scale(2.0, z)
    assert (s.t, s.x[0], s.v[0]) == (4.0, 8.0, 2.0)
    for _ in range(100):
        r, s_ = RNG.uniform(0.1, 3.0, size=2)
        w = rand_point()
        assert close(scale(r, scale(s_, w)), scale(r * s_, w))
    with pytest.raises(ValueError):
        scale(0.0, z)


def test_frame_map_worked_example():
    out = frame_map(KineticPoint(1, 2, 3), 2.0, KineticPoint(1, 1, 1))
    assert (out.t, out.x[0], out.v[0]) == (5.0, 22.0, 5.0)
    z0 = rand_point()
    assert close(frame_map(z0, 1.0, origin(1)), z0)


def test_frame_unmap_inverts():
    for _ in range(100):
        z0, z = rand_point(2), rand_point(2)
        r = RNG.uniform(0.1, 4.0)
        assert close(frame_unmap(z0, r, frame_map(z0, r, z)), z)


def test_cylinder_frame_equivalence():
    # z in Q_{R/r}(0) iff frame_map(z0, r, z) in Q_R(z0)
    for _ in range(300):
        z0, z = rand_point(), rand_point()
        r, R = RNG.uniform(0.2, 2.0), RNG.uniform(0.2, 2.0)
        inner = cylinder_contains(CylinderSpec(origin(1), R / r), z)
        outer = cylinder_contains(CylinderSpec(z0, R), frame_map(z0, r, z))
        assert inner == outer


def test_cylinder_membership_examples():
    c = CylinderSpec(origin(1), 1.0)
    assert cylinder_contains(c, origin(1))
    assert cylinder_contains(c, KineticPoint(0.5, 0.9, 0.5))
    assert not cylinder_contains(c, KineticPoint(0.5, 1.1, 0.5))


def test_one_sided_cylinder():
    c = CylinderSpec(origin(1), 1.0, Sided.ONE_SIDED_PAST)
    assert cylinder_contains(c, KineticPoint(0.0, 0, 0))
    assert cylinder_contains(c, KineticPoint(-0.5, 0, 0))
    assert not cylinder_contains(c, KineticPoint(0.5, 0, 0))


def test_membership_frame_invariance():
    for _ in range(200):
        z0, zc, z = rand_point(), rand_point(), rand_point()
        r, R = RNG.uniform(0.3, 1.5), RNG.uniform(0.3, 1.5)
        zc0 = KineticPoint(0.0, zc.x, zc.v)
        before = cylinder_contains(CylinderSpec(zc0, R / r), z)
        after = cylinder_contains(CylinderSpec(frame_map(z0, r, zc0), R), frame_map(z0, r, z))
        assert before == after


def test_distance_worked_examples():
    z = rand_point()
    assert kinetic_distance(z, z) == 0.0
    assert abs(kinetic_distance(KineticPoint(0, 0, 0), KineticPoint(0, 0, 1)) - 0.5) <= 1e-9
    assert abs(kinetic_distance(KineticPoint(0, 0, 0), KineticPoint(1, 0, 0)) - 1.0) <= 1e-9


def test_distance_symmetry_and_triangle():
    for _ in range(60):
        z1, z2, z3 = rand_point(), rand_point(), rand_point()
        d12 = kinetic_distance(z1, z2)
        d21 = kinetic_distance(z2, z1)
        assert abs(d12 - d21) <= 2e-9
        d13 = kinetic_distance(z1, z3)
        d23 = kinetic_distance(z2, z3)
        assert d12 <= d13 + d23 + 3e-9


@pytest.mark.parametrize("n", [1, 2])
def test_distance_scaling_homogeneity(n):
    tol = 1e-9
    for _ in range(100):
        z1, z2 = rand_point(n), rand_point(n)
        r = RNG.uniform(0.1, 10.0)
        d = kinetic_distance(z1, z2, tol)
        ds = kinetic_distance(scale(r, z1), scale(r, z2), tol)
        assert abs(ds - r * d) <= 2 * tol * (1 + r)


@pytest.mark.parametrize("n", [1, 2])
def test_distance_left_invariance(n):
    tol = 1e-9
    for _ in range(100):
        z, z1, z2 = rand_point(n), rand_point(n), rand_point(n)
        d = kinetic_distance(z1, z2, tol)
        dl = kinetic_distance(compose(z, z1), compose(z, z2), tol)
        assert abs(dl - d) <= 2 * tol


def test_ball_cylinder_sandwich():
    for _ in range(300):
        z1, z2 = rand_point(), rand_point()
        r = RNG.uniform(0.2, 2.0)
        d = kinetic_distance(z1, z2)
        if cylinder_contains(CylinderSpec(z2, r), z1):
            assert d <= r + 1e-9
        if d < r - 1e-9:
            assert cylinder_contains(CylinderSpec(z2, 2 * r), z1)


def test_inclusion_lemma():
    # every sample of Q_{Rr}(z0 + S_r z1) lies in Q_{2Rr(1+|z1|)}(z0), t1 = 0
    for _ in range(100):
        z0 = rand_point()
        z1 = KineticPoint(0.0, RNG.uniform(-2, 2), RNG.uniform(-2, 2))
        r, R = RNG.uniform(0.05, 1.0), RNG.uniform(1.0, 3.0)
        s = scale(r, z1)
        center = KineticPoint(z0.t + s.t, tuple(a + b for a, b in zip(z0.x, s.x)),
                              tuple(a + b for a, b in zip(z0.v, s.v)))
        inner = CylinderSpec(center, R * r)
        outer = CylinderSpec(z0, 2 * R * r * (1 + z1.norm()))
        for _ in range(10):
            dt = RNG.uniform(-1, 1) * (R * r) ** 2
            dx = RNG.uniform(-1, 1) * (R * r) ** 3
            dv = RNG.uniform(-1, 1) * (R * r)
            z = KineticPoint(center.t + dt, center.x[0] + dx + dt * center.v[0], center.v[0] + dv)
            assert cylinder_contains(inner, z)
            assert cylinder_contains(outer, z)


@pytest.mark.parametrize("n", [1, 2])
def test_comparability(n):
    for _ in range(200):
        z1, z2 = rand_point(n), rand_point(n)
        d = kinetic_distance(z1, z2)
        m = comparability_proxy(z1, z2)
        if d > 1e-9 and m > 1e-9:
            assert m / d <= 4.0
            assert d / m <= 4.0


def test_reflect_velocity():
    dom = HalfSpaceDomain(normal_axis=1)
    z = KineticPoint(0.0, (0.0, 0.0), (1.0, 2.0))
    rz = reflect_velocity(z, dom)
    assert rz.v == (1.0, -2.0)
    z0 = KineticPoint(0.3, (1.0, 0.5), (1.0, 0.0))
    assert reflect_velocity(z0, dom).v == z0.v  # grazing: unchanged
    for _ in range(50):
        w = rand_point(2)
        assert close(reflect_velocity(reflect_velocity(w, dom), dom), w)


def test_reflected_set_membership():
    dom = HalfSpaceDomain(normal_axis=0)
    c = CylinderSpec(KineticPoint(0.0, 0.0, 0.5), 0.4)
    inside = KineticPoint(0.0, 0.0, 0.5)
    assert reflected_set_membership(c, dom, inside)
    flipped = KineticPoint(0.0, 0.0, -0.5)
    assert not cylinder_contains(c, flipped)
    assert reflected_set_membership(c, dom, flipped)


def test_grazing_center_reflection_symmetric():
    # center on gamma_0: the reflected cylinder equals the cylinder itself
    dom = HalfSpaceDomain(normal_axis=0)
    c = CylinderSpec(KineticPoint(0.2, 0.0, 0.0), 0.7)
    for _ in range(200):
        z = rand_point()
        assert cylinder_contains(c, z) == cylinder_contains(c, reflect_velocity(z, dom))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_group_ops_on_rows_match_points(n):
    # an (N, 1 + 2n) array of rows (t, x..., v...) is a batch of points
    rng = np.random.RandomState(70 + n)   # own stream, so other tests' draws do not shift
    A, B = rng.uniform(-2.0, 2.0, size=(2, 25, 1 + 2 * n))
    P, Q = ([KineticPoint(z[0], z[1:1 + n], z[1 + n:]) for z in M] for M in (A, B))
    z0, r = Q[0], 0.7

    def rows(zs):
        return np.array([(z.t, *z.x, *z.v) for z in zs])

    np.testing.assert_array_equal(compose(A, B), rows(map(compose, P, Q)))
    np.testing.assert_array_equal(compose(z0, A), rows(compose(z0, p) for p in P))
    np.testing.assert_array_equal(compose(A, z0), rows(compose(p, z0) for p in P))
    np.testing.assert_array_equal(inverse(A), rows(map(inverse, P)))
    np.testing.assert_array_equal(scale(r, A), rows(scale(r, p) for p in P))
    np.testing.assert_array_equal(frame_map(z0, r, A), rows(frame_map(z0, r, p) for p in P))
    np.testing.assert_array_equal(frame_unmap(z0, r, A), rows(frame_unmap(z0, r, p) for p in P))


def test_group_ops_reject_non_finite_and_bad_rows():
    z = KineticPoint(0.1, 0.2, 0.3)
    good, bad = np.array([[0.1, 0.2, 0.3]]), np.array([[0.1, 0.2, 0.3], [0.0, np.nan, 1.0]])
    for r in (np.nan, np.inf, 0.0, -1.0):
        for w in (z, good):
            with pytest.raises(ValueError):
                scale(r, w)
            with pytest.raises(ValueError):
                frame_map(z, r, w)
    for op in (lambda w: compose(z, w), lambda w: compose(w, z), inverse,
               lambda w: scale(2.0, w), lambda w: frame_map(z, 0.5, w),
               lambda w: frame_unmap(z, 0.5, w)):
        with pytest.raises(ValueError):
            op(bad)
    for r, w in ((1e200, z), (1e200, good), (1e100, np.array([[1e300, 0.0, 0.0]]))):
        with np.errstate(over="ignore"), pytest.raises(ValueError):
            scale(r, w)                     # finite input, overflowing result
    with pytest.raises(ValueError):
        compose(good, np.zeros((1, 5)))     # n = 1 against n = 2
    with pytest.raises(ValueError):
        inverse(np.zeros((2, 4)))           # not (t, x..., v...)


# The bisection kinetic_distance ran for n = 1 before the closed form:
# halve [lo, hi] until it is tol wide, deciding each level by an interval
# test in the slide velocity w. Kept as the reference the closed form must
# match within 2 * tol, run on all lanes at once: rows z1, z2 of (t, x, v)
# and tol a number or one per lane. Each lane runs the steps of the
# one-point bisection, except that numpy's power may round differently
# from Python's in the last bit, which moves the result far less than tol.

def _ref_feasible_1d(r, z1, z2):
    dt = z1[:, 0] - z2[:, 0]
    dx = z1[:, 1] - z2[:, 1]
    lo = np.maximum(z1[:, 2] - r, z2[:, 2] - r)
    hi = np.minimum(z1[:, 2] + r, z2[:, 2] + r)
    # |dx - dt*w| <= r^3 is an interval in w (where dt != 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        wlo = (dx - r ** 3) / dt
        whi = (dx + r ** 3) / dt
    slide = np.maximum(lo, np.minimum(wlo, whi)) <= np.minimum(hi, np.maximum(wlo, whi))
    return (np.abs(dt) <= r * r) & (lo <= hi) & np.where(dt == 0.0, np.abs(dx) <= r ** 3, slide)


def _ref_distance_1d(z1, z2, tol):
    dt = z1[:, 0] - z2[:, 0]
    dv = np.abs(z1[:, 2] - z2[:, 2])
    dxv2 = np.abs(z1[:, 1] - z2[:, 1] - dt * z2[:, 2])
    hi = np.maximum(np.maximum(np.sqrt(np.abs(dt)), dxv2 ** (1.0 / 3.0)), dv) + tol  # w = v2 is feasible
    lo = np.maximum(np.sqrt(np.abs(dt)), dv / 2.0)
    at_lo = (lo > 0) & _ref_feasible_1d(lo, z1, z2)
    while True:
        open_ = ~at_lo & (hi - lo > tol)
        if not open_.any():
            break
        mid = 0.5 * (lo + hi)
        feasible = _ref_feasible_1d(mid, z1, z2)
        hi = np.where(open_ & feasible, mid, hi)
        lo = np.where(open_ & ~feasible, mid, lo)
    d = np.where(at_lo, lo, 0.5 * (lo + hi))
    return np.where((z1 == z2).all(axis=1), 0.0, d)


def _distance_corpus(count=20_000):
    """Row pairs (t, x, v) in [-2, 2]: half with dt < 0, and tenths with
    dt = 0, equal points, equal v, and equal t and x."""
    rng = np.random.default_rng(1414)
    a, b = rng.uniform(-2.0, 2.0, size=(2, count, 3))
    k = count // 10
    b[:k, 0] = a[:k, 0]
    b[k:2 * k] = a[k:2 * k]
    b[2 * k:3 * k, 2] = a[2 * k:3 * k, 2]
    b[3 * k:4 * k, :2] = a[3 * k:4 * k, :2]
    return a, b


def _points(rows):
    return [KineticPoint(*row) for row in rows.tolist()]


def test_closed_form_distance_matches_bisection():
    tol = 1e-13
    a, b = _distance_corpus()
    d = kinetic_distance(a, b)
    assert d.shape == (len(a),)
    ref = _ref_distance_1d(a, b, tol)
    assert np.max(np.abs(d - ref)) <= 2 * tol
    k = len(a) // 10
    assert np.all(d[k:2 * k] == 0.0)
    # every lane is the one-lane call, bit for bit, in either argument order
    one = [kinetic_distance(p, q) for p, q in zip(_points(a), _points(b))]
    assert all(type(x) is float for x in one)
    assert np.array_equal(d, one)
    assert np.array_equal(kinetic_distance(b, a), d)


def test_closed_form_distance_over_magnitudes():
    # S_m maps a pair to coordinates from about 1e-300 to 1e300, where q^2
    # and |dt|^3 underflow or overflow; d scales by m
    tol = 1e-13
    a, b = _distance_corpus(2000)
    ref = _ref_distance_1d(a, b, tol)
    rng = np.random.default_rng(1415)
    pow2 = np.ldexp(1.0, rng.integers(-330, 331, len(a)))
    anym = 10.0 ** rng.uniform(-100.0, 100.0, len(a))
    for m in (pow2, anym):
        s = np.column_stack([m * m, m * m * m, m])
        d = kinetic_distance(a * s, b * s)
        assert np.all(np.abs(d - m * ref) <= 2 * tol * m)
        one = [kinetic_distance(p, q) for p, q in zip(_points(a * s), _points(b * s))]
        assert np.array_equal(d, one)
    # a power of 2 scales every step exactly
    s = np.column_stack([pow2 * pow2, pow2 * pow2 * pow2, pow2])
    assert np.array_equal(kinetic_distance(a * s, b * s), pow2 * kinetic_distance(a, b))
    # q = 1e200 squares past the float range: the root of r^3 + r = 1e200
    d = kinetic_distance(KineticPoint(1.0, 1e200, 0.0), origin(1))
    assert abs(d - np.cbrt(1e200)) <= 4e-16 * d
    assert kinetic_distance(KineticPoint(0.0, 1e-300, 0.0), origin(1)) == pytest.approx(1e-100, rel=1e-15)


def test_distance_where_q_overflows():
    # |dt| max(v) past the float range while d_ell is finite. Where
    # v1 != v2, |v1 - v2|/2 decides, the value the bisection gave
    z1, z2 = KineticPoint(1e200, 0.0, 1e200), KineticPoint(-1e200, 0.0, 0.0)
    assert kinetic_distance(z1, z2) == 5e199
    rng = np.random.default_rng(1416)
    a, b = rng.uniform(-2.0, 2.0, size=(2, 200, 3)) * [1e200, 1e300, 1e200]
    b[:100, 2] = a[:100, 2]
    d = kinetic_distance(a, b)
    assert np.array_equal(d[100:], 0.5 * np.abs(a[100:, 2] - b[100:, 2]))
    # where v1 = v2, rho decides: the rows scaled by S_l, l = 2^-200, give
    # the reference bisection's d_ell times l
    lam = 2.0 ** -200
    s = np.array([lam * lam, lam ** 3, lam])
    ds = kinetic_distance(a[:100] * s, b[:100] * s)
    assert np.array_equal(d[:100] * lam, ds)
    ref = _ref_distance_1d(a[:100] * s, b[:100] * s, 1e-13 * ds)
    assert np.all(np.abs(ds - ref) <= 2e-13 * ds)
    assert np.all(d[:100] > np.sqrt(np.abs(a[:100, 0] - b[:100, 0])))


def test_distance_overflow_raises():
    # t1 - t2 overflows: a ValueError, never a wrong number
    z1, z2 = KineticPoint(1e308, 0.0, 0.0), KineticPoint(-1e308, 0.0, 0.0)
    with pytest.raises(ValueError, match="overflows"):
        kinetic_distance(z1, z2)
    with pytest.raises(ValueError, match="overflows"):
        kinetic_distance(np.array([[0.0, 0.0, 0.0], (z1.t, *z1.x, *z1.v)]), z2)


@pytest.mark.parametrize("n", [1, 2])
def test_distance_rejects_bad_tol(n):
    z1, z2 = rand_point(n), rand_point(n)
    for tol in (np.nan, np.inf, -np.inf, 0.0, -1e-9):
        with pytest.raises(ValueError, match="tol"):
            kinetic_distance(z1, z2, tol)


def test_distance_on_rows_matches_points():
    rng = np.random.RandomState(91)
    A, B = rng.uniform(-2.0, 2.0, size=(2, 12, 3))
    P, Q = ([KineticPoint(*z) for z in M] for M in (A, B))
    assert np.array_equal(kinetic_distance(A, B), [kinetic_distance(p, q) for p, q in zip(P, Q)])
    assert np.array_equal(kinetic_distance(A, Q[0]), [kinetic_distance(p, Q[0]) for p in P])
    grid = kinetic_distance(A[:, None, :], B[None, :4, :])
    assert grid.shape == (12, 4)
    assert np.array_equal(grid[:, 1], kinetic_distance(A, B[1]))
    # rows for n = 1 only; n >= 2 takes KineticPoints
    for bad in (np.zeros((12, 5)), rand_point(2)):
        with pytest.raises(ValueError):
            kinetic_distance(A, bad)
    with pytest.raises(ValueError, match="n = 1"):
        kinetic_distance(np.zeros((3, 5)), np.ones((3, 5)))
    with pytest.raises(ValueError, match="dimension mismatch"):
        kinetic_distance(P[0], KineticPoint(0.0, (1.0, 2.0), (0.0, 0.0)))


@pytest.mark.parametrize("n", [2, 3])
def test_distance_nd_closed_forms(n):
    # equal times, equal points and equal velocities have closed forms in
    # any dimension; random pairs never reach the branches that take them
    tol = 1e-9
    z1 = KineticPoint(0.3, (0.5, -0.2), (0.1, 0.4))
    z2 = KineticPoint(0.3, (0.1, 0.1), (-0.3, 0.2))
    assert abs(kinetic_distance(z1, z2, tol) - 0.5 ** (1.0 / 3.0)) <= tol
    rng = np.random.RandomState(37)
    for s in (1.0, 30.0):   # at s = 30 the distances pass 10
        for _ in range(6):
            t, t2 = rng.uniform(-s, s, 2)
            x1, x2, v1, v2 = rng.uniform(-s, s, size=(4, n))
            a, b = KineticPoint(t, x1, v1), KineticPoint(t, x2, v2)
            want = max(np.linalg.norm(x1 - x2) ** (1.0 / 3.0), np.linalg.norm(v1 - v2) / 2.0)
            assert abs(kinetic_distance(a, b, tol) - want) <= tol
            assert kinetic_distance(a, a, tol) == 0.0
            # equal velocities w: the n = 1 distance of (dt, |dx - dt w|, 0) from 0
            a, b = KineticPoint(t, x1, v1), KineticPoint(t2, x2, v1)
            dt = t - t2
            want = kinetic_distance(KineticPoint(dt, np.linalg.norm(x1 - x2 - dt * v1), 0.0), origin(1))
            assert abs(kinetic_distance(a, b, tol) - want) <= tol
