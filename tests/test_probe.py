import numpy as np
import pytest

from kinreg.geometry import KineticPoint, frame_map, frame_unmap, origin
from kinreg.polynomials import (
    KineticPolynomial,
    TricomiMarker,
    full_space,
    mono,
    space_basis,
    tricomi_augmented_space,
)
from kinreg.probe import (
    EXACT_FIT_SENTINEL,
    ExponentFit,
    best_approx_error,
    exponent_fit,
    field_values,
    gamma0_tricomi_coefficient,
    phase_field,
    polyfit_on_cylinder,
    sample_cylinder,
)
from kinreg.solver import BoundaryCondition, HalfStripGrid, solve_stationary
from kinreg.tricomi import TricomiParams, as_field, eval_tricomi

TP = TricomiParams(A=1.0, lam=3)
T_FIELD = as_field(TP)
Z0 = origin(1)
RADII = [1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125]


def test_sampler_deterministic_and_in_domain():
    a = [KineticPoint(*row) for row in sample_cylinder(Z0, 0.5, 50, seed=3)]
    b = [KineticPoint(*row) for row in sample_cylinder(Z0, 0.5, 50, seed=3)]
    assert all(p == q for p, q in zip(a, b))
    for z in a:
        assert z.x[0] > 0.0
        assert abs(z.t) < 0.25 and abs(z.v[0]) < 0.5


def _scalar_sampler(z0, r, count, seed):
    """The sampler as it was written point by point, as the reference."""
    def halton(index, base):
        out, f = 0.0, 1.0
        while index > 0:
            f /= base
            out += f * (index % base)
            index //= base
        return out

    pts, idx = [], 1 + 1000 * seed
    while len(pts) < count:
        t, x, v = (2.0 * halton(idx, b) - 1.0 for b in (2, 3, 5))
        idx += 1
        st = r * r * t                   # z0 o S_r (t, x, v), in the group law's order
        z = (z0.t + st, r ** 3 * x + z0.x[0] + st * z0.v[0], r * v + z0.v[0])
        if z[1] > 0.0:
            pts.append(z)
    return np.array(pts)


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("z0", [Z0, KineticPoint(0.3, 0.1, -0.2)], ids=["origin", "interior"])
def test_sampler_matches_scalar_reference(z0, seed):
    got = sample_cylinder(z0, 0.5, 150, seed=seed)
    np.testing.assert_array_equal(got, _scalar_sampler(z0, 0.5, 150, seed))
    with pytest.raises(RuntimeError, match="starved"):   # the cylinder misses x > 0
        sample_cylinder(KineticPoint(0.0, -5.0, 0.0), 0.5, 3, seed=seed)


def test_sampler_rejects_bad_count():
    for count in (0, -3, 2.5, "8"):
        with pytest.raises(ValueError, match="count"):
            sample_cylinder(Z0, 0.5, count)
    assert sample_cylinder(Z0, 0.5, np.int64(3)).shape == (3, 3)
    with pytest.raises(ValueError, match="n = 1"):
        sample_cylinder(KineticPoint(0.0, (0.0, 0.0), (0.0, 0.0)), 0.5, 3)


def test_sampler_rejects_negative_seed():
    # the Halton digits of a negative index never end: run the call in a
    # subprocess, so a sampler that loops fails by the timeout
    import os
    import subprocess
    import sys

    import kinreg

    code = ("from kinreg.geometry import origin\n"
            "from kinreg.probe import sample_cylinder\n"
            "sample_cylinder(origin(1), 1.0, 4, seed=-1)\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(kinreg.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=20)
    assert proc.returncode == 1
    assert "ValueError: seed must be >= 0" in proc.stderr
    # a fractional seed would start the scan at a fractional Halton index
    for seed in (0.5, np.nan):
        with pytest.raises(ValueError, match="seed must be"):
            sample_cylinder(Z0, 1.0, 4, seed=seed)


@pytest.mark.parametrize("seed, rows", [
    (0, [(-0.5, 0.33333333333333326, -0.19999999999999996),
         (0.25, 0.5555555555555554, -0.92),
         (0.75, 0.11111111111111116, -0.12)]),
    (7, [(0.209716796875, 0.8217751359040795, -0.595904),
         (-0.540283203125, 0.45140476553370923, 0.6040960000000002),
         (-0.040283203125, 0.006960321089264587, -0.515904)]),
])
def test_sampler_first_rows_frozen(seed, rows):
    # Halton indices 1 and 7001 on: the digits of all three bases must
    # keep every bit
    got = sample_cylinder(origin(1), 1.0, 8, seed=seed)
    assert got.shape == (8, 3)
    np.testing.assert_array_equal(got[:3], rows)



def test_sample_arrays_do_not_share_the_kept_rows():
    # the Halton rows of a range are kept across calls, read-only: writing
    # to a returned sample leaves the next call's bits as they were
    from kinreg import probe

    first = sample_cylinder(Z0, 0.5, 50, seed=3)
    want = first.copy()
    first[:] = 7.0
    np.testing.assert_array_equal(sample_cylinder(Z0, 0.5, 50, seed=3), want)
    rows = probe._unit_rows(3001, 3101)
    with pytest.raises(ValueError, match="read-only"):
        rows[0, 0] = 7.0
    np.testing.assert_array_equal(sample_cylinder(Z0, 0.5, 50, seed=3), want)

def test_in_space_function_recovered():
    p = KineticPolynomial(1, {mono(1, bx=(1,), bv=(2,)): 1, mono(1, bt=1): -2})
    err = best_approx_error(p.eval, Z0, 0.5, full_space(5, 1))
    assert err <= 1e-9


def test_fit_values_match_pointwise_call():
    # reference: each basis polynomial evaluated point by point in the zoom
    # frame, and the Tricomi marker at the points themselves
    for spec in (full_space(5, 1), tricomi_augmented_space(1.0)):
        fit = polyfit_on_cylinder(T_FIELD, Z0, 0.25, spec, seed=1)
        pts = sample_cylinder(Z0, 0.25, 64, seed=5)
        want = np.zeros(len(pts))
        for c, q in zip(fit.coeffs, space_basis(spec)):
            if isinstance(q, TricomiMarker):
                want += c * eval_tricomi(TricomiParams(A=q.A, lam=3), pts[:, 1], pts[:, 2])
            else:
                want += c * np.array([q.eval(frame_unmap(Z0, 0.25, KineticPoint(*z))) for z in pts])
        np.testing.assert_allclose(fit.values(pts), want, rtol=0, atol=1e-14 * np.abs(want).max())
    # the Tricomi field's one-call values agree with its point-by-point calls
    want = np.array([T_FIELD(KineticPoint(*z)) for z in pts])
    np.testing.assert_allclose(field_values(T_FIELD, pts), want, rtol=1e-14, atol=0)


def test_undersampled_fit_raises():
    with pytest.raises(ValueError):
        polyfit_on_cylinder(T_FIELD, Z0, 0.5, full_space(5, 1), samples=100)


def test_tricomi_r5_plateau():
    errs = [best_approx_error(T_FIELD, Z0, r, full_space(5, 1)) for r in RADII]
    plat = [e / r ** 5 for e, r in zip(errs, RADII)]
    med = sorted(plat)[len(plat) // 2]
    assert all(med / 2 <= p <= 2 * med for p in plat), plat


def test_tricomi_augmented_kills_plateau():
    plat = best_approx_error(T_FIELD, Z0, 1.0, full_space(5, 1))
    r = 1 / 32
    e5 = best_approx_error(T_FIELD, Z0, r, full_space(5, 1))
    ea = best_approx_error(T_FIELD, Z0, r, tricomi_augmented_space(1.0))
    assert ea <= e5 / 20.0
    assert e5 / r ** 5 >= plat / 2  # the plateau itself persists


def test_monotone_spaces():
    for r in (0.5, 0.125):
        e3 = best_approx_error(T_FIELD, Z0, r, full_space(3, 1))
        e4 = best_approx_error(T_FIELD, Z0, r, full_space(4, 1))
        e5 = best_approx_error(T_FIELD, Z0, r, full_space(5, 1))
        assert e5 <= e4 <= e3


def test_exponent_fit_tricomi_slope_5():
    ef = exponent_fit(T_FIELD, Z0, full_space(5, 1), RADII)
    assert ef.slope == pytest.approx(5.0, abs=0.1)
    assert ef.r_squared > 0.999


def test_exponent_fit_exact_sentinel():
    p = KineticPolynomial(1, {mono(1, bv=(4,)): 3, mono(1, bt=2): 1})
    ef = exponent_fit(p.eval, Z0, full_space(5, 1), RADII[:4])
    assert ef.slope == EXACT_FIT_SENTINEL


def test_exponent_fit_rejects_bad_radii():
    # 3 distinct radii: the repeated 0.5 counts once
    with pytest.raises(ValueError, match="at least 4 radii"):
        exponent_fit(T_FIELD, Z0, full_space(3, 1), [1.0, 0.5, 0.5, 0.25])
    with pytest.raises(ValueError, match="strictly decreasing"):
        ExponentFit((0.25, 0.5, 1.0, 2.0), (1.0,) * 4, 5.0, 0.0, 1.0)


def test_exponent_fit_sums_each_kummer_argument_once(monkeypatch):
    # T's Kummer argument is invariant under the dilation, so with every
    # fit before the first residual the six fit point sets share one set of
    # sums, the six dense sets another, and the scale points a third
    from kinreg import specfun, tricomi

    monkeypatch.setattr(specfun, "_kept_sums", None)
    monkeypatch.setattr(tricomi, "_last", None)
    calls = []
    compute = specfun._taylor_sums

    def counted(pairs, z):
        calls.append(z.size)
        return compute(pairs, z)

    monkeypatch.setattr(specfun, "_taylor_sums", counted)
    exponent_fit(T_FIELD, Z0, full_space(5, 1), RADII)
    assert len(calls) <= 3


@pytest.mark.parametrize("z0", [Z0, KineticPoint(0.0, 0.4, 0.0)])
def test_exponent_fit_errors_equal_best_approx_error(z0):
    spec = full_space(5, 1)
    ef = exponent_fit(T_FIELD, z0, spec, RADII, seed=1)
    assert list(ef.errors) == [best_approx_error(T_FIELD, z0, r, spec, seed=1) for r in RADII]


def test_scaling_covariance():
    # g = f(frame_map(z0, s, .)): error_g(r) = error_f(s r)
    s = 0.5
    g = lambda z: T_FIELD(frame_map(Z0, s, z))
    g.values = lambda pts: T_FIELD.values(frame_map(Z0, s, pts))
    for r in (0.5, 0.25):
        eg = best_approx_error(g, Z0, r, full_space(5, 1), seed=2)
        ef = best_approx_error(T_FIELD, Z0, s * r, full_space(5, 1), seed=2)
        assert eg == pytest.approx(ef, rel=1e-9)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_field_values_reject_non_finite(bad):
    pts = sample_cylinder(Z0, 0.5, 8, seed=1)
    pointwise = lambda z: bad if z.x[0] > 0.0 else 0.0
    batched = phase_field(lambda x, v: np.where(x > 0.0, bad, 0.0))
    for f in (pointwise, batched):
        with pytest.raises(ValueError, match="non-finite"):
            field_values(f, pts)


def test_tau_recovery_synthetic():
    from fractions import Fraction

    poly = KineticPolynomial(1, {mono(1): 2, mono(1, bv=(2,)): Fraction(34, 100),
                                 mono(1, bt=1, bv=(2,)): 1, mono(1, bx=(1,)): -12})
    f = lambda z: 3.7 * T_FIELD(z) + poly.eval(z)
    rep = gamma0_tricomi_coefficient(f, Z0, 1.0, [0.5, 0.25, 0.125])
    assert rep.tau == pytest.approx(3.7, abs=1e-3)
    assert rep.stable


def test_tau_zero_for_polynomial():
    p = KineticPolynomial(1, {mono(1, bv=(4,)): 1, mono(1): 1})
    rep = gamma0_tricomi_coefficient(p.eval, Z0, 1.0, [0.5, 0.25])
    assert abs(rep.tau) <= 1e-6


def test_tau_requires_grazing_point():
    with pytest.raises(ValueError):
        gamma0_tricomi_coefficient(T_FIELD, KineticPoint(0, 0.5, 0), 1.0, [0.5, 0.25])
    with pytest.raises(ValueError, match="radius"):
        gamma0_tricomi_coefficient(T_FIELD, Z0, 1.0, [])


# ---------------------------------------------------------------------------
# solver-field probes
# ---------------------------------------------------------------------------


def _solve_smooth_gamma_plus_field():
    """Exact manufactured solution x^2 + x v + v^2 (kinetic degree 6 via
    the x^2 monomial): every piece is reproduced exactly by the scheme, so
    the probed field carries clean smooth-regime structure at gamma_+."""
    fstar = lambda x, v: x * x + x * v + v * v
    h = lambda x, v: v * (2 * x + v) - 2.0
    grid = HalfStripGrid(x_max=2.2, v_max=2.5, nx=160, nv=160)
    bc = BoundaryCondition(at_x0="inflow",
                           inflow_profile=lambda t, v: fstar(0.0, v),
                           at_xmax=lambda t, v: fstar(2.2, v),
                           at_vmax=lambda t, x, v: fstar(x, v))
    fld = solve_stationary(h, bc, 1.0, grid)
    return phase_field(fld.interpolator().ev), fstar


def test_gamma_plus_solver_field_slope():
    f, fstar = _solve_smooth_gamma_plus_field()
    z0 = KineticPoint(0.0, 0.0, -1.0)   # gamma_+: boundary point, incoming normal velocity
    # sanity: the probed field matches the manufactured solution to the
    # O(h^2) seam error of the boundary-adjacent centered faces
    for z in map(lambda row: KineticPoint(*row), sample_cylinder(z0, 0.5, 32, seed=1)):
        assert f(z) == pytest.approx(fstar(z.x[0], z.v[0]), abs=5e-3)
    ef = exponent_fit(f, z0, full_space(5, 1), [1.0, 0.5, 0.25, 0.125])
    assert ef.slope >= 5.3, (ef.slope, ef.errors)
    assert ef.slope == pytest.approx(6.0, abs=0.2)


def test_gamma0_tau_from_solver_field():
    # end-to-end: recover the manufactured Tricomi multiple from the solve
    from kinreg.tricomi import eval_tricomi, residual_constant

    mult = 0.85
    C = mult * residual_constant(TP)
    grid = HalfStripGrid(x_max=1.2, v_max=1.2, nx=192, nv=192)
    bc = BoundaryCondition(at_x0="specular",
                           at_xmax=lambda t, v: mult * eval_tricomi(TP, 1.2, v),
                           at_vmax=lambda t, x, v: mult * eval_tricomi(TP, x, v))
    fld = solve_stationary(lambda x, v: C * v ** 3, bc, 1.0, grid)
    f = phase_field(fld.interpolator().ev)
    rep = gamma0_tricomi_coefficient(f, Z0, 1.0, [1.0, 0.7, 0.5])
    assert rep.tau == pytest.approx(mult, rel=0.05)
