import math
import resource

import numpy as np
import pytest

from kinreg.solver import (
    BoundaryCondition,
    Field,
    HalfStripGrid,
    SolverError,
    SolverOptions,
    solve_stationary,
    solve_timedep,
    _doubling_powers,
    _minmod,
    _station_factor,
    _transport_apply,
    _transport_correction,
    _upwind_scan,
)
from kinreg.tricomi import TricomiParams, eval_tricomi, residual_constant


def dirichlet_everywhere(fstar, x_max):
    return BoundaryCondition(at_x0="inflow",
                             inflow_profile=lambda t, v: fstar(0.0, v),
                             at_xmax=lambda t, v: fstar(x_max, v),
                             at_vmax=lambda t, x, v: fstar(x, v))


def test_grid_validation():
    with pytest.raises(ValueError):
        HalfStripGrid(x_max=1, v_max=1, nx=8, nv=32)
    with pytest.raises(ValueError):
        HalfStripGrid(x_max=1, v_max=1, nx=32, nv=31)
    for bad in (dict(x_max=math.nan), dict(x_max=math.inf), dict(x_max=-1.0),
                dict(x_max=1.0, x_min=1.0), dict(x_min=-math.inf), dict(v_max=math.nan),
                dict(v_max=math.inf), dict(v_max=0.0), dict(nt=1, dt=math.nan),
                dict(nt=1, dt=math.inf), dict(nx=16.5), dict(nv=32.0), dict(dt=math.nan),
                dict(dt=-1.0), dict(nt=-1), dict(nt=1.5, dt=0.01), dict(nt=1)):
        with pytest.raises(ValueError):
            HalfStripGrid(**{"x_max": 1.0, "v_max": 1.0, "nx": 32, "nv": 32, **bad})
    assert HalfStripGrid(x_max=1, v_max=1, nx=np.int64(32), nv=np.int32(16)).nv == 16
    g = HalfStripGrid(x_max=1, v_max=1, nx=32, nv=32)
    assert 0.0 not in set(g.vs)                    # v = 0 is a face
    assert np.allclose(g.vs, -g.vs[::-1])          # symmetric rows


@pytest.mark.parametrize("bad", [dict(tol=math.nan), dict(tol=0.0), dict(tol=-1e-10),
                                 dict(tol=math.inf), dict(max_iter=0), dict(order=3),
                                 dict(max_iter=math.nan), dict(max_iter=2.5),
                                 dict(tol=1e-30)])
def test_solver_options_validation(bad):
    with pytest.raises(ValueError):
        SolverOptions(**bad)
    assert SolverOptions(max_iter=np.int64(5)).max_iter == 5
    assert SolverOptions(tol=1e-14).tol == 1e-14


def test_bc_validation():
    with pytest.raises(ValueError):
        BoundaryCondition(at_x0="bogus")
    with pytest.raises(ValueError):
        BoundaryCondition(at_x0="inflow")


@pytest.mark.parametrize("solve", ["stationary", "timedep"])
@pytest.mark.parametrize("bad, name", [(dict(at_vmax="no-flux"), "at_vmax"),
                                       (dict(at_vmax=3.0), "at_vmax"),
                                       (dict(at_xmax=2.0), "at_xmax"),
                                       (dict(at_x0="inflow", inflow_profile=1.0), "inflow_profile"),
                                       (dict(at_vmax="noflux"), "at_vmax"),
                                       (dict(at_vmax=None), "at_vmax")])
def test_bc_rejects_data_that_is_not_callable(bad, name, solve):
    # rejected when the condition is built, before a solve calls the data;
    # at_vmax=None leaves the walls without data, as if it were not passed
    g = HalfStripGrid(x_max=1.0, v_max=1.0, nx=16, nv=16, nt=1, dt=0.01)
    data = dict(at_x0="specular", at_xmax=lambda t, v: 0.0, at_vmax=lambda t, x, v: 0.0)
    with pytest.raises(ValueError, match=name):
        bc = BoundaryCondition(**{k: v for k, v in {**data, **bad}.items() if v is not None})
        if solve == "stationary":
            solve_stationary(None, bc, 1.0, g)
        else:
            solve_timedep(Field(g, np.zeros((17, 16))), None, bc, 1.0, T=0.05)


def test_constant_recovered_exactly():
    g = HalfStripGrid(x_max=1.0, v_max=1.0, nx=16, nv=16)
    bc = BoundaryCondition(at_x0="specular",
                           at_xmax=lambda t, v: 2.5,
                           at_vmax=lambda t, x, v: 2.5)
    fld = solve_stationary(lambda x, v: 0.0, bc, 1.0, g)
    assert np.max(np.abs(fld.values - 2.5)) < 1e-10


def test_manufactured_xv2_exact():
    fstar = lambda x, v: x * v * v
    h = lambda x, v: v ** 3 - 2.0 * x
    g = HalfStripGrid(x_max=1.0, v_max=1.5, nx=32, nv=32)
    fld = solve_stationary(h, dirichlet_everywhere(fstar, 1.0), 1.0, g)
    ex = np.array([[fstar(x, v) for v in g.vs] for x in g.xs])
    assert np.max(np.abs(fld.values - ex)) <= 1e-8


def test_manufactured_convergence_order():
    fstar = lambda x, v: x ** 3 + v ** 6
    h = lambda x, v: 3 * x * x * v - 30.0 * v ** 4
    errs = []
    for n in (64, 128, 256):
        g = HalfStripGrid(x_max=1.0, v_max=1.5, nx=n, nv=n)
        fld = solve_stationary(h, dirichlet_everywhere(fstar, 1.0), 1.0, g)
        ex = np.array([[fstar(x, v) for v in g.vs] for x in g.xs])
        errs.append(float(np.max(np.abs(fld.values - ex))))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert all(o >= 1.9 for o in orders), (errs, orders)


def test_specular_smooth_exact_cases():
    # x*v and v^2 are invariant data for the reflection fold
    for fstar, h in [(lambda x, v: x * v, lambda x, v: v * v),
                     (lambda x, v: v * v, lambda x, v: -2.0)]:
        g = HalfStripGrid(x_max=1.0, v_max=1.0, nx=24, nv=24)
        bc = BoundaryCondition(at_x0="specular",
                               at_xmax=lambda t, v: fstar(1.0, v),
                               at_vmax=lambda t, x, v: fstar(x, v))
        fld = solve_stationary(h, bc, 1.0, g, SolverOptions(tol=1e-12))
        ex = np.array([[fstar(x, v) for v in g.vs] for x in g.xs])
        assert np.max(np.abs(fld.values - ex)) < 1e-10


def _direct_first_order(h, bc, A, g):
    """The first-order scheme as one sparse linear system: an independent
    reference for the sweep with order=1. Row precedence: the x_max column,
    then the Dirichlet walls, then station 0's prescribed rows, then upwind
    transport plus implicit diffusion."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.linalg import spsolve

    nxp1, nv = g.nx + 1, g.nv
    idx = np.arange(nxp1 * nv).reshape(nxp1, nv)
    I, J = np.meshgrid(np.arange(nxp1), np.arange(nv), indexing="ij")
    X, V = np.meshgrid(g.xs, g.vs, indexing="ij")
    a, k = np.abs(V) / g.hx, A / g.hv ** 2

    xmax = I == nxp1 - 1
    wall = ~xmax & ((J == 0) | (J == nv - 1))
    x0 = ~xmax & ~wall & (I == 0) & ((V > 0) | (bc.at_x0 == "dirichlet"))
    pde = ~(xmax | wall | x0)
    mirror = x0 & (bc.at_x0 == "specular")

    rhs = np.where(pde, np.broadcast_to(h(X, V), X.shape), 0.0)
    rhs[xmax] = bc.at_xmax(0.0, V[xmax])
    rhs[wall] = bc.at_vmax(0.0, X[wall], V[wall])
    inflow = x0 & ~mirror
    if inflow.any():
        rhs[inflow] = bc.inflow_profile(0.0, V[inflow])

    diag = np.where(pde, a + 2.0 * k, 1.0)
    couplings = [(np.ones_like(pde), idx, diag),
                 (mirror, idx[0, nv - 1 - J], -1.0),   # f(0, v) = f(0, -v)
                 (pde & (V > 0), idx - nv, -a),        # upwind: x_{i-1}
                 (pde & (V < 0), idx + nv, -a),        # upwind: x_{i+1}
                 (pde & (J > 0), idx - 1, -k),
                 (pde & (J < nv - 1), idx + 1, -k)]
    rows, cols, vals = [], [], []
    for mask, col, val in couplings:
        rows.append(idx[mask])
        cols.append(col[mask])
        vals.append(np.broadcast_to(val, idx.shape)[mask])
    M = csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                   shape=(nxp1 * nv,) * 2)
    return spsolve(M, rhs.ravel()).reshape(nxp1, nv)


def test_sweep_matches_direct():
    fstar = lambda x, v: x ** 3 + v ** 6
    h = lambda x, v: 3 * x * x * v - 30.0 * v ** 4
    g = HalfStripGrid(x_max=1.0, v_max=1.5, nx=16, nv=16)
    bc = dirichlet_everywhere(fstar, 1.0)
    s1 = solve_stationary(h, bc, 1.0, g, SolverOptions(order=1, tol=1e-12))
    s2 = _direct_first_order(h, bc, 1.0, g)
    assert np.max(np.abs(s1.values - s2)) < 1e-9


def test_sweep_matches_direct_specular():
    tp = TricomiParams(A=1.0, lam=3)
    C = residual_constant(tp)
    g = HalfStripGrid(x_max=1.0, v_max=1.0, nx=16, nv=16)
    bc = BoundaryCondition(at_x0="specular",
                           at_xmax=lambda t, v: eval_tricomi(tp, 1.0, v),
                           at_vmax=lambda t, x, v: eval_tricomi(tp, x, v))
    h = lambda x, v: C * v ** 3
    s1 = solve_stationary(h, bc, 1.0, g, SolverOptions(order=1, tol=1e-12))
    s2 = _direct_first_order(h, bc, 1.0, g)
    assert np.max(np.abs(s1.values - s2)) < 1e-9


def test_tricomi_convergence_monotone_order_ge_1():
    tp = TricomiParams(A=1.0, lam=3)
    C = residual_constant(tp)
    errs = []
    for n in (64, 128, 256):
        g = HalfStripGrid(x_max=1.0, v_max=1.0, nx=n, nv=n)
        bc = BoundaryCondition(at_x0="specular",
                               at_xmax=lambda t, v: eval_tricomi(tp, 1.0, v),
                               at_vmax=lambda t, x, v: eval_tricomi(tp, x, v))
        fld = solve_stationary(lambda x, v: C * v ** 3, bc, 1.0, g)
        ex = eval_tricomi(tp, g.xs[:, None], g.vs[None, :])
        errs.append(float(np.max(np.abs(fld.values - ex))))
    assert errs[0] > errs[1] > errs[2], errs
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert all(o >= 1.0 for o in orders), (errs, orders)


def test_maximum_principle():
    # h = 0 with Dirichlet data: solution bounded by boundary extremes
    g = HalfStripGrid(x_max=1.0, v_max=1.0, nx=24, nv=24)
    prof = lambda x, v: np.sin(3 * x) + np.cos(2 * v)
    bc = BoundaryCondition(at_x0="inflow",
                           inflow_profile=lambda t, v: prof(0.0, v),
                           at_xmax=lambda t, v: prof(1.0, v),
                           at_vmax=lambda t, x, v: prof(x, v))
    fld = solve_stationary(lambda x, v: 0.0, bc, 1.0, g, SolverOptions(order=1, tol=1e-12))
    bvals = [prof(0.0, v) for v in g.vs] + [prof(1.0, v) for v in g.vs] \
        + [prof(x, g.vs[0]) for x in g.xs] + [prof(x, g.vs[-1]) for x in g.xs]
    assert fld.values.max() <= max(bvals) + 1e-12
    assert fld.values.min() >= min(bvals) - 1e-12


def test_mirror_consistency_first_order():
    # half strip with the specular fold vs the mirror-extended full strip
    tp = TricomiParams(A=1.0, lam=3)
    C = residual_constant(tp)
    n = 32
    gh = HalfStripGrid(x_max=1.0, v_max=1.0, nx=n, nv=n)
    bch = BoundaryCondition(at_x0="specular",
                            at_xmax=lambda t, v: eval_tricomi(tp, 1.0, v),
                            at_vmax=lambda t, x, v: eval_tricomi(tp, x, v))
    H_half = np.array([[C * v ** 3 for v in gh.vs] for x in gh.xs])
    half = solve_stationary(H_half, bch, 1.0, gh, SolverOptions(tol=1e-12, order=1))

    gf = HalfStripGrid(x_max=1.0, v_max=1.0, nx=2 * n, nv=n, x_min=-1.0)
    bcf = BoundaryCondition(at_x0="dirichlet",
                            inflow_profile=lambda t, v: eval_tricomi(tp, 1.0, -v),
                            at_xmax=lambda t, v: eval_tricomi(tp, 1.0, v),
                            at_vmax=lambda t, x, v: eval_tricomi(tp, np.abs(x), np.where(x >= 0, v, -v)))
    # mirror-extended source; the interface row is sampled from the
    # upwind side, which mirrors the v<0 values onto v>0
    H_full = np.empty((2 * n + 1, n))
    H_full[n:, :] = H_half
    H_full[n, gh.vs > 0] = H_half[0, ::-1][gh.vs > 0]
    H_full[:n, :] = H_half[n:0:-1, ::-1]
    full = solve_stationary(H_full, bcf, 1.0, gf, SolverOptions(tol=1e-12, order=1))

    assert np.max(np.abs(half.values - full.values[n:, :])) <= 1e-8
    # the full-strip solution is mirror symmetric: f(-x, -v) = f(x, v)
    assert np.max(np.abs(full.values[:n] - half.values[n:0:-1, ::-1])) <= 1e-8


def test_solver_data_called_on_arrays():
    # each data callable is called on coordinate arrays: once per
    # stationary solve, at most once per IMEX step
    calls = {}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            assert np.ndim(args[-1]) >= 1, name       # arrays, not points
            return fn(*args)
        return wrapper

    fstar = lambda x, v: x * v * v
    bc = BoundaryCondition(at_x0="inflow",
                           inflow_profile=counted("inflow_profile", lambda t, v: fstar(0.0, v)),
                           at_xmax=counted("at_xmax", lambda t, v: fstar(1.0, v)),
                           at_vmax=counted("at_vmax", lambda t, x, v: fstar(x, v)))
    h = counted("h", lambda x, v: v ** 3 - 2.0 * x)
    n = 16
    solve_stationary(h, bc, 1.0, HalfStripGrid(x_max=1.0, v_max=1.5, nx=n, nv=n))
    assert calls == {"h": 1, "inflow_profile": 1, "at_xmax": 1, "at_vmax": 1}

    calls.clear()
    g = HalfStripGrid(x_max=1.0, v_max=1.5, nx=n, nv=n, nt=1, dt=0.25 * (1 / n) / 1.5)
    nsteps = 20
    solve_timedep(Field(g, np.zeros((n + 1, n))), h, bc, 1.0, T=nsteps * g.dt)
    assert calls["h"] == 1
    assert all(calls[name] <= nsteps for name in ("inflow_profile", "at_xmax", "at_vmax"))


def test_solver_data_of_wrong_shape_raises():
    g = HalfStripGrid(x_max=1.0, v_max=1.0, nx=16, nv=16)
    bc = BoundaryCondition(at_x0="specular", at_xmax=lambda t, v: np.zeros(3),
                           at_vmax=lambda t, x, v: 0.0)
    with pytest.raises(ValueError, match="at_xmax data of shape"):
        solve_stationary(None, bc, 1.0, g)


def test_timedep_data_of_wrong_shape_raises():
    # data that fit at the first steps and stop fitting at a later one
    n = 16
    g = HalfStripGrid(x_max=1.0, v_max=1.0, nx=n, nv=n, nt=1, dt=0.01)
    f0 = Field(g, np.zeros((n + 1, n)))
    late = lambda t, *xv: np.zeros(3) if t > 0.02 else 0.0
    for name, what in (("at_xmax", "at_xmax data"), ("at_vmax", "at_vmax data"),
                       ("inflow_profile", "inflow data")):
        data = dict(inflow_profile=lambda t, v: 0.0, at_xmax=lambda t, v: 0.0,
                    at_vmax=lambda t, x, v: 0.0)
        data[name] = late
        with pytest.raises(ValueError, match=rf"{what} of shape \(3,\) does not fit"):
            solve_timedep(f0, None, BoundaryCondition(at_x0="inflow", **data), 1.0, T=0.05)


def test_leading_unit_axis_is_not_dropped():
    # data broadcast as by np.broadcast_to: (1, nv) does not fit (nv,)
    n = 16
    strip = dict(x_max=1.0, v_max=1.0, nx=n, nv=n)
    bc = BoundaryCondition(at_x0="specular", at_xmax=lambda t, v: np.zeros((1, len(v))),
                           at_vmax=lambda t, x, v: 0.0)
    match = r"at_xmax data of shape \(1, 16\) does not fit \(16,\)"
    with pytest.raises(ValueError, match=match):
        solve_stationary(None, bc, 1.0, HalfStripGrid(**strip))
    g = HalfStripGrid(**strip, nt=1, dt=0.01)
    with pytest.raises(ValueError, match=match):
        solve_timedep(Field(g, np.zeros((n + 1, n))), None, bc, 1.0, T=0.05)


def test_complex_callable_data_raises():
    # a float cast would keep only the real part, 1.0 on the x_max row
    n = 16
    bc = BoundaryCondition(at_x0="specular", at_xmax=lambda t, v: (1 + 1j) * np.ones_like(v),
                           at_vmax=lambda t, x, v: 0.0)
    with pytest.raises(ValueError, match="at_xmax data is complex"):
        solve_stationary(None, bc, 1.0, HalfStripGrid(x_max=1.0, v_max=1.0, nx=n, nv=n))


def test_complex_source_array_raises():
    n = 16
    bc = BoundaryCondition(at_x0="specular", at_xmax=lambda t, v: 0.0, at_vmax=lambda t, x, v: 0.0)
    H = np.full((n + 1, n), 1.0 + 0.5j)
    with pytest.raises(ValueError, match="source is complex"):
        solve_stationary(H, bc, 1.0, HalfStripGrid(x_max=1.0, v_max=1.0, nx=n, nv=n))


def test_complex_initial_field_raises():
    n = 16
    g = HalfStripGrid(x_max=1.0, v_max=1.0, nx=n, nv=n, nt=1, dt=0.01)
    bc = BoundaryCondition(at_x0="specular", at_xmax=lambda t, v: 0.0, at_vmax=lambda t, x, v: 0.0)
    f0 = Field(g, np.full((n + 1, n), 1.0 + 0.5j))
    with pytest.raises(ValueError, match="initial field is complex"):
        solve_timedep(f0, None, bc, 1.0, T=0.05)


def test_solver_error_on_nonconvergence():
    g = HalfStripGrid(x_max=1.0, v_max=1.0, nx=16, nv=16)
    bc = BoundaryCondition(at_x0="specular",
                           at_xmax=lambda t, v: 0.0,
                           at_vmax=lambda t, x, v: 0.0)
    with pytest.raises(SolverError) as exc:
        solve_stationary(lambda x, v: v, bc, 1.0, g, SolverOptions(tol=1e-14, max_iter=3))
    assert len(exc.value.residual_history) == 3


def test_stationary_rejects_non_finite_data():
    g = HalfStripGrid(x_max=1.0, v_max=1.0, nx=16, nv=16)
    bc = BoundaryCondition(at_x0="specular", at_xmax=lambda t, v: 0.0,
                           at_vmax=lambda t, x, v: 0.0)
    H = np.zeros((17, 16))
    H[3, 5] = np.nan
    with pytest.raises(ValueError, match="source"):
        solve_stationary(H, bc, 1.0, g)
    nan_wall = BoundaryCondition(at_x0="specular", at_xmax=lambda t, v: 0.0,
                                 at_vmax=lambda t, x, v: np.where(x > 0.5, np.nan, 0.0))
    with pytest.raises(ValueError, match="at_vmax"):
        solve_stationary(lambda x, v: v, nan_wall, 1.0, g)
    for A in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="diffusion A"):
            solve_stationary(None, bc, A, g)


def test_stationary_overflow_raises_solver_error():
    g = HalfStripGrid(x_max=1.0, v_max=1.0, nx=16, nv=16)
    bc = BoundaryCondition(at_x0="specular", at_xmax=lambda t, v: 0.0,
                           at_vmax=lambda t, x, v: 0.0)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(SolverError) as exc:
        solve_stationary(lambda x, v: 1e308, bc, 1.0, g)
    assert not np.isfinite(exc.value.residual_history[-1])


# ---------------------------------------------------------------------------
# time dependent
# ---------------------------------------------------------------------------


def test_timedep_cfl_refusal():
    g = HalfStripGrid(x_max=1.0, v_max=2.0, nx=32, nv=32, nt=1, dt=0.1)
    f0 = Field(g, np.zeros((33, 32)))
    bc = BoundaryCondition(at_x0="specular", at_xmax=lambda t, v: 0.0, at_vmax=lambda t, x, v: 0.0)
    with pytest.raises(ValueError, match="CFL"):
        solve_timedep(f0, None, bc, 1.0, T=0.5)


def test_timedep_constant_preserved():
    g = HalfStripGrid(x_max=1.0, v_max=1.0, nx=32, nv=32, nt=1, dt=0.01)
    bc = BoundaryCondition(at_x0="specular", at_xmax=lambda t, v: 3.14,
                           at_vmax=lambda t, x, v: 3.14)
    f0 = Field(g, np.full((33, 32), 3.14))
    traj = solve_timedep(f0, None, bc, 1.0, T=0.5)
    assert np.max(np.abs(traj[-1].values - 3.14)) <= 1e-12


def test_timedep_gaussian_variance_growth():
    # an x-independent Gaussian solves f_t = A f_vv: its variance grows by 2 A t
    A, s0 = 0.7, 0.25
    gauss = lambda t, v: np.sqrt(s0 / (s0 + 2 * A * t)) * np.exp(-v * v / (2 * (s0 + 2 * A * t)))
    g = HalfStripGrid(x_max=1.0, v_max=6.0, nx=32, nv=128, nt=1, dt=0.25 * (1 / 32) / 6.0)
    bc = BoundaryCondition(at_x0="specular", at_xmax=gauss, at_vmax=lambda t, x, v: gauss(t, v))
    f0 = Field(g, np.tile(gauss(0.0, g.vs), (g.nx + 1, 1)))
    nsteps = 100
    T = nsteps * g.dt
    traj = solve_timedep(f0, None, bc, A, T=T)
    moments = []
    for fld in traj:
        rho = fld.values[0] * g.hv   # station 0
        mass = rho.sum()
        mean = (rho * g.vs).sum() / mass
        moments.append((mass, (rho * (g.vs - mean) ** 2).sum() / mass))
    (m0, var0), (m1, var1) = moments
    assert abs(m1 - m0) <= 1e-12 * m0
    assert var1 - var0 == pytest.approx(2 * A * T, rel=0.01)


def test_timedep_long_time_matches_stationary():
    fstar = lambda x, v: x * v * v
    h = lambda x, v: v ** 3 - 2.0 * x
    n = 24
    gt = HalfStripGrid(x_max=1.0, v_max=1.5, nx=n, nv=n, nt=1, dt=0.25 * (1 / n) / 1.5)
    bc = dirichlet_everywhere(fstar, 1.0)
    st = solve_stationary(h, bc, 1.0, HalfStripGrid(x_max=1.0, v_max=1.5, nx=n, nv=n))
    f0 = Field(gt, np.zeros((n + 1, n)))
    traj = solve_timedep(f0, h, bc, 1.0, T=30.0)
    assert np.max(np.abs(traj[-1].values - st.values)) <= 1e-6


def test_timedep_honours_time_dependent_boundary_data():
    # f = t + x v^2 solves f_t + v f_x - f_vv = 1 + v^3 - 2x; the boundary
    # data move with t, so data frozen at t = 0 would be off by T
    fstar = lambda t, x, v: t + x * v * v
    n = 24
    g = HalfStripGrid(x_max=1.0, v_max=1.5, nx=n, nv=n, nt=1, dt=0.25 * (1 / n) / 1.5)
    bc = BoundaryCondition(at_x0="inflow",
                           inflow_profile=lambda t, v: fstar(t, 0.0, v),
                           at_xmax=lambda t, v: fstar(t, 1.0, v),
                           at_vmax=lambda t, x, v: fstar(t, x, v))
    f0 = Field(g, fstar(0.0, g.xs[:, None], g.vs[None, :]))
    T = 0.5
    final = solve_timedep(f0, lambda x, v: 1.0 + v ** 3 - 2.0 * x, bc, 1.0, T=T)[-1]
    assert final.metadata["t"] == pytest.approx(T)
    exact = fstar(final.metadata["t"], g.xs[:, None], g.vs[None, :])
    assert np.max(np.abs(final.values - exact)) <= 1e-12


def test_timedep_dirichlet_imposes_inflow_profile():
    n = 16
    bc = BoundaryCondition(at_x0="dirichlet", inflow_profile=lambda t, v: 5.0,
                           at_xmax=lambda t, v: 0.0, at_vmax=lambda t, x, v: 0.0)
    strip = dict(x_max=1.0, v_max=1.0, nx=n, nv=n)
    st = solve_stationary(lambda x, v: 0.0, bc, 1.0, HalfStripGrid(**strip))
    g = HalfStripGrid(**strip, nt=1, dt=0.01)
    final = solve_timedep(Field(g, np.zeros((n + 1, n))), None, bc, 1.0, T=0.5)[-1]
    assert np.all(st.values[0] == 5.0)
    assert np.all(final.values[0] == 5.0)


def test_timedep_rejects_bad_input():
    n = 16
    g = HalfStripGrid(x_max=1.0, v_max=1.0, nx=n, nv=n, nt=1, dt=0.01)
    bc = BoundaryCondition(at_x0="specular", at_xmax=lambda t, v: 0.0,
                           at_vmax=lambda t, x, v: 0.0)
    f0 = Field(g, np.zeros((n + 1, n)))
    H = np.zeros((n + 1, n))
    H[2, 3] = np.nan
    with pytest.raises(ValueError, match="source"):
        solve_timedep(f0, H, bc, 1.0, T=0.05)
    with pytest.raises(ValueError, match="shape"):    # no silent broadcast
        solve_timedep(f0, np.ones(n), bc, 1.0, T=0.05)
    bad = np.zeros((n + 1, n))
    bad[4, 4] = np.nan
    with pytest.raises(ValueError, match="initial"):
        solve_timedep(Field(g, bad), None, bc, 1.0, T=0.05)
    nan_wall = BoundaryCondition(at_x0="specular", at_xmax=lambda t, v: 0.0,
                                 at_vmax=lambda t, x, v: math.nan if t > 0.02 else 0.0)
    with pytest.raises(ValueError, match="at_vmax"):
        solve_timedep(f0, None, nan_wall, 1.0, T=0.05)
    with pytest.raises(ValueError, match="x_max"):
        BoundaryCondition(at_x0="specular", at_vmax=lambda t, x, v: 0.0)
    for A in (-1.0, 0.0, math.nan, math.inf):   # as solve_stationary: no anti-diffusion
        with pytest.raises(ValueError, match="diffusion A"):
            solve_timedep(f0, None, bc, A, T=0.05)
    stationary = HalfStripGrid(x_max=1.0, v_max=1.0, nx=n, nv=n)   # no dt
    with pytest.raises(ValueError, match="dt"):
        solve_timedep(Field(stationary, np.zeros((n + 1, n))), None, bc, 1.0, T=0.05)


# with dt = 0.01, T = 0.015 would run 2 steps to t = 0.02, T = 0.004 none,
# and T / dt overflows for T = 1e308
@pytest.mark.parametrize("T", [math.inf, math.nan, -1.0, 0.015, 0.004, 1e308])
def test_timedep_rejects_bad_horizon(T):
    g = HalfStripGrid(x_max=1.0, v_max=1.0, nx=16, nv=16, nt=1, dt=0.01)
    bc = BoundaryCondition(at_x0="specular", at_xmax=lambda t, v: 0.0, at_vmax=lambda t, x, v: 0.0)
    with pytest.raises(ValueError, match="horizon T"):
        solve_timedep(Field(g, np.zeros((17, 16))), None, bc, 1.0, T=T)


def test_field_rejects_values_of_wrong_shape():
    g = HalfStripGrid(x_max=1.0, v_max=1.0, nx=16, nv=16)
    for shape in ((16, 16), (17, 17), (17 * 16,)):
        with pytest.raises(ValueError, match="values shape"):
            Field(g, np.zeros(shape))


def test_field_serialization_roundtrip(tmp_path):
    g = HalfStripGrid(x_max=1.0, v_max=1.0, nx=16, nv=16)
    vals = np.arange(17 * 16, dtype=float).reshape(17, 16) / 7.0
    fld = Field(g, vals)
    p = tmp_path / "field.kfp"
    fld.to_binary(str(p))
    back = Field.from_binary(str(p))
    assert np.array_equal(back.values, vals)
    assert back.grid.nx == 16 and back.grid.x_max == 1.0
    csv = tmp_path / "field.csv"
    fld.to_csv(str(csv))
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "x,v,value"
    assert len(lines) == 1 + 17 * 16
    rows = np.array([[float(f) for f in line.split(",")] for line in lines[1:]])
    assert np.array_equal(rows[:, 2], vals.ravel())


def _dense_station(base, c, top):
    """A station's v-tridiagonal entry by entry: diagonal base + 2c and
    off-diagonals -c, with a Dirichlet unit row at the v = -v_max end, and
    at the other end the same ('wall'), the mirror fold u_m = u_{m-1}
    ('fold') or nothing ('open')."""
    n = len(base)
    M = np.zeros((n, n))
    for j in range(n):
        M[j, j] = base[j] + 2.0 * c
        if j > 0:
            M[j, j - 1] = -c
        if j < n - 1:
            M[j, j + 1] = -c
    if top == "fold":
        M[-1, -1] -= c
    for j in ((0, n - 1) if top == "wall" else (0,)):
        M[j] = 0.0
        M[j, j] = 1.0
    return M


# the ids keep the wall rows' kind, Dirichlet, in the test names
@pytest.mark.parametrize("nv", [16, 64, 256])
@pytest.mark.parametrize("top", ["wall", "fold", "open"], ids=lambda top: f"{top}-dirichlet")
def test_station_inverse_matches_dense_solve(nv, top):
    g = HalfStripGrid(x_max=1.0, v_max=1.5, nx=nv, nv=nv, nt=1, dt=0.25 * (1.0 / nv) / 1.5)
    size = nv if top == "wall" else nv // 2
    rng = np.random.default_rng(nv)
    # the stationary block (|v| / hx + diffusion) and the IMEX block (1 + dt diffusion)
    for base, c in ((np.abs(g.vs[:size]) / g.hx, 1.0 / g.hv ** 2),
                    (np.ones(size), g.dt / g.hv ** 2)):
        rhs = rng.standard_normal((size, 8))
        want = np.linalg.solve(_dense_station(base, c, top), rhs)
        got = _station_factor(base, c, top) @ rhs
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        # Dirichlet wall rows return the wall data bit for bit
        for j in ((0, -1) if top == "wall" else (0,)):
            assert np.array_equal(got[j], rhs[j])


@pytest.mark.parametrize("at_x0", ["inflow", "specular", "dirichlet"])
def test_dirichlet_wall_rows_exact(at_x0):
    # even in v at x = 0, so that the specular fold agrees with the wall data
    fstar = lambda x, v: np.cos(2.0 * v) + x * v + np.sin(3.0 * x)
    g = HalfStripGrid(x_max=1.0, v_max=1.5, nx=32, nv=32)
    bc = BoundaryCondition(at_x0=at_x0,
                           inflow_profile=None if at_x0 == "specular" else lambda t, v: fstar(0.0, v),
                           at_xmax=lambda t, v: fstar(1.0, v),
                           at_vmax=lambda t, x, v: fstar(x, v))
    fld = solve_stationary(lambda x, v: v * np.cos(x), bc, 1.0, g)
    assert np.array_equal(fld.values[:, [0, -1]], fstar(g.xs[:, None], g.vs[[0, -1]]))


@pytest.fixture(scope="module")
def tricomi_field_64():
    from kinreg.cli import _tricomi_problem

    g = HalfStripGrid(x_max=1.0, v_max=1.0, nx=64, nv=64)
    h, bc, _ = _tricomi_problem(TricomiParams(A=1.0, lam=3), g, "specular")
    return solve_stationary(h, bc, 1.0, g)


@pytest.mark.parametrize("kind", [1, 3])
def test_interpolator_matches_fitpack(kind, tricomi_field_64):
    from scipy.interpolate import RectBivariateSpline

    fld = tricomi_field_64
    g = fld.grid
    ref = RectBivariateSpline(g.xs, g.vs, fld.values, kx=kind, ky=kind)
    spline = fld.interpolator(kind)
    rng = np.random.default_rng(kind)
    inside = rng.uniform([0.0, -1.0], [1.0, 1.0], (500, 2)).T
    # every point has x or v (or both) outside the grid and is clamped
    outside = rng.uniform([-0.5, -1.5], [1.5, 1.5], (4000, 2)).T
    outside = outside[:, (outside[0] < 0) | (outside[0] > 1) | (np.abs(outside[1]) > 1)]
    scale = np.max(np.abs(fld.values))   # relative to the field's size
    for x, v in (inside, outside, (g.xs[:, None], g.vs[None, :])):
        assert np.max(np.abs(spline.ev(x, v) - ref.ev(x, v))) <= 1e-12 * scale
    # FITPACK's grid evaluation against ev on a meshgrid of the same points
    xs, vs = np.sort(inside[0, :40]), np.sort(outside[1, :30])
    X, V = np.meshgrid(xs, vs, indexing="ij")
    assert spline.ev(X, V).shape == (40, 30)
    assert np.max(np.abs(spline.ev(X, V) - ref(xs, vs))) <= 1e-12 * scale
    assert spline.ev(0.3, -0.2).shape == ()
    assert spline.ev(0.3, -0.2) == pytest.approx(ref(0.3, -0.2)[0, 0], rel=1e-12)


def test_interpolator_rejects_other_kinds(tricomi_field_64):
    for kind in (0, 2, 4, 5):
        with pytest.raises(ValueError, match="kind"):
            tricomi_field_64.interpolator(kind)


# ---------------------------------------------------------------------------
# the sweep's kernels against the station-by-station forms they replaced
# ---------------------------------------------------------------------------


def _sweep_couplings(g):
    """The two upwind couplings of solve_stationary with A = 1: the inverse
    applied to the v > 0 rows (into the v > 0 rows) and to the v < 0 rows
    (into the v < 0 rows). The Dirichlet wall rows couple to nothing."""
    m = g.nv // 2
    a = np.abs(g.vs) / g.hx
    apos, aneg = np.where(g.vs > 0, a, 0.0), np.where(g.vs < 0, a, 0.0)
    apos[[0, -1]] = aneg[[0, -1]] = 0.0
    interior = _station_factor(a, 1.0 / g.hv ** 2, "wall")
    return interior[m:, m:] * apos[m:], interior[:m, :m] * aneg[:m]


_SCAN_SIZES = [(16, 16), (64, 64), (128, 128), (256, 256), (100, 16)]


@pytest.mark.parametrize("nx, nv", _SCAN_SIZES,
                         ids=[f"dirichlet-{nx}-{nv}" for nx, nv in _SCAN_SIZES])
def test_upwind_scan_matches_station_loop(nx, nv):
    g = HalfStripGrid(x_max=1.0, v_max=1.5, nx=nx, nv=nv)
    m = nv // 2
    pos_to_pos, neg_to_neg = _sweep_couplings(g)
    rng = np.random.default_rng(nx + nv)
    f = rng.standard_normal((nx + 1, nv))
    known = rng.standard_normal((nx - 1, nv))
    # reference: the loops of the sweep, one station at a time
    ref = f.copy()
    for i in range(1, nx):
        ref[i, m:] = known[i - 1, m:] + pos_to_pos @ ref[i - 1, m:]
    for i in range(nx - 1, 0, -1):
        ref[i, :m] = known[i - 1, :m] + neg_to_neg @ ref[i + 1, :m]
    scratch = np.full((nx - 1, nv - m), np.nan)
    forward = _upwind_scan(known[:, m:].copy(), f[0, m:], _doubling_powers(pos_to_pos, nx - 1),
                           scratch)
    backward = _upwind_scan(known[::-1, :m].copy(), f[-1, :m],
                            _doubling_powers(neg_to_neg, nx - 1), scratch)
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(forward - ref[1:-1, m:])) <= 1e-14 * scale
    assert np.max(np.abs(backward[::-1] - ref[1:-1, :m])) <= 1e-14 * scale


def _minmod_where(a, b):
    s = np.where((a > 0) & (b > 0), 1.0, np.where((a < 0) & (b < 0), -1.0, 0.0))
    return s * np.minimum(np.abs(a), np.abs(b))


def _correction_full_width(f, vs, hx):
    """The deferred correction with full-width masks and two minmod calls."""
    nxp1, nv = f.shape
    corr = np.zeros_like(f)
    pos = vs > 0
    neg = ~pos
    d = np.diff(f, axis=0)
    delta_p = np.zeros((nxp1, nv))
    delta_p[1:nxp1 - 1] = 0.5 * _minmod_where(d[:-1], d[1:])
    delta_p[0] = 0.5 * d[0]
    corr[1:nxp1 - 1, :] += np.where(pos, (vs / hx) * (delta_p[1:nxp1 - 1] - delta_p[0:nxp1 - 2]), 0.0)
    delta_m = np.zeros((nxp1, nv))
    delta_m[0:nxp1 - 2] = -0.5 * _minmod_where(d[:-1], d[1:])
    delta_m[nxp1 - 2] = -0.5 * d[nxp1 - 2]
    corr[1:nxp1 - 1, :] += np.where(neg, (vs / hx) * (delta_m[1:nxp1 - 1] - delta_m[0:nxp1 - 2]), 0.0)
    corr[0, neg] = -(vs[neg] / (2.0 * hx)) * (f[0, neg] - 2.0 * f[1, neg] + f[2, neg])
    return corr


def _transport_full_width(f, vs, hx):
    pos = vs > 0
    d = np.diff(f, axis=0)
    first = np.zeros_like(f)
    first[1:, pos] = vs[pos] * d[:, pos] / hx
    first[:-1, ~pos] = vs[~pos] * d[:, ~pos] / hx
    first[0, pos] = vs[pos] * d[0, pos] / hx
    first[-1, ~pos] = vs[~pos] * d[-1, ~pos] / hx
    return first + _correction_full_width(f, vs, hx)


def _nan_work(f):
    """Work arrays for the transport kernels, filled with NaN so that an
    entry the kernel reads before writing shows in its result."""
    nxp1, nv = f.shape
    return (np.full((nxp1 - 1, nv), np.nan), np.full((2, nxp1 - 2, nv), np.nan),
            np.full((nxp1, nv), np.nan))


@pytest.mark.parametrize("nx, nv", [(16, 16), (33, 24), (128, 128)])
def test_transport_kernels_match_full_width_forms(nx, nv):
    g = HalfStripGrid(x_max=1.0, v_max=1.5, nx=nx, nv=nv)
    rng = np.random.default_rng(nx * nv)
    # half-integer steps: many exact ties, zero differences and sign changes
    steps = 0.5 * rng.integers(-3, 4, (nx + 1, nv))
    smooth = rng.standard_normal((nx + 1, nv)).cumsum(axis=0)
    for f in (steps, smooth, np.cumsum(steps, axis=0)):
        d = np.diff(f, axis=0)
        assert np.array_equal(_minmod(d[:-1], d[1:], *_nan_work(f)[1]),
                              _minmod_where(d[:-1], d[1:]))
        d_work, tmp, out = _nan_work(f)
        d_work[...] = d
        assert _transport_correction(f, g.vs, g.hx, d_work, tmp, out) is out
        assert np.array_equal(out, _correction_full_width(f, g.vs, g.hx))
        assert np.array_equal(_transport_apply(f, g.vs, g.hx, *_nan_work(f)),
                              _transport_full_width(f, g.vs, g.hx))


def test_minmod_signs_and_ties():
    # the last seven lanes hold signed zeros
    a = np.array([1.0, -1.0, 2.0, -2.0, 0.0, 1.0, 0.0, -0.5, 3.0, 0.0,
                  -0.0, -0.0, 0.0, -0.0, 1.0, -1.0, -0.0])
    b = np.array([2.0, -3.0, 2.0, -2.0, 1.0, -1.0, 0.0, 0.5, 0.5, -1.0,
                  0.0, -0.0, -0.0, 2.0, -0.0, -0.0, -2.0])
    want = np.array([1.0, -1.0, 2.0, -2.0, 0.0, 0.0, 0.0, 0.0, 0.5, 0.0,
                     0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    assert np.array_equal(_minmod(a, b, np.empty_like(a), np.empty_like(a)), want)
    assert np.array_equal(want, _minmod_where(a, b))


def _mms_problem():
    """Source and in-flow data of the manufactured solution x^3 + v^6: the
    inputs of acceptance 6 and of the mms_inflow benchmark."""
    fstar = lambda x, v: x ** 3 + v ** 6
    h = lambda x, v: 3 * x * x * v - 30.0 * v ** 4
    bc = BoundaryCondition(at_x0="inflow", inflow_profile=lambda t, v: fstar(0.0, v),
                           at_xmax=lambda t, v: fstar(1.0, v), at_vmax=lambda t, x, v: fstar(x, v))
    return h, bc


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def test_stationary_sweep_does_not_allocate():
    # A field is 132 KB at n = 128 and 526 KB at n = 256, past the
    # allocator's mmap threshold, so a sweep that allocated arrays of field
    # size would pay page faults for them.
    h, bc = _mms_problem()
    g = HalfStripGrid(x_max=1.0, v_max=1.5, nx=128, nv=128)
    before = _minor_faults()
    first = solve_stationary(h, bc, 1.0, g)
    assert _minor_faults() - before <= 5 * first.metadata["sweeps"]
    # the result owns its values: a second solve reuses no buffer of the first
    kept = first.values.copy()
    assert np.array_equal(solve_stationary(h, bc, 1.0, g).values, kept)
    assert np.array_equal(first.values, kept)

    # At n = 256 the set-up of a solve alone takes about 14 faults per
    # sweep of a full solve, so count the faults that 40 more sweeps add.
    g = HalfStripGrid(x_max=1.0, v_max=1.5, nx=256, nv=256)

    def capped(sweeps):
        before = _minor_faults()
        with pytest.raises(SolverError):
            solve_stationary(h, bc, 1.0, g, SolverOptions(max_iter=sweeps))
        return _minor_faults() - before

    capped(1)  # the first solve of this size may grow the heap
    assert capped(41) - capped(1) <= 5 * 40


def test_sweep_counts_pinned(tricomi_field_64):
    # the mms_inflow benchmark inputs (acceptance 6) and the Tricomi specular solve
    h, bc = _mms_problem()
    for n, sweeps in ((64, 126), (128, 219)):
        g = HalfStripGrid(x_max=1.0, v_max=1.5, nx=n, nv=n)
        assert solve_stationary(h, bc, 1.0, g).metadata["sweeps"] == sweeps
    from kinreg.cli import _tricomi_problem

    g = HalfStripGrid(x_max=1.0, v_max=1.0, nx=32, nv=32)
    h, bc, _ = _tricomi_problem(TricomiParams(A=1.0, lam=3), g, "specular")
    assert solve_stationary(h, bc, 1.0, g).metadata["sweeps"] == 53
    assert tricomi_field_64.metadata["sweeps"] == 95
