import contextlib
import math
import resource
import warnings

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
    _data,
    _diagonal_scan,
    _minmod,
    _Rows,
    _station_factor,
    _Transport,
    _UpwindPass,
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
    then station 0's prescribed rows, then the Dirichlet walls, then upwind
    transport plus implicit diffusion."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.linalg import spsolve

    nxp1, nv = g.nx + 1, g.nv
    idx = np.arange(nxp1 * nv).reshape(nxp1, nv)
    I, J = np.meshgrid(np.arange(nxp1), np.arange(nv), indexing="ij")
    X, V = np.meshgrid(g.xs, g.vs, indexing="ij")
    a, k = np.abs(V) / g.hx, A / g.hv ** 2

    xmax = I == nxp1 - 1
    x0 = ~xmax & (I == 0) & ((V > 0) | (bc.at_x0 == "dirichlet"))
    wall = ~xmax & ~x0 & ((J == 0) | (J == nv - 1))
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


@pytest.mark.parametrize("at_x0", ["specular", "inflow", "dirichlet"])
def test_corner_data_rule_matches_direct(at_x0):
    # data that disagree at the corners: the x_max column and station 0's
    # prescribed rows own theirs, as in solve_timedep
    fstar = lambda x, v: x ** 3 + v ** 6
    h = lambda x, v: 3 * x * x * v - 30.0 * v ** 4
    g = HalfStripGrid(x_max=1.0, v_max=1.5, nx=16, nv=16)
    bc = BoundaryCondition(at_x0=at_x0,
                           inflow_profile=lambda t, v: fstar(0.0, v) + 1.0,
                           at_xmax=lambda t, v: fstar(1.0, v) + 2.0,
                           at_vmax=lambda t, x, v: fstar(x, v))
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


# each fits the shape asked for, and none of them is a float
@pytest.mark.parametrize("bad, reason", [
    ("abc", "could not convert string to float"),
    (object(), r"float\(\) argument must be"),
    (10 ** 400, "int too large to convert to float"),
], ids=["string", "object", "huge-int"])
def test_data_that_is_not_numeric_raises(bad, reason):
    n = 16
    strip = dict(x_max=1.0, v_max=1.0, nx=n, nv=n)
    bc = BoundaryCondition(at_x0="specular", at_xmax=lambda t, v: bad,
                           at_vmax=lambda t, x, v: 0.0)
    with pytest.raises(ValueError, match=f"^at_xmax data is not numeric: {reason}"):
        solve_stationary(None, bc, 1.0, HalfStripGrid(**strip))
    bc = BoundaryCondition(at_x0="specular", at_xmax=lambda t, v: 0.0,
                           at_vmax=lambda t, x, v: bad)
    g = HalfStripGrid(**strip, nt=1, dt=0.01)
    with pytest.raises(ValueError, match=f"^at_vmax data is not numeric: {reason}"):
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


def test_timedep_cfl_refusal_on_a_short_strip():
    # the bound 0.5 hx / v_max is 5e-21 here, so dt = 1e-16 is 2e4 times
    # past it: an absolute slack near 1e-16 would let the transport blow up
    g = HalfStripGrid(x_max=1.6e-19, v_max=1.0, nx=16, nv=16, nt=1, dt=1e-16)
    f0 = Field(g, np.random.default_rng(1).standard_normal((17, 16)))
    bc = BoundaryCondition(at_x0="specular", at_xmax=lambda t, v: 0.0, at_vmax=lambda t, x, v: 0.0)
    with pytest.raises(ValueError, match="CFL"):
        solve_timedep(f0, None, bc, 1.0, T=10 * g.dt)


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


def test_timedep_refuses_a_diffusion_past_double_range_before_any_data():
    # A / hv^2 overflows: the IMEX inverse would turn the field to inf
    n = 16
    g = HalfStripGrid(x_max=1.0, v_max=1.5, nx=n, nv=n, nt=1, dt=0.01)
    calls = []
    data = lambda *args: calls.append(args) or 0.0
    bc = BoundaryCondition(at_x0="inflow", inflow_profile=data, at_xmax=data, at_vmax=data)
    with pytest.raises(ValueError, match="double range"):
        solve_timedep(Field(g, np.zeros((n + 1, n))), data, bc, 1e307, T=0.05)
    assert calls == []


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


@pytest.mark.parametrize("bad, message", [(math.nan, "contains non-finite values"),
                                          (math.inf, "contains non-finite values"),
                                          (1j, "is complex")], ids=["nan", "inf", "complex"])
@pytest.mark.parametrize("name, what", [("at_vmax", "at_vmax data"), ("at_xmax", "at_xmax data"),
                                        ("inflow_profile", "inflow data")])
def test_timedep_rejects_bad_data_at_a_later_step(name, what, bad, message):
    # the data turn bad after the second step, once the step has written
    # good data straight into the field; the initial field stays as it was
    n = 16
    g = HalfStripGrid(x_max=1.0, v_max=1.0, nx=n, nv=n, nt=1, dt=0.01)
    f0 = Field(g, np.random.default_rng(3).standard_normal((n + 1, n)))
    kept = f0.values.copy()
    times = []

    def late(t, *xv):
        times.append(t)
        return bad if t > 0.02 else 0.5

    data = dict(inflow_profile=lambda t, v: 0.0, at_xmax=lambda t, v: 0.0,
                at_vmax=lambda t, x, v: 0.0)
    data[name] = late
    with pytest.raises(ValueError, match=rf"^{what} {message}$"):
        solve_timedep(f0, None, BoundaryCondition(at_x0="inflow", **data), 1.0, T=0.05)
    assert len(times) == 3 and times[-1] > 0.02
    assert np.array_equal(f0.values, kept)


def _timedep_reference(f0, H, bc, A, nsteps):
    """The IMEX step in plain full-width expressions, each stage making a
    new array: the reference for the in-place step of solve_timedep."""
    g = f0.grid
    vs, xs, hx, dt = g.vs, g.xs[:, None], g.hx, g.dt
    m = g.nv // 2
    c = dt * (A / g.hv ** 2)
    full = _station_factor(np.ones(g.nv), c, "wall")
    fold = _station_factor(np.ones(m), c, "fold")
    first_full = 1 if bc.at_x0 == "specular" else 0
    f, t = f0.values.copy(), 0.0
    for _ in range(nsteps):
        f = f - dt * _transport_full_width(f, vs, hx) + dt * H
        t = t + dt
        f[:, [0, -1]] = bc.at_vmax(t, xs, vs[[0, -1]])
        if bc.at_x0 == "specular":
            f[0, :m] = fold @ f[0, :m]
            f[0, m:] = f[0, m - 1::-1]
        f[first_full:] = f[first_full:] @ full.T
        f[-1] = bc.at_xmax(t, vs)
        if bc.at_x0 == "inflow":
            f[0, m:] = bc.inflow_profile(t, vs[m:])
        elif bc.at_x0 == "dirichlet":
            f[0] = bc.inflow_profile(t, vs)
    return f, t


def _check_timedep_against_reference(at_x0, nsteps):
    n, A = 24, 0.8
    g = HalfStripGrid(x_max=1.0, v_max=1.5, nx=n, nv=n, nt=1, dt=0.25 * (1 / n) / 1.5)
    rng = np.random.default_rng(27)
    f0 = Field(g, rng.standard_normal((n + 1, n)))
    H = rng.standard_normal((n + 1, n))
    kept = f0.values.copy()
    bc = BoundaryCondition(at_x0=at_x0,
                           inflow_profile=None if at_x0 == "specular"
                           else (lambda t, v: 1.0 + t * v + np.sin(3.0 * v)),
                           at_xmax=lambda t, v: np.cos(5.0 * t) * v * v,
                           at_vmax=lambda t, x, v: np.sin(7.0 * t + x) * v)
    want, t = _timedep_reference(f0, H, bc, A, nsteps)
    final = solve_timedep(f0, H, bc, A, T=nsteps * g.dt)[-1]
    assert np.array_equal(final.values, want)
    assert final.metadata["t"] == t
    assert np.array_equal(f0.values, kept)


@pytest.mark.parametrize("at_x0", ["specular", "inflow", "dirichlet"])
def test_timedep_step_is_bit_identical_to_reference(at_x0):
    _check_timedep_against_reference(at_x0, 60)


# Each step diffuses one field buffer into the other, and the two swap with
# their views: after an odd number of steps the result is in the buffer
# that did not hold the initial field.
@pytest.mark.parametrize("nsteps", [1, 7])
@pytest.mark.parametrize("at_x0", ["specular", "inflow", "dirichlet"])
def test_timedep_odd_step_counts_match_reference(at_x0, nsteps):
    _check_timedep_against_reference(at_x0, nsteps)


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


def test_field_csv_bytes_match_the_per_row_loop(tmp_path):
    # one write per x-station must give the bytes of one formatted write per
    # row, for signed zeros, subnormals, extremes and reprs of every length
    g = HalfStripGrid(x_max=0.7, v_max=1.3, nx=48, nv=24)
    vals = np.random.default_rng(32).standard_normal((49, 24))
    special = [-0.0, 5e-324, 1e-300, 1e16, 1e22, 0.1, 1 / 3, 2.0, -1.5]
    vals.reshape(-1)[:7 * len(special):7] = special
    vals[-1, -len(special):] = special
    fld = Field(g, vals)
    got = tmp_path / "stations.csv"
    fld.to_csv(str(got))
    want = tmp_path / "rows.csv"
    with open(want, "w") as fh:
        fh.write("x,v,value\n")
        for x, row in zip(g.xs.tolist(), vals.tolist()):
            for v, val in zip(g.vs.tolist(), row):
                fh.write(f"{x!r},{v!r},{val!r}\n")
    assert got.read_bytes() == want.read_bytes()
    assert "-0.0\n" in got.read_text() and "5e-324\n" in got.read_text()


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


@pytest.mark.parametrize("n", [128, 256])
@pytest.mark.parametrize("top", ["wall", "fold", "open"], ids=lambda top: f"{top}-dirichlet")
def test_station_inverse_accurate_and_symmetric(n, top):
    # the stationary block of solve_stationary (A = 1) against its inverse
    # refined twice in long double, X <- X + X (I - M X), which needs a
    # long double well beyond double precision to serve as the reference
    assert np.finfo(np.longdouble).eps < 1e-18
    g = HalfStripGrid(x_max=1.0, v_max=1.5, nx=n, nv=n)
    size = n if top == "wall" else n // 2
    base, c = np.abs(g.vs[:size]) / g.hx, 1.0 / g.hv ** 2
    M = _dense_station(base, c, top)
    X = np.linalg.inv(M).astype(np.longdouble)
    I = np.eye(size, dtype=np.longdouble)
    for _ in range(2):
        X = X + X @ (I - M.astype(np.longdouble) @ X)
    inner = slice(1, size - 1) if top == "wall" else slice(1, size)
    B, want = _station_factor(base, c, top)[inner, inner], X[inner, inner]
    assert np.max(np.abs(B - want)) <= 2e-14 * np.max(np.abs(want))
    assert np.array_equal(B, B.T)


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


def _sweep_couplings(g, A=1.0):
    """The two upwind couplings of solve_stationary with diffusion A: the inverse
    applied to the v > 0 rows (into the v > 0 rows) and to the v < 0 rows
    (into the v < 0 rows), and the upwind weights |v| / hx. The Dirichlet
    wall rows couple to nothing."""
    m = g.nv // 2
    a = np.abs(g.vs) / g.hx
    apos, aneg = np.where(g.vs > 0, a, 0.0), np.where(g.vs < 0, a, 0.0)
    apos[[0, -1]] = aneg[[0, -1]] = 0.0
    interior = _station_factor(a, A / g.hv ** 2, "wall")
    return interior[m:, m:] * apos[m:], interior[:m, :m] * aneg[:m], a


_SCAN_SIZES = [(16, 16), (64, 64), (128, 128), (256, 256), (100, 16)]


@pytest.mark.parametrize("nx, nv", _SCAN_SIZES,
                         ids=[f"dirichlet-{nx}-{nv}" for nx, nv in _SCAN_SIZES])
def test_upwind_scan_matches_station_loop(nx, nv):
    g = HalfStripGrid(x_max=1.0, v_max=1.5, nx=nx, nv=nv)
    m = nv // 2
    pos_to_pos, neg_to_neg, a = _sweep_couplings(g)
    rng = np.random.default_rng(nx + nv)
    f = rng.standard_normal((nx + 1, nv))
    known = rng.standard_normal((nx - 1, nv))
    # reference: the loops of the sweep, one station at a time
    ref = f.copy()
    for i in range(1, nx):
        ref[i, m:] = known[i - 1, m:] + pos_to_pos @ ref[i - 1, m:]
    for i in range(nx - 1, 0, -1):
        ref[i, :m] = known[i - 1, :m] + neg_to_neg @ ref[i + 1, :m]
    # the wall lanes couple to nothing, so the scans run on the inner lanes
    for P in (pos_to_pos[-1], pos_to_pos[:, -1], neg_to_neg[0], neg_to_neg[:, 0]):
        assert not P.any()
    scale = np.max(np.abs(ref))
    # forward from the carry f[0], backward (upward in the rows) from f[-1]
    for P, lanes, carry, upward in ((pos_to_pos[:-1, :-1], slice(m, -1), 0, False),
                                    (neg_to_neg[1:, 1:], slice(1, m), -1, True)):
        up = _UpwindPass.of(P, a[lanes], nx - 1)
        z = known[:, lanes] @ up.W_inv.T
        z[carry] += up.lam * (up.W_inv @ f[carry, lanes])
        scan = _diagonal_scan(z, up.powers, np.full_like(z, np.nan), upward)
        assert scan is z
        assert np.max(np.abs(scan @ up.W.T - ref[1:-1, lanes])) <= 1e-14 * scale


@pytest.mark.parametrize("n", [16, 32, 64, 128, 256])
def test_upwind_eigenbasis_reproduces_coupling(n):
    g = HalfStripGrid(x_max=1.0, v_max=1.5, nx=n, nv=n)
    m = n // 2
    pos_to_pos, neg_to_neg, a = _sweep_couplings(g)
    for P, d in ((pos_to_pos[:-1, :-1], a[m:-1]), (neg_to_neg[1:, 1:], a[1:m])):
        up = _UpwindPass.of(P, d, n - 1)
        assert np.all((0.0 <= up.lam) & (up.lam < 1.0))
        assert np.max(np.abs((up.W * up.lam) @ up.W_inv - P)) <= 1e-14 * np.max(np.abs(P))
        # lam^s for s = 1, 2, 4, ... < n - 1, one row per row it multiplies,
        # with the subnormal entries 0
        assert [len(power) for power in up.powers] == [n - 1 - 2 ** k
                                                        for k in range(len(up.powers))]
        assert 2 ** len(up.powers) >= n - 1 > 2 ** (len(up.powers) - 1)
        for k, power in enumerate(up.powers):
            want = up.lam ** 2 ** k
            want[want < np.finfo(float).tiny] = 0.0
            assert np.allclose(power, want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("A", [1e-200, 1e-20, 1e-8])
def test_upwind_eigenbasis_when_eigenvalues_cluster(A):
    # as A -> 0 the coupling tends to the identity and its eigenvalues
    # agree to rounding: plain eigh of the symmetric S stays exact there, as
    # its Q is orthogonal whatever the gaps, and W, W_inv reproduce P
    n = 64
    g = HalfStripGrid(x_max=1.0, v_max=1.5, nx=n, nv=n)
    m = n // 2
    pos_to_pos, neg_to_neg, a = _sweep_couplings(g, A)
    for P, d in ((pos_to_pos[:-1, :-1], a[m:-1]), (neg_to_neg[1:, 1:], a[1:m])):
        up = _UpwindPass.of(P, d, n - 1)
        assert np.max(np.abs((up.W * up.lam) @ up.W_inv - P)) <= 1e-14 * np.max(np.abs(P))


@pytest.mark.parametrize("wall", [0, -1])
def test_upwind_wall_lane_is_embedded(wall):
    # a lane with no upwind weight gets lam = 0 and a unit eigenvector, and
    # the live lanes are bit for bit those of the live block alone
    n = 64
    g = HalfStripGrid(x_max=1.0, v_max=1.5, nx=n, nv=n)
    m = n // 2
    pos_to_pos, neg_to_neg, a = _sweep_couplings(g)
    P, d = (neg_to_neg, a[:m].copy()) if wall == 0 else (pos_to_pos, a[m:].copy())
    d[wall] = 0.0
    live = slice(1, None) if wall == 0 else slice(None, -1)
    up = _UpwindPass.of(P, d, n - 1)
    alone = _UpwindPass.of(P[live, live], d[live], n - 1)
    assert up.lam[wall] == 0.0
    unit = np.eye(m)[wall]
    for M in (up.W, up.W_inv):
        assert np.array_equal(M[wall], unit) and np.array_equal(M[:, wall], unit)
    assert np.array_equal(up.W[live, live], alone.W)
    assert np.array_equal(up.W_inv[live, live], alone.W_inv)
    assert np.array_equal(up.lam[live], alone.lam)
    assert len(up.powers) == len(alone.powers)
    for power, want in zip(up.powers, alone.powers):
        assert np.array_equal(power[:, live], want) and not power[:, wall].any()


def _stationary_reference(h, bc, A, g, tol=1e-10):
    """The stationary sweep as a plain loop over the stations, each one a
    dense np.linalg.solve, with the full-width correction and no scan: the
    reference for solve_stationary. Returns the field and the sweeps."""
    vs, xs, hx = g.vs, g.xs, g.hx
    nxp1, nv, m = g.nx + 1, g.nv, g.nv // 2
    k = A / g.hv ** 2
    a = np.abs(vs) / hx
    apos, aneg = np.where(vs > 0, a, 0.0), np.where(vs < 0, a, 0.0)
    apos[[0, -1]] = aneg[[0, -1]] = 0.0
    station = _dense_station(a, k, "wall")
    H = np.broadcast_to(h(xs[:, None], vs[None, :]), (nxp1, nv))
    walls = np.broadcast_to(bc.at_vmax(0.0, xs[:, None], vs[[0, -1]]), (nxp1, 2))
    f = np.zeros((nxp1, nv))
    f[-1] = bc.at_xmax(0.0, vs)
    f[:, [0, -1]] = walls
    if bc.at_x0 == "dirichlet":
        f[0] = bc.inflow_profile(0.0, vs)
    elif bc.at_x0 == "inflow":
        inflow = bc.inflow_profile(0.0, vs[m:])
        station0 = _dense_station(a[:m], k, "open")
    else:
        station0 = _dense_station(a[:m], k, "fold")
    for sweep in range(1, 100_000):
        f_old = f.copy()
        R = H - _correction_full_width(f, vs, hx)
        R[:, [0, -1]] = walls
        if bc.at_x0 != "dirichlet":
            rhs = R[0, :m] + aneg[:m] * f[1, :m]
            if bc.at_x0 == "inflow":
                rhs[-1] += k * inflow[0]     # the diffusion coupling to v_m
                f[0, m:] = inflow
                f[0, -1] = walls[0, 1]
            f[0, :m] = np.linalg.solve(station0, rhs)
            if bc.at_x0 == "specular":
                f[0, m:] = f[0, m - 1::-1]
        for i in range(1, nxp1 - 1):           # forward: the v > 0 rows
            rhs = R[i] + apos * f[i - 1] + aneg * f[i + 1]
            f[i, m:] = np.linalg.solve(station, rhs)[m:]
        for i in range(nxp1 - 2, 0, -1):       # backward: every row
            f[i] = np.linalg.solve(station, R[i] + apos * f[i - 1] + aneg * f[i + 1])
        if np.max(np.abs(f - f_old)) / max(1.0, np.max(np.abs(f))) < tol:
            return f, sweep
    raise AssertionError("the reference sweep did not converge")


@pytest.mark.parametrize("at_x0", ["specular", "inflow", "dirichlet"])
def test_stationary_matches_station_by_station_reference(at_x0):
    # even in v at x = 0, so that the specular fold agrees with the wall data
    fstar = lambda x, v: np.cos(2.0 * v) + x * v + np.sin(3.0 * x)
    g = HalfStripGrid(x_max=1.0, v_max=1.5, nx=32, nv=32)
    bc = BoundaryCondition(at_x0=at_x0,
                           inflow_profile=None if at_x0 == "specular" else lambda t, v: fstar(0.0, v),
                           at_xmax=lambda t, v: fstar(1.0, v),
                           at_vmax=lambda t, x, v: fstar(x, v))
    h = lambda x, v: v * np.cos(x) + x * x
    want, sweeps = _stationary_reference(h, bc, 0.7, g)
    fld = solve_stationary(h, bc, 0.7, g)
    assert abs(fld.metadata["sweeps"] - sweeps) <= 1
    assert np.max(np.abs(fld.values - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


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


def _nan_transport(g):
    """The transport kernels of grid g, with d, tmp, out and first filled
    with NaN so that an entry a kernel reads before writing shows in its
    result."""
    tr = _Transport(g.vs, g.hx, g.nx)
    for buf in (tr.d, tr.tmp, tr.out, tr.first):
        buf.fill(np.nan)
    return tr


@pytest.mark.parametrize("nx, nv", [(16, 16), (33, 24), (128, 128)])
def test_transport_kernels_match_full_width_forms(nx, nv):
    g = HalfStripGrid(x_max=1.0, v_max=1.5, nx=nx, nv=nv)
    rng = np.random.default_rng(nx * nv)
    # half-integer steps: many exact ties, zero differences and sign changes
    steps = 0.5 * rng.integers(-3, 4, (nx + 1, nv))
    smooth = rng.standard_normal((nx + 1, nv)).cumsum(axis=0)
    for f in (steps, smooth, np.cumsum(steps, axis=0)):
        d = np.diff(f, axis=0)
        assert np.array_equal(_minmod(d[:-1], d[1:], *_nan_transport(g).tmp),
                              _minmod_where(d[:-1], d[1:]))
        tr = _nan_transport(g)
        tr.d[...] = d
        assert tr.correction(_Rows.of(f)) is tr.out
        assert np.array_equal(tr.out, _correction_full_width(f, g.vs, g.hx))
        assert np.array_equal(_nan_transport(g).apply(_Rows.of(f)),
                              _transport_full_width(f, g.vs, g.hx))


def test_transport_apply_reads_only_what_it_writes():
    # first is left as np.empty leaves it: an entry of 1e308 overflows if
    # the kernel divides it by hx before writing it
    for nx, nv in ((16, 16), (33, 24)):
        g = HalfStripGrid(x_max=1.0, v_max=1.5, nx=nx, nv=nv)
        f = np.random.default_rng(nx * nv).standard_normal((nx + 1, nv)).cumsum(axis=0)
        tr = _nan_transport(g)
        tr.first.fill(1e308)
        with np.errstate(over="raise"):
            got = tr.apply(_Rows.of(f))
        assert np.array_equal(got, _transport_full_width(f, g.vs, g.hx))


@contextlib.contextmanager
def _numpy_reports(how):
    """numpy's floating-point reports silenced, or raised as errors by a
    warnings filter or by np.errstate."""
    if how == "ignore":
        with np.errstate(all="ignore"):
            yield
    elif how == "filter":
        with warnings.catch_warnings(), np.errstate(all="warn"):
            warnings.simplefilter("error")
            yield
    else:
        with np.errstate(all="raise"):
            yield


@pytest.mark.parametrize("how", ["ignore", "filter", "errstate"])
def test_data_checks_one_sum_then_each_entry(how):
    # finite data whose sum overflows pass the entrywise check and are written
    dst = np.empty(4)
    with _numpy_reports(how):
        assert _data(lambda: np.full(4, 1.7e308), dst, "at_xmax data") is dst
    assert np.array_equal(dst, np.full(4, 1.7e308))
    # a sum of NaN (inf - inf), or of NaN after an overflow, and a NaN in a
    # strided wall view of the field
    n = 16
    walls = np.zeros((n + 1, n))[:, ::n - 1]
    one_nan = np.zeros((n + 1, 2))
    one_nan[5, 1] = np.nan
    for bad, dst in (([np.inf, -np.inf], np.empty(2)), ([1e308, 1e308, np.nan], np.empty(3)),
                     (one_nan, walls)):
        with _numpy_reports(how), pytest.raises(ValueError,
                                                match="^at_vmax data contains non-finite values$"):
            _data(lambda: np.array(bad), dst, "at_vmax data")


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


@pytest.mark.parametrize("bc_mode", ["specular", "inflow"])
@pytest.mark.parametrize("n, x_max, v_max", [(32, 1.0, 1.0), (48, 0.7, 1.3), (64, 1.0, 1.0)])
def test_tricomi_boundary_data_taken_from_exact(bc_mode, n, x_max, v_max):
    # the boundary callables return entries of the exact T on the grid; a
    # solve with them is bit for bit a solve with T evaluated at the nodes
    # the solver asks for
    from kinreg.cli import _tricomi_problem

    tp = TricomiParams(A=1.0, lam=3)
    g = HalfStripGrid(x_max=x_max, v_max=v_max, nx=n, nv=n)
    h, bc, exact = _tricomi_problem(tp, g, bc_mode)
    kept = exact.copy()
    T = lambda x, v: eval_tricomi(tp, x, v)
    at_nodes = BoundaryCondition(
        at_x0=bc_mode, inflow_profile=(lambda t, v: T(0.0, v)) if bc_mode == "inflow" else None,
        at_xmax=lambda t, v: T(g.x_max, v), at_vmax=lambda t, x, v: T(x, v))
    got = solve_stationary(h, bc, 1.0, g)
    want = solve_stationary(h, at_nodes, 1.0, g)
    assert np.array_equal(got.values, want.values)
    assert got.metadata["sweeps"] == want.metadata["sweeps"]
    assert np.array_equal(exact, kept)


def _scaled_residual(fld, h, A):
    """H - v f_x + A f_vv of the discrete equations, with the transport of
    _Transport.apply, on the interior stations off the walls: each node
    divided by its station diagonal |v| / hx + 2 A / hv^2, the largest
    relative to max(1, max|f|)."""
    g, f = fld.grid, fld.values
    k = A / g.hv ** 2
    H = np.broadcast_to(h(g.xs[:, None], g.vs[None, :]), f.shape)
    r = H - _Transport(g.vs, g.hx, g.nx).apply(_Rows.of(f))
    r[:, 1:-1] += k * (f[:, 2:] - 2.0 * f[:, 1:-1] + f[:, :-2])
    scaled = r[1:-1, 1:-1] / (np.abs(g.vs[1:-1]) / g.hx + 2.0 * k)
    return np.max(np.abs(scaled)) / max(1.0, np.max(np.abs(f)))


def test_stationary_solution_solves_the_discrete_equations(tricomi_field_64):
    # the sweep stops on the update, and then the scaled residual of the
    # discrete equations is below tol: on the v > 0 rows too, which the
    # backward pass corrects for the change in the v < 0 rows downstream
    tol = SolverOptions().tol
    h, bc = _mms_problem()
    for n in (64, 128):
        g = HalfStripGrid(x_max=1.0, v_max=1.5, nx=n, nv=n)
        assert _scaled_residual(solve_stationary(h, bc, 1.0, g), h, 1.0) < tol
    from kinreg.cli import _tricomi_problem

    h, _, _ = _tricomi_problem(TricomiParams(A=1.0, lam=3), tricomi_field_64.grid, "specular")
    assert _scaled_residual(tricomi_field_64, h, 1.0) < tol
