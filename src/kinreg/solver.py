"""Finite-difference solver for v f_x - A f_vv = h on a half strip,
stationary or time dependent, with specular reflection, in-flow, or
Dirichlet boundary data.

Discretization: nodes in x (x_i = x_min + i*hx), staggered cells in v
(v_j = -v_max + (j + 1/2) hv) so that v = 0 is a cell face and no row has
a degenerate upwind direction. Transport is upwind, first order at the
boundary rows and minmod-limited second order inside (applied as a
deferred correction so each x-station stays tridiagonal in v); diffusion
in v is implicit. The stationary solver is a Gauss-Seidel sweep along the
transport direction. The time stepper is IMEX (explicit transport under a
CFL bound, implicit diffusion) and shares the transport stencil with the
stationary path, so its long-time limit is the stationary fixed point.

Source and boundary data are array callables: the solver calls
h(xs[:, None], vs[None, :]) once per solve, and each boundary callable
once per solve (stationary) or once per time step (IMEX) on the grid
points it needs. A result is broadcast to the shape asked for, so a
callable may return a scalar; NaN or inf in it raises ValueError.

Every interior station has the same v-tridiagonal (its diagonal does not
depend on x), so each solve inverts it once, densely, plus the half-size
block of station 0 (at nv <= 256 an inverse holds at most 512 KB). A
station solve is then a matrix-vector product. In each pass of a sweep,
the part of every station's right-hand side that is known before the
pass goes through the inverse in one matrix product. What is left, the
half of the rows that carries fresh values to the next station, is the
linear recurrence y[i] = known[i] + P y[i-1] with one fixed matrix P per
pass. A doubling scan solves it on whole arrays: log2(nx) matrix products
with the powers P, P^2, P^4, ..., which each solve builds once. The work
arrays of a sweep are allocated once per solve too, and every ufunc and
matrix product of a sweep writes into them, so a sweep allocates nothing
of field size (fresh arrays of that size cost allocator work, cache misses
and, past the allocator's mmap threshold, page faults). Only numpy is
needed.

An IMEX step at the sizes the lab uses (n ~ 24) works on arrays of a few
hundred entries, so its cost is set by the number of numpy calls, not by
the arithmetic. A step forms the limited transport from one difference
array and one minmod over the whole field, adds the first-order upwind
differences into the correction in place, diffuses all full stations in
one matrix product and calls each boundary callable once, filling a new
array that is checked for fit and finiteness. The grid coordinates,
dt * h and the inverse are formed once per run. Every rewrite of the step
keeps the floating-point operations and their order, so results are
bit-identical to the full-width forms that tests/test_solver.py keeps as
references.
"""

from __future__ import annotations

import numbers
import struct
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class HalfStripGrid:
    x_max: float
    v_max: float
    nx: int
    nv: int
    nt: int = 0  # checked, and perfbench passes nt=1, but no solver reads it
    dt: float | None = None
    x_min: float = 0.0

    def __post_init__(self):
        if not -np.inf < self.x_min < self.x_max < np.inf:
            raise ValueError("need finite x_min < x_max")
        if not 0.0 < self.v_max < np.inf:
            raise ValueError("need finite v_max > 0")
        if not (isinstance(self.nx, numbers.Integral) and isinstance(self.nv, numbers.Integral)):
            raise ValueError(f"nx, nv must be integers, got {self.nx!r}, {self.nv!r}")
        if self.nx < 16 or self.nv < 16:
            raise ValueError("need nx, nv >= 16")
        if self.nv % 2 != 0:
            raise ValueError("nv must be even so that v = 0 is a cell face")
        if not isinstance(self.nt, numbers.Integral) or self.nt < 0:
            raise ValueError(f"nt must be an integer >= 0, got {self.nt!r}")
        if self.dt is None and self.nt > 0:
            raise ValueError("time-dependent grid needs dt")
        if self.dt is not None and not 0.0 < self.dt < np.inf:
            raise ValueError(f"dt must be finite and > 0, got {self.dt!r}")

    @property
    def hx(self) -> float:
        return (self.x_max - self.x_min) / self.nx

    @property
    def hv(self) -> float:
        return 2.0 * self.v_max / self.nv

    @property
    def xs(self) -> np.ndarray:
        return self.x_min + self.hx * np.arange(self.nx + 1)

    @property
    def vs(self) -> np.ndarray:
        return -self.v_max + self.hv * (np.arange(self.nv) + 0.5)


@dataclass(frozen=True)
class BoundaryCondition:
    """at_x0: 'specular', 'inflow' or 'dirichlet'.

    inflow_profile(t, v) supplies the incoming trace (v > 0 at the left
    edge, every v for 'dirichlet') and is needed by those two modes only;
    at_xmax(t, v) and at_vmax(t, x, v) are the Dirichlet data on the right
    edge and on the walls v = +-v_max. The callables take a float t and
    numpy arrays of coordinates (at_vmax gets x as a column and the two
    wall velocities as a row) and return values that broadcast against
    them; a scalar return is fine. ValueError at construction if a piece
    of data the mode needs is not callable.
    """

    at_x0: str = "specular"
    inflow_profile: Callable[[float, np.ndarray], np.ndarray] | None = None
    at_xmax: Callable[[float, np.ndarray], np.ndarray] | None = None
    at_vmax: Callable[[float, np.ndarray, np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.at_x0 not in ("specular", "inflow", "dirichlet"):
            raise ValueError(f"unknown at_x0 mode {self.at_x0!r}")
        if self.at_x0 != "specular" and not callable(self.inflow_profile):
            raise ValueError("inflow/dirichlet modes need a callable inflow_profile")
        if not callable(self.at_xmax):
            raise ValueError("at_xmax must be a callable: the Dirichlet data at x_max")
        if not callable(self.at_vmax):
            raise ValueError(f"at_vmax must be a callable: the Dirichlet data at v = +-v_max, "
                             f"got {self.at_vmax!r}")


def _knots(x: np.ndarray, k: int) -> np.ndarray:
    """FITPACK's interpolating (s = 0) knots for odd degree k: k + 1 copies
    of each end and the interior knots x[(k+1)/2 : -(k+1)/2], i.e.
    not-a-knot for k = 3."""
    h = (k + 1) // 2
    return np.concatenate([np.repeat(x[0], k + 1), x[h:-h], np.repeat(x[-1], k + 1)])


def _bspline_basis(t: np.ndarray, k: int, x: np.ndarray):
    """(first, B) for points x: the k + 1 B-splines of degree k that are
    nonzero at each point are numbers first .. first + k, with values
    B[:, 0 .. k]. Points outside [t[k], t[-k-1]] are clamped to it, as
    FITPACK's fpbisp does; the values come from de Boor's recurrence."""
    x = np.clip(x, t[k], t[-k - 1])[:, None]
    l = np.clip(np.searchsorted(t, x[:, 0], side="right") - 1, k, len(t) - k - 2)
    T = t[l[:, None] + np.arange(1 - k, k + 1)]  # t[l - k + 1] .. t[l + k]
    B = np.ones((len(x), 1))
    for j in range(1, k + 1):
        left = x - T[:, k - j:k]        # x - t[l + 1 - j + r], r = 0 .. j - 1
        right = T[:, k:k + j] - x       # t[l + 1 + r] - x
        temp = B / (right + left)
        B = np.zeros((len(x), j + 1))
        B[:, :j] = right * temp
        B[:, 1:] += left * temp
    return l - k, B


def _basis_matrix(t: np.ndarray, k: int, x: np.ndarray) -> np.ndarray:
    """Dense (len(x), len(t) - k - 1) matrix of every B-spline at x."""
    first, B = _bspline_basis(t, k, x)
    M = np.zeros((len(x), len(t) - k - 1))
    M[np.arange(len(x))[:, None], first[:, None] + np.arange(k + 1)] = B
    return M


class TensorSpline:
    """Tensor-product interpolating spline of degree k (1 or 3) through
    values on the grid xs x vs, with FITPACK's s = 0 knots: bilinear for
    k = 1, not-a-knot bicubic for k = 3. Coefficients come from one
    collocation solve per axis.

    ev(x, v) evaluates at the points of the broadcast arrays x, v. Points
    outside the grid are clamped to its boundary. Evaluate on arrays: every
    call has a fixed cost of about 0.1 ms, whatever its size.
    """

    def __init__(self, xs: np.ndarray, vs: np.ndarray, values: np.ndarray, k: int):
        self.k = k
        self.tx, self.tv = _knots(xs, k), _knots(vs, k)
        coef = np.linalg.solve(_basis_matrix(self.tx, k, xs), values)
        self.coef = np.linalg.solve(_basis_matrix(self.tv, k, vs), coef.T).T

    def ev(self, x, v) -> np.ndarray:
        x, v = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(v, dtype=float))
        fx, Bx = _bspline_basis(self.tx, self.k, x.ravel())
        fv, Bv = _bspline_basis(self.tv, self.k, v.ravel())
        ncv = self.coef.shape[1]
        span = np.arange(self.k + 1)
        # the (k + 1) x (k + 1) coefficient block of each point, flat-indexed
        C = self.coef.ravel()[(fx * ncv + fv)[:, None, None]
                              + (span[:, None] * ncv + span)]
        return ((C @ Bv[:, :, None])[:, :, 0] * Bx).sum(axis=1).reshape(x.shape)


@dataclass
class Field:
    """Gridded solution; values[i, j] lives at (x_i, v_j)."""

    grid: HalfStripGrid
    values: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        expect = (self.grid.nx + 1, self.grid.nv)
        if self.values.shape != expect:
            raise ValueError(f"values shape {self.values.shape} != {expect}")

    def check_finite(self):
        if not np.all(np.isfinite(self.values)):
            raise FloatingPointError("field contains non-finite values")

    def interpolator(self, kind: int = 3) -> TensorSpline:
        """Spline interpolant f(x, v) over the grid (for probing): bicubic
        for kind 3, bilinear for kind 1."""
        if kind not in (1, 3):
            raise ValueError(f"interpolator kind must be 1 or 3, got {kind!r}")
        return TensorSpline(self.grid.xs, self.grid.vs, self.values, kind)

    def to_csv(self, path: str):
        # plain floats: the repr of a numpy scalar is np.float64(...)
        vs = self.grid.vs.tolist()
        with open(path, "w") as fh:
            fh.write("x,v,value\n")
            for x, row in zip(self.grid.xs.tolist(), self.values.tolist()):
                for v, val in zip(vs, row):
                    fh.write(f"{x!r},{v!r},{val!r}\n")

    def to_binary(self, path: str):
        with open(path, "wb") as fh:
            fh.write(b"KFP1")
            fh.write(struct.pack("<iiddd", self.grid.nx, self.grid.nv,
                                 self.grid.x_min, self.grid.x_max, self.grid.v_max))
            fh.write(self.values.astype("<f8").tobytes(order="C"))

    @classmethod
    def from_binary(cls, path: str) -> "Field":
        """Read a to_binary file. ValueError on a bad magic or header, a
        body that is not (nx + 1) * nv doubles, or non-finite values."""
        with open(path, "rb") as fh:
            magic = fh.read(4)
            if magic != b"KFP1":
                raise ValueError("bad magic in field file")
            header = fh.read(32)
            if len(header) != 32:
                raise ValueError(f"field file header is {len(header)} bytes, not 32")
            nx, nv, x_min, x_max, v_max = struct.unpack("<iiddd", header)
            grid = HalfStripGrid(x_max=x_max, v_max=v_max, nx=nx, nv=nv, x_min=x_min)
            body = fh.read()
        if len(body) != 8 * (nx + 1) * nv:
            raise ValueError(f"field file body is {len(body)} bytes, "
                             f"not {8 * (nx + 1) * nv} for nx = {nx}, nv = {nv}")
        vals = np.frombuffer(body, dtype="<f8").reshape(nx + 1, nv)
        return cls(grid, _finite(vals, "field file"))


@dataclass(frozen=True)
class SolverOptions:
    """tol is the stop on the update relative to max(1, max|f|). The update
    stalls at rounding level, near 1e-16, so tol must be at least 1e-14."""

    tol: float = 1e-10
    max_iter: int = 100_000
    order: int = 2

    def __post_init__(self):
        if not 1e-14 <= self.tol < np.inf:
            raise ValueError(f"tol must be finite and at least 1e-14, got {self.tol!r}: "
                             "the relative update of a sweep stalls near 1e-16")
        if not isinstance(self.max_iter, numbers.Integral) or self.max_iter < 1:
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")
        if self.order not in (1, 2):
            raise ValueError("order must be 1 or 2")


class SolverError(RuntimeError):
    """A solve that fails: exit 3 in the CLI, so it never reads as a failed check."""
    def __init__(self, msg, residual_history=None):
        super().__init__(msg)
        self.residual_history = residual_history or []


def _minmod(a: np.ndarray, b: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """a clipped to the interval between 0 and b: minmod(a, b) exactly,
    since the result is always a, b or 0. Four ufuncs: np.clip's wrapper
    costs more, and a sign times the smaller modulus takes twelve. The
    result goes to out, which is returned; tmp is scratch of its shape."""
    lo = np.minimum(b, 0.0, out=out)
    np.maximum(a, lo, out=lo)
    return np.minimum(lo, np.maximum(b, 0.0, out=tmp), out=lo)


def _transport_correction(f: np.ndarray, vs: np.ndarray, hx: float, d: np.ndarray,
                          tmp: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Deferred correction lifting first-order upwind to limited second
    order: corr[i, j] such that v df/dx ~ v (f_i - f_upwind)/hx + corr,
    written into out, which is returned.

    The work arrays are the caller's, so a call allocates nothing of field
    size: d holds f[1:] - f[:-1] on entry and the slopes on return, and tmp
    is a (2, len(f) - 2, nv) array of scratch for the minmod.

    The mirror extension of a specular solution generically has an
    x-derivative kink at the wall (the extended source is discontinuous),
    so no smooth-across-the-wall stencil is used: station 0 (v<0 rows)
    gets a one-sided second-order correction and the wall-adjacent faces
    fall back to centered differences, whatever the condition at x = 0.
    The rows of vs are sorted and symmetric (as HalfStripGrid.vs), so the
    v < 0 columns are the first half and the v > 0 columns the second.
    """
    m = len(vs) // 2
    # slope[k], formed in place in d: the half-slope that face k+1/2 adds
    # to the value of its upwind station, k for v > 0 and k+1 for v < 0
    # (there with a minus sign). It is the minmod of the station's two
    # differences, except at the faces next to the inflow node and next to
    # x_max: those are centered, and are the rows of d that the minmod
    # rows leave as they are.
    mm = _minmod(d[:-1], d[1:], *tmp)
    d[1:, m:] = mm[:, m:]
    d[:-1, :m] = mm[:, :m]
    d *= np.copysign(0.5, vs)
    np.subtract(d[1:], d[:-1], out=out[1:-1])
    out[1:-1] *= vs / hx
    out[-1] = 0.0
    out[0, m:] = 0.0
    # one-sided second-order correction at the outflow station
    out[0, :m] = -(vs[:m] / (2.0 * hx)) * (f[0, :m] - 2.0 * f[1, :m] + f[2, :m])
    return out


def _finite(values, what: str) -> np.ndarray:
    """values as a new float array; ValueError if they are complex (a cast
    would drop the imaginary part) or any entry is NaN or inf."""
    if np.iscomplexobj(values):
        raise ValueError(f"{what} is complex")
    arr = np.array(values, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} contains non-finite values")
    return arr


def _data(fn, shape: tuple, what: str, *args) -> np.ndarray:
    """One call fn(*args) on coordinate arrays, broadcast to shape, as a
    new float array; ValueError if it does not fit, is complex or is not
    finite."""
    values = fn(*args)
    if np.iscomplexobj(values):
        raise ValueError(f"{what} is complex")
    arr = np.empty(shape)
    try:
        # np.broadcast_to's rule: an assignment alone would also drop
        # leading unit axes, e.g. fit (1, nv) into (nv,)
        if np.ndim(values) > len(shape):
            raise ValueError
        arr[...] = values
    except ValueError:
        raise ValueError(f"{what} of shape {np.shape(values)} does not fit {shape}") from None
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} contains non-finite values")
    return arr


def _source_array(h, grid: HalfStripGrid) -> np.ndarray:
    """The source on the grid: h is None (zero), a callable h(x, v), or an
    (nx+1, nv) array."""
    shape = (grid.nx + 1, grid.nv)
    if h is None:
        return np.zeros(shape)
    if callable(h):
        return _data(h, shape, "source", grid.xs[:, None], grid.vs[None, :])
    H = np.asarray(h)
    if H.shape != shape:
        raise ValueError(f"source array has wrong shape {H.shape} != {shape}")
    return _finite(H, "source")


def _station_factor(diag_base: np.ndarray, c: float, top: str) -> np.ndarray:
    """The dense inverse of one station's v-tridiagonal (diagonal
    diag_base + 2c, off-diagonals -c), so that a station solve is inv @ rhs.

    Row 0 is the v = -v_max wall, a Dirichlet row. top picks the last
    row: 'wall' (the v = v_max wall, treated like row 0), 'fold' (the
    mirror fold u_m = u_{m-1} at the v = 0 face) or 'open' (the coupling
    to prescribed rows beyond it goes to the right-hand side).
    A Dirichlet row is a unit row of the matrix and of its inverse; the
    inverse gets it exactly, so a solve returns the wall data bit for bit.
    """
    n = len(diag_base)
    M = np.zeros((n, n))
    idx = np.arange(n)
    M[idx, idx] = diag_base + 2.0 * c
    M[idx[1:], idx[:-1]] = M[idx[:-1], idx[1:]] = -c
    if top == "fold":
        M[-1, -1] -= c
    walls = [0, n - 1] if top == "wall" else [0]
    M[walls] = 0.0
    M[walls, walls] = 1.0
    inv = np.linalg.inv(M)
    inv[walls] = M[walls]
    return inv


def _doubling_powers(P: np.ndarray, rows: int) -> list[np.ndarray]:
    """[P, P^2, P^4, ...]: each P^s with s < rows, the matrices that
    _upwind_scan needs for a recurrence over rows stations."""
    powers = [P]
    while 2 ** len(powers) < rows:
        powers.append(powers[-1] @ powers[-1])
    return powers


def _upwind_scan(y: np.ndarray, carry: np.ndarray, powers: list[np.ndarray],
                 tmp: np.ndarray) -> np.ndarray:
    """The rows y[i] = known[i] + P y[i-1], i = 0 .. len(known) - 1, with
    y[-1] = carry and powers = _doubling_powers(P, len(known)), in place:
    y holds known on entry and is returned. tmp is scratch of y's shape.

    A doubling (Hillis-Steele) scan: once the carry is folded into row 0,
    y[i] = sum over j <= i of P^(i-j) known[j]. After the step with P^s,
    every row holds the terms with i - j < 2s, so log2(len(known)) matrix
    products over all rows replace the loop over stations.
    """
    y[0] += powers[0] @ carry
    s = 1
    for Ps in powers:
        later = y[s:]  # one view as input and output: numpy skips its overlap check
        np.add(later, np.matmul(y[:-s], Ps.T, out=tmp[s:]), out=later)
        s *= 2
    return y


def solve_stationary(h, bc: BoundaryCondition, A: float, grid: HalfStripGrid,
                     opts: SolverOptions = SolverOptions()) -> Field:
    """Solve v f_x - A f_vv = h on the strip with the given boundary data.

    h may be an (nx+1, nv) array, a callable h(x, v) called once on the
    grid's coordinate arrays, or None (zero source), as in solve_timedep.
    Raises ValueError on non-finite source or boundary data, and
    SolverError with the residual history on non-convergence.
    """
    if not 0.0 < A < np.inf:
        raise ValueError("diffusion A must be positive and finite")
    H = _source_array(h, grid)

    vs, hx = grid.vs, grid.hx
    nxp1, nv = grid.nx + 1, grid.nv
    m = nv // 2
    k = A / grid.hv ** 2
    a = np.abs(vs) / hx
    apos = np.where(vs > 0, a, 0.0)
    aneg = np.where(vs < 0, a, 0.0)
    interior = _station_factor(a, k, "wall")

    # boundary data enter at t = 0 only
    f = np.zeros((nxp1, nv))
    f[-1, :] = _data(bc.at_xmax, (nv,), "at_xmax data", 0.0, vs)
    wall_cols = slice(None, None, nv - 1)  # the columns v_0 and v_{nv-1}
    # at_vmax data on the rows v_0 and v_{nv-1} at every station
    walls = _data(bc.at_vmax, (nxp1, 2), "at_vmax data", 0.0, grid.xs[:, None], vs[[0, -1]])
    f[:, wall_cols] = walls
    # wall rows are Dirichlet rows: their right-hand side is the wall value
    apos[[0, -1]] = aneg[[0, -1]] = 0.0
    if bc.at_x0 == "dirichlet":
        f[0, :] = _data(bc.inflow_profile, (nv,), "inflow data", 0.0, vs)
    elif bc.at_x0 == "inflow":  # v>0 rows prescribed, v<0 block solved one-sided
        g = _data(bc.inflow_profile, (nv - m,), "inflow data", 0.0, vs[m:])
        station0 = _station_factor(a[:m], k, "open")
        inflow_coupling = k * g[0]
        g[-1] = walls[0, 1]
    else:
        station0 = _station_factor(a[:m], k, "fold")
    # the inverse applied to the upwind coupling: of the v > 0 rows into
    # the v > 0 rows, and of the v < 0 rows into each half
    neg_to_neg, neg_to_pos = np.split(interior[:, :m] * aneg[:m], 2)
    pos_powers = _doubling_powers(interior[m:, m:] * apos[m:], nxp1 - 2)
    neg_powers = _doubling_powers(neg_to_neg, nxp1 - 2)

    # Work arrays, allocated once per solve: a sweep writes every ufunc and
    # product into them and allocates nothing of field size. d and tmp are
    # the correction's; each pass then sums its right-hand side in tmp[0]
    # and runs its scan in the two halves of the other, viewed as a pair of
    # (nx - 1, nv / 2) arrays.
    f_old, R = np.empty_like(f), np.empty_like(f)
    d, tmp = np.empty((nxp1 - 1, nv)), np.empty((2, nxp1 - 2, nv))
    history = []
    for sweep in range(opts.max_iter):
        np.copyto(f_old, f)
        if opts.order == 2:
            np.subtract(f[1:], f[:-1], out=d)
            np.subtract(H, _transport_correction(f, vs, hx, d, tmp, out=R), out=R)
        else:
            np.copyto(R, H)
        R[:, wall_cols] = walls

        if bc.at_x0 != "dirichlet":
            rhs = R[0, :m] + aneg[:m] * f[1, :m]
            if bc.at_x0 == "inflow":
                rhs[m - 1] += inflow_coupling
            f[0, :m] = station0 @ rhs
            if bc.at_x0 == "specular":
                f[0, m:] = f[0, m - 1::-1]
            else:
                f[0, m:] = g

        # What a pass knows before it starts goes through the inverse in one
        # product; the fresh upwind values follow by a scan over the stations.
        # The forward pass gives the v > 0 rows fresh upstream values. The
        # backward pass overwrites every row, and reads only the v > 0 rows
        # of the forward pass, so the forward pass solves only those.
        rhs = np.multiply(aneg, f[2:], out=tmp[0])
        np.add(R[1:-1], rhs, out=rhs)
        y, scratch = tmp[1].reshape(2, nxp1 - 2, m)
        np.matmul(rhs, interior[m:].T, out=y)
        f[1:-1, m:] = _upwind_scan(y, f[0, m:], pos_powers, scratch)
        # the backward pass gives the v < 0 rows fresh downstream values
        np.multiply(apos, f[:-2], out=rhs)
        np.add(R[1:-1], rhs, out=rhs)
        known = np.matmul(rhs, interior.T, out=tmp[1])
        y, scratch = tmp[0].reshape(2, nxp1 - 2, m)
        np.copyto(y, known[::-1, :m])
        f[-2:0:-1, :m] = _upwind_scan(y, f[-1, :m], neg_powers, scratch)
        np.add(known[:, m:], np.matmul(f[2:, :m], neg_to_pos.T, out=scratch), out=f[1:-1, m:])

        # the update norm and the scale reuse f_old, which the next sweep refills
        delta = float(np.max(np.abs(np.subtract(f, f_old, out=f_old), out=f_old)))
        scale = max(1.0, float(np.max(np.abs(f, out=f_old))))
        history.append(delta / scale)
        if not np.isfinite(delta):
            raise SolverError("stationary sweep produced non-finite values", history)
        if delta / scale < opts.tol:
            fld = Field(grid, f, {"A": A, "bc": bc.at_x0, "sweeps": sweep + 1})
            fld.check_finite()
            return fld
    raise SolverError(f"stationary sweep did not converge in {opts.max_iter} iterations",
                      history)


def _transport_apply(f, vs, hx, d, tmp, out):
    """Full second-order limited transport operator v df/dx (explicit),
    written into out, with the work arrays d and tmp of
    _transport_correction."""
    m = len(vs) // 2
    np.subtract(f[1:], f[:-1], out=d)
    # the first-order upwind difference, one-sided at the rows where the
    # upwind node lies outside: v > 0 at station 0, v < 0 at station nx.
    # It is formed before the correction turns d into slopes.
    first = vs * d / hx
    _transport_correction(f, vs, hx, d, tmp, out)
    out[1:, m:] += first[:, m:]
    out[0, m:] += first[0, m:]
    out[:-1, :m] += first[:, :m]
    out[-1, :m] += first[-1, :m]
    return out


def solve_timedep(f0: Field, h, bc: BoundaryCondition, A: float, T: float) -> list[Field]:
    """IMEX time stepping up to horizon T: explicit limited transport,
    implicit v-diffusion. Refuses to run when dt violates the CFL bound
    dt <= 0.5 hx / v_max, and raises ValueError on a negative or
    non-finite T, a T that is not a whole number of steps dt (within 1e-9
    relative), and non-finite source, initial or boundary data. Returns
    [initial slice, final slice]."""
    if not 0.0 < A < np.inf:
        raise ValueError("diffusion A must be positive and finite")
    if not 0.0 <= T < np.inf:
        raise ValueError(f"horizon T must be finite and >= 0, got {T!r}")
    grid = f0.grid
    if grid.dt is None:
        raise ValueError("grid needs finite dt > 0")
    dt, hx = grid.dt, grid.hx
    steps = T / dt
    if not (steps < np.inf and abs(steps - round(steps)) <= 1e-9 * steps):
        raise ValueError(f"horizon T = {T!r} is not a whole number of steps dt = {dt!r}")
    nsteps = round(steps)
    if dt > 0.5 * hx / grid.v_max + 1e-15:
        raise ValueError(f"CFL violation: dt = {dt} > 0.5 hx / v_max = {0.5 * hx / grid.v_max}")
    # the grid's xs and vs properties build new arrays: read them once
    vs, xs = grid.vs, grid.xs[:, None]
    v_walls = vs[[0, -1]]
    wall_cols = slice(None, None, grid.nv - 1)  # the columns v_0 and v_{nv-1}
    wall_shape = (grid.nx + 1, 2)
    m = grid.nv // 2
    # station-0 rows prescribed by inflow_profile after every step
    x0_rows = {"inflow": slice(m, None), "dirichlet": slice(None)}.get(bc.at_x0)
    v_in = None if x0_rows is None else vs[x0_rows]
    dt_H = dt * _source_array(h, grid)

    f = _finite(f0.values, "initial field")
    initial = Field(grid, f.copy(), dict(f0.metadata, t=0.0))
    c = dt * (A / grid.hv ** 2)
    full_T = _station_factor(np.ones(grid.nv), c, "wall").T
    # the specular station 0 diffuses its v<0 block with the mirror fold
    fold = _station_factor(np.ones(m), c, "fold") if bc.at_x0 == "specular" else None
    first_full = 0 if fold is None else 1

    # d, tmp and out of _transport_apply, allocated once per run
    work = np.empty((grid.nx, grid.nv)), np.empty((2, grid.nx - 1, grid.nv)), np.empty_like(f)
    t = 0.0
    for _ in range(nsteps):
        f = f - dt * _transport_apply(f, vs, hx, *work) + dt_H
        t_next = t + dt
        f[:, wall_cols] = _data(bc.at_vmax, wall_shape, "at_vmax data", t_next, xs, v_walls)
        if fold is not None:
            f[0, :m] = fold @ f[0, :m]
            f[0, m:] = f[0, m - 1::-1]
        # one product for all full stations: each row is a right-hand side
        f[first_full:] = f[first_full:] @ full_T
        f[-1, :] = _data(bc.at_xmax, vs.shape, "at_xmax data", t_next, vs)
        if x0_rows is not None:
            f[0, x0_rows] = _data(bc.inflow_profile, v_in.shape, "inflow data", t_next, v_in)
        t = t_next
    final = Field(grid, f.copy(), dict(f0.metadata, t=t))
    final.check_finite()
    return [initial, final]
