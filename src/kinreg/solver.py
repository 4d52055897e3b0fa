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
block of station 0 (at nv <= 256 an inverse holds at most 512 KB). The
inverse comes from the Cholesky factor of the symmetric positive
definite block off the Dirichlet wall rows, so it is symmetric by
construction. A station solve is then a matrix-vector product. In each
pass of a sweep, the half of the rows that carries fresh values to the
next station obeys the linear recurrence y[i] = known[i] + P y[i-1],
with one fixed matrix P per pass. Its wall row neither couples nor is
coupled, and on the other rows P is similar to a symmetric S, so
P = W Lam W^-1 with real eigenvalues in [0, 1), from eigh of S once per
pass. The part of every station's
right-hand side that is known before the pass goes through W^-1 times
the inverse in one matrix product. In that eigenbasis the recurrence is
z[i] = known[i] + lam z[i-1] lane by lane, and a doubling scan solves it
on whole arrays: log2(nx) elementwise multiply-adds with lam, lam^2,
lam^4, ... on contiguous rows. One product by W then writes the rows of
the field. The work arrays of a sweep are allocated once per solve too,
and every ufunc and matrix product of a sweep writes into them, so a
sweep allocates nothing of field size (fresh arrays of that size cost
allocator work, cache misses and, past the allocator's mmap threshold,
page faults). Only numpy is needed.

An IMEX step at the sizes the lab uses (n ~ 24) works on arrays of a few
hundred entries, so its cost is set by the number of numpy calls, not by
the arithmetic; making a basic slice costs about a third as much as a
small ufunc. So a run makes everything a step touches once: one
_Transport object holds the transport's constants, its four work arrays
and every view of them that its kernels use, and dt * h, the inverse and
two field buffers with their views (_Rows) are made once as well. A step
forms the limited transport from one difference array and one minmod
over the whole field, and the first-order upwind term from one
full-width product and one quotient, copied onto each half's upwind
rows. It adds the two in one full-width sum, then updates the field in
place (f -= dt * transport, f += dt * h). It diffuses all full stations
in one matrix product into the second buffer, and the two buffers swap
with their views. Each boundary callable is called once per step and
its result written straight into its rows of the field, then checked
for fit, complex values and finiteness; the finiteness check is one sum,
and only a sum that is not finite is followed by a check of each entry.
The step does the floating-point operations of the plain full-width
step that tests/test_solver.py keeps as a reference, in the same order,
so its results are bit-identical to it. The stationary sweep calls the
same object's correction and uses its buffers as work arrays.
"""

from __future__ import annotations

import math
import numbers
import struct
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

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
        """Write the rows x,v,value under a header, x-station by x-station,
        each number as the repr of a plain float (the repr of a numpy scalar
        is np.float64(...)). Each v is formatted once and each x once per
        station, and a station's rows go out in one write."""
        vs = [f",{v!r}," for v in self.grid.vs.tolist()]
        with open(path, "w") as fh:
            fh.write("x,v,value\n")
            for x, row in zip(self.grid.xs.tolist(), self.values.tolist()):
                xr = repr(x)
                fh.write("".join([f"{xr}{v}{val!r}\n" for v, val in zip(vs, row)]))

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


class _Rows(NamedTuple):
    """A field buffer f and the views of it that a sweep or an IMEX step
    reads or writes, made once per buffer: making a basic slice costs
    about a third as much as a ufunc on a station. neg* are the v < 0 columns of a
    station, pos* its v > 0 columns; mirror0 is neg0 reversed, the
    specular image of pos0, and walls the columns v_0 and v_{nv-1}."""

    f: np.ndarray
    hi: np.ndarray
    lo: np.ndarray
    row0: np.ndarray
    neg0: np.ndarray
    pos0: np.ndarray
    mirror0: np.ndarray
    neg1: np.ndarray
    neg2: np.ndarray
    last: np.ndarray
    walls: np.ndarray

    @classmethod
    def of(cls, f: np.ndarray) -> "_Rows":
        nv = f.shape[1]
        m = nv // 2
        return cls(f=f, hi=f[1:], lo=f[:-1], row0=f[0], neg0=f[0, :m], pos0=f[0, m:],
                   mirror0=f[0, m - 1::-1], neg1=f[1, :m], neg2=f[2, :m], last=f[-1],
                   walls=f[:, ::nv - 1])


class _Transport:
    """The transport kernels of one run, for the velocities vs (sorted and
    symmetric, as HalfStripGrid.vs), the step hx and nx + 1 stations: the
    per-run constants, the work arrays and every view of them that a
    kernel reads or writes, made once, so that a call allocates nothing.
    d (nx, nv) holds f[1:] - f[:-1] and then the slopes. tmp
    (2, nx - 1, nv) is the minmod's result mm and scratch mm_tmp, and
    before the minmod it holds upwind (nx, nv), apply's first-order term
    at full width. first (nx + 1, nv) is that term on the rows of its
    upwind nodes, and out (nx + 1, nv) takes a kernel's result. The v < 0
    columns are the first half and the v > 0 columns the second. The
    kernels take the field as a _Rows."""

    def __init__(self, vs: np.ndarray, hx: float, nx: int):
        nv = len(vs)
        m = nv // 2
        self.vs, self.hx = vs, hx
        self.half_sign = np.copysign(0.5, vs)       # the sign of each column's half-slope
        self.v_hx = vs / hx
        self.outflow = -(vs[:m] / (2.0 * hx))       # station 0's one-sided correction
        d = self.d = np.empty((nx, nv))
        self.d_hi, self.d_lo = d[1:], d[:-1]
        self.d_lo_neg, self.d_hi_pos = d[:-1, :m], d[1:, m:]
        self.tmp = np.empty((2, nx - 1, nv))
        self.mm, self.mm_tmp = self.tmp
        self.mm_neg, self.mm_pos = self.mm[:, :m], self.mm[:, m:]
        # apply's full-width first-order term, in tmp before the minmod
        s = self.upwind = self.tmp.reshape(-1)[:nx * nv].reshape(nx, nv)
        self.upwind_neg, self.upwind_pos = s[:, :m], s[:, m:]
        out = self.out = np.empty((nx + 1, nv))
        self.out_inner, self.out_last = out[1:-1], out[-1]
        self.out0_neg, self.out0_pos = out[0, :m], out[0, m:]
        first = self.first = np.empty((nx + 1, nv))
        self.first_lo_neg, self.first_hi_pos = first[:-1, :m], first[1:, m:]
        self.first0_pos, self.first1_pos = first[0, m:], first[1, m:]
        self.first_last_neg, self.first_last2_neg = first[-1, :m], first[-2, :m]

    def correction(self, rows: _Rows) -> np.ndarray:
        """Deferred correction lifting first-order upwind to limited second
        order: corr[i, j] such that v df/dx ~ v (f_i - f_upwind)/hx + corr,
        with f = rows.f, written into out, which is returned. d holds
        f[1:] - f[:-1] on entry and the slopes on return.

        The mirror extension of a specular solution generically has an
        x-derivative kink at the wall (the extended source is discontinuous),
        so no smooth-across-the-wall stencil is used: station 0 (v<0 rows)
        gets a one-sided second-order correction and the wall-adjacent faces
        fall back to centered differences, whatever the condition at x = 0.
        """
        # slope[k], formed in place in d: the half-slope that face k+1/2 adds
        # to the value of its upwind station, k for v > 0 and k+1 for v < 0
        # (there with a minus sign). It is the minmod of the station's two
        # differences, except at the faces next to the inflow node and next to
        # x_max: those are centered, and are the rows of d that the minmod
        # rows leave as they are.
        _minmod(self.d_lo, self.d_hi, self.mm, self.mm_tmp)
        self.d_hi_pos[...] = self.mm_pos
        self.d_lo_neg[...] = self.mm_neg
        np.multiply(self.d, self.half_sign, out=self.d)
        np.subtract(self.d_hi, self.d_lo, out=self.out_inner)
        np.multiply(self.out_inner, self.v_hx, out=self.out_inner)
        self.out_last.fill(0.0)
        self.out0_pos.fill(0.0)
        # one-sided second-order correction at the outflow station,
        # outflow * (f[0] - 2 f[1] + f[2]) on the v < 0 columns, in that order
        s0 = self.out0_neg
        np.multiply(2.0, rows.neg1, out=s0)
        np.subtract(rows.neg0, s0, out=s0)
        np.add(s0, rows.neg2, out=s0)
        np.multiply(self.outflow, s0, out=s0)
        return self.out

    def apply(self, rows: _Rows) -> np.ndarray:
        """Full second-order limited transport operator v df/dx (explicit)
        of f = rows.f, written into out, which is returned."""
        np.subtract(rows.hi, rows.lo, out=self.d)
        # the first-order upwind difference (vs * d) / hx at full width in
        # tmp, which the correction's minmod overwrites later, then copied
        # onto the rows of its upwind node: station k + 1 for v > 0 and k
        # for v < 0. It is one-sided where the upwind node lies outside:
        # v > 0 at station 0, v < 0 at station nx.
        np.multiply(self.vs, self.d, out=self.upwind)
        np.divide(self.upwind, self.hx, out=self.upwind)
        self.first_hi_pos[...] = self.upwind_pos
        self.first_lo_neg[...] = self.upwind_neg
        self.first0_pos[...] = self.first1_pos
        self.first_last_neg[...] = self.first_last2_neg
        self.correction(rows)
        return np.add(self.out, self.first, out=self.out)


def _finite(values, what: str) -> np.ndarray:
    """values as a new float array; ValueError if they are complex (a cast
    would drop the imaginary part) or any entry is NaN or inf."""
    if np.iscomplexobj(values):
        raise ValueError(f"{what} is complex")
    arr = np.array(values, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} contains non-finite values")
    return arr


def _data(fn, dst: np.ndarray, what: str, *args) -> np.ndarray:
    """One call fn(*args) on coordinate arrays, written into dst (a float
    array or a view of the field), which is returned; ValueError if the
    result does not fit dst, is complex or is not finite.

    Finiteness costs one reduction: the sum of dst is finite unless an
    entry is NaN or inf, or the sum of finite entries overflows, and only
    then is each entry checked. So data whose sum overflows are accepted,
    after numpy's warning of the overflow in the sum, and under a filter or
    np.errstate that makes that warning an error as well."""
    values = fn(*args)
    if np.iscomplexobj(values):
        raise ValueError(f"{what} is complex")
    try:
        # np.broadcast_to's rule: an assignment alone would also drop
        # leading unit axes, e.g. fit (1, nv) into (nv,)
        if np.ndim(values) > dst.ndim:
            raise ValueError
        dst[...] = values
    except (ValueError, TypeError, OverflowError) as exc:
        shape = np.shape(values)
        if len(shape) > dst.ndim or any(s not in (1, t) for s, t in zip(shape[::-1],
                                                                        dst.shape[::-1])):
            raise ValueError(f"{what} of shape {shape} does not fit {dst.shape}") from None
        # it fits, so its entries are what a float cannot hold
        raise ValueError(f"{what} is not numeric: {exc}") from None
    try:
        total = np.add.reduce(dst, axis=None)
    except (RuntimeWarning, FloatingPointError):  # numpy's report of an overflow or inf - inf
        total = math.inf
    if not math.isfinite(total) and not np.isfinite(dst).all():
        raise ValueError(f"{what} contains non-finite values")
    return dst


def _source_array(h, grid: HalfStripGrid) -> np.ndarray:
    """The source on the grid: h is None (zero), a callable h(x, v), or an
    (nx+1, nv) array."""
    shape = (grid.nx + 1, grid.nv)
    if h is None:
        return np.zeros(shape)
    if callable(h):
        return _data(h, np.empty(shape), "source", grid.xs[:, None], grid.vs[None, :])
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
    A Dirichlet row is a unit row of the matrix and of its inverse, so a
    solve returns the wall data bit for bit. The other rows form a
    symmetric positive definite block M_ii, whose inverse is
    B = L^-T L^-1 from its Cholesky factor L: symmetric by construction,
    and accurate to rounding in every row. Its wall columns are
    -B M_iw, M_iw the inner rows' coupling to the walls.
    """
    n = len(diag_base)
    M = np.zeros((n, n))
    idx = np.arange(n)
    M[idx, idx] = diag_base + 2.0 * c
    M[idx[1:], idx[:-1]] = M[idx[:-1], idx[1:]] = -c
    if top == "fold":
        M[-1, -1] -= c
    walls = [0, n - 1] if top == "wall" else [0]
    inner = slice(1, n - 1) if top == "wall" else slice(1, n)
    Li = np.linalg.solve(np.linalg.cholesky(M[inner, inner]), np.eye(n - len(walls)))
    inv = np.zeros((n, n))
    inv[walls, walls] = 1.0
    B = inv[inner, inner] = Li.T @ Li
    inv[inner, walls] = -B @ M[inner, walls]
    return inv


class _UpwindPass(NamedTuple):
    """The upwind coupling P of one pass of the stationary sweep on its
    inner lanes, in its eigenbasis: P = W diag(lam) W_inv. powers[k] is
    lam^s, s = 2^k < rows, tiled over the rows - s rows that a scan over
    rows stations multiplies by it (numpy multiplies by a broadcast
    operand one row at a time, half again as slowly), with the entries
    that would be subnormal, and slow to multiply, set to 0.

    P = B D, with B a principal block of the symmetric positive definite
    interior inverse and D > 0 the diagonal of upwind weights d. So P is
    similar to the symmetric S = D^1/2 B D^1/2 = D^1/2 P D^-1/2, and its
    eigenvalues are real and in (0, 1): with S = Q diag(lam) Q^T, eigh's
    orthogonal Q gives W = D^-1/2 Q and W_inv = Q^T D^1/2.
    """

    W: np.ndarray
    W_inv: np.ndarray
    lam: np.ndarray
    powers: list[np.ndarray]

    @classmethod
    def of(cls, P: np.ndarray, d: np.ndarray, rows: int) -> "_UpwindPass":
        r = np.sqrt(d)
        lam, Q = np.linalg.eigh(P * r[:, None] / r)
        powers, power, s = [], lam.copy(), 1
        while s < rows:
            powers.append(np.tile(power, (rows - s, 1)))
            power *= power
            power[power < np.finfo(float).tiny] = 0.0
            s *= 2
        return cls(Q / r[:, None], Q.T * r, lam, powers)


def _diagonal_scan(z: np.ndarray, powers: list[np.ndarray], tmp: np.ndarray,
                   upward: bool) -> np.ndarray:
    """The rows z[i] = known[i] + lam z[i-1] (z[i+1] if upward), in place,
    with powers those of _UpwindPass: z holds known on entry, with the
    carry already added to its first row (its last if upward), and is
    returned. tmp is scratch of z's shape.

    A doubling (Hillis-Steele) scan with a diagonal coupling: after the
    step with lam^s, every row holds the terms of the rows less than 2s
    away, so log2(len(z)) multiply-adds on contiguous rows replace the
    loop over stations.
    """
    s = 1
    for power in powers:
        if upward:
            np.add(z[:-s], np.multiply(z[s:], power, out=tmp[s:]), out=z[:-s])
        else:
            np.add(z[s:], np.multiply(z[:-s], power, out=tmp[:-s]), out=z[s:])
        s *= 2
    return z


def diffusion_coupling(A: float, grid: HalfStripGrid) -> float:
    """k = A / hv^2, the coupling of neighbouring velocity cells in a
    station's tridiagonal. ValueError unless A is positive and finite, k is
    finite and > 0, and the largest stationary diagonal max|v| / hx + 2k is
    finite: past double range the inverse fails inside LAPACK, or the
    transport's v / hx turns to inf."""
    if not 0.0 < A < math.inf:
        raise ValueError(f"diffusion A must be positive and finite, got {A!r}")
    try:
        k = A / grid.hv ** 2
        diag = float(np.max(np.abs(grid.vs))) / grid.hx + 2.0 * k
    except (OverflowError, ZeroDivisionError):  # hv^2 past double range, or hv^2 or hx 0
        k = diag = math.inf
    if not (0.0 < k < math.inf and diag < math.inf):
        raise ValueError(f"diffusion A = {A!r} with steps hv = {grid.hv!r}, hx = {grid.hx!r} "
                         "leaves double range: A / hv^2 must be finite and > 0, "
                         "and max|v| / hx + 2 A / hv^2 finite")
    return k


def solve_stationary(h, bc: BoundaryCondition, A: float, grid: HalfStripGrid,
                     opts: SolverOptions = SolverOptions()) -> Field:
    """Solve v f_x - A f_vv = h on the strip with the given boundary data.

    h may be an (nx+1, nv) array, a callable h(x, v) called once on the
    grid's coordinate arrays, or None (zero source), as in solve_timedep.
    The result's metadata holds A, bc, sweeps and last_update, the update
    of the last sweep relative to max(1, max|f|), which is below opts.tol.
    Raises ValueError on non-finite source or boundary data or an A that
    diffusion_coupling refuses, and SolverError with the residual history
    on non-convergence.
    """
    k = diffusion_coupling(A, grid)
    H = _source_array(h, grid)

    vs, hx = grid.vs, grid.hx
    nxp1, nv = grid.nx + 1, grid.nv
    m = nv // 2
    a = np.abs(vs) / hx
    apos = np.where(vs > 0, a, 0.0)
    aneg = np.where(vs < 0, a, 0.0)
    interior = _station_factor(a, k, "wall")
    tr = _Transport(vs, hx, grid.nx)

    # boundary data enter at t = 0 only
    f = np.zeros((nxp1, nv))
    fv = _Rows.of(f)
    _data(bc.at_xmax, fv.last, "at_xmax data", 0.0, vs)
    wall_cols = slice(None, None, nv - 1)  # the columns v_0 and v_{nv-1}
    # at_vmax data on the rows v_0 and v_{nv-1} at every station
    walls = _data(bc.at_vmax, np.empty((nxp1, 2)), "at_vmax data", 0.0, grid.xs[:, None],
                  vs[[0, -1]])
    f[:, wall_cols] = walls
    # wall rows are Dirichlet rows: their right-hand side is the wall value
    apos[[0, -1]] = aneg[[0, -1]] = 0.0
    if bc.at_x0 == "dirichlet":
        _data(bc.inflow_profile, fv.row0, "inflow data", 0.0, vs)
    elif bc.at_x0 == "inflow":  # v>0 rows prescribed, v<0 block solved one-sided
        g = _data(bc.inflow_profile, np.empty(nv - m), "inflow data", 0.0, vs[m:])
        station0 = _station_factor(a[:m], k, "open")
        inflow_coupling = k * g[0]
        g[-1] = walls[0, 1]
    else:
        station0 = _station_factor(a[:m], k, "fold")
    # Each pass scans in the eigenbasis of its upwind coupling on its inner
    # lanes: the v > 0 rows but the v_max wall (forward), the v < 0 rows but
    # the -v_max wall (backward). A wall row is a unit row of the inverse
    # with no upwind weight: it neither couples nor is coupled.
    rows, inner = nxp1 - 2, m - 1
    pos = _UpwindPass.of(interior[m:-1, m:-1] * apos[m:-1], apos[m:-1], rows)
    neg = _UpwindPass.of(interior[1:m, 1:m] * aneg[1:m], aneg[1:m], rows)
    pos_station = (pos.W_inv @ interior[m:-1]).T
    neg_station = (neg.W_inv @ interior[1:m]).T
    # the inverse applied to the v < 0 rows' upwind coupling into the v > 0 rows
    neg_to_pos = interior[m:, :m] * aneg[:m]

    # Work arrays, allocated once per solve: a sweep writes every ufunc and
    # product into them and allocates nothing of field size. R, d and tmp
    # are the transport's; each pass then sums its right-hand side in
    # tmp[0] and keeps the rows it scans, contiguous, in tmp[1]: z, then the
    # forward scan's scratch or the backward pass's v > 0 rows.
    f_old, R, d, tmp = np.empty_like(f), tr.out, tr.d, tr.tmp
    rhs_buf, scan_buf = tmp.reshape(2, -1)
    z = scan_buf[:rows * inner].reshape(rows, inner)
    z_tmp = scan_buf[rows * inner:2 * rows * inner].reshape(rows, inner)
    known_pos = scan_buf[rows * inner:rows * (inner + m)].reshape(rows, m)
    # once the backward pass's products are made, its right-hand side in
    # tmp[0] is dead: the scan's scratch and the v > 0 coupling go there
    z_tmp_neg = rhs_buf[:rows * inner].reshape(rows, inner)
    coupled = rhs_buf[:rows * m].reshape(rows, m)
    history = []
    for sweep in range(opts.max_iter):
        np.copyto(f_old, f)
        if opts.order == 2:
            np.subtract(fv.hi, fv.lo, out=d)
            np.subtract(H, tr.correction(fv), out=R)
        else:
            np.copyto(R, H)
        R[:, wall_cols] = walls

        if bc.at_x0 != "dirichlet":
            rhs = R[0, :m] + aneg[:m] * fv.neg1
            if bc.at_x0 == "inflow":
                rhs[m - 1] += inflow_coupling
            fv.neg0[...] = station0 @ rhs
            fv.pos0[...] = fv.mirror0 if bc.at_x0 == "specular" else g

        # What a pass knows before it starts goes through the inverse, into
        # the eigenbasis of its coupling, in one product; the fresh upwind
        # values follow by a diagonal scan over the stations, and one more
        # product maps them back. The forward pass gives the v > 0 rows
        # fresh upstream values. The backward pass overwrites every row, and
        # reads only the v > 0 rows of the forward pass, so the forward pass
        # solves only those.
        rhs = np.multiply(aneg, f[2:], out=tmp[0])
        np.add(R[1:-1], rhs, out=rhs)
        np.matmul(rhs, pos_station, out=z)
        z[0] += pos.lam * (pos.W_inv @ f[0, m:-1])
        _diagonal_scan(z, pos.powers, z_tmp, upward=False)
        np.matmul(z, pos.W.T, out=f[1:-1, m:-1])
        # the backward pass gives the v < 0 rows fresh downstream values
        np.multiply(apos, f[:-2], out=rhs)
        np.add(R[1:-1], rhs, out=rhs)
        np.matmul(rhs, neg_station, out=z)
        np.matmul(rhs, interior[m:].T, out=known_pos)
        z[-1] += neg.lam * (neg.W_inv @ f[-1, 1:m])
        _diagonal_scan(z, neg.powers, z_tmp_neg, upward=True)
        np.matmul(z, neg.W.T, out=f[1:-1, 1:m])
        np.add(known_pos, np.matmul(f[2:, :m], neg_to_pos.T, out=coupled), out=f[1:-1, m:])

        # the update norm and the scale reuse f_old, which the next sweep refills
        delta = float(np.max(np.abs(np.subtract(f, f_old, out=f_old), out=f_old)))
        scale = max(1.0, float(np.max(np.abs(f, out=f_old))))
        history.append(delta / scale)
        if not np.isfinite(delta):
            raise SolverError("stationary sweep produced non-finite values", history)
        if delta / scale < opts.tol:
            fld = Field(grid, f, {"A": A, "bc": bc.at_x0, "sweeps": sweep + 1,
                                  "last_update": history[-1]})
            fld.check_finite()
            return fld
    raise SolverError(f"stationary sweep did not converge in {opts.max_iter} iterations",
                      history)


def solve_timedep(f0: Field, h, bc: BoundaryCondition, A: float, T: float) -> list[Field]:
    """IMEX time stepping up to horizon T: explicit limited transport,
    implicit v-diffusion. Refuses to run when dt violates the CFL bound
    dt <= 0.5 hx / v_max, and raises ValueError on a negative or
    non-finite T, a T that is not a whole number of steps dt (within 1e-9
    relative), an A that diffusion_coupling refuses, and non-finite
    source, initial or boundary data. Returns [initial slice, final
    slice]; f0 is left as it is."""
    grid = f0.grid
    k = diffusion_coupling(A, grid)
    if not 0.0 <= T < np.inf:
        raise ValueError(f"horizon T must be finite and >= 0, got {T!r}")
    if grid.dt is None:
        raise ValueError("grid needs finite dt > 0")
    dt, hx = grid.dt, grid.hx
    steps = T / dt
    if not (steps < np.inf and abs(steps - round(steps)) <= 1e-9 * steps):
        raise ValueError(f"horizon T = {T!r} is not a whole number of steps dt = {dt!r}")
    nsteps = round(steps)
    # the slack is relative: an absolute one outgrows the bound on a short strip
    if dt > 0.5 * hx / grid.v_max * (1.0 + 1e-12):
        raise ValueError(f"CFL violation: dt = {dt} > 0.5 hx / v_max = {0.5 * hx / grid.v_max}")
    # the grid's xs and vs properties build new arrays: read them once
    vs, xs = grid.vs, grid.xs[:, None]
    v_walls = vs[[0, -1]]
    m = grid.nv // 2
    # station-0 rows prescribed by inflow_profile after every step, named
    # by their field of _Rows, and their velocities
    x0_rows = {"inflow": "pos0", "dirichlet": "row0"}.get(bc.at_x0)
    v_in = vs[m:] if bc.at_x0 == "inflow" else vs
    dt_H = dt * _source_array(h, grid)

    f = _finite(f0.values, "initial field")
    initial = Field(grid, f.copy(), dict(f0.metadata, t=0.0))
    c = dt * k
    full_T = _station_factor(np.ones(grid.nv), c, "wall").T
    # the specular station 0 diffuses its v<0 block with the mirror fold
    fold = _station_factor(np.ones(m), c, "fold") if bc.at_x0 == "specular" else None

    # made once per run: the transport with its buffers and views, and the
    # views of two field buffers. Each step diffuses f into g, and the two
    # swap, views and all.
    tr = _Transport(vs, hx, grid.nx)
    out = tr.out
    f, g = _Rows.of(f), _Rows.of(np.empty_like(f))
    t = 0.0
    for _ in range(nsteps):
        # f - dt * transport + dt * h, in place and in that order
        tr.apply(f)
        out *= dt
        np.subtract(f.f, out, out=f.f)
        np.add(f.f, dt_H, out=f.f)
        t_next = t + dt
        _data(bc.at_vmax, f.walls, "at_vmax data", t_next, xs, v_walls)
        if fold is None:
            # one product for all stations: each row is a right-hand side
            np.matmul(f.f, full_T, out=g.f)
        else:
            np.matmul(fold, f.neg0, out=g.neg0)
            g.pos0[...] = g.mirror0
            np.matmul(f.hi, full_T, out=g.hi)
        f, g = g, f
        _data(bc.at_xmax, f.last, "at_xmax data", t_next, vs)
        if x0_rows is not None:
            _data(bc.inflow_profile, getattr(f, x0_rows), "inflow data", t_next, v_in)
        t = t_next
    final = Field(grid, f.f, dict(f0.metadata, t=t))
    final.check_finite()
    return [initial, final]
