"""Empirical boundary-regularity measurements.

The central quantity is the best-approximation error of a field over a
finite-dimensional space on shrinking cylinders H_r(z0): a field that is
C^(k,eps) at z0 shows error(r) = O(r^(k+eps)), while the grazing-point
obstruction shows an exact r^5 plateau over the degree-5 polynomials that
disappears once the Tricomi function is added to the space. All fitting
happens in the zoom frame z = z0 o S_r zhat so the Gram matrices stay
conditioned at tiny radii; pulled-back polynomials span the same space,
which makes the scaling covariance exact by construction.

A point set is one (N, 3) array of rows (t, x, v) from the sampler to the
fit; field_values is the one adapter that evaluates a field on it.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .geometry import KineticPoint, frame_map, frame_unmap
from .polynomials import PolySpaceSpec, basis_matrix, space_dim, tricomi_augmented_space

EXACT_FIT_SENTINEL = math.inf
_EXACT_FIT_FLOOR = 1e-13

_HALTON_PRIMES = (2, 3, 5)


def _radical_inverse(idx: np.ndarray, base: int) -> np.ndarray:
    """The base-b Halton coordinate of every index, digit by digit."""
    out = np.zeros(idx.shape)
    f = 1.0
    while idx.any():
        f /= base
        idx, digit = np.divmod(idx, base)
        out += f * digit
    return out


@functools.lru_cache(maxsize=32)
def _unit_rows(start: int, stop: int) -> np.ndarray:
    """The read-only (stop - start, 3) Halton rows of indices start..stop-1
    in [0, 1). Kept for the last 32 ranges: the ranges depend only on the
    seed, the count and the rejections, so the radii of a probe at the
    grazing set, where x > 0 does not depend on r, share them."""
    idx = np.arange(start, stop)
    unit = np.stack([_radical_inverse(idx, b) for b in _HALTON_PRIMES], axis=1)
    unit.setflags(write=False)
    return unit


def sample_cylinder(z0: KineticPoint, r: float, count: int, seed: int = 0) -> np.ndarray:
    """count low-discrepancy points of H_r(z0) = Q_r(z0) (cap x > 0), as a
    (count, 3) array of rows (t, x, v).

    Halton points in the normalized cylinder mapped by the zoom frame;
    rejection keeps the scan deterministic for a given seed >= 0.
    """
    if z0.n != 1:
        raise ValueError("sampling implemented for n = 1")
    if not isinstance(count, numbers.Integral) or count < 1:
        raise ValueError(f"count must be an integer >= 1, got {count!r}")
    # the Halton digits of a negative index never end
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be >= 0 and an integer, got {seed!r}")
    start = 1 + 1000 * seed
    end = start + 1000 * count
    pts = np.empty((0, 3))
    while len(pts) < count:
        if start >= end:
            raise RuntimeError("rejection sampling starved; cylinder mostly outside domain")
        stop = min(start + 2 * count, end)
        unit = _unit_rows(start, stop)
        start = stop
        z = frame_map(z0, r, 2.0 * unit - 1.0)
        pts = np.concatenate([pts, z[z[:, 1] > 0.0]])
    return pts[:count]


def field_values(f: Callable[[KineticPoint], float], pts: np.ndarray) -> np.ndarray:
    """f at every row (t, x, v) of pts: one f.values(pts) call when the
    field has that method (CylinderFit and phase_field fields do),
    otherwise f(KineticPoint) row by row. ValueError if a value is NaN or
    inf."""
    batch = getattr(f, "values", None)
    if batch is not None:
        out = np.asarray(batch(pts), dtype=float)
    else:
        out = np.array([f(KineticPoint(*row)) for row in pts.tolist()], dtype=float)
    if not np.all(np.isfinite(out)):
        raise ValueError("field has non-finite values on the sample points")
    return out


def phase_field(g: Callable) -> Callable[[KineticPoint], float]:
    """The field z -> g(x[0], v[0]) for a g that broadcasts over arrays;
    its values(pts) is one g call on two columns of the rows."""

    def f(z: KineticPoint) -> float:
        return float(g(z.x[0], z.v[0]))

    def values(pts: np.ndarray) -> np.ndarray:
        return g(pts[:, 1], pts[:, 1 + (pts.shape[1] - 1) // 2])

    f.values = values
    return f


class CylinderFit:
    """Least-squares fit of a field over span(spec) on H_r(z0)."""

    def __init__(self, spec: PolySpaceSpec, z0: KineticPoint, r: float,
                 coeffs: np.ndarray):
        self.spec = spec
        self.z0 = z0
        self.r = r
        self.coeffs = coeffs

    def values(self, pts: np.ndarray) -> np.ndarray:
        """The fit at every row of pts: polynomials in the zoom frame,
        the Tricomi column (5-homogeneous, so it scales out) at pts."""
        return basis_matrix(self.spec, frame_unmap(self.z0, self.r, pts), pts) @ self.coeffs


def polyfit_on_cylinder(f: Callable[[KineticPoint], float], z0: KineticPoint,
                        r: float, spec: PolySpaceSpec, samples: int | None = None,
                        seed: int = 0) -> CylinderFit:
    dim = space_dim(spec)
    count = samples if samples is not None else 20 * dim
    if count < 10 * dim:
        raise ValueError(f"need at least {10 * dim} samples for dim {dim}")
    pts = sample_cylinder(z0, r, count, seed=seed)
    B = basis_matrix(spec, frame_unmap(z0, r, pts), pts)
    scale = np.maximum(np.abs(B).max(axis=0), 1e-300)
    fv = field_values(f, pts)
    sol, _, rank, _ = np.linalg.lstsq(B / scale, fv, rcond=None)
    if rank < B.shape[1]:
        raise ValueError(f"rank-deficient fit: rank {rank} < dim {B.shape[1]}")
    return CylinderFit(spec, z0, r, sol / scale)


def best_approx_error(f: Callable[[KineticPoint], float], z0: KineticPoint,
                      r: float, spec: PolySpaceSpec, seed: int = 0) -> float:
    """sup |f - best span(spec) fit| over H_r(z0): a least-squares proxy
    for the minimax error, evaluated on a 4x denser residual grid. Upper
    bound up to a dimension-dependent factor; all downstream acceptance
    checks compare ratios, which cancels the factor."""
    return _approx_errors(f, z0, spec, (r,), seed)[0][0]


def _approx_errors(f: Callable[[KineticPoint], float], z0: KineticPoint,
                   spec: PolySpaceSpec, radii: Sequence[float],
                   seed: int) -> tuple[list[float], tuple[CylinderFit, ...]]:
    """best_approx_error at every radius, in order, and the fit of each
    radius. Every fit comes before the first residual, so the field is
    evaluated on the fit points of each radius in turn, then on the dense
    points: at the grazing set, radii a power of 2 apart give T the same
    Kummer arguments on both sets (specfun._taylor keeps the last sums)."""
    fits = tuple(polyfit_on_cylinder(f, z0, r, spec, seed=seed) for r in radii)
    count = 80 * space_dim(spec)
    errs = []
    for fit in fits:
        dense = sample_cylinder(z0, fit.r, count, seed=seed + 7)
        errs.append(float(np.max(np.abs(field_values(f, dense) - fit.values(dense)))))
    return errs, fits


@dataclass
class ExponentFit:
    """The slope fit and, in fits, the CylinderFit of each radius."""

    radii: tuple[float, ...]
    errors: tuple[float, ...]
    slope: float
    intercept: float
    r_squared: float
    fits: tuple[CylinderFit, ...] = field(default=(), repr=False, compare=False)

    def __post_init__(self):
        if any(b >= a for a, b in zip(self.radii, self.radii[1:])):
            raise ValueError("radii must be strictly decreasing")


def exponent_fit(f: Callable[[KineticPoint], float], z0: KineticPoint,
                 spec: PolySpaceSpec, radii: Sequence[float],
                 seed: int = 0) -> ExponentFit:
    """Least-squares slope of log(error) against log(r).

    Exact fits (all errors at the numerical floor) report the +inf slope
    sentinel rather than a meaningless regression.
    """
    radii = tuple(sorted(set(float(r) for r in radii), reverse=True))
    if len(radii) < 4:
        raise ValueError("need at least 4 radii")
    errs, fits = _approx_errors(f, z0, spec, radii, seed)
    scale = float(np.max(np.abs(field_values(f, sample_cylinder(z0, radii[0], 64, seed=seed)))))
    if all(e <= _EXACT_FIT_FLOOR * max(1.0, scale) for e in errs):
        return ExponentFit(radii, tuple(errs), EXACT_FIT_SENTINEL, -math.inf, 1.0, fits)
    lr = np.log(radii)
    le = np.log(np.maximum(errs, 1e-300))
    slope, intercept = np.polyfit(lr, le, 1)
    pred = slope * lr + intercept
    ss_res = float(np.sum((le - pred) ** 2))
    ss_tot = float(np.sum((le - le.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return ExponentFit(radii, tuple(errs), float(slope), float(intercept), r2, fits)


@dataclass
class TricomiCoefficientReport:
    tau: float
    taus_by_radius: tuple[float, ...]
    radii: tuple[float, ...]
    stable: bool


def gamma0_tricomi_coefficient(f: Callable[[KineticPoint], float],
                               z0: KineticPoint, A: float,
                               radii: Sequence[float],
                               seed: int = 0) -> TricomiCoefficientReport:
    """Extract the Tricomi multiplier of f at a grazing point.

    Fits f over the Tricomi-augmented degree-5 space at each radius and
    returns the coefficient at the smallest one; flagged unstable when
    the value moves more than 50% across radii.
    """
    if z0.x[0] != 0.0 or z0.v[0] != 0.0:
        raise ValueError("base point must lie on the grazing set (x = 0, v = 0)")
    spec = tricomi_augmented_space(A)
    radii = tuple(sorted(set(float(r) for r in radii), reverse=True))
    if not radii:
        raise ValueError("need at least one radius")
    return _multiplier_report([polyfit_on_cylinder(f, z0, r, spec, seed=seed) for r in radii])


def _multiplier_report(fits: Sequence[CylinderFit]) -> TricomiCoefficientReport:
    """The Tricomi coefficient report of fits over the Tricomi-augmented
    space, largest radius first (see gamma0_tricomi_coefficient)."""
    taus = [float(fit.coeffs[-1]) for fit in fits]
    tau = taus[-1]
    ref = max(abs(t) for t in taus)
    stable = ref == 0.0 or all(abs(t - tau) <= 0.5 * ref for t in taus)
    return TricomiCoefficientReport(tau, tuple(taus), tuple(fit.r for fit in fits), stable)
