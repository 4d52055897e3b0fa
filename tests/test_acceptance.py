"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines and timings. Every tolerance is pinned here; nothing is deferred to
later calibration.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from kinreg.geometry import (
    CylinderSpec,
    KineticPoint,
    compose,
    cylinder_contains,
    inverse,
    kinetic_distance,
    origin,
    scale,
)
from kinreg.liouville import HalfSpaceRHS, classify, classify_homogeneous, flip_symmetric_shortcut, verify_solution
from kinreg.polynomials import (
    KineticPolynomial,
    apply_operator,
    full_space,
    kolmogorov_operator,
    l2_project,
    mono,
    particular_solve_1d,
    space_basis,
    tricomi_augmented_space,
)
from kinreg.probe import best_approx_error, exponent_fit, gamma0_tricomi_coefficient, phase_field
from kinreg.solver import BoundaryCondition, HalfStripGrid, SolverOptions, solve_stationary
from kinreg.specfun import asymptotic_m, kummer_m, kummer_m_series, tricomi_u
from kinreg.tricomi import TricomiParams, as_field, cusp_ratio, eval_tricomi, pde_residual, residual_constant

RNG = np.random.RandomState(1234)


def _report(num, name, ok, budget, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} [{name}]: {status}  ({elapsed:.1f}s / budget {budget:.0f}s)  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded runtime budget: {elapsed:.1f}s"


def _rand_point(n=1):
    return KineticPoint(RNG.uniform(-2, 2), RNG.uniform(-2, 2, size=n), RNG.uniform(-2, 2, size=n))


def test_criterion_1_geometry_suite():
    t0 = time.monotonic()
    ok = True
    for _ in range(1000):
        a, b, c = _rand_point(), _rand_point(), _rand_point()
        lhs, rhs = compose(compose(a, b), c), compose(a, compose(b, c))
        sc = 1.0 + lhs.norm()
        ok &= abs(lhs.t - rhs.t) + abs(lhs.x[0] - rhs.x[0]) + abs(lhs.v[0] - rhs.v[0]) <= 1e-12 * sc
        inv = compose(a, inverse(a))
        ok &= abs(inv.t) + abs(inv.x[0]) + abs(inv.v[0]) <= 1e-12 * (1 + a.norm())
        r, s = RNG.uniform(0.1, 5.0, size=2)
        p, q = scale(r, scale(s, a)), scale(r * s, a)
        ok &= abs(p.t - q.t) + abs(p.x[0] - q.x[0]) + abs(p.v[0] - q.v[0]) <= 1e-12 * (1 + q.norm())
    for _ in range(1000):
        z1, z2, z = _rand_point(), _rand_point(), _rand_point()
        r = RNG.uniform(0.1, 10.0)
        d = kinetic_distance(z1, z2, 1e-9)
        ok &= abs(kinetic_distance(scale(r, z1), scale(r, z2), 1e-9) - r * d) <= 2e-9 * (1 + r)
        ok &= abs(kinetic_distance(compose(z, z1), compose(z, z2), 1e-9) - d) <= 2e-9
    for _ in range(1000):
        z1, z2 = _rand_point(), _rand_point()
        r = RNG.uniform(0.2, 2.0)
        d = kinetic_distance(z1, z2, 1e-9)
        if cylinder_contains(CylinderSpec(z2, r), z1):
            ok &= d <= r + 1e-9
        if d < r - 1e-9:
            ok &= cylinder_contains(CylinderSpec(z2, 2 * r), z1)
    _report(1, "geometry suite", ok, 5.0, time.monotonic() - t0)


def test_criterion_2_polynomial_calculus():
    t0 = time.monotonic()
    ok = True
    for n in (1, 2):
        op = kolmogorov_operator(n)
        for k in range(9):
            for q in space_basis(full_space(k, n)):
                img = apply_operator(op, q)
                ok &= img.is_zero() or img.degree() <= k - 2
    op1 = kolmogorov_operator(1)
    for l1 in range(5):
        for l2 in range(7):
            P = particular_solve_1d(l1, l2, Fraction(7, 3), 1)
            ok &= apply_operator(op1, P) == KineticPolynomial.monomial(1, Fraction(7, 3), bx=(l1,), bv=(l2,))
    z0 = KineticPoint(0.1, 0.3, -0.2)
    spec = full_space(4, 1)
    basis = space_basis(spec)
    coefs = RNG.uniform(-3, 3, size=len(basis))
    p = KineticPolynomial.zero(1)
    for cc, q in zip(coefs, basis):
        p = p + q * Fraction(cc).limit_denominator(10 ** 9)
    got = l2_project(p.eval, z0, 0.8, spec)
    want = np.array([float(p.coefficient(next(iter(q.terms)))) for q in basis])
    ok &= bool(np.max(np.abs(got - want)) <= 1e-10)
    _report(2, "polynomial calculus", ok, 10.0, time.monotonic() - t0,
            f"projection coeff error {np.max(np.abs(got - want)):.2e}")


def test_criterion_3_special_functions():
    t0 = time.monotonic()
    ok = True
    for a, b in [(0.3, 0.7), (-5 / 3, 2 / 3), (4.0, 6.5)]:
        ok &= kummer_m(a, b, 0.0).value == 1.0
    worst_id = 0.0
    for a in [0.15, 0.3, 0.45, 0.6, 0.75, 0.9, 1.05, 1.2, 1.35, 1.5]:
        for off in [0.3, 0.8, 1.5, 2.2, 3.0]:
            for z in [-6.0, -2.5, 2.5, 6.0]:
                lhs = kummer_m_series(a, a + off, z).value
                rhs = math.exp(z) * kummer_m_series(off, a + off, -z).value
                worst_id = max(worst_id, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
    ok &= worst_id <= 1e-11
    worst_ode = 0.0
    for a in (-5 / 3, 0.4, 1.3):
        for b in (2 / 3, 4 / 3, 2.4):
            for z in (-30.0, -5.0, 0.5, 10.0, 30.0):
                m = kummer_m(a, b, z).value
                mp = a / b * kummer_m(a + 1, b + 1, z).value
                mpp = (a / b) * ((a + 1) / (b + 1)) * kummer_m(a + 2, b + 2, z).value
                scale_ = max(abs(z * mpp), abs((b - z) * mp), abs(a * m), 1.0)
                worst_ode = max(worst_ode, abs(z * mpp + (b - z) * mp - a * m) / scale_)
    ok &= worst_ode <= 1e-8
    # frozen 40-digit oracle value of Gamma(1/3)/Gamma(-4/3)
    ok &= abs(tricomi_u(-5 / 3, 2 / 3, 0.0).value - 0.8792730042874622700456737) \
        <= 1e-10 * 0.8792730042874622700456737
    over = abs(asymptotic_m(-5 / 3, 2 / 3, -40.0) / kummer_m(-5 / 3, 2 / 3, -40.0).value - 1.0)
    over = max(over, abs(asymptotic_m(0.4, 1.3, 40.0) / kummer_m(0.4, 1.3, 40.0).value - 1.0))
    ok &= over <= 0.03
    _report(3, "special functions", ok, 10.0, time.monotonic() - t0,
            f"identity {worst_id:.1e}, ode {worst_ode:.1e}, overlap {over:.1e}")


def test_criterion_4_tricomi_solution():
    t0 = time.monotonic()
    p = TricomiParams(A=1.0, lam=3)
    ok = True
    for _ in range(150):
        x, v = RNG.uniform(0.02, 2.0), RNG.uniform(-1.5, 1.5)
        r = 10.0 ** RNG.uniform(-2, 2)
        base = eval_tricomi(p, x, v)
        ok &= abs(eval_tricomi(p, r ** 3 * x, r * v) - r ** 5 * base) <= 1e-10 * (1 + r ** 5 * abs(base))
    consts = []
    for x in np.linspace(0.1, 2.0, 20):
        for v in np.linspace(0.4, 1.5, 20):
            consts.append(pde_residual(p, float(x), float(v)) / v ** 3)
    consts = np.array(consts)
    resid_dev = float(np.max(np.abs(consts - (-20.0))) / 20.0)
    ok &= resid_dev <= 1e-3
    r0 = cusp_ratio(p, 1.0)
    cusp_dev = max(abs(cusp_ratio(p, x) - r0) for x in (1e-6, 1e-3, 1.0)) / abs(r0)
    ok &= cusp_dev <= 1e-10
    gaps = [abs(eval_tricomi(p, x, 1.0) - eval_tricomi(p, x, -1.0)) for x in (1e-2, 1e-3, 1e-4)]
    ok &= gaps[0] > gaps[1] > gaps[2]
    _report(4, "tricomi solution", ok, 10.0, time.monotonic() - t0,
            f"residual const dev {resid_dev:.1e}, cusp dev {cusp_dev:.1e}, gaps {gaps[0]:.2e}>{gaps[1]:.2e}>{gaps[2]:.2e}")


def test_criterion_5_liouville_dichotomy():
    t0 = time.monotonic()
    ok = True
    # all homogeneous monomial layers with lam <= 7: Tricomi iff lam = 3
    # and the particular's trace coefficient is nonzero
    for lam in range(8):
        for bx in range(lam // 3 + 1):
            bv = lam - 3 * bx
            p = KineticPolynomial.monomial(1, 2, bx=(bx,), bv=(bv,))
            res = classify_homogeneous(HalfSpaceRHS(p, 1.0), lam)
            ok &= verify_solution(res, HalfSpaceRHS(p, 1.0)).passed
            if lam != 3:
                ok &= res.is_polynomial
    # lam = 9 enabled: the generic layer carries T_{A,9}
    p9 = KineticPolynomial.monomial(1, 1, bv=(9,))
    res9 = classify_homogeneous(HalfSpaceRHS(p9, 1.0), 9)
    ok &= (not res9.is_polynomial) and res9.tricomi_terms[0][0] == 9
    ok &= verify_solution(res9, HalfSpaceRHS(p9, 1.0)).passed
    # the structural exception stays polynomial
    exc = KineticPolynomial(1, {mono(1, bv=(3,)): 1, mono(1, bx=(1,)): -2})
    res = classify(HalfSpaceRHS(exc, 1.0))
    ok &= res.is_polynomial and res.particular == KineticPolynomial.monomial(1, 1, bx=(1,), bv=(2,))
    # flip-symmetric shortcut forces polynomial, 500 randomized cases
    op1 = kolmogorov_operator(1)
    count = 0
    while count < 500:
        terms = {}
        for _ in range(RNG.randint(1, 5)):
            bx = int(RNG.randint(0, 3))
            bv = int(RNG.randint(0, 8 - 3 * bx))
            terms[(bx, bv)] = int(RNG.randint(-5, 6))
        q = KineticPolynomial(1, {mono(1, bx=(a,), bv=(b,)): Fraction(c) for (a, b), c in terms.items()})
        if q.degree() > 7 or not flip_symmetric_shortcut(op1, q):
            continue
        ok &= classify(HalfSpaceRHS(q, 1.0)).is_polynomial
        count += 1
    _report(5, "liouville dichotomy", ok, 30.0, time.monotonic() - t0)


def test_criterion_6_solver():
    t0 = time.monotonic()
    ok = True
    fstar = lambda x, v: x ** 3 + v ** 6
    h = lambda x, v: 3 * x * x * v - 30.0 * v ** 4
    errs = []
    for n in (64, 128, 256):
        g = HalfStripGrid(x_max=1.0, v_max=1.5, nx=n, nv=n)
        bc = BoundaryCondition(at_x0="inflow",
                               inflow_profile=lambda t, v: fstar(0.0, v),
                               at_xmax=lambda t, v: fstar(1.0, v),
                               at_vmax=lambda t, x, v: fstar(x, v))
        fld = solve_stationary(h, bc, 1.0, g)
        ex = np.array([[fstar(x, v) for v in g.vs] for x in g.xs])
        errs.append(float(np.max(np.abs(fld.values - ex))))
    mms_orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    ok &= all(o >= 1.9 for o in mms_orders)

    tp = TricomiParams(A=1.0, lam=3)
    C = residual_constant(tp)
    terrs = []
    for n in (64, 128, 256):
        g = HalfStripGrid(x_max=1.0, v_max=1.0, nx=n, nv=n)
        bc = BoundaryCondition(at_x0="specular",
                               at_xmax=lambda t, v: eval_tricomi(tp, 1.0, v),
                               at_vmax=lambda t, x, v: eval_tricomi(tp, x, v))
        fld = solve_stationary(lambda x, v: C * v ** 3, bc, 1.0, g)
        ex = eval_tricomi(tp, g.xs[:, None], g.vs[None, :])
        terrs.append(float(np.max(np.abs(fld.values - ex))))
    ok &= terrs[0] > terrs[1] > terrs[2]
    tric_orders = [math.log2(terrs[i] / terrs[i + 1]) for i in range(2)]
    ok &= all(o >= 1.0 for o in tric_orders)

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
    H_full = np.empty((2 * n + 1, n))
    H_full[n:, :] = H_half
    H_full[n, gh.vs > 0] = H_half[0, ::-1][gh.vs > 0]
    H_full[:n, :] = H_half[n:0:-1, ::-1]
    full = solve_stationary(H_full, bcf, 1.0, gf, SolverOptions(tol=1e-12, order=1))
    mirror_gap = float(np.max(np.abs(half.values - full.values[n:, :])))
    ok &= mirror_gap <= 1e-8
    _report(6, "solver", ok, 180.0, time.monotonic() - t0,
            f"mms orders {[round(o, 2) for o in mms_orders]}, "
            f"tricomi orders {[round(o, 2) for o in tric_orders]}, mirror {mirror_gap:.1e}")


def test_criterion_7_regularity_probe():
    t0 = time.monotonic()
    ok = True
    tp = TricomiParams(A=1.0, lam=3)
    f = as_field(tp)
    z0 = origin(1)
    radii = [1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125]
    errs = [best_approx_error(f, z0, r, full_space(5, 1)) for r in radii]
    plat = [e / r ** 5 for e, r in zip(errs, radii)]
    med = sorted(plat)[len(plat) // 2]
    ok &= all(med / 2 <= q <= 2 * med for q in plat)
    ea = best_approx_error(f, z0, 1 / 32, tricomi_augmented_space(1.0))
    ok &= ea <= errs[-1] / 20.0

    # smooth-data solver field at a gamma_+ point: save under x^2 + xv + v^2
    fstar = lambda x, v: x * x + x * v + v * v
    hsrc = lambda x, v: v * (2 * x + v) - 2.0
    grid = HalfStripGrid(x_max=2.2, v_max=2.5, nx=160, nv=160)
    bc = BoundaryCondition(at_x0="inflow",
                           inflow_profile=lambda t, v: fstar(0.0, v),
                           at_xmax=lambda t, v: fstar(2.2, v),
                           at_vmax=lambda t, x, v: fstar(x, v))
    fld = solve_stationary(hsrc, bc, 1.0, grid)
    fsolve = phase_field(fld.interpolator().ev)
    ef = exponent_fit(fsolve, KineticPoint(0.0, 0.0, -1.0), full_space(5, 1),
                      [1.0, 0.5, 0.25, 0.125])
    ok &= ef.slope >= 5.3

    poly = KineticPolynomial(1, {mono(1): 2, mono(1, bv=(2,)): Fraction(3, 10),
                                 mono(1, bt=1, bv=(2,)): 1, mono(1, bx=(1,)): -12})
    fsyn = lambda z: 3.7 * f(z) + poly.eval(z)
    rep = gamma0_tricomi_coefficient(fsyn, z0, 1.0, [0.5, 0.25, 0.125])
    tau_err = abs(rep.tau - 3.7)
    ok &= tau_err <= 1e-3
    _report(7, "regularity probe", ok, 120.0, time.monotonic() - t0,
            f"plateau spread x{max(plat) / min(plat):.2f}, augmented ratio {errs[-1] / max(ea, 1e-300):.0f}, "
            f"gamma+ slope {ef.slope:.2f}, tau err {tau_err:.1e}")


def test_criterion_8_flatten_counterexample():
    t0 = time.monotonic()
    from kinreg.flatten import (
        build_flatten,
        counterexample_condition,
        flat_domain,
        parabola_domain,
        reflection_commutation_check,
        transform_coefficients,
    )

    ok = True
    fm = build_flatten(parabola_domain(1.0))
    gap = reflection_commutation_check(fm)
    ok &= gap <= 1e-8
    a0, *_ = transform_coefficients(fm, np.zeros(2), np.zeros(2))
    a_dev = float(np.max(np.abs(a0 - np.eye(2))))
    ok &= a_dev <= 1e-10
    fvv = np.diag([2.0, -2.0])
    flat_cond = counterexample_condition(build_flatten(flat_domain()).d2_phi(np.zeros(2)), fvv)
    par_hess = fm.d2_phi(np.zeros(2))
    par_cond = counterexample_condition(par_hess, fvv)
    # the equivalence: violated iff the mixed Hessian entry is nonzero
    ok &= (abs(par_hess[0][0, 1]) > 1e-6) == par_cond["violated"] == True  # noqa: E712
    ok &= (abs(build_flatten(flat_domain()).d2_phi(np.zeros(2))[0][0, 1]) > 1e-6) \
        == flat_cond["violated"] == False  # noqa: E712
    _report(8, "flatten & counterexample", ok, 10.0, time.monotonic() - t0,
            f"commutation gap {gap:.1e}, a(0) dev {a_dev:.1e}")


def test_criterion_9_suite_deterministic(tmp_path):
    t0 = time.monotonic()
    from kinreg.cli import main

    outs = []
    for name in ("run_a", "run_b"):
        d = tmp_path / name
        rc = main(["--seed", "4", "suite", "--out", str(d)])
        assert rc == 0
        blobs = {}
        for f in sorted(d.iterdir()):
            if f.suffix in (".json", ".csv"):
                blobs[f.name] = f.read_bytes()
        outs.append(blobs)
    ok = outs[0].keys() == outs[1].keys() and all(outs[0][k] == outs[1][k] for k in outs[0])
    elapsed = time.monotonic() - t0
    _report(9, "suite determinism", ok, 360.0, elapsed,
            f"{len(outs[0])} report files byte-identical across runs")
