"""Batch command line front end.

Subcommands run the verification suites and experiments and emit
deterministic JSON (and optionally CSV) reports: identical (config, seed)
pairs produce byte-identical files. Exit codes: 0 all checks passed,
1 at least one FAIL, 2 invalid configuration, 3 internal error (with the
traceback on stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import traceback

import numpy as np

from .geometry import KineticPoint
from .liouville import HalfSpaceRHS, classify, require_verifiable, verify_solution
from .polynomials import KineticPolynomial, full_space, tricomi_augmented_space
# best_approx_error is re-exported: perfbench/tracing.py wraps
# kinreg.cli.best_approx_error.
from .probe import (  # noqa: F401
    EXACT_FIT_SENTINEL,
    _approx_errors,
    _multiplier_report,
    best_approx_error,
    exponent_fit,
    gamma0_tricomi_coefficient,
    phase_field,
)
from .solver import (
    BoundaryCondition,
    Field,
    HalfStripGrid,
    SolverOptions,
    diffusion_coupling,
    solve_stationary,
)
from .tricomi import (TricomiParams, as_field, cusp_ratio, eval_tricomi, pde_residual,
                      require_finite_up_to, residual_constant)
from . import flatten as _flatten

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_INTERNAL = 3


def _seed(raw) -> int:
    """The sampler seed from --seed, else KRL_SEED, else 0: an integer in
    [0, 2**32), the range of numpy's RandomState; ValueError otherwise."""
    if raw is None:
        raw = os.environ.get("KRL_SEED", "0")
    msg = f"seed must be an integer in [0, 2**32), got {raw!r}"
    try:
        seed = int(raw)
    except ValueError:
        raise ValueError(msg) from None
    if not 0 <= seed < 2 ** 32:
        raise ValueError(msg)
    return seed


def _emit(report: dict, out: str | None):
    text = json.dumps(report, sort_keys=True, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _status(report: dict) -> int:
    def walk(node):
        if isinstance(node, dict):
            for k, v in node.items():
                if k == "pass" and v is False:
                    yield False
                else:
                    yield from walk(v)
        elif isinstance(node, list):
            for v in node:
                yield from walk(v)

    return EXIT_FAIL if any(ok is False for ok in walk(report)) else EXIT_OK


# ---------------------------------------------------------------------------
# tricomi-verify
# ---------------------------------------------------------------------------


def run_tricomi_verify(args) -> int:
    try:
        params = TricomiParams(A=args.A, lam=args.lam)
        require_finite_up_to(params, 150.0)   # the homogeneity draws reach |r v| < 100 * 1.5
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    rng = np.random.RandomState(args.seed)

    # one (x, v, r) draw per sample, in this order: the seed fixes the report
    x, v, r = np.array([(rng.uniform(0.05, 2.0), rng.uniform(-1.5, 1.5), 10.0 ** rng.uniform(-2, 2))
                        for _ in range(50)]).T
    rk = r ** params.homogeneity
    base = eval_tricomi(params, x, v)
    scaled = eval_tricomi(params, r ** 3 * x, r * v)
    hom_worst = float(np.max(np.abs(scaled - rk * base) / (1.0 + rk * np.abs(base))))
    hom_ok = hom_worst <= 1e-10

    want = residual_constant(params)
    # x-major, then v, then the sign of v
    vg = np.linspace(0.4, 1.5, 10)
    sv = np.tile(np.stack([vg, -vg], axis=1).ravel(), 20)
    consts = pde_residual(params, np.repeat(np.linspace(0.1, 2.0, 20), 20), sv) / sv ** params.lam
    resid_rel = float(np.max(np.abs(consts - want)) / abs(want))
    resid_ok = resid_rel <= 1e-3

    ratios = cusp_ratio(params, np.array([1e-6, 1e-3, 1.0]))
    cusp_rel = float(np.max(np.abs(ratios - ratios[0])) / abs(ratios[0]))
    cusp_ok = cusp_rel <= 1e-10

    pm = eval_tricomi(params, np.array([1e-2, 1e-3, 1e-4])[:, None], np.array([1.0, -1.0]))
    gaps = np.abs(pm[:, 0] - pm[:, 1]).tolist()
    even_ok = gaps[0] > gaps[1] > gaps[2]

    report = {
        "A": args.A,
        "lam": args.lam,
        "homogeneity": {"worst_rel": hom_worst, "pass": bool(hom_ok)},
        "residual_span": {"constant": float(np.mean(consts)), "expected": want,
                          "worst_rel": resid_rel, "pass": bool(resid_ok)},
        "cusp_ratio": {"value": float(ratios[0]), "worst_rel": cusp_rel, "pass": bool(cusp_ok)},
        "boundary_evenness": {"gaps": gaps, "pass": bool(even_ok)},
    }
    if args.csv:
        xg, vg = np.linspace(0.1, 2.0, 16), np.linspace(-1.5, 1.5, 16)
        X, V = np.meshgrid(xg, vg, indexing="ij")
        cols = (X, V, eval_tricomi(params, X, V), pde_residual(params, X, V),
                np.broadcast_to(cusp_ratio(params, xg)[:, None], X.shape))
        with open(args.csv, "w") as fh:
            fh.write("x,v,tricomi,residual,cusp_ratio\n")
            for row in zip(*(c.ravel().tolist() for c in cols)):
                fh.write(",".join(map(repr, row)) + "\n")
    _emit(report, args.out)
    return _status(report)


# ---------------------------------------------------------------------------
# liouville-classify
# ---------------------------------------------------------------------------


def run_liouville(args) -> int:
    try:
        with open(args.rhs) as fh:
            p = KineticPolynomial.from_json(fh.read())
        rhs = HalfSpaceRHS(p, args.A)
        require_verifiable(rhs)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    res = classify(rhs)
    rep = verify_solution(res, rhs)
    report = {
        "A": args.A,
        "rhs": p.to_json_dict(),
        "is_polynomial": res.is_polynomial,
        "particular": res.particular.to_json_dict(),
        "tricomi_terms": [{"lam": lam, "m": m} for lam, m in res.tricomi_terms],
        "verification": {
            "pde_max_rel_residual": rep.pde_max_rel_residual,
            "trace_gap_rel": rep.trace_gap_rel,
            "growth_constant": rep.growth_constant,
            "pass": rep.passed,
            "notes": rep.notes,
        },
    }
    _emit(report, args.out)
    return _status(report)


# ---------------------------------------------------------------------------
# solve-kfp
# ---------------------------------------------------------------------------


def _tricomi_problem(params: TricomiParams, grid: HalfStripGrid, bc_mode: str):
    """Source, boundary data and the exact solution T on the grid.

    T is evaluated once, on the whole grid, and the boundary callables
    return its boundary entries, whatever coordinates they get: they serve
    solve_stationary on this grid only, which calls each once per solve on
    exactly those nodes. A lane's T does not depend on the other lanes of
    its call, so the data are the bits of T at those nodes. The x_max data
    are T at the last node xs[-1], which is x_max up to the rounding of
    nx * hx."""
    C = residual_constant(params)
    h = lambda x, v: C * v ** 3
    exact = eval_tricomi(params, grid.xs[:, None], grid.vs[None, :])
    inflow = (lambda t, v: exact[0, grid.nv // 2:]) if bc_mode == "inflow" else None
    bc = BoundaryCondition(at_x0=bc_mode, inflow_profile=inflow,
                           at_xmax=lambda t, v: exact[-1],
                           at_vmax=lambda t, x, v: exact[:, [0, -1]])
    return h, bc, exact


def run_solver(args) -> int:
    # every input is checked before the first solve: a bad one exits 2
    try:
        sizes = ([(args.nx, args.nv)] if not args.convergence
                 else [(int(s), int(s)) for s in args.convergence.split(",")])
        grids = [HalfStripGrid(x_max=args.x_max, v_max=args.v_max, nx=nx, nv=nv)
                 for nx, nv in sizes]
        opts = SolverOptions(tol=args.tol)
        for grid in grids:
            diffusion_coupling(args.A, grid)
        if args.source == "tricomi":
            params = TricomiParams(A=args.A, lam=3)   # T needs a narrower range of A
            problems = [_tricomi_problem(params, grid, args.bc) for grid in grids]
        else:
            if args.source == "zero":
                h = lambda x, v: 0.0
            elif args.source.startswith("file:"):
                h = Field.from_binary(args.source[5:]).interpolator(kind=1).ev
            else:
                raise ValueError(f"unknown source {args.source!r}")
            zero = lambda t, *xv: 0.0
            bc = BoundaryCondition(at_x0=args.bc, inflow_profile=zero if args.bc == "inflow" else None,
                                   at_xmax=zero, at_vmax=zero)
            problems = [(h, bc, None)] * len(grids)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    report = {"A": args.A, "bc": args.bc, "source": args.source}
    rows = []
    last_field = None
    for grid, (h, bc, exact) in zip(grids, problems):
        fld = solve_stationary(h, bc, args.A, grid, opts)
        last_field = fld
        row = {"n": grid.nx, "sweeps": fld.metadata["sweeps"],
               "last_update": fld.metadata["last_update"]}
        if exact is not None:
            row["max_error"] = float(np.max(np.abs(fld.values - exact)))
        rows.append(row)
    report["runs"] = rows
    if len(rows) > 1 and "max_error" in rows[0]:
        orders = [math.log2(rows[i]["max_error"] / rows[i + 1]["max_error"])
                  for i in range(len(rows) - 1)]
        report["orders"] = orders
        report["pass"] = bool(all(o >= 1.0 for o in orders)
                              and all(rows[i]["max_error"] > rows[i + 1]["max_error"]
                                      for i in range(len(rows) - 1)))
    if args.out and last_field is not None:
        last_field.to_csv(args.out + ".csv")
        last_field.to_binary(args.out + ".kfp")
    _emit(report, (args.out + ".json") if args.out else None)
    return _status(report)


# ---------------------------------------------------------------------------
# probe-exponent
# ---------------------------------------------------------------------------


_SPACES = {
    "p3": lambda A: full_space(3, 1),
    "p4": lambda A: full_space(4, 1),
    "p5": lambda A: full_space(5, 1),
    "p5+tricomi": tricomi_augmented_space,
}


def run_probe(args) -> int:
    # every input is checked before the first fit: a bad one exits 2
    try:
        if args.space not in _SPACES:
            raise ValueError(f"unknown space {args.space!r}")
        coords = args.z0.split(",")
        if len(coords) != 3:
            raise ValueError(f"--z0 must be three comma-separated numbers t,x,v, got {args.z0!r}")
        t0, x0, v0 = (float(c) for c in coords)
        z0 = KineticPoint(t0, x0, v0)
        if x0 < 0.0:
            raise ValueError(f"--z0 must lie in the closed half-space x >= 0, got x = {x0}")
        radii = [float(r) for r in args.radii.split(",")]
        if not all(0.0 < r < math.inf for r in radii):
            raise ValueError(f"--radii must be finite and positive, got {args.radii}")
        params = TricomiParams(A=args.A, lam=3)
        grazing_tau = args.tau and x0 == 0.0 and v0 == 0.0
        if args.field == "builtin:tricomi" or args.space == "p5+tricomi" or grazing_tau:
            # T is sampled or fitted with; the samples reach |v| <= |v0| + r
            require_finite_up_to(params, max(radii) + abs(v0))
        f = (as_field(params) if args.field == "builtin:tricomi"
             else phase_field(Field.from_binary(args.field).interpolator().ev))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    spec = _SPACES[args.space](args.A)
    report = {"field": args.field, "space": args.space, "z0": [t0, x0, v0]}
    if len(set(radii)) >= 4:
        fit = exponent_fit(f, z0, spec, radii, seed=args.seed)
        report.update(radii=list(fit.radii), errors=list(fit.errors),
                      slope="exact-fit" if fit.slope == EXACT_FIT_SENTINEL else fit.slope,
                      r_squared=fit.r_squared)
        fits = fit.fits
    else:
        rs = sorted(set(radii), reverse=True)
        errs, fits = _approx_errors(f, z0, spec, rs, seed=args.seed)
        report.update(radii=rs, errors=errs, slope=None)
    if args.space == "p5+tricomi" or args.tau:
        if z0.x[0] == 0.0 and z0.v[0] == 0.0:
            # the fits over p5+tricomi are the ones gamma0_tricomi_coefficient makes
            rep = (_multiplier_report(fits) if args.space == "p5+tricomi"
                   else gamma0_tricomi_coefficient(f, z0, args.A, radii, seed=args.seed))
            report["tau"] = rep.tau
            report["tau_stable"] = rep.stable
    _emit(report, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# counterexample-check
# ---------------------------------------------------------------------------


def run_counterexample(args) -> int:
    # a bad input, or a curvature that the patch's flattening cannot reach, exits 2
    try:
        if args.gamma == "builtin:parabola":
            dom = _flatten.parabola_domain(args.curvature)
        elif args.gamma == "builtin:flat":
            dom = _flatten.flat_domain()
        else:
            raise ValueError(f"unknown domain {args.gamma!r}")
        fvv = np.array(json.loads(args.f_hessian), dtype=float)
        if fvv.shape != (2, 2) or not np.isfinite(fvv).all():
            raise ValueError(f"--f-hessian must be a finite 2 x 2 matrix, got {args.f_hessian}")
        fm = _flatten.build_flatten(dom)
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    hess = fm.d2_phi(np.zeros(2))
    cond = _flatten.counterexample_condition(hess, fvv)
    gap = _flatten.reflection_commutation_check(fm, seed=args.seed)
    report = {
        "domain": args.gamma,
        "lhs": cond["lhs"],
        "rhs": cond["rhs"],
        "violated": cond["violated"],
        "d2phi_mixed": float(hess[0][0, 1]),
        "reflection_commutation_gap": gap,
        "pass": bool(gap <= 1e-8),
    }
    _emit(report, args.out)
    return _status(report)


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------


def run_suite(args) -> int:
    """Run every check at desk scale and write one combined report."""
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    rhs_path = os.path.join(outdir, "rhs_v3.json")
    with open(rhs_path, "w") as fh:
        fh.write(KineticPolynomial.monomial(1, 1, bv=(3,)).to_json())
    # each check runs with its subcommand's defaults from build_parser
    runs = (("tricomi_verify", ["tricomi-verify"], "tricomi_verify.json"),
            ("liouville_v3", ["liouville-classify", f"--rhs={rhs_path}"], "liouville_v3.json"),
            ("solver_tricomi", ["solve-kfp", "--convergence", "32,64"], "solver_tricomi"),
            ("probe_p5", ["probe-exponent"], "probe_p5.json"),
            ("counterexample", ["counterexample-check"], "counterexample.json"))
    combined = {}
    rc_all = EXIT_OK
    for key, argv, name in runs:
        out = os.path.join(outdir, name)
        ns = build_parser().parse_args([*argv, f"--out={out}"])
        ns.seed = args.seed
        rc_all = max(rc_all, _run(ns))
        combined[key] = _load(os.path.splitext(out)[0] + ".json")  # solve-kfp's --out is a prefix

    _emit(combined, os.path.join(outdir, "suite.json"))
    return rc_all


# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument tree, built once per process; parse_args returns a
    fresh Namespace on each call. Each subcommand names its run_* function
    in func, which _run looks up when it is called."""
    ap = argparse.ArgumentParser(prog="kinreg",
                                 description="kinetic boundary-regularity laboratory")
    ap.add_argument("--seed", default=None,
                    help="sampler seed, an integer in [0, 2**32) (default: KRL_SEED env var or 0)")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("tricomi-verify", help="verify the obstruction function")
    p.add_argument("--A", type=float, default=1.0)
    p.add_argument("--lam", type=int, default=3)
    p.add_argument("--csv", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func="run_tricomi_verify")

    p = sub.add_parser("liouville-classify", help="classify a half-space right-hand side")
    p.add_argument("--rhs", required=True, help="polynomial JSON file")
    p.add_argument("--A", type=float, default=1.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func="run_liouville")

    p = sub.add_parser("solve-kfp", help="stationary half-strip solve")
    p.add_argument("--nx", type=int, default=64)
    p.add_argument("--nv", type=int, default=64)
    p.add_argument("--A", type=float, default=1.0)
    p.add_argument("--bc", choices=("specular", "inflow"), default="specular")
    p.add_argument("--source", default="tricomi", help="tricomi | zero | file:<path.kfp>")
    p.add_argument("--x-max", type=float, default=1.0)
    p.add_argument("--v-max", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=SolverOptions().tol)
    p.add_argument("--convergence", default=None, help="comma list of grid sizes")
    p.add_argument("--out", default=None, help="output prefix (.json/.csv/.kfp)")
    p.set_defaults(func="run_solver")

    p = sub.add_parser("probe-exponent", help="best-approximation exponent fit")
    p.add_argument("--field", default="builtin:tricomi")
    p.add_argument("--z0", default="0,0,0")
    p.add_argument("--space", default="p5")
    p.add_argument("--radii", default="1,0.5,0.25,0.125")
    p.add_argument("--A", type=float, default=1.0)
    p.add_argument("--tau", action="store_true", help="also extract the Tricomi coefficient")
    p.add_argument("--out", default=None)
    p.set_defaults(func="run_probe")

    p = sub.add_parser("counterexample-check", help="curvature obstruction test")
    p.add_argument("--gamma", default="builtin:parabola")
    p.add_argument("--curvature", type=float, default=1.0)
    p.add_argument("--f-hessian", dest="f_hessian", default="[[2,0],[0,-2]]")
    p.add_argument("--out", default=None)
    p.set_defaults(func="run_counterexample")

    p = sub.add_parser("suite", help="run every verification at desk scale")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func="run_suite")
    return ap


def _run(args) -> int:
    # by name at call time: a run_* function rebound on this module after
    # the parser was built still runs
    return globals()[args.func](args)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.seed = _seed(args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _run(args)
    except Exception:  # a fault in the lab, not a failed check
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
