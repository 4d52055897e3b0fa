"""The four benchmark workloads.

Each workload builds its inputs from the seed in ``__init__`` (the set-up
the benchmark times) and runs one pass with ``run_pass(tally)``. A pass
drives kinreg only through its public API and ``kinreg.cli.main``, checks
every output, and returns the pass's ``max_error``. The functions it calls
are looked up as module attributes at call time, so the traced run sees
them through its wrappers.

Grid sizes, degrees, radii and monomials are fixed; the seed only moves
values (CLI ``--seed``, probe sampler seeds, right-hand-side coefficients,
the synthetic Tricomi multiplier), so the work per pass does not depend on
it. The manufactured-solution workloads (``mms_inflow``, ``imex_relax``)
have no seeded input.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction

import numpy as np

import kinreg.cli as cli
import kinreg.polynomials as polynomials
import kinreg.probe as probe
import kinreg.solver as solver
import kinreg.tricomi as tricomi
from kinreg.geometry import KineticPoint, origin
from kinreg.polynomials import KineticPolynomial, mono


class CheckFailed(Exception):
    pass


def require(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


class Tally:
    """Cases attempted and failed; a case that raises counts as failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def case(self, label: str, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # any error in a case is a failed case
            self.failed += 1
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return None


def _all_pass(node) -> bool:
    if isinstance(node, dict):
        return all(v is not False if k == "pass" else _all_pass(v) for k, v in node.items())
    if isinstance(node, list):
        return all(_all_pass(v) for v in node)
    return True


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def run_cli(self, argv: list[str], report: str) -> dict:
        """Run one kinreg command; require exit 0 and every `pass` true."""
        rc = cli.main(["--seed", str(self.seed)] + argv)
        require(rc == 0, f"exit code {rc}")
        with open(report) as fh:
            rep = json.load(fh)
        require(_all_pass(rep), "a pass field is false")
        return rep

    def run_pass(self, tally: Tally) -> float:
        raise NotImplementedError


class TricomiConvergence(Workload):
    """solve-kfp on the Tricomi problem with specular reflection at n = 32
    and 64, then the p3 probe of the written field at a boundary point."""

    name = "tricomi_convergence"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.prefix = self.path("run")

    def _solve(self):
        rep = self.run_cli(["solve-kfp", "--source", "tricomi", "--bc", "specular",
                            "--convergence", "32,64", "--out", self.prefix],
                           self.prefix + ".json")
        require(all(o >= 1.0 for o in rep["orders"]), f"orders {rep['orders']} < 1.0")
        return rep["runs"][-1]["max_error"]

    def _probe(self):
        out = self.path("probe.json")
        rep = self.run_cli(["probe-exponent", "--field", self.prefix + ".kfp",
                            "--z0", "0,0.4,0", "--space", "p3",
                            "--radii", "0.4,0.3,0.2,0.1", "--out", out], out)
        slope = rep["slope"]
        require(isinstance(slope, float) and slope >= 3.0, f"p3 slope {slope} < 3")

    def run_pass(self, tally):
        err = tally.case("solve-kfp", self._solve)
        tally.case("probe-exponent field", self._probe)
        return err


class MmsInflow(Workload):
    """Stationary inflow solve of the manufactured solution x^3 + v^6
    (acceptance criterion 6 inputs) at n = 64 and 128."""

    name = "mms_inflow"
    sizes = (64, 128)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        fstar = lambda x, v: x ** 3 + v ** 6
        self.h = lambda x, v: 3 * x * x * v - 30.0 * v ** 4
        self.bc = solver.BoundaryCondition(
            at_x0="inflow", inflow_profile=lambda t, v: fstar(0.0, v),
            at_xmax=lambda t, v: fstar(1.0, v), at_vmax=lambda t, x, v: fstar(x, v))
        self.grids = [solver.HalfStripGrid(x_max=1.0, v_max=1.5, nx=n, nv=n)
                      for n in self.sizes]
        self.exact = [fstar(g.xs[:, None], g.vs[None, :]) for g in self.grids]

    def _solve(self, grid, exact):
        fld = solver.solve_stationary(self.h, self.bc, 1.0, grid)
        return float(np.max(np.abs(fld.values - exact)))

    def _orders(self, errs):
        orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
        require(all(o >= 1.9 for o in orders), f"MMS orders {orders} < 1.9")

    def run_pass(self, tally):
        errs = [tally.case(f"solve n={g.nx}", self._solve, g, ex)
                for g, ex in zip(self.grids, self.exact)]
        if None in errs:
            return None
        tally.case("MMS orders", self._orders, errs)
        return errs[-1]


class ImexRelax(Workload):
    """IMEX relaxation from zero to the Dirichlet solution x v^2 at n = 24
    up to T = 10 (1440 steps), checked against the stationary solve."""

    name = "imex_relax"
    n = 24
    T = 10.0

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        n = self.n
        fstar = lambda x, v: x * v * v
        self.h = lambda x, v: v ** 3 - 2.0 * x
        self.bc = solver.BoundaryCondition(
            at_x0="inflow", inflow_profile=lambda t, v: fstar(0.0, v),
            at_xmax=lambda t, v: fstar(1.0, v), at_vmax=lambda t, x, v: fstar(x, v))
        self.grid = solver.HalfStripGrid(x_max=1.0, v_max=1.5, nx=n, nv=n)
        self.tgrid = solver.HalfStripGrid(x_max=1.0, v_max=1.5, nx=n, nv=n, nt=1,
                                          dt=0.25 * (1 / n) / 1.5)
        self.f0 = solver.Field(self.tgrid, np.zeros((n + 1, n)))
        self.exact = fstar(self.grid.xs[:, None], self.grid.vs[None, :])

    def _stationary(self):
        return solver.solve_stationary(self.h, self.bc, 1.0, self.grid).values

    def _imex(self, ref):
        final = solver.solve_timedep(self.f0, self.h, self.bc, 1.0, self.T)[-1].values
        gap = float(np.max(np.abs(final - ref)))
        require(gap <= 1e-6, f"IMEX gap to stationary {gap:.2e} > 1e-6")
        return float(np.max(np.abs(final - self.exact)))

    def run_pass(self, tally):
        ref = tally.case("stationary reference", self._stationary)
        if ref is None:
            return None
        return tally.case("IMEX relaxation", self._imex, ref)


class GrazingProbe(Workload):
    """The non-solver lab: probes at the grazing origin, the Liouville
    classifier, tricomi-verify, the curved-boundary counterexample, an
    exact n = 2 particular solve and the C^{4,1} seminorm probe."""

    name = "grazing_probe"
    p5_radii = (1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125)
    # (bx, bv) of the Liouville right-hand side: layers lam = 3, 5, 6, 7, 9
    rhs_monomials = ((0, 3), (1, 0), (1, 2), (0, 6), (1, 4), (2, 3))

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = np.random.RandomState(seed)

        def coeff():
            return Fraction(int(rng.choice((-1, 1)) * rng.randint(1, 10)), int(rng.randint(1, 7)))

        rhs = KineticPolynomial(1, {mono(1, bx=(bx,), bv=(bv,)): coeff()
                                    for bx, bv in self.rhs_monomials})
        self.rhs_path = self.path("rhs.json")
        with open(self.rhs_path, "w") as fh:
            fh.write(rhs.to_json())

        self.tau = float(rng.uniform(1.0, 5.0))
        poly = KineticPolynomial(1, {mono(1): coeff(), mono(1, bv=(2,)): coeff(),
                                     mono(1, bt=1, bv=(2,)): coeff(), mono(1, bx=(1,)): coeff()})
        field = tricomi.as_field(tricomi.TricomiParams(A=1.0))
        self.synthetic = lambda z: self.tau * field(z) + poly.eval(z)

        self.op2 = polynomials.kolmogorov_operator(2)
        rhs2 = KineticPolynomial.zero(2)
        for q in polynomials.space_basis(polynomials.full_space(4, 2)):
            if q.degree() == 4:
                rhs2 = rhs2 + q * coeff()
        self.rhs2 = rhs2

    def _p5(self):
        out = self.path("p5.json")
        rep = self.run_cli(["probe-exponent", "--field", "builtin:tricomi", "--space", "p5",
                            "--radii", ",".join(map(repr, self.p5_radii)), "--out", out], out)
        plateau = [e / r ** 5 for e, r in zip(rep["errors"], rep["radii"])]
        med = sorted(plateau)[len(plateau) // 2]
        require(all(med / 2 <= q <= 2 * med for q in plateau), "p5 plateau not within x2")

    def _tau_cli(self):
        out = self.path("tau.json")
        rep = self.run_cli(["probe-exponent", "--space", "p5+tricomi", "--tau", "--out", out], out)
        require(rep["tau_stable"] and abs(rep["tau"] - 1.0) <= 1e-3, f"tau {rep['tau']} != 1")

    def _tau_synthetic(self):
        rep = probe.gamma0_tricomi_coefficient(self.synthetic, origin(1), 1.0,
                                               [0.5, 0.25, 0.125], seed=self.seed)
        require(abs(rep.tau - self.tau) <= 1e-3, f"tau {rep.tau} != {self.tau}")

    def _liouville(self):
        out = self.path("liouville.json")
        self.run_cli(["liouville-classify", "--rhs", self.rhs_path, "--out", out], out)

    def _verify(self):
        out, csv = self.path("verify.json"), self.path("verify.csv")
        rep = self.run_cli(["tricomi-verify", "--csv", csv, "--out", out], out)
        with open(csv) as fh:
            require(sum(1 for _ in fh) == 1 + 16 * 16, "tricomi-verify CSV row count")
        return rep["residual_span"]["worst_rel"]

    def _counterexample(self):
        out = self.path("counterexample.json")
        rep = self.run_cli(["counterexample-check", "--out", out], out)
        require(rep["violated"], "parabola counterexample not violated")

    def _particular(self):
        P = polynomials.particular_solve_general(self.op2, self.rhs2)
        require(polynomials.apply_operator(self.op2, P) == self.rhs2, "L P != rhs")

    def _c41(self):
        val = tricomi.c41_seminorm_probe(tricomi.TricomiParams(A=1.0),
                                         KineticPoint(0.0, 0.3, 0.2), 0.5, seed=self.seed)
        require(math.isfinite(val) and val > 0.0, f"C41 proxy {val}")

    def run_pass(self, tally):
        tally.case("probe p5", self._p5)
        tally.case("probe p5+tricomi --tau", self._tau_cli)
        tally.case("synthetic Tricomi multiplier", self._tau_synthetic)
        tally.case("liouville-classify", self._liouville)
        err = tally.case("tricomi-verify", self._verify)
        tally.case("counterexample-check", self._counterexample)
        tally.case("particular_solve_general n=2", self._particular)
        tally.case("c41 seminorm probe", self._c41)
        return err


WORKLOADS = {w.name: w for w in (TricomiConvergence, MmsInflow, ImexRelax, GrazingProbe)}
