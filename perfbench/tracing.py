"""Per-layer spans for the traced benchmark run.

The traced run swaps a fixed set of kinreg module attributes for thin
wrappers (see ``PATCHES``) and restores them afterwards. Every wrapped call
records a span ``[name, start, end, parent, child_s, nested]`` in memory:
``parent`` is the index of the enclosing span (-1 at the root), ``child_s``
accumulates the durations of its direct children, and ``nested`` marks a
span opened inside another span of the same name. Cheap, very frequent
calls (``gamma_real``, ``KineticPolynomial.eval``, ``frame_map``) are
counted only.

Only attributes that callers resolve at call time are wrapped: a module
global looked up by a function of that module, a name imported into a
caller's namespace, or a class attribute. Untraced runs never install the
wrappers, so they measure unmodified code.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
from collections import Counter
from time import perf_counter

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("cli.self_s", "s"),
    ("solver.stationary_s", "s"),
    ("solver.timedep_s", "s"),
    ("solver.self_s", "s"),
    ("solver.bc_calls", "count"),
    ("solver.bc_s", "s"),
    ("solver.sweeps.n24", "count"),
    ("solver.sweeps.n32", "count"),
    ("solver.sweeps.n64", "count"),
    ("solver.sweeps.n128", "count"),
    ("solver.imex_steps", "count"),
    ("solver.io_s", "s"),
    ("tricomi.eval_calls", "count"),
    ("tricomi.eval_s", "s"),
    ("tricomi.self_s", "s"),
    ("specfun.u_calls.connection", "count"),
    ("specfun.u_calls.blend", "count"),
    ("specfun.u_calls.asymptotic", "count"),
    ("specfun.u_s", "s"),
    ("specfun.gamma_calls", "count"),
    ("probe.fit_s", "s"),
    ("probe.self_s", "s"),
    ("probe.field_calls", "count"),
    ("probe.field_s", "s"),
    ("polynomials.eval_calls", "count"),
    ("polynomials.solve_s", "s"),
    ("geometry.frame_map_calls", "count"),
    ("geometry.distance_calls", "count"),
    ("geometry.distance_s", "s"),
    ("liouville.classify_s", "s"),
    ("liouville.verify_s", "s"),
    ("flatten.s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)

# Regime bins of specfun.tricomi_u by |z|, matching its own switch points.
U_BLEND_LO, U_BLEND_HI = 20.0, 40.0


class Tracer:
    """Span recorder plus the attribute patches of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent, 0.0, self._active[name] > 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        self._active[name] += 1
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._active[name] -= 1
            self._stack.pop()
            rec[1], rec[2] = t0, t1
            if parent >= 0:
                self.spans[parent][4] += t1 - t0

    def span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- layer-specific wrappers ---------------------------------------

    def _wrap_bc(self, bc):
        fields = {f: self.span("solver.bc", getattr(bc, f))
                  for f in ("inflow_profile", "at_xmax", "at_vmax")
                  if callable(getattr(bc, f))}
        return dataclasses.replace(bc, **fields)

    def _stationary(self, fn):
        @functools.wraps(fn)
        def wrapper(h, bc, A, grid, *args, **kwargs):
            if callable(h):
                h = self.span("solver.bc", h)
            fld = self.call("solver.stationary", fn, h, self._wrap_bc(bc), A, grid,
                            *args, **kwargs)
            self.counts[f"solver.sweeps.n{grid.nx}"] += fld.metadata.get("sweeps", 0)
            return fld
        return wrapper

    def _timedep(self, fn):
        @functools.wraps(fn)
        def wrapper(f0, h, bc, A, T, *args, **kwargs):
            if callable(h):
                h = self.span("solver.bc", h)
            out = self.call("solver.timedep", fn, f0, h, self._wrap_bc(bc), A, T,
                            *args, **kwargs)
            self.counts["solver.imex_steps"] += int(round(T / f0.grid.dt))
            return out
        return wrapper

    def _probe_fit(self, fn):
        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            return self.call("probe.fit", fn, self.span("probe.field", f), *args, **kwargs)
        return wrapper

    def _tricomi_u(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(a, b, z):
            az = abs(z)
            regime = ("connection" if az <= U_BLEND_LO
                      else "blend" if az < U_BLEND_HI else "asymptotic")
            counts["specfun.u_calls." + regime] += 1
            return self.call("specfun.u", fn, a, b, z)
        return wrapper

    # -- installation --------------------------------------------------

    def install(self):
        """Swap every entry of PATCHES for its wrapper."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        factories = {"stationary": self._stationary, "timedep": self._timedep,
                     "probe_fit": self._probe_fit, "tricomi_u": self._tricomi_u}
        try:
            for target, kind, name in PATCHES:
                owner, attr = resolve(target)
                raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                if kind == "span":
                    new = self.span(name, fn)
                elif kind == "count":
                    new = self.counter(name, fn)
                else:
                    new = factories[kind](fn)
                if isinstance(raw, classmethod):
                    new = classmethod(new)
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, new)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        """Put every original attribute back, last patched first."""
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- aggregation ---------------------------------------------------

    def inclusive_s(self, name: str) -> float:
        """Time inside spans of this name, counting nested ones once."""
        return sum(s[2] - s[1] for s in self.spans if s[0] == name and not s[5])

    def self_s(self, *names: str) -> float:
        """Span durations minus the part covered by their children."""
        return sum(s[2] - s[1] - s[4] for s in self.spans if s[0] in names)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def layer_metrics(self) -> dict[str, float]:
        """Every PER_LAYER metric except the two trace.* ones."""
        c = self.counts
        m = {
            "cli.self_s": self.self_s("cli"),
            "solver.stationary_s": self.inclusive_s("solver.stationary"),
            "solver.timedep_s": self.inclusive_s("solver.timedep"),
            "solver.self_s": self.self_s("solver.stationary", "solver.timedep"),
            "solver.bc_calls": self.calls("solver.bc"),
            "solver.bc_s": self.inclusive_s("solver.bc"),
            "solver.imex_steps": c["solver.imex_steps"],
            "solver.io_s": self.inclusive_s("solver.io"),
            "tricomi.eval_calls": self.calls("tricomi.eval"),
            "tricomi.eval_s": self.inclusive_s("tricomi.eval"),
            "tricomi.self_s": self.self_s("tricomi.eval"),
            "specfun.u_s": self.inclusive_s("specfun.u"),
            "specfun.gamma_calls": c["specfun.gamma"],
            "probe.fit_s": self.inclusive_s("probe.fit"),
            "probe.self_s": self.self_s("probe.fit"),
            "probe.field_calls": self.calls("probe.field"),
            "probe.field_s": self.inclusive_s("probe.field"),
            "polynomials.eval_calls": c["polynomials.eval"],
            "polynomials.solve_s": self.inclusive_s("polynomials.solve"),
            "geometry.frame_map_calls": c["geometry.frame_map"],
            "geometry.distance_calls": self.calls("geometry.distance"),
            "geometry.distance_s": self.inclusive_s("geometry.distance"),
            "liouville.classify_s": self.inclusive_s("liouville.classify"),
            "liouville.verify_s": self.inclusive_s("liouville.verify"),
            "flatten.s": self.inclusive_s("flatten"),
        }
        for name, _ in PER_LAYER:
            if name.startswith(("solver.sweeps.", "specfun.u_calls.")):
                m[name] = c[name]
        return m

    def self_total_s(self) -> float:
        return sum(s[2] - s[1] - s[4] for s in self.spans)


def resolve(target: str):
    """'pkg.module:Attr.sub' -> (owner object, final attribute name)."""
    mod_name, _, path = target.partition(":")
    owner = importlib.import_module(mod_name)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


# (target, wrapper kind, span or counter name). A function imported into
# several namespaces is wrapped in each one, so every call site is seen.
PATCHES = (
    ("kinreg.cli:main", "span", "cli"),
    ("kinreg.cli:solve_stationary", "stationary", None),
    ("kinreg.solver:solve_stationary", "stationary", None),
    ("kinreg.solver:solve_timedep", "timedep", None),
    ("kinreg.solver:Field.to_csv", "span", "solver.io"),
    ("kinreg.solver:Field.to_binary", "span", "solver.io"),
    ("kinreg.solver:Field.from_binary", "span", "solver.io"),
    ("kinreg.solver:Field.interpolator", "span", "solver.io"),
    ("kinreg.cli:eval_tricomi", "span", "tricomi.eval"),
    ("kinreg.tricomi:eval_tricomi", "span", "tricomi.eval"),
    ("kinreg.liouville:eval_tricomi", "span", "tricomi.eval"),
    ("kinreg.tricomi:tricomi_u", "tricomi_u", None),
    ("kinreg.specfun:tricomi_u", "tricomi_u", None),
    ("kinreg.specfun:gamma_real", "count", "specfun.gamma"),
    ("kinreg.tricomi:gamma_real", "count", "specfun.gamma"),
    ("kinreg.cli:exponent_fit", "probe_fit", None),
    ("kinreg.cli:best_approx_error", "probe_fit", None),
    ("kinreg.cli:gamma0_tricomi_coefficient", "probe_fit", None),
    ("kinreg.probe:gamma0_tricomi_coefficient", "probe_fit", None),
    ("kinreg.tricomi:c41_seminorm_probe", "span", "probe.fit"),
    ("kinreg.polynomials:KineticPolynomial.eval", "count", "polynomials.eval"),
    ("kinreg.polynomials:particular_solve_general", "span", "polynomials.solve"),
    ("kinreg.liouville:particular_solve_1d", "span", "polynomials.solve"),
    ("kinreg.probe:frame_map", "count", "geometry.frame_map"),
    ("kinreg.geometry:frame_map", "count", "geometry.frame_map"),
    ("kinreg.geometry:kinetic_distance", "span", "geometry.distance"),
    ("kinreg.liouville:kinetic_distance", "span", "geometry.distance"),
    ("kinreg.cli:classify", "span", "liouville.classify"),
    ("kinreg.cli:verify_solution", "span", "liouville.verify"),
    ("kinreg.flatten:parabola_domain", "span", "flatten"),
    ("kinreg.flatten:build_flatten", "span", "flatten"),
    ("kinreg.flatten:counterexample_condition", "span", "flatten"),
    ("kinreg.flatten:reflection_commutation_check", "span", "flatten"),
)
