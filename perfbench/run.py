"""kinreg benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; kinreg is imported from ./src.
``--workload all`` runs every workload in turn, each in its own process.

With ``--trace 0`` the benchmark times the set-up (import plus input
generation, median of several fresh processes), then runs passes of the
workload back to back for S seconds and reports the median pass as
``wall_s``, with ``setup_s``, ``peak_rss_mb`` and ``max_error``. Both
times are given in reference seconds: each is scaled by a fixed
calibration loop timed right beside it (see ``calibrate``). With
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics of tracing.PER_LAYER (medians over traced passes) plus
the tracing overhead; it also asserts that each workload stays out of the
layers it is meant to bypass.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics. The exit code
is 0 whenever a result is printed, and nonzero if the benchmark itself
cannot run (for example when ./src/kinreg is missing).
"""

from __future__ import annotations

import os

# One caller: keep BLAS/OpenMP pools to a single thread, set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from time import perf_counter  # noqa: E402

T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = HERE / "_work"

WORKLOAD_NAMES = ("tricomi_convergence", "mms_inflow", "imex_relax", "grazing_probe")
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"), ("max_error", "1"))
SETUP_SAMPLES = 3
# About calibrate() on the baseline host at full speed (README, "Reference
# seconds"): a time t measured while calibrate() reads c is reported as
# t * CAL_REF_S / c.
CAL_REF_S = 0.020
# Layers a workload must not enter (traced run): metric name -> workloads.
BYPASS = {
    "tricomi.eval_calls": ("mms_inflow", "imex_relax"),
    "specfun.u_calls.connection": ("mms_inflow", "imex_relax"),
    "specfun.u_calls.blend": ("mms_inflow", "imex_relax"),
    "specfun.u_calls.asymptotic": ("mms_inflow", "imex_relax"),
    "specfun.gamma_calls": ("mms_inflow", "imex_relax"),
    "solver.stationary_s": ("grazing_probe",),
    "solver.timedep_s": ("grazing_probe",),
}


def load_kinreg():
    """Import kinreg from this checkout's src/ and nowhere else."""
    if not (SRC / "kinreg" / "__init__.py").is_file():
        raise SystemExit(f"error: no kinreg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import kinreg

    if Path(kinreg.__file__).resolve().parent != SRC / "kinreg":
        raise SystemExit(f"error: imported kinreg from {kinreg.__file__}, not {SRC}")


def make_workload(name: str, seed: int):
    load_kinreg()
    import workloads

    workdir = WORKDIR / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    return workloads.WORKLOADS[name](seed, str(workdir)), workdir


def calibrate() -> float:
    """Mean time of a fixed loop of interpreter work and small numpy
    operations, the mix the workloads spend their time in.

    The host's CPU speed moves by up to 1.7x and often holds a speed for
    seconds to tens of seconds, so a time divided by a calibration taken
    beside it is steadier than the time alone. The first round only warms
    up; the mean of eight more (about 0.2 s) averages over short swings.
    """
    rounds = []
    for _ in range(9):
        t0 = perf_counter()
        acc = 0
        for i in range(150_000):
            acc += i * i % 7
        a = np.arange(200.0)
        for _ in range(3000):
            a = np.sqrt(a + 1.0)
        rounds.append(perf_counter() - t0)
    return statistics.mean(rounds[1:])


def one_pass(wl, tally):
    t0 = perf_counter()
    err = wl.run_pass(tally)
    return perf_counter() - t0, err


def measure_setup(args, first: float, first_cal: float) -> float:
    """Median scaled set-up time: this process plus fresh child processes."""
    samples = [first * CAL_REF_S / first_cal]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                             check=True)
        child = json.loads(out.stdout.splitlines()[-1])
        samples.append(child["setup_s"] * CAL_REF_S / child["cal_s"])
    return statistics.median(samples)


def within(t0: float, typical: float, seconds: float) -> bool:
    """True if one more pass of the typical length still ends in the window."""
    return perf_counter() - t0 + typical <= seconds


def untraced(wl, tally, args, setup_first):
    t0 = perf_counter()
    cals = [calibrate()]
    walls, scaled, errs = [], [], []
    while not walls or within(t0, statistics.median(walls) + 9 * cals[-1], args.seconds):
        wall, err = one_pass(wl, tally)
        cals.append(calibrate())
        walls.append(wall)
        # the speed during the pass: the calibrations just before and after it
        scaled.append(wall * CAL_REF_S / ((cals[-2] + cals[-1]) / 2))
        errs.append(err)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if any(e is None for e in errs) or len(set(errs)) != 1:
        tally.attempted += 1
        tally.failed += 1
        tally.failures.append(f"max_error missing or not repeatable: {errs}")
    metrics = {
        "wall_s": statistics.median(scaled),
        "setup_s": measure_setup(args, setup_first, cals[0]),
        "peak_rss_mb": peak_mb,
        "max_error": errs[-1] or 0.0,
    }
    return metrics, {"passes": len(walls), "raw_median_s": round(statistics.median(walls), 3),
                     "pass_walls": [round(w, 3) for w in walls],
                     "calibrations_ms": [round(1e3 * c, 1) for c in cals]}


def traced(wl, tally, args):
    one_pass(wl, tally)  # warm-up: lazy imports and first-touch costs
    layers, pairs = [], []
    t0 = perf_counter()
    while not pairs or within(t0, statistics.median(pairs), args.seconds):
        plain = one_pass(wl, tally)[0]
        tracer = tracing.Tracer()
        with tracer:
            wall = one_pass(wl, tally)[0]
        m = tracer.layer_metrics()
        m["trace.wall_s"] = wall
        # adjacent passes, so that slow drifts in machine speed cancel
        m["trace.overhead_s"] = wall - plain
        layers.append(m)
        pairs.append(plain + wall)
    metrics = {}
    for name, unit in tracing.PER_LAYER:
        values = [m[name] for m in layers]
        # counts repeat exactly from pass to pass; median_low keeps them integers
        metrics[name] = (statistics.median_low(values) if unit == "count"
                         else statistics.median(values))
    for name, bypassers in BYPASS.items():
        if wl.name in bypassers:
            tally.attempted += 1
            worst = max(m[name] for m in layers)
            if worst != 0:
                tally.failed += 1
                tally.failures.append(f"bypass: {name} = {worst} on {wl.name}")
    return metrics, {"pass_pairs": len(layers)}


def run_all(args) -> int:
    """Every workload in its own process; per-workload lines then a summary."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        lines = out.stdout.splitlines()
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            total["metrics"][f"{name}.{k}"] = v
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time import plus input generation, print it and exit")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    wl, workdir = make_workload(args.workload, args.seed)
    setup_first = perf_counter() - T_START
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_first, "cal_s": calibrate()}))
            return 0
        import workloads

        tally = workloads.Tally()
        if args.trace:
            metrics, info = traced(wl, tally, args)
            units = dict(tracing.PER_LAYER)
        else:
            metrics, info = untraced(wl, tally, args, setup_first)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORKDIR.is_dir() and not any(WORKDIR.iterdir()):
            WORKDIR.rmdir()

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          + "  ".join(f"{k} {v}" for k, v in info.items()))
    for name, value in metrics.items():
        print(f"  {name:28s} {value:.6g} {units[name]}")
    print(f"  cases attempted {tally.attempted}  failed {tally.failed}")
    for line in tally.failures:
        print(f"  FAILED {line}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
