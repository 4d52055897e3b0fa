"""Alternating perfbench pairs of two source trees, summarised as a BENCH file.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N \
        [--seed S] [--seconds T] [--trace1] [--out BENCH_<pr>.json]

PARENT_DIR and CHANGE_DIR are two checkouts of the repository (for
example `git archive <commit> | tar -x -C DIR`). Pair i runs
`python3 perfbench/run.py --workload W --seed S+i --seconds T --trace 0`
once in each tree, the parent first on even i and the change first on odd
i. Every run gets a fresh copy of its tree without `__pycache__` and with
PYTHONDONTWRITEBYTECODE=1, so both trees compile kinreg from source in
every process and `setup_s` compares like with like. `--trace1` adds one
`--trace 1` run of each tree, and one run of the Tier-1 tests
(`python3 -m pytest -q --continue-on-collection-errors` with
PYTHONPATH=src) in a fresh copy of each tree, with the BLAS/OpenMP pools
at one thread as perfbench/run.py sets them, so a threaded dgemm under
contention does not decide the wall time.

The results go into the `trace0` (and `trace1`) lists, whose entries
record the workload, seed and seconds of their run, the `tier1` block
`{tree: {wall_s, passed, failed}, "env": {...}}` (errors count as failed;
`env` names the thread settings of both runs) and the
`summary_trace0` block of the JSON file at `--out`, in the layout of
BENCH_12.json: per metric the median, the quartiles and the number of
pairs in which the change was lower, plus the cases attempted and failed.
Entries of other workloads in an existing file are kept; those of W are
replaced. Without `--out` the JSON goes to stdout.

On SIGTERM it kills the run in progress, removes its copy and exits 143.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

TREES = ("parent", "change")
# the thread settings of perfbench/run.py, for the Tier-1 runs
ONE_THREAD = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def run_fresh(tree_dir: str, cmd: list[str], **env_extra: str) -> subprocess.CompletedProcess:
    """cmd in a fresh copy of tree_dir, without byte-compiled files and with
    PYTHONDONTWRITEBYTECODE=1 and no inherited PYTHONPATH."""
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        copy = os.path.join(tmp, "tree")
        shutil.copytree(tree_dir, copy, ignore=shutil.ignore_patterns(
            "__pycache__", "*.pyc", ".git", "_work", ".pytest_cache"))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env.pop("PYTHONPATH", None)
        return subprocess.run(cmd, cwd=copy, env={**env, **env_extra}, capture_output=True,
                              text=True)


def run_once(tree_dir: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run on a fresh copy of tree_dir: its info lines and result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = run_fresh(tree_dir, cmd)
    lines = [ln.strip() for ln in proc.stdout.splitlines() if ln.strip()]
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree_dir} exited {proc.returncode}:\n{proc.stderr}")
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "info": "  ".join(lines[:-1]), "result": json.loads(lines[-1])}


def run_tier1(tree_dir: str) -> dict:
    """The Tier-1 tests on a fresh copy of tree_dir, one BLAS/OpenMP
    thread: wall time and counts."""
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    start = time.perf_counter()
    proc = run_fresh(tree_dir, cmd, PYTHONPATH="src", **ONE_THREAD)
    wall = time.perf_counter() - start
    tail = proc.stdout.strip().splitlines()[-1:] or [""]
    # "1 failed, 2 passed, 1 error in 3.0s"; "error" also matches "errors"
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (passed|failed|error)", tail[0])}
    if not counts:
        raise RuntimeError(f"{' '.join(cmd)} in {tree_dir} printed no summary:\n{proc.stderr}")
    return {"wall_s": wall, "passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0) + counts.get("error", 0)}


def _stats(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "quartiles": [q[0], q[2]], "n": len(values)}


def summarise(runs: list[dict]) -> dict:
    """Per metric: each tree's median and quartiles, and how many pairs the
    change read lower; with the cases attempted and failed per tree."""
    by_seed = {tree: {r["seed"]: r["result"] for r in runs if r["tree"] == tree} for tree in TREES}
    seeds = sorted(set(by_seed["parent"]) & set(by_seed["change"]))
    metrics = by_seed["parent"][seeds[0]]["metrics"]
    out = {}
    for name in metrics:
        vals = {tree: [by_seed[tree][s]["metrics"][name]["value"] for s in seeds] for tree in TREES}
        lower = sum(c < p for p, c in zip(vals["parent"], vals["change"]))
        block = {tree: _stats(vals[tree]) for tree in TREES}
        pm, cm = block["parent"]["median"], block["change"]["median"]
        block["change_lower_pairs"] = f"{lower}/{len(seeds)}"
        block["median_change_pct"] = 100.0 * (cm / pm - 1.0) if pm else 0.0
        out[name] = block
    for key in ("failed", "attempted"):
        out[key] = {tree: sum(by_seed[tree][s][key] for s in seeds) for tree in TREES}
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, default=1001, help="seed of the first pair")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace1", action="store_true",
                    help="add one --trace 1 run and one Tier-1 test run of each tree")
    ap.add_argument("--out", help="BENCH JSON file to create or update")
    args = ap.parse_args(argv)
    # SIGTERM as an exception, so subprocess.run kills and reaps its child and
    # each TemporaryDirectory removes its copy on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    dirs = {"parent": args.parent_dir, "change": args.change_dir}
    for tree, d in dirs.items():
        if not os.path.isfile(os.path.join(d, "perfbench", "run.py")):
            ap.error(f"{tree} tree {d} has no perfbench/run.py")

    runs = []
    for i in range(args.pairs):
        order = TREES if i % 2 == 0 else TREES[::-1]
        for tree in order:
            run = {"tree": tree, **run_once(dirs[tree], args.workload, args.seed + i,
                                            args.seconds, 0)}
            runs.append(run)
            wall = run["result"]["metrics"]["wall_s"]["value"]
            print(f"pair {i + 1}/{args.pairs} {tree:6s} seed {args.seed + i} wall_s {wall:.4f}",
                  file=sys.stderr)
    traced = [{"tree": tree, **run_once(dirs[tree], args.workload, args.seed + args.pairs,
                                        args.seconds, 1)}
              for tree in TREES] if args.trace1 else []
    tier1 = {}
    if args.trace1:
        tier1 = {**{tree: run_tier1(dirs[tree]) for tree in TREES}, "env": ONE_THREAD}

    doc = {}
    if args.out and os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    doc.setdefault("what", "perfbench result lines of the parent commit and of this change, "
                   "run in alternating pairs from fresh copies of each tree, both "
                   "byte-compiled from source on every run")
    # each run entry records its own seed and seconds
    doc["command"] = "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1"
    doc["trace0"] = [r for r in doc.get("trace0", []) if r["workload"] != args.workload] + runs
    doc.setdefault("summary_trace0", {})[args.workload] = summarise(runs)
    if traced:
        doc["trace1"] = [r for r in doc.get("trace1", []) if r["workload"] != args.workload] + traced
    if tier1:
        doc["tier1"] = tier1
    text = json.dumps(doc, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
