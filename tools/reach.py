"""Lines of src/kinreg that the lab's entry points never run, and the functions
they never enter.

    PYTHONPATH=src python3 tools/reach.py

Run from the repository root. All in this process, under one stdlib
`trace.Trace`, it first makes the entry-point pass: the acceptance tests
(`tests/test_acceptance.py`), one `kinreg --seed 4 suite --out <tmp>` and one
pass of each perfbench workload at seed 0 in a temporary workdir. It keeps
those counts, then runs the rest of the Tier-1 tests (`pytest -q -p
no:cacheprovider tests --ignore tests/test_acceptance.py`). Code run in a
subprocess (the CLI tests that start `python -m kinreg.cli`) is not seen.

`trace` writes its annotated `.cover` files (never-run executable lines marked
`>>>>>>`) of the entry-point pass to a temporary directory. This prints each
marked line of src/kinreg as `path:line: source`, with `[tier-1]` before the
source where the rest of Tier-1 runs it. Then come the functions the entry
points never enter, as `path:line: name`, and per file the executable lines,
those the entry points never run and those all of Tier-1 never runs. Writes no
byte-compiled files and nothing else into the tree. Exits 1 when a test, the
suite or a workload case fails, since its lines then say little, and 2 when
kinreg was imported from somewhere other than this checkout's src/, since then
nothing was recorded.
"""

from __future__ import annotations

import ast
import glob
import os
import sys
import tempfile
import trace

sys.dont_write_bytecode = True

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "kinreg")
ACCEPTANCE = os.path.join(ROOT, "tests", "test_acceptance.py")


def entry_points() -> bool:
    import pytest

    ok = pytest.main(["-q", "-p", "no:cacheprovider", ACCEPTANCE]) == 0
    from kinreg import cli

    with tempfile.TemporaryDirectory(prefix="reach-suite-") as out:
        code = cli.main(["--seed", "4", "suite", "--out", out])
    print(f"kinreg --seed 4 suite: exit {code}")
    ok = ok and code == 0
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads

    for name, cls in workloads.WORKLOADS.items():
        with tempfile.TemporaryDirectory(prefix=f"reach-{name}-") as workdir:
            tally = workloads.Tally()
            cls(0, workdir).run_pass(tally)
        print(f"perfbench {name}: {tally.attempted} cases, {tally.failed} failed")
        for failure in tally.failures:
            print(f"  {failure}")
        ok = ok and tally.failed == 0
    return ok


def rest_of_tier1() -> bool:
    import pytest

    return pytest.main(["-q", "-p", "no:cacheprovider", os.path.join(ROOT, "tests"),
                        "--ignore", ACCEPTANCE]) == 0


def _package_counts(tracer: trace.Trace) -> dict:
    return {(path, line): n for (path, line), n in tracer.results().counts.items()
            if os.path.dirname(os.path.realpath(path)) == PACKAGE}


def main() -> int:
    # no ignoredirs: trace caches that verdict by file base name, so an
    # ignored site-packages __init__.py would hide src/kinreg/__init__.py
    tracer = trace.Trace(count=1, trace=0)
    ok = tracer.runfunc(entry_points)
    import kinreg

    if os.path.dirname(os.path.realpath(kinreg.__file__)) != PACKAGE:
        print(f"error: imported kinreg from {kinreg.__file__}, not {PACKAGE}", file=sys.stderr)
        return 2
    entry = _package_counts(tracer)
    ok = tracer.runfunc(rest_of_tier1) and ok
    tier1 = {(os.path.realpath(path), line) for path, line in _package_counts(tracer)}
    rows, unentered = [], []
    with tempfile.TemporaryDirectory(prefix="reach-cover-") as coverdir:
        trace.CoverageResults(counts=entry).write_results(show_missing=True, coverdir=coverdir)
        for cover in sorted(glob.glob(os.path.join(coverdir, "*.cover"))):
            module = os.path.basename(cover)[:-len(".cover")]
            rel = os.path.join("src", "kinreg", module.rsplit(".", 1)[-1] + ".py")
            path = os.path.join(ROOT, rel)
            with open(cover) as fh:
                marks = [line[:7] for line in fh]
            with open(path) as fh:
                text = fh.read()
            source = text.splitlines()
            missed = [n for n, mark in enumerate(marks, 1) if mark == ">>>>>> "]
            for n in missed:
                tag = "[tier-1] " if (path, n) in tier1 else ""
                print(f"{rel}:{n}: {tag}{source[n - 1].strip()}")
            # a function is entered when any line of its body ran
            ran = {n for n, mark in enumerate(marks, 1) if mark.strip() not in ("", ">>>>>>")}
            unentered += [(rel, node.lineno, node.name) for node in ast.walk(ast.parse(text))
                          if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                          and not ran & set(range(node.body[0].lineno, node.end_lineno + 1))]
            rows.append((rel, sum(mark.strip() != "" for mark in marks), len(missed),
                         sum((path, n) not in tier1 for n in missed)))
    print("\nfunctions the entry points never enter:")
    for rel, n, name in sorted(unentered):
        print(f"{rel}:{n}: {name}")
    print(f"\n{'':32s} {'lines':>5s} {'never run from entry points':>28s} {'never run by Tier-1':>20s}")
    for name in sorted(os.listdir(PACKAGE)):
        rel = os.path.join("src", "kinreg", name)
        if name.endswith(".py") and rel not in {r[0] for r in rows}:
            print(f"{rel:32s} never imported")
    for rel, total, missed, never in rows:
        print(f"{rel:32s} {total:5d} {missed:28d} {never:20d}")
    print(f"{'total':32s} {sum(r[1] for r in rows):5d} {sum(r[2] for r in rows):28d} "
          f"{sum(r[3] for r in rows):20d}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
