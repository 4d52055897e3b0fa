"""Lines of src/kinreg that the Tier-1 tests and the perfbench workloads never run.

    PYTHONPATH=src python3 tools/reach.py

Run from the repository root. Runs the Tier-1 tests in this process
(`pytest -q -p no:cacheprovider tests`), then one pass of each perfbench
workload at seed 0 in a temporary workdir, all under one stdlib
`trace.Trace`, so code run in a subprocess (the CLI tests that start
`python -m kinreg.cli`) is not seen. `trace` writes its annotated `.cover`
files (never-run executable lines marked `>>>>>>`) to a temporary
directory; this prints each marked line of src/kinreg as `path:line: source`,
then the never-run and executable counts per file. Writes no byte-compiled
files and nothing else into the tree. Exits 1 when a test or a workload case
fails, since its lines then say little, and 2 when kinreg was imported from
somewhere other than this checkout's src/, since then nothing was recorded.
"""

from __future__ import annotations

import glob
import os
import sys
import tempfile
import trace

sys.dont_write_bytecode = True

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "kinreg")


def run_all() -> bool:
    import pytest

    ok = pytest.main(["-q", "-p", "no:cacheprovider", os.path.join(ROOT, "tests")]) == 0
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


def main() -> int:
    # no ignoredirs: trace caches that verdict by file base name, so an
    # ignored site-packages __init__.py would hide src/kinreg/__init__.py
    tracer = trace.Trace(count=1, trace=0)
    ok = tracer.runfunc(run_all)
    import kinreg

    if os.path.dirname(os.path.realpath(kinreg.__file__)) != PACKAGE:
        print(f"error: imported kinreg from {kinreg.__file__}, not {PACKAGE}", file=sys.stderr)
        return 2
    counts = {(path, line): n for (path, line), n in tracer.results().counts.items()
              if os.path.dirname(os.path.realpath(path)) == PACKAGE}
    rows = []
    with tempfile.TemporaryDirectory(prefix="reach-cover-") as coverdir:
        trace.CoverageResults(counts=counts).write_results(show_missing=True, coverdir=coverdir)
        for cover in sorted(glob.glob(os.path.join(coverdir, "*.cover"))):
            module = os.path.basename(cover)[:-len(".cover")]
            rel = os.path.join("src", "kinreg", module.rsplit(".", 1)[-1] + ".py")
            with open(cover) as fh:
                marks = [line[:7] for line in fh]
            with open(os.path.join(ROOT, rel)) as fh:
                source = fh.read().splitlines()
            missed = [n for n, mark in enumerate(marks, 1) if mark == ">>>>>> "]
            for n in missed:
                print(f"{rel}:{n}: {source[n - 1].strip()}")
            rows.append((rel, len(missed), sum(mark.strip() != "" for mark in marks)))
    print()
    for name in sorted(os.listdir(PACKAGE)):
        rel = os.path.join("src", "kinreg", name)
        if name.endswith(".py") and rel not in {r[0] for r in rows}:
            print(f"{rel:32s} never imported")
    for rel, missed, total in rows:
        print(f"{rel:32s} {missed:5d} never run of {total:5d}")
    print(f"{'total':32s} {sum(r[1] for r in rows):5d} never run of {sum(r[2] for r in rows):5d}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
