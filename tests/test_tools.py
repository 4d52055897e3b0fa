import importlib.util
import os
import signal
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# a perfbench/run.py that records its pid and then hangs
HANGING_RUN = """\
import os, time
with open(os.environ["FAKE_RUN_PID"], "w") as fh:
    fh.write(str(os.getpid()))
time.sleep(60)
"""


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_bench_pairs_sigterm_removes_copy_and_child(tmp_path):
    tree, tmp, pid_file = tmp_path / "tree", tmp_path / "tmp", tmp_path / "run.pid"
    (tree / "perfbench").mkdir(parents=True)
    (tree / "perfbench" / "run.py").write_text(HANGING_RUN)
    tmp.mkdir()
    env = dict(os.environ, TMPDIR=str(tmp), FAKE_RUN_PID=str(pid_file))
    proc = subprocess.Popen([sys.executable, os.path.join(ROOT, "tools", "bench_pairs.py"),
                             str(tree), str(tree), "--workload", "w", "--pairs", "1"],
                            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    child = None
    try:
        deadline = time.monotonic() + 30.0
        while not (pid_file.exists() and pid_file.read_text()):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        child = int(pid_file.read_text())
        assert [p.name[:12] for p in tmp.iterdir()] == ["bench-pairs-"]
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 128 + signal.SIGTERM
        assert list(tmp.iterdir()) == []
        assert not _alive(child)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        if child is not None and _alive(child):
            os.kill(child, signal.SIGKILL)


def test_bench_pairs_summarise():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py"))
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)

    def run(tree, seed, wall, err, failed, attempted):
        metrics = {"wall_s": {"value": wall}, "max_error": {"value": err}}
        return {"tree": tree, "seed": seed,
                "result": {"metrics": metrics, "failed": failed, "attempted": attempted}}

    parent = [1.0, 2.0, 3.0, 4.0]
    change = [1.0, 1.5, 3.5, 3.0]   # a tie, lower, higher, lower
    runs = [run("parent", s, w, 0.0, s % 2, 3) for s, w in enumerate(parent)]
    runs += [run("change", s, w, 0.5, 0, 3) for s, w in enumerate(change)]
    runs.append(run("change", 9, 0.1, 0.5, 5, 5))   # no parent run at seed 9: left out
    out = bench_pairs.summarise(runs)

    wall = out["wall_s"]
    assert wall["parent"] == {"median": 2.5, "quartiles": [1.25, 3.75], "n": 4}
    assert wall["change"]["median"] == 2.25 and wall["change"]["n"] == 4
    assert wall["change"]["quartiles"] == pytest.approx([1.125, 3.375])
    assert wall["change_lower_pairs"] == "2/4"
    assert wall["median_change_pct"] == pytest.approx(-10.0)
    # a parent median of 0 gives no percentage
    err = out["max_error"]
    assert err["change_lower_pairs"] == "0/4" and err["median_change_pct"] == 0.0
    assert out["failed"] == {"parent": 2, "change": 0}
    assert out["attempted"] == {"parent": 12, "change": 12}
