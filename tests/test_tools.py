import os
import signal
import subprocess
import sys
import time

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
