"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_declared_metrics_match_code():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == list(tracing.PER_LAYER)
    assert set(run.BYPASS) <= {name for name, _ in tracing.PER_LAYER}


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    out = bench("--workload", "imex_relax", "--seed", "3", "--seconds", "0", "--trace", trace)
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == \
        {m["name"]: m["unit"] for m in BENCH[section]}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    out = bench("--workload", "grazing_probe", "--seconds", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def _originals():
    found = {}
    for target, _, _ in tracing.PATCHES:
        owner, attr = tracing.resolve(target)
        found[target] = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
    return found


def test_traced_pass_self_times_and_restore(tmp_path):
    wl = workloads.GrazingProbe(5, str(tmp_path))
    before = _originals()
    tally = workloads.Tally()
    tracer = tracing.Tracer()
    with tracer:
        assert all(_originals()[t] is not before[t] for t in before)
        t0 = tracing.perf_counter()
        wl.run_pass(tally)
        wall = tracing.perf_counter() - t0
    assert all(_originals()[t] is before[t] for t in before)
    assert tally.failed == 0, tally.failures
    assert tracer.spans and tracer.self_total_s() <= wall
    m = tracer.layer_metrics()
    assert m["probe.self_s"] <= m["probe.fit_s"]
    assert m["tricomi.self_s"] <= m["tricomi.eval_s"]
    assert m["solver.stationary_s"] == 0


def test_restore_after_error():
    before = _originals()
    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer():
            1 / 0
    assert all(_originals()[t] is before[t] for t in before)


def test_span_accounting_with_nesting():
    tr = tracing.Tracer()
    inner = tr.span("a", lambda: sum(range(1000)))
    mid = tr.span("b", lambda: inner() + inner())
    outer = tr.span("a", mid)
    outer()
    assert [s[0] for s in tr.spans] == ["a", "b", "a", "a"]
    assert [s[3] for s in tr.spans] == [-1, 0, 1, 1]
    assert [s[5] for s in tr.spans] == [False, False, True, True]
    dur = [s[2] - s[1] for s in tr.spans]
    assert tr.inclusive_s("a") == pytest.approx(dur[0])
    assert tr.self_total_s() == pytest.approx(dur[0])
    assert tr.self_s("b") == pytest.approx(dur[1] - dur[2] - dur[3])
