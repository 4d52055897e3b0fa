import importlib.util
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from kinreg.cli import main
from kinreg.polynomials import KineticPolynomial, mono


def run_main(argv):
    return main(argv)


def test_tricomi_verify_pass(tmp_path, capsys):
    out = tmp_path / "rep.json"
    rc = run_main(["tricomi-verify", "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["homogeneity"]["pass"] and rep["residual_span"]["pass"]
    assert rep["cusp_ratio"]["pass"] and rep["boundary_evenness"]["pass"]


def test_tricomi_verify_rejects_bad_A(capsys):
    rc = run_main(["tricomi-verify", "--A", "0.0"])
    assert rc == 2


def test_tricomi_verify_csv(tmp_path):
    out = tmp_path / "rep.json"
    csv = tmp_path / "table.csv"
    rc = run_main(["tricomi-verify", "--out", str(out), "--csv", str(csv)])
    assert rc == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "x,v,tricomi,residual,cusp_ratio"
    assert len(lines) == 1 + 16 * 16
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 5
        for f in fields:
            float(f)  # a plain number, not a numpy repr


def test_internal_error_exit_code(monkeypatch, capsys):
    # a fault in the lab exits 3 with its traceback, unlike a failed check (1)
    import kinreg.cli as cli

    def boom(args):
        raise RuntimeError("lab fault")

    # a parser built by an earlier call still dispatches to the rebound handler
    assert run_main(["--seed", "-1", "tricomi-verify"]) == 2
    monkeypatch.setattr(cli, "run_tricomi_verify", boom)
    assert run_main(["tricomi-verify"]) == cli.EXIT_INTERNAL == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: lab fault" in err


@pytest.mark.parametrize("argv", [["--v-max", "1e160"], ["--v-max", "1e-160"],
                                  ["--x-max", "1e-310"], ["--A", "1e307"]])
def test_solve_kfp_scales_past_double_range_are_config_errors(argv, capsys):
    # A / hv^2 or max|v| / hx + 2 A / hv^2 leaves double range: refused
    # before the first solve, not an overflow or a failed inverse inside it
    assert run_main(["solve-kfp", "--nx", "16", "--nv", "16", "--source", "zero", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("argv", [["--A", "1e300"], ["--A", "1e-320"],
                                  ["--v-max", "1e-150", "--A", "1e-300"]])
def test_solve_kfp_extreme_scales_inside_double_range_solve(argv, capsys):
    assert run_main(["solve-kfp", "--nx", "16", "--nv", "16", "--source", "zero", *argv]) == 0


def test_solve_kfp_bad_convergence_is_config_error(capsys):
    assert run_main(["solve-kfp", "--convergence", "32,x"]) == 2


@pytest.mark.parametrize("argv", [["--A", "nan"], ["--A", "0"], ["--x-max", "nan"],
                                  ["--v-max", "inf"], ["--x-max", "-1"],
                                  ["--convergence", "8,16"], ["--nx", "17", "--nv", "17"],
                                  ["--nv", "8"], ["--tol", "nan"], ["--tol", "0"],
                                  ["--source", "bogus"], ["--tol", "1e-30"]])
def test_solve_kfp_bad_input_is_config_error(argv, capsys):
    # checked before the first solve: exit 2 with a message, no traceback
    assert run_main(["solve-kfp", "--nx", "16", "--nv", "16", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["probe-exponent", "--A", "nan", "--space", "p5+tricomi"],
    ["probe-exponent", "--A", "inf", "--space", "p5+tricomi"],
    ["probe-exponent", "--radii", "nan,0.5"], ["probe-exponent", "--radii=0,0.5,0.25,0.1"],
    ["probe-exponent", "--radii=-1,0.5,0.25,0.1"], ["probe-exponent", "--z0", "nan,0,0"],
    ["probe-exponent", "--space", "p9"], ["probe-exponent", "--field", "missing.kfp"],
    ["counterexample-check", "--curvature", "nan"], ["counterexample-check", "--curvature", "inf"],
    ["counterexample-check", "--gamma", "bogus"], ["counterexample-check", "--f-hessian", "3"],
    ["counterexample-check", "--f-hessian", "[[NaN,0],[0,-2]]"],
    ["counterexample-check", "--f-hessian", "[[1e400,0],[0,-2]]"],
    ["counterexample-check", "--f-hessian", "[[2]]"], ["probe-exponent", "--z0", "0,-1,0"]])
def test_probe_and_counterexample_bad_input_is_config_error(argv, capsys):
    # checked before any fit or flattening: exit 2 with a message, no traceback
    assert run_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("z0", ["0,0", "0,0,0,0"])
def test_probe_z0_needs_three_coordinates(z0, capsys):
    assert run_main(["probe-exponent", "--z0", z0]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --z0") and "t,x,v" in err and repr(z0) in err
    assert "Traceback" not in err


def test_liouville_classify_tricomi_case(tmp_path):
    rhs = tmp_path / "v3.json"
    rhs.write_text(KineticPolynomial.monomial(1, 1, bv=(3,)).to_json())
    out = tmp_path / "cls.json"
    rc = run_main(["liouville-classify", "--rhs", str(rhs), "--A", "1", "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["is_polynomial"] is False
    assert rep["tricomi_terms"] == [{"lam": 3, "m": -0.05}]
    assert rep["verification"]["pass"]


def test_tricomi_and_liouville_pass_where_tau_reaches_the_asymptotic_lanes(tmp_path):
    # at small A the verify draws and the classifier's check points reach
    # |tau| >= 17, where U is summed from its Poincare series
    assert run_main(["tricomi-verify", "--A", "0.1"]) == 0
    rhs = tmp_path / "v3.json"
    rhs.write_text(KineticPolynomial.monomial(1, 1, bv=(3,)).to_json())
    out = tmp_path / "cls.json"
    assert run_main(["liouville-classify", "--rhs", str(rhs), "--A", "0.01", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["verification"]["pass"]


def test_liouville_classify_polynomial_case(tmp_path):
    p = KineticPolynomial(1, {mono(1, bv=(3,)): 1, mono(1, bx=(1,)): -2})
    rhs = tmp_path / "exc.json"
    rhs.write_text(p.to_json())
    out = tmp_path / "cls.json"
    rc = run_main(["liouville-classify", "--rhs", str(rhs), "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["is_polynomial"] is True


def test_liouville_classify_bad_config(tmp_path):
    rc = run_main(["liouville-classify", "--rhs", str(tmp_path / "missing.json")])
    assert rc == 2


def test_liouville_classify_non_finite_input_is_config_error(tmp_path, capsys):
    # bad input exits 2, not 3 (internal error)
    rhs = tmp_path / "inf.json"
    rhs.write_text('{"n": 1, "terms": [{"bt": 0, "bx": [0], "bv": [3], "c": Infinity}]}')
    assert run_main(["liouville-classify", "--rhs", str(rhs)]) == 2
    good = tmp_path / "v3.json"
    good.write_text(KineticPolynomial.monomial(1, 1, bv=(3,)).to_json())
    for A in ("nan", "inf", "0", "-1"):
        assert run_main(["liouville-classify", "--rhs", str(good), "--A", A]) == 2
        assert run_main(["tricomi-verify", "--A", A]) == 2


def test_solve_kfp_convergence(tmp_path):
    out = tmp_path / "solver"
    rc = run_main(["solve-kfp", "--source", "tricomi", "--bc", "specular",
                   "--convergence", "24,48", "--out", str(out)])
    assert rc == 0
    rep = json.loads((tmp_path / "solver.json").read_text())
    assert rep["pass"] is True
    assert rep["runs"][0]["max_error"] > rep["runs"][1]["max_error"]
    assert (tmp_path / "solver.csv").exists()
    assert (tmp_path / "solver.kfp").exists()


def test_probe_exponent_builtin(tmp_path):
    out = tmp_path / "probe.json"
    rc = run_main(["probe-exponent", "--field", "builtin:tricomi", "--space", "p5",
                   "--radii", "1,0.5,0.25,0.125,0.0625,0.03125", "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert abs(rep["slope"] - 5.0) <= 0.1


def test_probe_exponent_tau(tmp_path):
    out = tmp_path / "probe.json"
    rc = run_main(["probe-exponent", "--field", "builtin:tricomi", "--space", "p5+tricomi",
                   "--radii", "0.5,0.25,0.125", "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert abs(rep["tau"] - 1.0) <= 1e-6
    assert rep["tau_stable"] is True


def test_counterexample_check_both_domains(tmp_path):
    out = tmp_path / "c.json"
    rc = run_main(["counterexample-check", "--gamma", "builtin:parabola", "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["violated"] is True and rep["pass"] is True
    rc = run_main(["counterexample-check", "--gamma", "builtin:flat", "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["violated"] is False


def test_reports_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        rc = run_main(["--seed", "3", "probe-exponent", "--field", "builtin:tricomi",
                       "--radii", "1,0.5,0.25,0.125", "--out", str(out)])
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_seed_env_var(tmp_path, monkeypatch):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    monkeypatch.setenv("KRL_SEED", "7")
    assert run_main(["probe-exponent", "--radii", "1,0.5,0.25,0.125", "--out", str(a)]) == 0
    monkeypatch.setenv("KRL_SEED", "7")
    assert run_main(["probe-exponent", "--radii", "1,0.5,0.25,0.125", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("argv, env", [
    (["--seed", "-1"], None), (["--seed", "4294967296"], None), (["--seed", "abc"], None),
    ([], "abc"), ([], "-1"), ([], "4294967296"),
], ids=["negative", "too-large", "not-integer", "env-not-integer", "env-negative", "env-too-large"])
def test_bad_seed_is_config_error(argv, env, monkeypatch, capsys):
    # --seed and KRL_SEED share one check: an integer in [0, 2**32)
    if env is None:
        monkeypatch.delenv("KRL_SEED", raising=False)
    else:
        monkeypatch.setenv("KRL_SEED", env)
    assert run_main([*argv, "tricomi-verify"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seed" in err and "Traceback" not in err


def test_seed_range_is_half_open(tmp_path):
    # 2**32 - 1 is the largest seed RandomState takes, and 2**32 is refused
    out = tmp_path / "rep.json"
    assert run_main(["--seed", str(2 ** 32 - 1), "tricomi-verify", "--out", str(out)]) == 0
    assert run_main(["--seed", str(2 ** 32), "tricomi-verify", "--out", str(out)]) == 2


def test_negative_seed_probe_exits(tmp_path):
    # a negative seed made the Halton sampler loop forever: run the CLI in a
    # subprocess, so a hang fails by the timeout
    import kinreg

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(kinreg.__file__)))
    proc = subprocess.run([sys.executable, "-m", "kinreg.cli", "--seed", "-1", "probe-exponent"],
                          capture_output=True, text=True, env=env, timeout=20)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "seed" in proc.stderr


def test_console_entry_point(tmp_path):
    # the installed script runs end to end
    out = tmp_path / "rep.json"
    proc = subprocess.run([sys.executable, "-m", "kinreg.cli", "tricomi-verify",
                           "--out", str(out)], capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(out.read_text())["homogeneity"]["pass"]


@pytest.mark.parametrize("tol", [None, "1e-12"])
def test_solve_kfp_reports_the_last_update(tol, capsys):
    # each run row carries the relative update of its last sweep, the one
    # that stopped it below tol
    argv = ["solve-kfp", "--nx", "24", "--nv", "24"] + ([] if tol is None else ["--tol", tol])
    assert run_main(argv) == 0
    rep = json.loads(capsys.readouterr().out)
    bound = 1e-10 if tol is None else float(tol)
    for row in rep["runs"]:
        assert 0.0 <= row["last_update"] < bound and row["sweeps"] >= 1


def test_solve_kfp_file_source_and_probe_field_file(tmp_path):
    # write a source field, solve with it, then probe the solved field file
    import numpy as np
    from kinreg.solver import Field, HalfStripGrid

    g = HalfStripGrid(x_max=1.0, v_max=1.0, nx=24, nv=24)
    src = Field(g, np.zeros((25, 24)))
    srcp = tmp_path / "h.kfp"
    src.to_binary(str(srcp))
    out = tmp_path / "run"
    rc = run_main(["solve-kfp", "--nx", "24", "--nv", "24", "--bc", "specular",
                   "--source", f"file:{srcp}", "--out", str(out)])
    assert rc == 0
    rep = json.loads((tmp_path / "run.json").read_text())
    assert rep["runs"][0]["n"] == 24

    probe_out = tmp_path / "probe.json"
    rc = run_main(["probe-exponent", "--field", str(tmp_path / "run.kfp"),
                   "--z0", "0,0.4,0", "--space", "p3",
                   "--radii", "0.4,0.3,0.2,0.1", "--out", str(probe_out)])
    assert rc == 0
    rep = json.loads(probe_out.read_text())
    assert "errors" in rep and len(rep["errors"]) == 4


def _first_value(x):
    """Field file bytes with the body's first value set to x."""
    return lambda data: data[:36] + struct.pack("<d", x) + data[44:]


@pytest.mark.parametrize("corrupt", [
    lambda data: b"KFP2" + data[4:],
    lambda data: data[:10],         # short header
    lambda data: data[:-8],         # body one value short
    lambda data: data + bytes(8),   # one value too many
    _first_value(float("nan")),
    _first_value(float("inf")),
], ids=["bad-magic", "short-header", "short-body", "long-body", "nan", "inf"])
@pytest.mark.parametrize("cmd", ["probe-exponent", "solve-kfp"])
def test_bad_field_file_is_config_error(corrupt, cmd, tmp_path, capsys):
    import numpy as np
    from kinreg.solver import Field, HalfStripGrid

    path = tmp_path / "bad.kfp"
    Field(HalfStripGrid(x_max=1.0, v_max=1.0, nx=16, nv=16), np.zeros((17, 16))).to_binary(str(path))
    path.write_bytes(corrupt(path.read_bytes()))
    argv = (["probe-exponent", "--field", str(path), "--z0", "0,0.4,0", "--space", "p3",
             "--radii", "0.4,0.3,0.2,0.1"] if cmd == "probe-exponent"
            else ["solve-kfp", "--nx", "16", "--nv", "16", "--source", f"file:{path}"])
    assert run_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "field file" in err and "Traceback" not in err


def test_failed_check_exits_1_with_the_report_on_stdout(capsys):
    # two equal grids give equal errors, order 0 < 1: the check fails
    assert run_main(["solve-kfp", "--convergence", "16,16"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["pass"] is False and rep["orders"] == [0.0]
    assert rep["runs"][0]["max_error"] == rep["runs"][1]["max_error"]


def test_solve_kfp_zero_source_writes_a_zero_field(tmp_path):
    import numpy as np
    from kinreg.solver import Field

    out = tmp_path / "run"
    assert run_main(["solve-kfp", "--source", "zero", "--nx", "16", "--nv", "16",
                     "--out", str(out)]) == 0
    fld = Field.from_binary(str(out) + ".kfp")
    assert fld.values.shape == (17, 16) and np.all(fld.values == 0.0)


def test_probe_exponent_nan_slope_is_not_exact_fit(tmp_path, monkeypatch):
    # only the +inf sentinel means an exact fit; a NaN slope is written as NaN
    import math

    import kinreg.cli as cli
    from kinreg.probe import ExponentFit

    monkeypatch.setattr(cli, "exponent_fit", lambda *a, **k: ExponentFit(
        (0.4, 0.3, 0.2, 0.1), (1.0, 1.0, 1.0, 1.0), math.nan, math.nan, math.nan))
    out = tmp_path / "probe.json"
    assert run_main(["probe-exponent", "--radii", "0.4,0.3,0.2,0.1", "--out", str(out)]) == 0
    assert math.isnan(json.loads(out.read_text())["slope"])


def test_runtime_does_not_import_scipy():
    # numpy is the only runtime dependency: scipy is for the tests alone
    import kinreg

    code = """
import sys
import numpy as np
import kinreg, kinreg.cli
from kinreg.solver import BoundaryCondition, Field, HalfStripGrid, solve_stationary, solve_timedep
g = HalfStripGrid(x_max=1.0, v_max=1.0, nx=16, nv=16, nt=1, dt=0.01)
bc = BoundaryCondition(at_x0="specular", at_xmax=lambda t, v: 0.0, at_vmax=lambda t, x, v: 0.0)
fld = solve_stationary(lambda x, v: v, bc, 1.0, g)
solve_timedep(Field(g, np.zeros((17, 16))), None, bc, 1.0, 0.05)
fld.interpolator().ev(0.5, 0.1)
fld.interpolator(kind=1).ev(0.5, 0.1)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    src = os.path.dirname(os.path.dirname(kinreg.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_package_root_imports_no_module():
    # names are imported from their modules: the root holds only __version__
    import kinreg

    code = ("import sys, kinreg\n"
            "print(sorted(m for m in sys.modules if m.startswith('kinreg.')), kinreg.__version__)\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(kinreg.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "0.1.0"]


@pytest.mark.parametrize("A", ["1e300", "1e-300", "1e-122"])
def test_A_out_of_tricomi_range_is_config_error(A, tmp_path, capsys):
    # A^(-5/2) overflows or underflows, or (1e-122) T overflows where the
    # command evaluates it: exit 2 with a message, no traceback
    rhs = tmp_path / "v3.json"
    rhs.write_text(KineticPolynomial.monomial(1, 1, bv=(3,)).to_json())
    for argv in (["liouville-classify", "--rhs", str(rhs), "--A", A], ["tricomi-verify", "--A", A]):
        assert run_main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and "out of range" in err and "Traceback" not in err


@pytest.mark.parametrize("field, space", [("builtin:tricomi", "p5"), ("file", "p5+tricomi"),
                                          ("file", "p5 --tau")])
def test_probe_where_T_overflows_is_config_error(field, space, tmp_path, capsys):
    # T_{1e-120,3} overflows at |v| = 80: the probe exits 2 before its first fit
    # whether T is the probed field, a basis element of the space or of the
    # --tau fits at the grazing point
    if field == "file":
        import numpy as np
        from kinreg.solver import Field, HalfStripGrid

        field = str(tmp_path / "zero.kfp")
        Field(HalfStripGrid(x_max=1.0, v_max=1.0, nx=16, nv=16), np.zeros((17, 16))).to_binary(field)
    argv = ["probe-exponent", "--field", field, "--space", *space.split(), "--A", "1e-120",
            "--radii", "80,40,20,10"]
    assert run_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "overflows" in err and "Traceback" not in err


def test_counterexample_curvature_beyond_the_patch_is_config_error(tmp_path, capsys):
    # the flattening cannot be inverted on the patch at curvature 8
    assert run_main(["counterexample-check", "--curvature", "8"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert run_main(["counterexample-check", "--curvature", "5", "--out", str(tmp_path / "c.json")]) == 0


def test_perfbench_patch_targets_resolve():
    # perfbench wraps these attributes in a traced run; each must still exist
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.PATCHES
    for target, _, _ in tracing.PATCHES:
        owner, attr = tracing.resolve(target)
        assert callable(getattr(owner, attr)), target


def test_solve_kfp_zero_source_takes_an_A_outside_the_tricomi_range(tmp_path, capsys):
    # only the Tricomi source needs A^(-5/2) to be a normal double
    argv = ["solve-kfp", "--nx", "16", "--nv", "16", "--A", "1e-200"]
    assert run_main([*argv, "--source", "zero", "--out", str(tmp_path / "z")]) == 0
    assert run_main(argv) == 2
    assert "out of range" in capsys.readouterr().err


def test_repeated_probe_computes_each_halton_range_once(tmp_path, monkeypatch):
    # every radius at the grazing origin, and a second run in the same
    # process, asks for Halton ranges already computed
    import kinreg.probe as probe

    calls = []
    compute = probe._radical_inverse

    def counted(idx, base):
        calls.append((int(idx[0]), len(idx), base))
        return compute(idx, base)

    monkeypatch.setattr(probe, "_radical_inverse", counted)
    probe._unit_rows.cache_clear()
    argv = ["probe-exponent", "--space", "p5", "--radii", "1,0.5,0.25,0.125,0.0625,0.03125"]
    for i in range(2):
        assert run_main([*argv, "--out", str(tmp_path / f"p{i}.json")]) == 0
    assert calls and len(calls) == len(set(calls))
    assert (tmp_path / "p0.json").read_bytes() == (tmp_path / "p1.json").read_bytes()


def test_tau_reuses_the_exponent_fits(tmp_path, monkeypatch):
    # with --space p5+tricomi the multiplier comes from the 4 fits of the
    # exponent fit, not from 4 more
    import kinreg.probe as probe

    calls = []
    fit = probe.polyfit_on_cylinder

    def counted(*args, **kwargs):
        calls.append(args[2])
        return fit(*args, **kwargs)

    monkeypatch.setattr(probe, "polyfit_on_cylinder", counted)
    out = tmp_path / "tau.json"
    assert run_main(["probe-exponent", "--space", "p5+tricomi", "--tau", "--out", str(out)]) == 0
    assert calls == [1.0, 0.5, 0.25, 0.125]
    rep = json.loads(out.read_text())
    assert rep["tau_stable"] and abs(rep["tau"] - 1.0) <= 1e-3


def test_main_builds_the_parser_once(monkeypatch, capsys):
    import argparse

    import kinreg.cli as cli

    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    for _ in range(3):
        assert run_main(["--seed", "-1", "tricomi-verify"]) == 2
    assert built.count("kinreg") == 1


def test_A_just_inside_where_T_stays_finite_runs_the_checks(tmp_path, capsys):
    # T must stay finite at tricomi-verify's |r v| < 150 and at
    # verify_solution's |v| = 4.5 (lam = 3 and 9): just outside exits 2,
    # just inside runs every check to a finite report
    v9 = tmp_path / "v9.json"
    v9.write_text(KineticPolynomial(1, {mono(1, bv=(3,)): 1, mono(1, bx=(2,), bv=(3,)): 1}).to_json())
    assert run_main(["liouville-classify", "--rhs", str(v9), "--A", "1e-55"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: A = 1e-55 is out of range for lam = 9") and "Traceback" not in err
    out = tmp_path / "rep.json"
    assert run_main(["tricomi-verify", "--A", "2e-119", "--out", str(out)]) in (0, 1)
    rep = json.loads(out.read_text())
    assert all(math.isfinite(rep[k]["worst_rel"])
               for k in ("homogeneity", "residual_span", "cusp_ratio"))
    v3 = tmp_path / "v3.json"
    v3.write_text(KineticPolynomial.monomial(1, 1, bv=(3,)).to_json())
    for rhs, A in ((v3, "1.8e-122"), (v9, "3e-55")):
        assert run_main(["liouville-classify", "--rhs", str(rhs), "--A", A, "--out", str(out)]) in (0, 1)
        assert math.isfinite(json.loads(out.read_text())["verification"]["growth_constant"])


def test_liouville_coefficient_beyond_double_range_is_config_error(tmp_path, capsys):
    rhs = tmp_path / "big.json"
    rhs.write_text('{"n": 1, "terms": [{"bt": 0, "bx": [0], "bv": [3], "c": "1e400"}]}')
    assert run_main(["liouville-classify", "--rhs", str(rhs)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: rhs coefficient") and "Traceback" not in err


@pytest.mark.parametrize("text", [
    '{"n": 1, "terms": 5}', "[1, 2]",
    '{"n": 1, "terms": [{"bt": 0, "bx": [0], "bv": [3], "c": null}]}',
    '{"n": 1, "terms": [{"bt": 0, "bx": [0], "bv": [3], "c": "1/0"}]}'],
    ids=["terms-not-a-list", "top-level-list", "c-null", "c-1/0"])
def test_liouville_malformed_rhs_is_config_error(text, tmp_path, capsys):
    rhs = tmp_path / "bad.json"
    rhs.write_text(text)
    assert run_main(["liouville-classify", "--rhs", str(rhs)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: polynomial field") and "Traceback" not in err


@pytest.mark.parametrize("curvature", ["1e155", "1e308", "-1e308"])
def test_counterexample_curvature_beyond_double_range_is_config_error(curvature, capsys):
    # s^3 leaves the double range in the flattening's Jacobian
    assert run_main(["counterexample-check", f"--curvature={curvature}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_probe_exponent_tau_over_p4(tmp_path):
    # at the grazing origin --tau fits p5+tricomi whatever the probed space
    out = tmp_path / "probe.json"
    assert run_main(["probe-exponent", "--space", "p4", "--tau", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert abs(rep["tau"] - 1.0) <= 1e-12
    assert rep["tau_stable"] is True
