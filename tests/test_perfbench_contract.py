"""The program surface that the traced benchmark operation relies on.

``perfbench/op.py --trace 1`` wraps module attributes of ``group``,
``estdim`` and ``psmeasure`` by name and runs the deep-cusp and verify
operations through them.  These runs take its operation at small
budgets in subprocesses, reading ``perfbench/`` and writing only into a
temporary directory, so a change that breaks the benchmark's contract
fails here too.
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

from kleindim import cli, predict
from kleindim import estdim as ed
from kleindim import group as gr
from kleindim.pipeline import Pipeline

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "args",
    [
        ["--kind", "deep-cusp", "--group", "apollonian", "--budget-dist", "8.5"],
        # a verify run that reaches the measure layer: schottky's default
        # run ends at its growth fit
        ["--kind", "verify", "--group", "parabolic_cusp_fuchsian", "--budget-dist", "8"],
    ],
    ids=["deep-cusp", "verify"],
)
def test_traced_operation_runs_through_the_wrapped_layers(args, tmp_path):
    result = tmp_path / "result.json"
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "op.py"), *args]
    cmd += ["--seed", "0", "--trace", "1", "--workdir", str(tmp_path), "--result", str(result)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert result.exists(), proc.stderr
    out = json.loads(result.read_text())
    assert "traceback" not in out, proc.stderr
    assert out["rc"] in (0, 2, 3)
    for key in ("group.enumerate_orbit", "psmeasure.patterson_measure"):
        assert out["trace"][key]["calls"] >= 1, key


def perfbench_run():
    """``perfbench/run.py`` as a module, for its reference and check."""
    path = os.path.join(ROOT, "perfbench", "run.py")
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def test_gasket_rows_pass_the_benchmark_check(tmp_path):
    # the gasket-verify answer at seed 0, held to reference.json by the
    # benchmark's own check: seeded rows such as inf_lower_loc read atoms
    # by index, so a change of atom order fails here
    run = perfbench_run()
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "op.py"), "--kind", "verify"]
    cmd += ["--group", "apollonian", "--budget-dist", "9.5", "--seed", "0", "--trace", "0"]
    cmd += ["--workdir", str(tmp_path), "--result", str(tmp_path / "result.json")]
    threads = str(run.BLAS_THREADS)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    env["MKL_NUM_THREADS"] = threads
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300, env=env)
    rows = run.read_report(str(tmp_path / "apollonian_verify.txt"))
    assert rows is not None, proc.stderr
    assert run.check_rows(rows, run.load_reference()["seeds"]["0"]) == []


def test_gasket_window_extremes_pass_the_benchmark_check_at_every_seed():
    # gasket-verify may run at any seed of reference.json, and the seed
    # picks the window sweep's centres: at each, dim_A and dim_L of the
    # distance-9.5 cloud stay within their row tolerances of the
    # reference, by the benchmark's own check, and dim_A still passes
    run = perfbench_run()
    p = Pipeline(gr.builtin_group("apollonian"), 9.5)
    profile = predict.GroupProfile(
        delta=p.delta,
        k_min=p.cusps.k_min or 0,
        k_max=p.cusps.k_max or 0,
        d=p.group.d,
        parabolic_free=not p.cusps.has_cusps,
    )
    predicted = vars(predict.predict_dims(profile))
    sets = [(None, (8.0, 64.0)), (None, (4.0, 8.0, 16.0))]
    bad = {}
    for seed, ref in run.load_reference()["seeds"].items():
        assouad, lower = ed.window_sweep(p.cloud, sets, seed=int(seed))
        rows = {}
        for name, windows, method in (("dim_A", assouad, "assouad"), ("dim_L", lower, "lower")):
            value = windows.extreme(method).value
            row = cli.ReportRow(name, predicted[name], value, cli.DEFAULT_TOLERANCES[name])
            rows[name] = (row.estimated, row.tolerance, row.status)
        problems = run.check_rows(rows, {name: ref[name] for name in rows})
        if rows["dim_A"][2] != "pass":
            problems.append(f"dim_A {rows['dim_A'][2]}")
        if problems:
            bad[seed] = problems
    assert len(run.load_reference()["seeds"]) == 16
    assert bad == {}
