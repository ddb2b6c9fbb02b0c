"""Smoke test of the benchmark harness.

Runs every workload at a tiny budget, traced and untraced, and checks
that the last line of output names every metric of BENCHMARK.json with
its unit.  It takes about a minute:

    python3 -m pytest perfbench/smoke_test.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run_bench(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--smoke",
    ]  # fmt: skip
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # the value checks are off at these budgets; a crash other than the
    # known ones still makes the run incorrect
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == expected
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and not isinstance(m["value"], bool)
    env = json.loads(next(ln for ln in proc.stdout.splitlines() if ln.startswith("env "))[4:])
    for key in ("nproc", "cpu_model", "python", "numpy", "scipy", "blas", "blas_threads"):
        assert key in env
    assert env["seed"] == 3 and env["blas_threads"] <= env["nproc"]


def test_refuses_to_run_without_the_program():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        for path in SPEC["paths"]:
            shutil.copytree(
                os.path.join(ROOT, path),
                os.path.join(tmp, path),
                ignore=shutil.ignore_patterns("__pycache__", ".work-*"),
            )
        proc = run_bench(tmp, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
