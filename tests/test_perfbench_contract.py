"""The program surface that the traced benchmark operation relies on.

``perfbench/op.py --trace 1`` wraps module attributes of ``group``,
``estdim`` and ``psmeasure`` by name and runs the deep-cusp and verify
operations through them.  These runs take its operation at small
budgets in subprocesses, reading ``perfbench/`` and writing only into a
temporary directory, so a change that breaks the benchmark's contract
fails here too.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "args",
    [
        ["--kind", "deep-cusp", "--group", "apollonian", "--budget-dist", "8.5"],
        ["--kind", "verify", "--group", "schottky"],
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
