"""Smoke runs of the experiment scripts: each must finish with exit 0."""

import os
import subprocess
import sys

import pytest

import kleindim

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(kleindim.__file__)))


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def test_gasket_survey_quick():
    proc = run_script("gasket_survey.py", "--quick")
    assert proc.returncode == 0, proc.stderr
    assert "profile flags:" in proc.stdout


@pytest.mark.parametrize("group", ["apollonian", "rank2_cusp", "parabolic_cusp_fuchsian"])
def test_cusp_diagnostics(group):
    proc = run_script("cusp_diagnostics.py", "--group", group, "--dist", "8")
    assert proc.returncode == 0, proc.stderr
    assert f"group={group}" in proc.stdout
