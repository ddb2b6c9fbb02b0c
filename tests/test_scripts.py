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


# the deepest cusp's horoball size in the squeezed, disjoint family
DEEPEST_SIZE_AT_8 = {"apollonian": "1.5625", "rank2_cusp": "0.5000", "parabolic_cusp_fuchsian": "0.5000"}


@pytest.mark.parametrize("group", list(DEEPEST_SIZE_AT_8))
def test_cusp_diagnostics(group):
    proc = run_script("cusp_diagnostics.py", "--group", group, "--dist", "8")
    assert proc.returncode == 0, proc.stderr
    assert f"group={group}" in proc.stdout
    assert proc.stdout.splitlines()[0].endswith(f" size={DEEPEST_SIZE_AT_8[group]}")


def test_phase_figures(tmp_path):
    proc = run_script(
        "phase_figures.py", "--out-dir", str(tmp_path), "--families", "1,1,2", "--grid", "20"
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "phase_k1_1_d2.csv").exists()
    assert (tmp_path / "phase_k1_1_d2.svg").exists()


def test_report_matrix_quick(tmp_path):
    proc = run_script("report_matrix.py", str(tmp_path), "--quick")
    assert proc.returncode == 0, proc.stderr
    text = (tmp_path / "apollonian_7_seed0.txt").read_text()
    assert text.startswith("# kleindim verification report\n")
    assert "wrote " not in text
    assert text.splitlines()[-1].startswith("exit=")
