"""Write the byte-compare matrix of `kleindim verify` reports.

One file per run: the run's stdout and stderr without the `wrote PATH`
line, then its exit code.  The matrix is the five builtins at
`--budget-dist 8` and at the default budget, and apollonian at
`--budget-dist 10` and at 9.5 with seeds 0-15.  Write it once from each
of two trees, then `diff -r` the two directories: every row, note and
exit code that moved shows.  `--quick` runs apollonian alone, at
`--budget-dist 7` and seed 0.

Usage:
    python3 scripts/report_matrix.py OUT_DIR
    python3 scripts/report_matrix.py OUT_DIR --quick
    diff -r PARENT_DIR CHANGE_DIR
"""

import argparse
import contextlib
import io
import os
import tempfile

from kleindim import cli

BUILTINS = ("apollonian", "infinite_fuchsian", "parabolic_cusp_fuchsian", "rank2_cusp", "schottky")


def matrix(quick: bool) -> list:
    """(file name, verify arguments) of every run."""
    if quick:
        return [("apollonian_7_seed0", ["apollonian", "--budget-dist", "7"])]
    runs = [(f"{g}_8", [g, "--budget-dist", "8"]) for g in BUILTINS]
    runs += [(f"{g}_default", [g]) for g in BUILTINS]
    runs.append(("apollonian_10", ["apollonian", "--budget-dist", "10"]))
    runs += [
        (f"apollonian_9.5_seed{seed}", ["apollonian", "--budget-dist", "9.5", "--seed", str(seed)])
        for seed in range(16)
    ]
    return runs


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out_dir", metavar="OUT_DIR", help="directory for the report files")
    ap.add_argument("--quick", action="store_true", help="one small run, for a smoke test")
    args = ap.parse_args()
    os.makedirs(args.out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for name, argv in matrix(args.quick):
            out, err = io.StringIO(), io.StringIO()
            report = os.path.join(scratch, "report.txt")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["verify", *argv, "--out", report])
            lines = [ln for ln in out.getvalue().splitlines() if not ln.startswith("wrote ")]
            lines += err.getvalue().splitlines() + [f"exit={code}"]
            with open(os.path.join(args.out_dir, f"{name}.txt"), "w") as f:
                f.write("\n".join(lines) + "\n")
            print(f"{name}: exit {code}")


if __name__ == "__main__":
    main()
