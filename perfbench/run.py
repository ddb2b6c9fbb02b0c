"""Benchmark of the kleindim pipeline: sample, estimate, compare.

Run from the root of a checkout:

    python3 perfbench/run.py --workload gasket-verify --seed 0 --seconds 10 --trace 0

Each operation is one pipeline run in a process of its own (``op.py``),
started by a closed loop with a single caller: the next operation starts
when the previous one has ended.  The loop runs whole cycles of the
workload's operations until ``--seconds`` have passed, at least one.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics (wall time per operation, peak RSS, set-up
time).  With ``--trace 1`` traced cycles alternate with untraced ones
and the object holds the per-layer metrics of the traced cycles plus
the tracing overhead.  Lines above it describe the machine and each
operation.  See ``perfbench/README.md`` for the workloads and metrics.
"""

import argparse
import collections
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OP = os.path.join(HERE, "op.py")

# every run must end within 180 s; an operation still running at this
# point is killed and counted as failed
DEADLINE_S = 170.0
# set-up times per untraced run: workloads with fewer operations than
# this add set-up-only probes (about a second each), half before the
# operations and half after them, so that the median spans the run and
# not one moment of it.  Single set-up times on a shared machine spread
# by a fifth or more, so one run needs many of them; more than eight
# would make the driver's runs of all workloads too long.
SETUP_SAMPLES = 8
BLAS_THREADS = 1
# reference.json holds the answers of the commit that added the benchmark
# at input seeds 0 .. INPUT_SEEDS-1; the workload seed is taken modulo
# this count, so every run's answers can be compared at the same seed
INPUT_SEEDS = 16


@dataclass(frozen=True)
class Op:
    kind: str  # "setup", "verify" or "deep-cusp", as in op.py
    group: str
    budget_dist: Optional[float] = None
    budget_words: Optional[int] = None


@dataclass(frozen=True)
class Workload:
    ops: tuple
    # untraced cycles per run at the least: the builtins operations last
    # 1 to 7 s, so one burst of load from elsewhere on the machine moves
    # a single cycle by tens of percent; a third cycle would make the
    # driver's runs of all workloads too long
    min_cycles: int = 1


WORKLOADS = {
    # smallest budget at which every verify stage runs, the regularity
    # window included; the Assouad and lower sweeps dominate
    "gasket-verify": Workload((Op("verify", "apollonian", budget_dist=9.5),)),
    # the measure side of the acceptance deep fixture: orbit walk and
    # horoball family dominate, no estimator sweep runs
    "deep-cusp": Workload((Op("deep-cusp", "apollonian", budget_dist=10.5),)),
    # the other builtins at their default budgets: d=1 clouds, the
    # geometrically infinite branch and the failure paths
    "builtins": Workload(
        (
            Op("verify", "schottky"),
            Op("verify", "parabolic_cusp_fuchsian"),
            Op("verify", "infinite_fuchsian"),
        ),
        min_cycles=2,
    ),
}

# tiny budgets for the harness smoke test; the value checks below hold
# at the full budgets only, so they are skipped at these
SMOKE_WORKLOADS = {
    "gasket-verify": Workload((Op("verify", "apollonian", budget_dist=7.0),)),
    "deep-cusp": Workload((Op("deep-cusp", "apollonian", budget_dist=8.5),)),
    "builtins": Workload(
        (
            Op("verify", "schottky"),
            Op("verify", "parabolic_cusp_fuchsian", budget_dist=5.0),
            Op("verify", "infinite_fuchsian", budget_words=5_000),
        )
    ),
}

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

TIMED = [
    "estdim.assouad_dimension",
    "estdim.lower_dimension",
    "estdim.covering_count",
    "estdim.poincare_exponent",
    "estdim.box_dimension",
    "group.enumerate_orbit",
    "group.find_cusps",
    "group.standard_horoballs",
    "group.sample_limit_set",
    "psmeasure.patterson_measure",
    "psmeasure.regularity_exponents",
    "psmeasure.local_dimension",
    "psmeasure.gmf_drift",
    "predict.predict_dims",
    "cli",
]
SIZED = [
    "group.enumerate_orbit",
    "group.find_cusps",
    "group.standard_horoballs",
    "group.sample_limit_set",
    "psmeasure.patterson_measure",
]
RSS = ["estdim.assouad_dimension", "group.enumerate_orbit", "group.standard_horoballs"]
# the fields op.py's tracer records per wrapped function
RECORD = ("calls", "self_s", "rss_mb", "n")

PER_LAYER = {
    **{f"{k}.self_s": "s" for k in TIMED},
    **{f"{k}.n": "count" for k in SIZED},
    "estdim.covering_count.calls": "count",
    "estdim.windows": "count",
    **{f"{k}.rss_mb": "MB" for k in RSS},
    "cli.rows_pass": "count",
    "cli.rows_fail": "count",
    "cli.rows_error": "count",
    "import.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.covered_frac": "fraction",
}

# deep-cusp acceptance bounds (criteria 02, 04 and 05 of the acceptance
# suite, at distance 10.5 instead of 11)
DEEP_DELTA = (1.305, 0.05)
DEEP_DRIFT = (-0.1, 0.1)
DEEP_LOCAL_TOL = 0.15

# crashes the commit that added the benchmark already shows, by workload
# and group: the exception that may end the operation without making the
# run incorrect.  Any other crash, a timeout included, is a wrong answer.
KNOWN_CRASHES = {("builtins", "parabolic_cusp_fuchsian"): "IndexError"}


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def read_report(path: str) -> Optional[dict]:
    """Rows of a verify report: name -> (estimated, tolerance, status)."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError:
        return None
    try:
        start = lines.index("name,predicted,estimated,tolerance,direction,status") + 1
    except ValueError:
        return None
    rows = {}
    for line in lines[start:]:
        if line.startswith("overall="):
            return rows
        name, _, est, tol, _, status = line.split(",", 5)
        rows[name] = (float(est), float(tol), status.split(" ", 1)[0])
    return None


class Runner:
    """Spawns operations and keeps the files they leave in one directory."""

    def __init__(self, seed: int, workdir: str, deadline: float) -> None:
        self.seed = seed
        self.workdir = workdir
        self.deadline = deadline
        self.count = 0
        self.env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
            OMP_NUM_THREADS=str(BLAS_THREADS),
            MKL_NUM_THREADS=str(BLAS_THREADS),
        )

    def spawn(self, op: Op, trace: bool) -> dict:
        self.count += 1
        tag = os.path.join(self.workdir, f"op{self.count}")
        os.makedirs(tag)
        cmd = [
            sys.executable, OP, "--kind", op.kind, "--group", op.group,
            "--seed", str(self.seed), "--trace", str(int(trace)),
            "--workdir", tag, "--result", os.path.join(tag, "result.json"),
        ]  # fmt: skip
        if op.budget_dist is not None:
            cmd += ["--budget-dist", repr(op.budget_dist)]
        if op.budget_words is not None:
            cmd += ["--budget-words", str(op.budget_words)]
        timed_out = False
        with open(os.path.join(tag, "stdout.txt"), "w") as out, open(
            os.path.join(tag, "stderr.txt"), "w"
        ) as err:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            try:
                proc.wait(timeout=max(1.0, self.deadline - t0))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                timed_out = True
            wall = time.monotonic() - t0
        try:
            with open(os.path.join(tag, "result.json")) as fh:
                res = json.load(fh)
        except (OSError, json.JSONDecodeError):
            res = {}
        with open(os.path.join(tag, "stderr.txt")) as fh:
            traceback_seen = "Traceback (most recent call last)" in fh.read()
        setup = res["setup_done"] - t0 if "setup_done" in res else None
        return {
            "wall": wall,
            "rc": proc.returncode,
            "timed_out": timed_out,
            "traceback": traceback_seen or "traceback" in res,
            "res": res,
            "setup": setup,
            # an operation that left no result counts as failed; its
            # unknown peak RSS reads 0
            "rss": res.get("maxrss_mb", 0.0),
            "rows": read_report(os.path.join(tag, f"{op.group}_verify.txt")),
        }


def crash(op: Op, run: dict) -> Optional[str]:
    """Why the operation ended without an answer, or None if it gave one.

    It times out, ends in a traceback, or exits with a code outside
    {0, 2, 3} (1 is the usage-error code, and the input is valid).
    """
    res = run["res"]
    if run["timed_out"]:
        return "timed out"
    if run["traceback"]:
        return "traceback: " + res.get("traceback", "see stderr")
    if not res or run["rc"] != res["rc"]:
        return f"no result (exit {run['rc']})"
    if run["rc"] not in ((0,) if op.kind == "deep-cusp" else (0, 2, 3)):
        return f"exit {run['rc']}"
    if op.kind == "verify" and run["rows"] is None:
        return f"exit {run['rc']} without a readable report"
    return None


def check(
    workload: str, op: Op, run: dict, seed: int, value_checks: bool
) -> tuple[bool, bool, str]:
    """(failed, wrong, note) for one operation.

    An operation fails when it crashes or gives a wrong answer.  Every
    failure makes the run incorrect, except a crash in KNOWN_CRASHES.
    """
    why = crash(op, run)
    if why is not None:
        known = KNOWN_CRASHES.get((workload, op.group))
        tolerated = known is not None and run["res"].get("traceback", "").startswith(known + ":")
        return True, not tolerated, why + (" (known crash)" if tolerated else "")
    if op.kind == "deep-cusp":
        bad, note = check_deep(run["res"]["deep_cusp"])
    else:
        statuses = " ".join(f"{k}={s}" for k, (_, _, s) in run["rows"].items())
        note = f"exit {run['rc']}: {statuses}"
        bad = []
        if workload == "gasket-verify":
            bad = check_rows(run["rows"], load_reference()["seeds"][str(seed)])
    if value_checks and bad:
        return True, True, "; ".join(bad) + f" [{note}]"
    return False, False, note


def check_deep(v: dict) -> tuple[list, str]:
    """The acceptance bounds on the growth fit, the drift and the local
    dimensions at the deepest cusp and at typical atoms."""
    bad = []
    if not abs(v["delta_hat"] - DEEP_DELTA[0]) <= DEEP_DELTA[1]:
        bad.append("delta_hat")
    if not DEEP_DRIFT[0] <= v["drift_slope"] <= DEEP_DRIFT[1]:
        bad.append("drift_slope")
    if not abs(v["parabolic"] - v["parabolic_target"]) <= DEEP_LOCAL_TOL:
        bad.append("parabolic")
    if not abs(v["typical"] - v["delta_hat"]) <= DEEP_LOCAL_TOL:
        bad.append("typical")
    if bad:
        bad = [f"out of bounds: {', '.join(bad)}"]
    return bad, ", ".join(f"{k}={x:.4g}" for k, x in v.items())


def check_rows(rows: dict, ref: dict) -> list:
    """Rows that pass in the reference still pass, and every estimate in
    both stays within its row tolerance of the reference value."""
    bad = []
    for name, want in ref.items():
        if name not in rows:
            if want["status"] == "pass":
                bad.append(f"{name} missing")
            continue
        est, tol, status = rows[name]
        if want["status"] == "pass" and status != "pass":
            bad.append(f"{name} {status}")
        if not abs(est - want["estimated"]) <= tol:
            bad.append(f"{name}={est:.4g} vs {want['estimated']:.4g}+-{tol:g}")
    return bad


def layer_metrics(ops: list) -> dict:
    """Per-layer metrics of one traced cycle: sums over its operations."""
    stats: dict = collections.defaultdict(lambda: dict.fromkeys(RECORD, 0))
    for run in ops:
        for key, rec in run["res"].get("trace", {}).items():
            for field in RECORD:
                stats[key][field] += rec[field]
    out = {f"{k}.self_s": stats[k]["self_s"] for k in TIMED}
    out.update({f"{k}.n": stats[k]["n"] for k in SIZED})
    out["estdim.covering_count.calls"] = stats["estdim.covering_count"]["calls"]
    out["estdim.windows"] = (
        stats["estdim.assouad_dimension"]["n"] + stats["estdim.lower_dimension"]["n"]
    )
    out.update({f"{k}.rss_mb": stats[k]["rss_mb"] for k in RSS})
    for status in ("pass", "fail", "error"):
        out[f"cli.rows_{status}"] = sum(
            s == status for run in ops for (_, _, s) in (run["rows"] or {}).values()
        )
    out["import.self_s"] = sum(run["res"].get("import_s", 0.0) for run in ops)
    wall = sum(run["wall"] for run in ops)
    # cli.main encloses the whole verify pipeline, so its self time is
    # whatever the other wrappers miss and does not count as covered
    covered = out["import.self_s"] + sum(out[f"{k}.self_s"] for k in TIMED if k != "cli")
    out["trace.covered_frac"] = covered / wall
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--smoke", action="store_true", help="tiny budgets, no value checks (harness test)"
    )
    args = ap.parse_args()
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "kleindim", "cli.py")):
        print(f"error: no kleindim sources under {ROOT}/src", file=sys.stderr)
        return 2
    nproc = os.cpu_count() or 1
    if BLAS_THREADS > nproc:
        print(f"error: {BLAS_THREADS} BLAS threads exceed {nproc} cores", file=sys.stderr)
        return 2

    start = time.monotonic()
    workload = (SMOKE_WORKLOADS if args.smoke else WORKLOADS)[args.workload]
    ops = workload.ops
    seed = args.seed % INPUT_SEEDS
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        runner = Runner(seed, workdir, start + DEADLINE_S)
        n_probes = 0 if args.trace else max(0, SETUP_SAMPLES - len(ops) * workload.min_cycles)
        probe = Op("setup", ops[0].group)
        probes = [runner.spawn(probe, False) for _ in range(n_probes // 2)]

        cycles = []  # (traced, [one run per op])
        attempted = failed = 0
        correct = True
        t_loop = time.monotonic()
        while True:
            traced = bool(args.trace) and len(cycles) % 2 == 0
            runs = []
            for op in ops:
                run = runner.spawn(op, traced)
                is_failed, is_wrong, note = check(args.workload, op, run, seed, not args.smoke)
                attempted += 1
                failed += is_failed
                correct &= not is_wrong
                runs.append(run)
                print(
                    f"op {args.workload}/{op.group} traced={int(traced)} "
                    f"wall={run['wall']:.3f}s rss={run['rss']:.0f}MB "
                    f"exit={run['rc']} {'FAILED' if is_failed else 'ok'}: {note}"
                )
            cycles.append((traced, runs))
            if any(r["timed_out"] for r in runs):
                break
            if time.monotonic() - t_loop < args.seconds:
                continue
            if args.trace and len(cycles) >= 2:
                break
            if not args.trace and len(cycles) >= workload.min_cycles:
                break
        probes += [runner.spawn(probe, False) for _ in range(n_probes - n_probes // 2)]
        if any(p["rc"] != 0 or p["setup"] is None for p in probes):
            print("error: the set-up probe failed; see its stderr", file=sys.stderr)
            return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    first = next((r["res"] for r in probes + cycles[0][1] if "versions" in r["res"]), {})
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "input_seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "blas_threads": BLAS_THREADS,
        **first.get("versions", {}),
        "cycles": len(cycles),
        "run_s": time.monotonic() - start,
    }
    print("env " + json.dumps(env))

    def per_op(kind_cycles, key):
        """Median over cycles of each operation's value, one per op."""
        return [statistics.median(runs[i][key] for runs in kind_cycles) for i in range(len(ops))]

    plain = [runs for t, runs in cycles if not t]
    if args.trace:
        traced_cycles = [runs for t, runs in cycles if t]
        per_cycle = [layer_metrics(runs) for runs in traced_cycles]
        values = {k: statistics.median(m[k] for m in per_cycle) for k in per_cycle[0]}
        values["trace.wall_s"] = statistics.mean(per_op(traced_cycles, "wall"))
        values["trace.overhead_s"] = values["trace.wall_s"] - statistics.mean(
            per_op(plain, "wall")
        )
        units = PER_LAYER
    else:
        setups = [r["setup"] for r in probes + [r for runs in plain for r in runs]]
        values = {
            "wall_s": statistics.mean(per_op(plain, "wall")),
            "peak_rss_mb": max(per_op(plain, "rss")),
            "setup_s": statistics.median(s for s in setups if s is not None),
        }
        units = END_TO_END
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
