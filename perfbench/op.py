"""One benchmark operation, run in a process of its own by ``run.py``.

The operation imports ``kleindim`` from the checkout's ``src/``, runs one
of three kinds of work and writes a JSON result file:

- ``setup``: import the package and build the group, nothing else;
- ``verify``: ``kleindim verify GROUP`` through ``cli.main``;
- ``deep-cusp``: the measure side of the acceptance ``deep`` fixture
  (orbit, growth fit, cusps, horoball family, banded measure, measure
  formula drift and local dimensions).

With ``--trace 1`` the public calls into each layer are wrapped from
outside the program: the module attributes that ``cli`` and this file
call through (``gr.*``, ``ed.*``, ``ps.*``, ``predict.*``) and the names
``psmeasure`` binds with ``from .group import ...`` and
``from .estdim import ...``.  Each wrapped call records its duration,
its self time (duration minus the wrapped calls it makes), the growth
of the process's peak RSS during the call and a size of its output.
No file of the program changes.

Usage (``run.py`` passes every argument; by hand, from the checkout root):

    python3 perfbench/op.py --kind verify --group apollonian \\
        --budget-dist 9.5 --seed 0 --trace 1 --workdir /tmp/w --result r.json
"""

import argparse
import json
import math
import os
import resource
import sys
import time
import traceback

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
# numpy is imported by kleindim inside main()'s timed import, so the
# functions below import it where they use it


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# output sizes recorded per wrapped call: orbit elements, cusps, family
# members, cloud points, measure atoms and windows swept
SIZES = {
    "group.enumerate_orbit": lambda out: out.n,
    "group.find_cusps": lambda out: len(out.cusps),
    "group.standard_horoballs": lambda out: out.n,
    "group.sample_limit_set": lambda out: len(out.coords),
    "psmeasure.patterson_measure": lambda out: out.n,
    "estdim.assouad_dimension": lambda out: out.diagnostics.get("n_samples", 0),
    "estdim.lower_dimension": lambda out: out.diagnostics.get("n_samples", 0),
}


class Tracer:
    """Per-function call counts, self times, RSS growth and output sizes."""

    def __init__(self) -> None:
        self.stats: dict = {}
        self._child_s: list = []

    def _record(self, key: str) -> dict:
        return self.stats.setdefault(key, {"calls": 0, "self_s": 0.0, "rss_mb": 0.0, "n": 0})

    def wrap(self, module, name: str, key: str) -> None:
        fn = getattr(module, name)
        size = SIZES.get(key)
        record = self._record(key)
        child_s = self._child_s

        def traced(*args, **kwargs):
            child_s.append(0.0)
            rss0 = _maxrss_mb()
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                inner = child_s.pop()
                if child_s:
                    child_s[-1] += dt
                record["calls"] += 1
                record["self_s"] += dt - inner
                record["rss_mb"] += _maxrss_mb() - rss0
            if size is not None:
                record["n"] += int(size(out))
            return out

        setattr(module, name, traced)


def install(tracer: Tracer, cli, gr, ed, ps, predict) -> None:
    """Wrap every call path into the layers that the workloads take."""
    for name in ("enumerate_orbit", "find_cusps", "standard_horoballs", "sample_limit_set"):
        tracer.wrap(gr, name, f"group.{name}")
    for name in (
        "assouad_dimension",
        "lower_dimension",
        "covering_count",
        "box_dimension",
        "poincare_exponent",
    ):
        tracer.wrap(ed, name, f"estdim.{name}")
    for name in ("patterson_measure", "regularity_exponents", "local_dimension", "gmf_drift"):
        tracer.wrap(ps, name, f"psmeasure.{name}")
    # psmeasure's own bindings of group and estdim functions
    tracer.wrap(ps, "enumerate_orbit", "group.enumerate_orbit")
    tracer.wrap(ps, "poincare_exponent", "estdim.poincare_exponent")
    tracer.wrap(predict, "predict_dims", "predict.predict_dims")
    tracer.wrap(cli, "main", "cli")


def deep_cusp(g, cli, gr, ed, ps, dist: float, seed: int) -> dict:
    """Measure-side pipeline of the deep gasket fixture at distance ``dist``."""
    import numpy as np

    orbit = gr.enumerate_orbit(g, dist, slack=1.5, max_elements=4_000_000)
    delta = float(ed.poincare_exponent(orbit).value)
    cusps = gr.find_cusps(orbit)
    family = gr.standard_horoballs(orbit, cusps)
    mu = ps.patterson_measure(g, orbit=orbit, band=3.5)
    ctx = ps.GMFContext(delta=delta, family=family)
    drift = ps.gmf_drift(ctx, mu, n_samples=200, t_range=(2.0, 6.0), seed=seed)

    # the finite cusp whose family horoball is largest
    cusp = cli._deepest_cusp_points(cusps, family)[0][1]
    p = np.array([cusp.point.coords[0], cusp.point.coords[1]])
    parabolic = ps.local_dimension(mu, p, t_window=(1.0, 3.5)).slope

    rng = np.random.default_rng(seed)
    slopes = []
    for i in rng.choice(mu.n, size=15, p=mu.weights):
        try:
            slopes.append(ps.local_dimension(mu, mu.coords[i], t_window=(2.0, 6.0)).slope)
        except ValueError:  # MeasureScaleError is a ValueError
            continue
    return {
        "delta_hat": delta,
        "drift_slope": float(drift.slope),
        "parabolic": float(parabolic),
        "parabolic_target": 2.0 * delta - cusp.rank,
        "typical": float(np.median(slopes)) if slopes else math.nan,
        "n_typical": len(slopes),
    }


def versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kind", choices=("setup", "verify", "deep-cusp"), required=True)
    ap.add_argument("--group", required=True)
    ap.add_argument("--budget-dist", type=float)
    ap.add_argument("--budget-words", type=int)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    result: dict = {"rc": 1}
    t_import = time.perf_counter()
    sys.path.insert(0, SRC)
    import kleindim.cli as cli
    import kleindim.estdim as ed
    import kleindim.group as gr
    import kleindim.predict as predict
    import kleindim.psmeasure as ps

    result["import_s"] = time.perf_counter() - t_import

    # set-up ends when the first group is built; CLOCK_MONOTONIC is shared
    # with the parent, which started its clock before spawning this process
    build = gr.builtin_group

    def stamped_build(*a, **kw):
        g = build(*a, **kw)
        result.setdefault("setup_done", time.monotonic())
        return g

    gr.builtin_group = stamped_build

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        install(tracer, cli, gr, ed, ps, predict)
    try:
        if args.kind == "setup":
            gr.builtin_group(args.group)
            result["rc"] = 0
        elif args.kind == "verify":
            argv = ["verify", args.group, "--seed", str(args.seed)]
            argv += ["--out", os.path.join(args.workdir, f"{args.group}_verify.txt")]
            if args.budget_dist is not None:
                argv += ["--budget-dist", repr(args.budget_dist)]
            if args.budget_words is not None:
                argv += ["--budget-words", str(args.budget_words)]
            result["rc"] = cli.main(argv)
        else:
            g = gr.builtin_group(args.group)
            result["deep_cusp"] = deep_cusp(g, cli, gr, ed, ps, args.budget_dist, args.seed)
            result["rc"] = 0
    except Exception:  # the operation's boundary: record the failure, report it
        traceback.print_exc()
        result["traceback"] = traceback.format_exc().strip().splitlines()[-1]
        result["rc"] = 1
    result["maxrss_mb"] = _maxrss_mb()
    result["versions"] = versions()
    if tracer is not None:
        result["trace"] = tracer.stats
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return result["rc"]


if __name__ == "__main__":
    sys.exit(main())
