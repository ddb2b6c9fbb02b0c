"""Full dimension survey of the Apollonian gasket limit set.

Runs the whole pipeline once: deep orbit enumeration, growth-exponent
fit, horoball family, banded orbital measure, then every estimator the
package ships, and prints each measured number next to its closed-form
prediction.  The default budgets reproduce the values the acceptance
suite freezes; ``--quick`` shrinks them for a smoke run.

Usage:
    python3 scripts/gasket_survey.py
    python3 scripts/gasket_survey.py --quick
    python3 scripts/gasket_survey.py --dist 12 --resolution 5e-4
"""

import argparse
import time
from dataclasses import dataclass

import numpy as np

import kleindim.estdim as ed
import kleindim.group as gr
import kleindim.predict as predict
import kleindim.psmeasure as ps
from kleindim.pipeline import Pipeline


@dataclass
class SurveyConfig:
    dist: float = 11.0
    resolution: float = 1e-3
    band: float = 3.5
    n_centers: int = 192
    seed: int = 0
    # windows for the measure-side estimators; the quick profile coarsens
    # them so they stay above the shallower measure's reliable resolution
    upper_ratios: tuple = (16.0,)
    lower_ratios: tuple = (8.0, 16.0)
    cusp_window: tuple = (1.0, 3.5)
    typical_window: tuple = (2.0, 6.0)

    @classmethod
    def quick(cls) -> "SurveyConfig":
        return cls(
            dist=8.0,
            resolution=5e-3,
            n_centers=64,
            upper_ratios=(8.0,),
            lower_ratios=(8.0,),
            cusp_window=(0.5, 2.5),
            typical_window=(1.0, 3.0),
        )


def fmt(x: float) -> str:
    return f"{x:8.4f}"


def row(name: str, measured: float, predicted: float) -> None:
    print(f"  {name:<22s} {fmt(measured)}   {fmt(predicted)}   {measured - predicted:+.4f}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dist", type=float, default=None, help="orbit distance horizon")
    ap.add_argument("--resolution", type=float, default=None, help="target cloud resolution")
    ap.add_argument("--band", type=float, default=None, help="measure weighting band")
    ap.add_argument("--seed", type=int, default=None, help="estimator sampling seed")
    ap.add_argument("--quick", action="store_true", help="small budgets, coarse answers")
    args = ap.parse_args()

    cfg = SurveyConfig.quick() if args.quick else SurveyConfig()
    for name in ("dist", "resolution", "band", "seed"):
        if getattr(args, name) is not None:
            setattr(cfg, name, getattr(args, name))

    p = Pipeline(
        gr.builtin_group("apollonian"), cfg.dist, resolution=cfg.resolution, band=cfg.band
    )

    t0 = time.perf_counter()
    orbit, fit, delta = p.orbit, p.fit, p.delta
    print(f"orbit: n={orbit.n} t_valid={orbit.t_valid:.2f} "
          f"truncated={orbit.truncated} ({time.perf_counter() - t0:.1f}s)")
    print(f"growth exponent: {delta:.6f}  "
          f"(annulus check {fit.diagnostics.get('annulus', float('nan')):.4f})")

    cusps, family, cloud, measure = p.cusps, p.family, p.cloud, p.measure
    ctx = ps.GMFContext(delta=delta, family=family)
    print(f"cusps: k_min={cusps.k_min} k_max={cusps.k_max} "
          f"family={family.n} horoballs; cloud n={cloud.n}; "
          f"measure n={measure.n} at resolution {measure.resolution:.2e}")

    profile = predict.GroupProfile(delta=delta, k_min=cusps.k_min, k_max=cusps.k_max, d=2)
    pred = predict.predict_dims(profile)

    print("\n  quantity               measured   predicted  error")
    t0 = time.perf_counter()
    box = ed.box_dimension(cloud).value
    row("box", box, pred.dim_H)
    hi = ed.assouad_dimension(cloud, n_centers=cfg.n_centers, seed=cfg.seed).value
    row("assouad", hi, pred.dim_A)
    lo = ed.lower_dimension(
        cloud, ratios=(4.0, 8.0, 16.0), n_centers=cfg.n_centers, seed=cfg.seed
    ).value
    row("lower", lo, pred.dim_L)

    extras = np.array([point for _, _, point in p.cusp_points])
    upper, _ = ps.regularity_exponents(
        measure, radii=np.geomspace(0.6, 0.4, 3), ratios=cfg.upper_ratios,
        n_centers=cfg.n_centers, min_atoms=128, extra_centers=extras,
    )
    _, lower = ps.regularity_exponents(
        measure, radii=np.geomspace(0.6, 0.4, 3), ratios=cfg.lower_ratios,
        n_centers=cfg.n_centers, min_atoms=128, extra_centers=extras,
    )
    row("upper regularity", upper.value, pred.upper_reg)
    row("lower regularity", lower.value, pred.lower_reg)

    # local dimension at the deepest cusp, then at typical atoms
    _, best, pt = p.cusp_points[0]
    parabolic = ps.local_dimension(measure, pt, t_window=cfg.cusp_window).slope
    row("cusp local dim", parabolic, 2.0 * delta - best.rank)

    rng = np.random.default_rng(cfg.seed)
    idx = rng.choice(measure.n, size=15, p=measure.weights)
    slopes = []
    for i in idx:
        try:
            slopes.append(
                ps.local_dimension(
                    measure, measure.coords[i], t_window=cfg.typical_window
                ).slope
            )
        except (ps.MeasureScaleError, ValueError):
            continue
    if slopes:
        row("typical local dim", float(np.median(slopes)), delta)

    drift = ps.gmf_drift(ctx, measure, n_samples=200, t_range=(2.0, 6.0), seed=cfg.seed)
    row("mass formula drift", drift.slope, 0.0)
    print(f"\nestimators took {time.perf_counter() - t0:.1f}s")

    flags = predict.classify_corollaries(profile)
    print("profile flags: " + ", ".join(sorted(flags)))


if __name__ == "__main__":
    main()
