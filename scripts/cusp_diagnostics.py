"""Cusp-excursion diagnostics for a built-in group.

Three tables around the deepest cusp: the squeeze of shadow mass under
horoball contraction, the window sums of horoball weights against ball
mass, and the deep-excursion witnesses whose mass-ratio exponents
should track the cusp rank.

Usage:
    python3 scripts/cusp_diagnostics.py
    python3 scripts/cusp_diagnostics.py --dist 9 --ns 4 6 8 10
"""

import argparse
import math

import numpy as np

import kleindim.estdim as ed
import kleindim.group as gr
import kleindim.hypgeom as hg
import kleindim.psmeasure as ps
from kleindim.pipeline import Pipeline


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--group", default="apollonian", help="built-in group name")
    ap.add_argument("--dist", type=float, default=11.0, help="orbit distance horizon")
    ap.add_argument("--band", type=float, default=3.5, help="measure weighting band")
    ap.add_argument("--ns", type=int, nargs="+", default=[11, 12, 14, 16, 20],
                    help="witness excursion depths")
    ap.add_argument("--windows", type=int, default=100, help="horoball-sum windows")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    p = Pipeline(gr.builtin_group(args.group), args.dist, band=args.band)
    delta, cusps = p.delta, p.cusps
    if not cusps.has_cusps:
        raise SystemExit(f"group {args.group!r} has no cusps to diagnose")
    family, measure = p.family, p.measure
    ctx = ps.GMFContext(delta=delta, family=family)

    # cusp_points sizes are those of the unsqueezed family
    size, cusp, _ = p.cusp_points[0]
    size *= family.theta
    print(f"group={args.group} delta={delta:.4f} "
          f"deepest cusp at {cusp.point.coords} rank={cusp.rank} size={size:.4f}")

    print("\nsqueeze of shadow mass (target slope "
          f"{2 * delta - cusp.rank:.4f}):")
    H = hg.Horoball(cusp.point, size, cusp.rank)
    rows = ps.squeeze_mass_check(ctx, measure, H)
    for r in rows:
        print(f"  theta={r.theta:7.4f} shadow={r.shadow_radius:.4e} "
              f"mass={r.mass:.4e} predicted={r.predicted:.4e} ratio={r.ratio:.3f}")
    slope = ed._linear_fit(np.log([r.theta for r in rows]), np.log([r.mass for r in rows]))[0]
    print(f"  fitted slope {slope:.4f}")

    print(f"\nhoroball window sums over {args.windows} random windows:")
    rng = np.random.default_rng(args.seed)
    idx = rng.choice(measure.n, size=args.windows, p=measure.weights)
    ratios = []
    for i in idx:
        z = measure.coords[i]
        t = float(rng.uniform(1.0, 2.5))
        T = t + float(rng.uniform(2.0, 4.0))
        mass = ps.ball_mass(measure, z, math.exp(-t))
        if mass > 0:
            ratios.append(ps.horoball_sum(ctx, z, t, T) / ((T - t) * mass))
    ratios = np.array(ratios)
    print(f"  ratio sum/((T-t) mass): max={ratios.max():.3f} "
          f"median={np.median(ratios):.3f} (want bounded, O(1))")

    print(f"\ndeep-excursion witnesses (exponent target {cusps.k_max}):")
    for n in args.ns:
        z, t, T = ps.ureg_witness(p.group, cusp, n, family)
        zz = np.array(z.coords)
        m_t = ps.ball_mass(measure, zz, math.exp(-t))
        m_T = ps.ball_mass(measure, zz, math.exp(-T))
        expo = math.log(m_t / m_T) / (T - t) if m_T > 0 else float("nan")
        print(f"  n={n:3d}: t={t:6.3f} T={T:6.3f} span={T - t:6.3f} "
              f"mass-ratio exponent={expo:.4f}")


if __name__ == "__main__":
    main()
