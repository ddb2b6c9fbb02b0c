"""End-to-end acceptance suite.

One test per shipped claim.  Each test prints a single line of the form
``criterion NN <name>: pass (<measured numbers>)`` so a verbose run
reads as a checklist; the assertion carries the same message.  The
heavy Apollonian pipeline (deep orbit, horoball family, banded
empirical measure) is built once per module and shared.

Budgets, windows and estimator parameters are frozen here on purpose:
these are regression tests against measured values, and silently
retuning them would defeat the point.
"""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import linregress

import kleindim.cli as cli
import kleindim.estdim as ed
import kleindim.group as gr
import kleindim.hypgeom as hg
import kleindim.predict as predict
import kleindim.psmeasure as ps
from kleindim.pipeline import Pipeline


def report(label: str, ok: bool, detail: str) -> None:
    """One pass/fail line per criterion, then the assertion itself."""
    print(f"{label}: {'pass' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


# ---------------------------------------------------------------------------
# shared deep Apollonian run
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def deep():
    """Deep gasket pipeline: orbit to distance 11, family, banded measure."""
    p = Pipeline(gr.builtin_group("apollonian"), 11.0)
    t0 = time.perf_counter()
    delta = p.delta
    growth_seconds = time.perf_counter() - t0
    return SimpleNamespace(
        g=p.group,
        orbit=p.orbit,
        delta=delta,
        growth_seconds=growth_seconds,
        cusps=p.cusps,
        family=p.family,
        cusp_points=p.cusp_points,
        cloud=p.cloud,
        measure=p.measure,
        ctx=ps.GMFContext(delta=delta, family=p.family),
    )


# ---------------------------------------------------------------------------
# criterion 1: closed-form profile grid
# ---------------------------------------------------------------------------


def _kink_positions(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Grid points where a piecewise-linear curve changes slope."""
    d2 = np.abs(np.diff(ys, 2))
    return xs[1:-1][d2 > 1e-9]


def test_criterion_01_formula_grid():
    t0 = time.perf_counter()
    n_profiles = 0
    families = [
        (k_min, k_max, d)
        for d in (2, 3, 4)
        for k_min in range(1, d + 1)
        for k_max in range(k_min, d + 1)
    ]
    for k_min, k_max, d in families:
        lo = k_max / 2.0
        for delta in np.linspace(lo + 1e-6, d, 520):
            r = predict.predict_dims(
                predict.GroupProfile(delta=float(delta), k_min=k_min, k_max=k_max, d=d)
            )
            assert r.lower_reg <= r.dim_L <= r.dim_H <= r.dim_A <= r.upper_reg
            n_profiles += 1
    for d in (1, 2, 3, 4):
        for delta in np.linspace(0.05, d, 100):
            r = predict.predict_dims(
                predict.GroupProfile(
                    delta=float(delta), k_min=0, k_max=0, d=d, parabolic_free=True
                )
            )
            assert r.lower_reg == r.dim_L == r.dim_H == r.dim_A == r.upper_reg
            n_profiles += 1

    # regularity curves: piecewise linear with the single slope change
    # exactly at the transition point (k_min + k_max) / 2
    for k_min, k_max, d in families:
        lo = k_max / 2.0
        mid = (k_min + k_max) / 2.0
        if mid >= d:
            xs = lo + (d - lo) * np.arange(1, 101) / 100.0
        else:
            h = min(mid - lo, d - mid) / 41.0
            xs = mid + h * np.arange(-40, 41)
        rows = predict.phase_plot(k_min, k_max, d, xs)
        for col in (1, 2):  # upper and lower regularity columns
            kinks = _kink_positions(xs, rows[:, col])
            if mid >= d:
                assert len(kinks) == 0, (k_min, k_max, d, col, kinks)
            else:
                assert len(kinks) == 1 and kinks[0] == mid, (k_min, k_max, d, col)

    dt = time.perf_counter() - t0
    report(
        "criterion 01 formula grid",
        n_profiles >= 10_000 and dt < 1.0,
        f"{n_profiles} profiles, chain exact, unique kink at the midpoint, {dt:.2f}s",
    )


# ---------------------------------------------------------------------------
# criterion 2: growth exponent of the gasket
# ---------------------------------------------------------------------------


def test_criterion_02_growth_exponent(deep):
    ok = (
        abs(deep.delta - 1.305) <= 0.05
        and 1e5 <= deep.orbit.n <= 1e6
        and deep.growth_seconds < 180.0
    )
    report(
        "criterion 02 growth exponent",
        ok,
        f"delta={deep.delta:.4f} vs 1.305 +-0.05, "
        f"n_orbit={deep.orbit.n}, {deep.growth_seconds:.0f}s",
    )


# ---------------------------------------------------------------------------
# criterion 3: gasket dimension suite
# ---------------------------------------------------------------------------


def test_criterion_03_gasket_dimension_suite(deep):
    hi = ed.assouad_dimension(deep.cloud).value
    lo = ed.lower_dimension(deep.cloud, ratios=(4.0, 8.0, 16.0)).value
    extras = np.array([point for _, _, point in deep.cusp_points])
    upper, _ = ps.regularity_exponents(
        deep.measure,
        radii=np.geomspace(0.6, 0.4, 3),
        ratios=(16.0,),
        n_centers=192,
        min_atoms=128,
        extra_centers=extras,
    )
    _, lower = ps.regularity_exponents(
        deep.measure,
        radii=np.geomspace(0.6, 0.4, 3),
        ratios=(8.0, 16.0),
        n_centers=192,
        min_atoms=128,
        extra_centers=extras,
    )
    ok = (
        1.25 <= hi <= 1.45
        and 0.85 <= lo <= 1.1
        and 1.45 <= upper.value <= 1.8
        and 0.85 <= lower.value <= 1.15
    )
    report(
        "criterion 03 gasket dimension suite",
        ok,
        f"assouad={hi:.4f} in [1.25,1.45], lower={lo:.4f} in [0.85,1.1], "
        f"upper_reg={upper.value:.4f} in [1.45,1.8], "
        f"lower_reg={lower.value:.4f} in [0.85,1.15]",
    )


# ---------------------------------------------------------------------------
# criterion 4: local dimensions of the measure
# ---------------------------------------------------------------------------


def test_criterion_04_local_dimensions(deep):
    _, cusp, p = deep.cusp_points[0]
    parabolic = ps.local_dimension(deep.measure, p, t_window=(1.0, 3.5)).slope
    target_p = 2.0 * deep.delta - cusp.rank

    rng = np.random.default_rng(0)
    idx = rng.choice(deep.measure.n, size=15, p=deep.measure.weights)
    slopes = []
    for i in idx:
        try:
            slopes.append(
                ps.local_dimension(
                    deep.measure, deep.measure.coords[i], t_window=(2.0, 6.0)
                ).slope
            )
        except (ps.MeasureScaleError, ValueError):
            continue
    assert len(slopes) >= 8
    typical = float(np.median(slopes))

    ok = abs(parabolic - target_p) <= 0.15 and abs(typical - deep.delta) <= 0.15
    report(
        "criterion 04 local dimensions",
        ok,
        f"parabolic={parabolic:.4f} vs {target_p:.4f} +-0.15, "
        f"typical={typical:.4f} vs {deep.delta:.4f} +-0.15 "
        f"({len(slopes)} atoms)",
    )


# ---------------------------------------------------------------------------
# criterion 5: measure-formula drift
# ---------------------------------------------------------------------------


def test_criterion_05_measure_formula_drift(deep):
    rep = ps.gmf_drift(deep.ctx, deep.measure, n_samples=200, t_range=(2.0, 6.0), seed=0)
    ok = -0.1 <= rep.slope <= 0.1
    report(
        "criterion 05 measure formula drift",
        ok,
        f"slope={rep.slope:.4f} in [-0.1,0.1], spread={rep.spread:.3f}, "
        f"zero_mass={rep.n_zero_mass}",
    )


# ---------------------------------------------------------------------------
# criterion 6: horoball depth property suites
# ---------------------------------------------------------------------------


def _random_disjoint_family(rng) -> gr.HoroballFamily:
    """Random pairwise-disjoint horoball family avoiding the base point.

    Tangent balls of diameters s_i at bases b_i are disjoint exactly
    when |b_i - b_j|^2 >= s_i s_j; oversized pairs are shrunk (shrinking
    never breaks previously satisfied pairs).  Diameters stay below 1 so
    no member contains the interior base point (0, 1).
    """
    n = int(rng.integers(4, 25))
    bases = rng.uniform(-3.0, 3.0, n) + 1j * rng.uniform(-3.0, 3.0, n)
    sizes = rng.uniform(0.05, 0.9, n)
    for i in range(n):
        for j in range(i):
            gap2 = abs(bases[i] - bases[j]) ** 2
            bound = sizes[i] * sizes[j]
            if gap2 < bound:
                f = math.sqrt(gap2 / bound) * 0.999
                sizes[i] *= f
                sizes[j] *= f
    return gr.HoroballFamily(
        bases=bases, sizes=sizes, ranks=rng.integers(1, 3, n), d=2
    )


def _member_at(family, z: complex, t: float):
    """(index, rho) of the family member containing the ray point z_t."""
    zb = hg.BoundaryPoint(hg.HALFSPACE, (z.real, z.imag))
    pt = hg.geodesic_point(zb, t)
    w = complex(pt.coords[0], pt.coords[1])
    h = float(pt.coords[2])
    vals = family.sizes * h / (np.abs(family.bases - w) ** 2 + h * h)
    i = int(np.argmax(vals))
    if vals[i] > 1.0:
        return i, float(np.log(vals[i]))
    return None, 0.0


def test_criterion_06a_depth_dichotomies():
    eps = 1e-9
    n_configs = 1000
    for cfg in range(n_configs):
        rng = np.random.default_rng(cfg)
        family = _random_disjoint_family(rng)
        ctx = ps.GMFContext(delta=1.2, family=family)

        # quick escape: along one ray, depths at two times either sum to
        # at most the time gap (different members) or differ by at most
        # the time gap (same member)
        for _ in range(3):
            z = complex(rng.uniform(-3.5, 3.5), rng.uniform(-3.5, 3.5))
            t1, t2 = sorted(rng.uniform(0.2, 14.0, 2))
            m1, r1 = _member_at(family, z, t1)
            m2, r2 = _member_at(family, z, t2)
            k1, rho1 = ps.k_and_rho(ctx, z, t1)
            k2, rho2 = ps.k_and_rho(ctx, z, t2)
            assert rho1 == pytest.approx(r1, abs=1e-9)
            assert rho2 == pytest.approx(r2, abs=1e-9)
            if m1 is not None and m1 == m2:
                assert abs(rho1 - rho2) <= (t2 - t1) + eps, (cfg, z, t1, t2)
            else:
                assert rho1 + rho2 <= (t2 - t1) + eps, (cfg, z, t1, t2)

        # parabolic centre: toward a tangent point the depth eventually
        # grows with unit rate and the member rank locks in
        i = int(np.argmax(family.sizes))
        p = complex(family.bases[i])
        t_big = math.log((1.0 + abs(p) ** 2) / family.sizes[i]) + 6.0
        m0, _ = _member_at(family, p, t_big)
        assert m0 == i, cfg
        k0, rho0 = ps.k_and_rho(ctx, p, t_big)
        assert k0 == int(family.ranks[i])
        assert 0.0 < rho0 <= t_big + eps
        for dt in (1.0, 2.5):
            k, rho = ps.k_and_rho(ctx, p, t_big + dt)
            assert k == k0
            assert rho - rho0 == pytest.approx(dt, abs=1e-6)
            assert rho <= t_big + dt + eps

        # two-ray escape: for nearby rays the same dichotomy holds with
        # the fixed slack 10 covering the distance between ray points
        for _ in range(3):
            t = float(rng.uniform(0.5, 6.0))
            T = t + float(rng.uniform(0.0, 6.0))
            x = complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
            off = rng.uniform(0.0, 2.0 * math.exp(-t))
            ang = rng.uniform(0.0, 2.0 * math.pi)
            y = x + off * complex(math.cos(ang), math.sin(ang))
            mx, _ = _member_at(family, x, t)
            my, _ = _member_at(family, y, T)
            _, rx = ps.k_and_rho(ctx, x, t)
            _, ry = ps.k_and_rho(ctx, y, T)
            if mx is not None and mx == my:
                assert abs(rx - ry) <= (T - t) + 10.0 + eps, (cfg, x, y, t, T)
            else:
                assert rx + ry <= (T - t) + 10.0 + eps, (cfg, x, y, t, T)

    report(
        "criterion 06a depth dichotomies",
        True,
        f"{n_configs} random families, all depth inequalities hold",
    )


def test_criterion_06b_squeeze_slope(deep):
    size, cusp, _ = deep.cusp_points[0]
    H = hg.Horoball(cusp.point, size, cusp.rank)
    rows = ps.squeeze_mass_check(deep.ctx, deep.measure, H)
    slope = float(
        linregress(
            np.log([r.theta for r in rows]), np.log([r.mass for r in rows])
        ).slope
    )
    target = 2.0 * deep.delta - cusp.rank
    ok = abs(slope - target) <= 0.2
    report(
        "criterion 06b squeeze slope",
        ok,
        f"slope={slope:.4f} vs {target:.4f} +-0.2 over thetas "
        f"{[r.theta for r in rows]}",
    )


def test_criterion_06c_horoball_sum_cap(deep):
    rng = np.random.default_rng(0)
    idx = rng.choice(deep.measure.n, size=100, p=deep.measure.weights)
    worst = 0.0
    for i in idx:
        z = deep.measure.coords[i]
        t = float(rng.uniform(1.0, 2.5))
        T = t + float(rng.uniform(2.0, 4.0))
        total = ps.horoball_sum(deep.ctx, z, t, T)
        mass = ps.ball_mass(deep.measure, z, math.exp(-t))
        if mass > 0:
            worst = max(worst, total / ((T - t) * mass))
    cap = 4.0
    ok = worst <= cap
    report(
        "criterion 06c horoball sum cap",
        ok,
        f"max ratio {worst:.3f} <= {cap} over 100 windows",
    )


# ---------------------------------------------------------------------------
# criterion 7: oracle estimators
# ---------------------------------------------------------------------------

LOG2_LOG3 = math.log(2.0) / math.log(3.0)


def thirds_cloud(depth: int) -> ed.PointCloud:
    """Midpoints of the surviving middle-thirds intervals at the depth."""
    lefts = np.zeros(1)
    for a in range(1, depth + 1):
        lefts = np.concatenate([lefts, lefts + 2.0 * 3.0 ** -a])
    mids = np.sort(lefts) + 0.5 * 3.0 ** -depth
    return ed.PointCloud(
        coords=mids[:, None],
        d=1,
        resolution=0.5 * 3.0 ** -depth,
    )


def thirds_measure(depth: int) -> ps.EmpiricalMeasure:
    cloud = thirds_cloud(depth)
    return ps.EmpiricalMeasure(
        coords=cloud.coords,
        weights=np.full(len(cloud.coords), 2.0 ** -depth),
        d=1,
        resolution=cloud.resolution,
    )


def test_criterion_07_oracle_estimators():
    cloud = thirds_cloud(10)
    box = ed.box_dimension(cloud, scales=3.0 ** -np.arange(1, 8)).value
    kw = dict(radii=3.0 ** -np.arange(1, 6), ratios=(27.0,))
    hi = ed.assouad_dimension(cloud, **kw).value
    lo = ed.lower_dimension(cloud, **kw).value

    mu = thirds_measure(10)
    upper, lower = ps.regularity_exponents(
        mu, radii=3.0 ** -np.arange(1, 4), ratios=(9.0, 27.0), min_atoms=4
    )

    xs = np.arange(512) / 512.0
    gx, gy = np.meshgrid(xs, xs)
    lattice = ed.PointCloud(
        coords=np.column_stack([gx.ravel(), gy.ravel()]),
        d=2,
        resolution=1.0 / 512.0,
    )
    lat = ed.assouad_dimension(
        lattice, radii=[0.35], ratios=(16.0, 32.0, 64.0), n_centers=64
    ).value

    vals = {
        "box": box,
        "assouad": hi,
        "lower": lo,
        "upper_reg": upper.value,
        "lower_reg": lower.value,
    }
    ok = all(abs(v - LOG2_LOG3) <= 0.05 for v in vals.values()) and lat >= 1.8
    report(
        "criterion 07 oracle estimators",
        ok,
        ", ".join(f"{k}={v:.4f}" for k, v in vals.items())
        + f" (target {LOG2_LOG3:.4f} +-0.05), lattice assouad={lat:.3f} >= 1.8",
    )


# ---------------------------------------------------------------------------
# criterion 8: infinitely generated example
# ---------------------------------------------------------------------------


def test_criterion_08_infinite_group_example():
    g = gr.builtin_group("infinite_fuchsian")
    beta = float(g.metadata["beta"])
    cloud = gr.sample_limit_set(g, target_resolution=1e-3, max_elements=4_000_000)
    scales = np.geomspace(
        cloud.extent() / 16.0,
        max(10.0 * cloud.resolution, cloud.extent() / 256.0),
        10,
    )
    box = ed.box_dimension(cloud, scales=scales).value
    lo = ed.lower_dimension(cloud).value
    hi = ed.assouad_dimension(cloud).value
    ok = box >= beta - 0.1 and lo <= 0.2 and hi >= 0.9
    report(
        "criterion 08 infinite group example",
        ok,
        f"box={box:.4f} >= {beta - 0.1:.2f}, lower={lo:.4f} <= 0.2, "
        f"assouad={hi:.4f} >= 0.9 (n={len(cloud.coords)})",
    )


# ---------------------------------------------------------------------------
# criterion 9: deep-excursion witness
# ---------------------------------------------------------------------------


def test_criterion_09_excursion_witness(deep):
    cusp = deep.cusp_points[0][1]
    spans = []
    for n in range(11, 21):
        _, t, T = ps.ureg_witness(deep.g, cusp, n, deep.family)
        spans.append(T - t)
    monotone = all(a < b for a, b in zip(spans, spans[1:]))

    exponents = {}
    for n in (11, 12, 14, 16, 20):
        z, t, T = ps.ureg_witness(deep.g, cusp, n, deep.family)
        zz = np.array([z.coords[0], z.coords[1]])
        m_t = ps.ball_mass(deep.measure, zz, math.exp(-t))
        m_T = ps.ball_mass(deep.measure, zz, math.exp(-T))
        exponents[n] = math.log(m_t / m_T) / (T - t)
    in_band = all(abs(e - cusp.rank) <= 0.2 for e in exponents.values())

    ok = monotone and in_band
    report(
        "criterion 09 excursion witness",
        ok,
        f"spans strictly increase over n=11..20, ratio exponents "
        + ", ".join(f"n={n}:{e:.3f}" for n, e in exponents.items())
        + f" vs {cusp.rank} +-0.2",
    )


# ---------------------------------------------------------------------------
# criterion 10: phase tables through the command line
# ---------------------------------------------------------------------------


def test_criterion_10_phase_table_cli(tmp_path):
    cases = [(1, 3, 4), (3, 5, 6), (1, 1, 2)]
    for k_min, k_max, d in cases:
        out = str(tmp_path / f"phase_{k_min}_{k_max}_{d}.csv")
        code = cli.main(
            ["plot", "--phase", str(k_min), str(k_max), str(d), "--out", out]
        )
        assert code == 0
        lo = k_max / 2.0
        grid = lo + (d - lo) * np.arange(1, 201) / 200.0
        expected = predict.format_phase_table(
            predict.phase_plot(k_min, k_max, d, grid)
        )
        assert open(out).read() == expected, (k_min, k_max, d)
    report(
        "criterion 10 phase table cli",
        True,
        "all three parameter sets match the library tables byte for byte",
    )
