"""Oracle tests for the dimension estimators.

The main oracle is the middle-half Cantor set (keep the outer quarters,
dimension exactly 1/2) sampled at its depth-m left endpoints.  Base 4
keeps every coordinate, scale, and quotient exact in binary floats, so
quarter-scale covering counts are exactly powers of two and the box,
Assouad, and lower estimates must land on 1/2 to float rounding, not
just within a tolerance band.  (The ternary set would alias: 3^-a is
inexact, points sit exactly on cell walls, and floor(p/r) flips.)
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree
from scipy.stats import linregress

from kleindim import estdim as ed
from kleindim import group as gr


def cantor_cloud(depth: int) -> ed.PointCloud:
    """Left endpoints of the surviving depth-m quarter intervals.

    The 2^m points resolve the middle-half Cantor set to 4^-m; the
    declared resolution of half that makes every quarter scale down to
    4^-m admissible for the estimators.  All coordinates are exact
    dyadic floats.
    """
    pts = np.zeros(1)
    for a in range(1, depth + 1):
        pts = np.concatenate([pts, pts + 3.0 * 4.0 ** -a])
    return ed.PointCloud(
        coords=np.sort(pts)[:, None],
        d=1,
        resolution=0.5 * 4.0 ** -depth,
    )


def grid_cloud(side: int) -> ed.PointCloud:
    xs = np.arange(side) / side
    gx, gy = np.meshgrid(xs, xs)
    return ed.PointCloud(
        coords=np.column_stack([gx.ravel(), gy.ravel()]),
        d=2,
        resolution=1e-4,
    )


class TestPointCloud:
    def test_validation(self):
        good = np.zeros((3, 2))
        with pytest.raises(ValueError):
            ed.PointCloud(coords=good, d=3, resolution=0.1)
        with pytest.raises(ValueError):
            ed.PointCloud(coords=good, d=1, resolution=0.1)
        with pytest.raises(ValueError):
            ed.PointCloud(coords=good, d=2, resolution=0.0)

    def test_extent_is_bbox_diagonal(self):
        c = ed.PointCloud(
            coords=np.array([[0.0, 0.0], [3.0, 4.0]]),
            d=2,
            resolution=0.1,
        )
        assert c.extent() == pytest.approx(5.0)
        assert c.n == 2

    def test_dimension_estimate_floats(self):
        est = ed.DimensionEstimate(value=1.25, method="box")
        assert float(est) == 1.25


class TestCoveringCount:
    def test_exact_small_cases(self):
        assert ed.covering_count(np.empty((0, 1)), 0.5) == 0
        assert ed.covering_count(np.array([[0.3]]), 0.5) == 1
        # two points further apart than r can never share a cell
        assert ed.covering_count(np.array([[0.0], [1.0]]), 0.25) == 2
        # two points in the same offset-zero cell
        assert ed.covering_count(np.array([[0.01], [0.02]]), 1.0) == 1

    def test_determinism(self):
        rng = np.random.default_rng(3)
        pts = rng.random((200, 2))
        a = ed.covering_count(pts, 0.07)
        assert a == ed.covering_count(pts, 0.07)

    @settings(max_examples=50)
    @given(st.integers(0, 10_000), st.floats(0.02, 2.0))
    def test_bounds_and_permutation_invariance(self, seed, r):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-4.0, 4.0, size=(rng.integers(1, 80), 2))
        n = ed.covering_count(pts, r)
        assert 1 <= n <= len(pts)
        perm = rng.permutation(len(pts))
        assert ed.covering_count(pts[perm], r) == n

    def test_min_over_offsets_helps(self):
        # points straddling an aligned cell wall: offset 0 needs two
        # cells, some shift needs only one
        pts = np.array([[0.999], [1.001]])
        aligned = len(np.unique(ed._cell_ids(pts, 1.0, np.zeros(1))))
        assert aligned == 2
        assert ed.covering_count(pts, 1.0, offsets=8) == 1


class TestBoxDimension:
    def test_cantor_quarter_scales_exact(self):
        cloud = cantor_cloud(13)
        scales = 4.0 ** -np.arange(0, 11)
        est = ed.box_dimension(cloud, scales=scales)
        # counts are exactly 2^a at scale 4^-a, so the fit is exact
        assert est.diagnostics["counts"] == [2**a for a in range(11)]
        assert est.value == pytest.approx(0.5, abs=1e-12)
        assert est.diagnostics["r2"] > 1.0 - 1e-12
        assert est.diagnostics["stderr"] < 1e-9

    def test_interval_and_square(self):
        line = ed.PointCloud(
            coords=np.linspace(0.0, 1.0, 4001)[:, None],
            d=1,
            resolution=1e-4,
        )
        est = ed.box_dimension(line)
        assert est.value == pytest.approx(1.0, abs=0.05)
        sq = grid_cloud(64)
        est2 = ed.box_dimension(sq, scales=2.0 ** -np.arange(1, 6))
        assert est2.value == pytest.approx(2.0, abs=0.1)

    def test_clamps_to_ambient(self):
        est = ed.box_dimension(grid_cloud(64), scales=2.0 ** -np.arange(1, 6))
        assert est.value <= 2.0

    def test_needs_enough_scales(self):
        coarse = ed.PointCloud(
            coords=np.linspace(0.0, 1.0, 30)[:, None],
            d=1,
            resolution=0.2,
        )
        with pytest.raises(ValueError):
            ed.box_dimension(coarse)


class TestTwoScaleDimensions:
    def test_cantor_exact_at_ratio_4096(self):
        cloud = cantor_cloud(13)
        radii = 4.0 ** -np.arange(1, 8)
        kw = dict(radii=radii, ratios=(4096.0,))
        hi = ed.assouad_dimension(cloud, **kw)
        lo = ed.lower_dimension(cloud, **kw)
        # every ball B(x, 4^-a) in the cloud holds exactly one depth-a
        # block (adjacent gaps are at least 2 * 4^-a wide), and that
        # block's depth-(a+6) covering count is exactly 2^6
        assert hi.diagnostics["witness"]["count"] == 64
        assert lo.diagnostics["witness"]["count"] == 64
        assert hi.value == pytest.approx(0.5, abs=1e-12)
        assert lo.value == pytest.approx(0.5, abs=1e-12)

    def test_grid_reads_ambient_at_both_extremes(self):
        # the scale window stays above the lattice spacing 1/512 and
        # coarse enough that ball covering counts are area-dominated
        # (at boundary centres the perimeter term skews small counts)
        cloud = grid_cloud(512)
        kw = dict(radii=[0.35], ratios=(16.0, 32.0, 64.0), n_centers=64)
        hi = ed.assouad_dimension(cloud, **kw)
        lo = ed.lower_dimension(cloud, **kw)
        assert lo.value <= hi.value <= 2.0
        assert lo.value == pytest.approx(2.0, abs=0.2)
        assert hi.value == pytest.approx(2.0, abs=0.2)

    def test_determinism(self):
        cloud = cantor_cloud(10)
        a1 = ed.assouad_dimension(cloud, seed=5)
        a2 = ed.assouad_dimension(cloud, seed=5)
        assert a1.value == a2.value
        assert a1.diagnostics["witness"] == a2.diagnostics["witness"]

    def test_no_admissible_scales_raises(self):
        cloud = ed.PointCloud(
            coords=np.linspace(0.0, 1.0, 50)[:, None],
            d=1,
            resolution=0.2,
        )
        with pytest.raises(ValueError):
            ed.assouad_dimension(cloud, radii=[0.01], ratios=(64.0,))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_assouad_at_least_lower(self, seed):
        rng = np.random.default_rng(seed)
        cloud = ed.PointCloud(
            coords=rng.random((int(rng.integers(30, 120)), 2)),
            d=2,
            resolution=1e-3,
        )
        hi = ed.assouad_dimension(cloud, n_centers=64, seed=seed)
        lo = ed.lower_dimension(cloud, n_centers=64, seed=seed)
        assert hi.value >= lo.value


class TestPoincareExponent:
    def test_known_exponential_growth(self):
        # N(t) = e^{0.7 t} exactly when t_i = log(i) / 0.7
        delta = 0.7
        dists = np.log(np.arange(1, 60_001)) / delta
        est = ed.poincare_exponent(dists)
        assert est.value == pytest.approx(delta, abs=0.02)
        assert est.diagnostics["annulus"] == pytest.approx(delta, abs=0.05)
        assert est.diagnostics["disagreement"] < 0.05

    def test_polynomial_growth_reads_zero(self):
        dists = 0.05 * np.arange(1, 4000, dtype=float)
        est = ed.poincare_exponent(dists)
        assert est.value < 0.05

    def test_shallow_orbit_raises(self):
        with pytest.raises(ValueError):
            ed.poincare_exponent(np.array([0.2, 0.4, 0.6]))

    def test_accepts_enumerated_orbit(self):
        g = gr.builtin_group("apollonian")
        orbit = gr.enumerate_orbit(g, 7.0)
        est = ed.poincare_exponent(orbit)
        assert 1.0 < est.value < 1.6


def window_slopes_oracle(cloud, radii, ratios, n_centers, seed):
    """The window sweep as a per-ball loop: a KD-tree query per radius,
    ``covering_count`` per ball and scale, scipy's fit per window, and
    centres from a norm-based farthest-point sample."""
    coords = cloud.coords
    floor = ed.MIN_SCALE_FACTOR * cloud.resolution
    ratios = sorted(float(q) for q in ratios)
    if radii is None:
        top = cloud.extent() / 4.0
        lo = floor * ratios[-1]
        radii = [top] if top <= lo else np.geomspace(top, lo, 8)
    # clouds here stay below the 50k points where the sample subsamples
    rng = np.random.default_rng(seed)
    chosen = [int(rng.integers(len(coords)))]
    dist = np.linalg.norm(coords - coords[chosen[0]], axis=1)
    for _ in range(min(n_centers, len(coords)) - 1):
        chosen.append(int(np.argmax(dist)))
        dist = np.minimum(dist, np.linalg.norm(coords - coords[chosen[-1]], axis=1))
    centers = coords[chosen]
    tree = cKDTree(coords)
    log_q = np.log(ratios)
    out = []
    for R in radii:
        R = float(R)
        scales = [R / q for q in ratios]
        if scales[-1] < floor * (1.0 - 1e-9):
            continue
        for ci, idx in enumerate(tree.query_ball_point(centers, R)):
            counts = [ed.covering_count(coords[idx], r) for r in scales]
            witness = {"center": centers[ci].tolist(), "R": R}
            if len(ratios) == 1:
                slope = math.log(counts[0]) / log_q[0]
                witness.update(r=scales[0], count=counts[0])
            else:
                slope = float(linregress(log_q, np.log(counts)).slope)
                witness.update(scales=scales, counts=counts)
            witness["ball_points"] = len(idx)
            out.append((slope, witness))
    return out


def random_cloud(seed: int, n: int, d: int) -> ed.PointCloud:
    rng = np.random.default_rng(seed)
    # a clustered sample, so balls of one radius hold very different counts
    coords = rng.random((n, d)) ** 3
    return ed.PointCloud(coords=coords, d=d, resolution=1e-3)


def lattice_cloud(side: int) -> ed.PointCloud:
    # integer points: many lie exactly at the integer radii swept below
    # (3-4-5 and 5-12-13 triangles, axis neighbours), where a ball's
    # boundary decides membership
    xs = np.arange(float(side))
    gx, gy = np.meshgrid(xs, xs)
    return ed.PointCloud(
        coords=np.column_stack([gx.ravel(), gy.ravel()]),
        d=2,
        resolution=0.01,
    )


class TestWindowSweep:
    @pytest.mark.parametrize(
        "cloud, radii, ratios",
        [
            (cantor_cloud(9), None, (16.0,)),
            (cantor_cloud(9), None, (4.0, 8.0, 16.0)),
            (random_cloud(1, 600, 1), None, (8.0, 64.0)),
            (random_cloud(2, 900, 2), None, (8.0, 64.0)),
            (random_cloud(3, 900, 2), None, (5.0,)),
            # 0.001 and 0.01 sit below the floor at ratio 64 and are skipped
            (random_cloud(4, 700, 2), [0.4, 0.001, 0.2, 0.2, 0.01, 0.15], (8.0, 64.0)),
            (lattice_cloud(30), [13.0, 5.0, 10.0, 2.0, 1.0], (2.0, 4.0)),
            (lattice_cloud(30), [5.0, 13.0], (8.0,)),
        ],
    )
    def test_matches_per_ball_oracle(self, cloud, radii, ratios):
        for seed in (0, 7):
            got = ed._window_slopes(cloud, radii, ratios, 40, seed)
            want = window_slopes_oracle(cloud, radii, ratios, 40, seed)
            assert got == want
            assert repr(got) == repr(want)

    def test_identical_ratios_raise(self):
        with pytest.raises(ValueError):
            ed.assouad_dimension(cantor_cloud(9), ratios=(8.0, 8.0))

    @settings(max_examples=200)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 6))
    def test_lstsq_slope_matches_linregress(self, seed, n):
        rng = np.random.default_rng(seed)
        x = np.log(np.sort(rng.uniform(1.01, 5000.0, n)))
        y = np.log(rng.integers(1, 10_000, n).astype(float))
        if x[0] == x[-1]:
            return
        assert ed._lstsq_slope(x, y) == linregress(x, y).slope


class TestIntegrationWithSampling:
    def test_gasket_box_dimension_ballpark(self):
        g = gr.builtin_group("apollonian")
        cloud = gr.sample_limit_set(g, target_resolution=1e-3)
        # keep the scale window above the typical sample spacing, where
        # covering counts saturate towards the sample size
        est = ed.box_dimension(cloud, scales=np.geomspace(0.15, 0.01, 10))
        assert 1.15 < est.value < 1.45
