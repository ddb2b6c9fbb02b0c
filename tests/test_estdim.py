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
from kleindim.pipeline import Pipeline


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
        with pytest.raises(ValueError, match="1 or 2 coordinates, not 3"):
            ed.covering_count(np.zeros((4, 3)), 0.5)

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

    @settings(max_examples=50)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 5, 40, 10**6, 2**40]))
    def test_dense_labels_match_unique(self, seed, span):
        # small spans take the occupancy mask, wide ones the sort
        rng = np.random.default_rng(seed)
        keys = rng.integers(0, span, int(rng.integers(1, 300)))
        distinct, below = ed._dense_labels(keys)
        occupied, labels = np.unique(keys, return_inverse=True)
        assert distinct == len(occupied)
        assert np.array_equal(below(keys), labels)
        probe = np.concatenate([keys, keys + 1, [-3, 0, keys.max() + 2, span + 5]])
        assert np.array_equal(below(probe), np.searchsorted(occupied, probe))

    @settings(max_examples=60)
    @given(
        st.integers(0, 2**32 - 1),
        # (n0, n1) spans of the two indices; the grid packs below 2^62
        # cells and ranks from there
        st.sampled_from(
            [(1, 1), (5, 40), (2**20, 3), (2**31, 2**31 - 1), (2**31, 2**31), (2**61, 2**61)]
        ),
    )
    def test_grid_keys_are_exact_and_ordered(self, seed, spans):
        rng = np.random.default_rng(seed)
        (n0, n1), lim = spans, 2**61
        low = [int(rng.integers(-lim, lim - n)) for n in spans]
        # a few distinct pairs, the corners of the span among them, each
        # repeated, so that rows share a first index, a second or both
        pool = np.array(
            [low, [low[0] + n0 - 1, low[1] + n1 - 1]]
            + [[a + int(rng.integers(0, n)) for a, n in zip(low, spans)] for _ in range(6)],
            dtype=np.int64,
        )
        pool[4, 0], pool[5, 1] = pool[2, 0], pool[3, 1]
        rows = np.append(rng.integers(0, len(pool), int(rng.integers(0, 200))), [0, 1])
        rows = rng.permutation(rows)
        c0, c1 = pool[rows].T
        keys, width = ed._grid_keys(c0.copy(), c1.copy())
        assert keys.dtype == np.int64
        same_cell = (c0[:, None] == c0) & (c1[:, None] == c1)
        assert np.array_equal(keys[:, None] == keys, same_cell)
        assert np.array_equal(np.argsort(keys, kind="stable"), np.lexsort((c1, c0)))
        if n0 * n1 < 2**62:
            assert width == n1
            assert np.array_equal(keys, (c0 - low[0]) * n1 + (c1 - low[1]))
        else:
            assert width == 0
            assert keys.max() < len(keys) ** 2
        empty = np.empty(0, dtype=np.int64)
        assert len(ed._grid_keys(empty, empty.copy())[0]) == 0

    def test_wide_grids_are_counted_but_not_swept(self):
        # 1e18 cells a side: covering counts rank the cells, while the
        # sweep, which reads rows and columns off packed keys, refuses
        pts = np.array([[0.0, 0.0], [1e9, 1e9], [1.0, 2.0], [3.0, 1.0]])
        assert ed.covering_count(pts, 1e-9) == 4
        cloud = ed.PointCloud(coords=pts, d=2, resolution=1e-6)
        with pytest.raises(ValueError, match="has too many cells"):
            ed.assouad_dimension(cloud)

    def test_min_over_offsets_helps(self):
        # points straddling an aligned cell wall: offset 0 needs two
        # cells, some shift needs only one
        pts = np.array([[0.999], [1.001]])
        aligned = len(np.unique(ed._grid_keys(*ed._grid_cells(ed._plane(pts), 1.0))[0]))
        assert aligned == 2
        assert ed.covering_count(pts, 1.0) == 1


    @pytest.mark.parametrize(
        "pts, r",
        [
            (np.array([[0.0, 0.0], [1e10, 1e10]]), 1e-10),
            (np.array([[0.0], [1e10]]), 1e-10),
        ],
    )
    def test_keys_that_overflow_raise(self, pts, r):
        with pytest.raises(ValueError, match=f"grid of side {r:g} has too many cells"):
            ed.covering_count(pts, r)


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

    def test_thin_cloud_raises(self):
        # fewer than two points leave no scale to read, and an estimate
        # of 0 there would pass against any prediction near 0
        for n in (0, 1):
            cloud = ed.PointCloud(coords=np.zeros((n, 2)), d=2, resolution=1e-3)
            for estimate, method in (
                (ed.box_dimension, "box"),
                (ed.assouad_dimension, "assouad"),
                (ed.lower_dimension, "lower"),
            ):
                with pytest.raises(ValueError, match=f"{method} dimension needs .* 2 points"):
                    estimate(cloud)

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

    def test_polynomial_growth_reads_zero(self):
        dists = 0.05 * np.arange(1, 4000, dtype=float)
        est = ed.poincare_exponent(dists)
        assert est.value < 0.05

    def test_shallow_orbit_raises(self):
        with pytest.raises(ValueError):
            ed.poincare_exponent(np.array([0.2, 0.4, 0.6]))

    def test_loose_fit_raises(self):
        # schottky's 9-point orbit at 11 fits delta 0.037 with a stderr of
        # 0.58 of it; its orbit at 30 fits 0.225 to within 0.026 of it
        g = gr.bounded_model(gr.builtin_group("schottky"))[0]
        with pytest.raises(ValueError, match="growth fit too loose"):
            ed.poincare_exponent(gr.enumerate_orbit(g, 11.0, slack=1.5))
        est = ed.poincare_exponent(gr.enumerate_orbit(g, 30.0, slack=1.5))
        assert est.value == pytest.approx(0.225, abs=0.01)
        assert est.diagnostics["stderr"] <= 0.03 * est.value

    def test_accepts_enumerated_orbit(self):
        g = gr.builtin_group("apollonian")
        orbit = gr.enumerate_orbit(g, 7.0)
        est = ed.poincare_exponent(orbit)
        assert 1.0 < est.value < 1.6


def oracle_centers(cloud, n_centers, seed):
    """The sweep's centres from a norm-based farthest-point sample;
    clouds here stay below the 50k points where the sample subsamples."""
    coords = cloud.coords
    rng = np.random.default_rng(seed)
    chosen = [int(rng.integers(len(coords)))]
    dist = np.linalg.norm(coords - coords[chosen[0]], axis=1)
    for _ in range(min(n_centers, len(coords)) - 1):
        chosen.append(int(np.argmax(dist)))
        dist = np.minimum(dist, np.linalg.norm(coords - coords[chosen[-1]], axis=1))
    return coords[chosen]


def oracle_radii(cloud, radii, ratios):
    """The sweep's radius ladder, less the radii below the floor."""
    floor = ed.MIN_SCALE_FACTOR * cloud.resolution
    if radii is None:
        top = cloud.extent() / 4.0
        lo = floor * ratios[-1]
        radii = [top] if top <= lo else np.geomspace(top, lo, 8)
    return [float(R) for R in radii if R / ratios[-1] >= floor * (1.0 - 1e-9)]


def meeting_counts(cloud, centers, R, q):
    """The window count by brute force: per offset grid, every occupied
    cell is tested against each centre's ball by the sweep's own
    ``_meeting_columns``, and the fewest over the offsets is kept."""
    plane, r = ed._plane(cloud.coords), R / q
    rho = q * (1.0 + ed.MEET_MARGIN)
    best = None
    for off in ed._grid_offsets(r, cloud.d):
        cells = ed._grid_cells(plane - off[:, None], r)
        low = cells.min(axis=1)
        row, col = np.unique((cells - low[:, None]).T, axis=0).T
        counts = []
        for u in (ed._plane(centers).T - off) / r - low:
            lo, hi = ed._meeting_columns(row - u[0], u[1], rho * rho)
            counts.append(int(np.count_nonzero((lo <= col) & (col <= hi))))
        best = counts if best is None else np.minimum(best, counts).tolist()
    return best


def ball_counts(cloud, centers, R, r):
    """``covering_count`` at scale r on the points of each ball B(x, R),
    as a KD-tree finds them."""
    balls = cKDTree(cloud.coords).query_ball_point(centers, R)
    return [ed.covering_count(cloud.coords[idx], r) for idx in balls]


def window_slopes_oracle(cloud, radii, ratios, n_centers, seed):
    """The window sweep as a per-window loop: ``meeting_counts`` per
    radius and ratio, scipy's fit per window, a KD-tree's ball
    population per witness, and centres from :func:`oracle_centers`."""
    ratios = sorted(float(q) for q in ratios)
    centers = oracle_centers(cloud, n_centers, seed)
    tree = cKDTree(cloud.coords)
    log_q = np.log(ratios)
    out = []
    for R in oracle_radii(cloud, radii, ratios):
        scales = [R / q for q in ratios]
        per_ratio = [meeting_counts(cloud, centers, R, q) for q in ratios]
        for ci, idx in enumerate(tree.query_ball_point(centers, R)):
            counts = [c[ci] for c in per_ratio]
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


def line_cloud(n: int) -> ed.PointCloud:
    # integer points on a line: the integer radii swept below end
    # exactly on points
    return ed.PointCloud(coords=np.arange(float(n))[:, None], d=1, resolution=0.01)


def strip_cloud(seed: int, n: int) -> ed.PointCloud:
    # a 10 x 0.05 strip: its balls reach far past the few occupied rows
    rng = np.random.default_rng(seed)
    coords = rng.random((n, 2)) * [10.0, 0.05]
    return ed.PointCloud(coords=coords, d=2, resolution=1e-3)


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


def all_windows(windows: ed.Windows) -> list:
    """Every (exponent, witness) of one set, radius by radius."""
    n = len(windows.centers)
    return [windows.window(c, i) for i in range(len(windows.radii)) for c in range(n)]


SWEEP_CASES = [
    (cantor_cloud(9), None, (16.0,)),
    (cantor_cloud(9), None, (4.0, 8.0, 16.0)),
    (random_cloud(1, 600, 1), None, (8.0, 64.0)),
    (random_cloud(2, 900, 2), None, (8.0, 64.0)),
    (random_cloud(3, 900, 2), None, (5.0,)),
    # 0.001 and 0.01 sit below the floor at ratio 64 and are skipped
    (random_cloud(4, 700, 2), [0.4, 0.001, 0.2, 0.2, 0.01, 0.15], (8.0, 64.0)),
    (lattice_cloud(30), [13.0, 5.0, 10.0, 2.0, 1.0], (2.0, 4.0)),
    (lattice_cloud(30), [5.0, 13.0], (8.0,)),
    # ratios near 1: most cells that a ball meets straddle its sphere
    (lattice_cloud(30), [13.0, 5.0, 2.0, 1.0], (1.2,)),
    (lattice_cloud(30), [13.0, 5.0, 2.0, 1.0], (1.3, 2.0)),
    (random_cloud(5, 700, 2), None, (1.1, 1.4)),
    # lattice points whose cells' corners lie exactly on the sphere
    (lattice_cloud(30), [math.sqrt(2.0) * k for k in (5, 10, 3)], (5 * math.sqrt(2.0),)),
    (line_cloud(60), [12.0, 7.0, 5.0, 3.0, 2.0], (2.0, 5.0)),
    (line_cloud(60), [12.0, 7.0, 3.0, 1.0], (1.5,)),
    (strip_cloud(6, 900), None, (8.0, 64.0)),
    (strip_cloud(6, 900), None, (4.0, 8.0, 16.0)),
]


def assert_same_windows(got: ed.Windows, want: ed.Windows) -> None:
    """Counts and array slopes bit for bit, and both extremes with their
    witnesses."""
    assert (got.ratios, got.radii) == (want.ratios, want.radii)
    for name in ("centers", "counts", "slopes"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    for method in ("assouad", "lower"):
        a, b = got.extreme(method), want.extreme(method)
        assert repr((a.value, a.diagnostics)) == repr((b.value, b.diagnostics))


# the extremes of lattice_cloud(30) at radii 13, 5, 10, 2 and ratios 2, 4
# (40 centres, seed 0) as the sort of every window's (slope, witness repr)
# picked them: two windows tie at the top and 23 at the bottom
TIED_EXTREMES = (
    {
        "slope_raw": 1.8845227825800643,
        "witness": {
            "center": [5.0, 9.0], "R": 10.0, "scales": [5.0, 2.5], "counts": [13, 48],
            "ball_points": 261,
        },
        "n_samples": 160,
    },
    {
        "slope_raw": -0.37196877738695805,
        "witness": {
            "center": [10.0, 11.0], "R": 2.0, "scales": [1.0, 0.5], "counts": [22, 17],
            "ball_points": 13,
        },
        "n_samples": 160,
    },
)  # fmt: skip


class TestWindowSweep:
    @pytest.mark.parametrize("cloud, radii, ratios", SWEEP_CASES)
    def test_matches_per_ball_oracle(self, cloud, radii, ratios):
        # the oracle tests every occupied cell of every grid; the sweep
        # reads one key range a row
        for seed in (0, 7):
            windows = ed.window_sweep(cloud, [(radii, ratios)], 40, seed)[0]
            got = all_windows(windows)
            want = window_slopes_oracle(cloud, radii, ratios, 40, seed)
            assert got == want
            assert repr(got) == repr(want)
            # the array exponents that pick the extremes' candidates stay
            # far inside the slack of their exact fits
            exact = np.array([slope for slope, _ in got]).reshape(windows.slopes.T.shape)
            assert np.abs(windows.slopes.T - exact).max() <= 1e-3 * ed.EXTREME_SLACK
            # each extreme is the first window of the oracle's list sorted
            # by (signed slope, repr of the witness)
            for method, sign in (("assouad", -1.0), ("lower", 1.0)):
                slope, witness = min(want, key=lambda t: (sign * t[0], repr(t[1])))
                est = windows.extreme(method)
                assert repr((est.diagnostics["slope_raw"], est.diagnostics["witness"])) == repr(
                    (slope, witness)
                )
                assert est.diagnostics["n_samples"] == len(want)

    @pytest.mark.parametrize("cloud, radii, ratios", SWEEP_CASES)
    def test_counts_lie_between_the_ball_and_its_enlargement(self, cloud, radii, ratios):
        # every point of B(x, R) lies in a cell that meets it, and every
        # cell that meets it lies in B(x, R + sqrt(2) r); the upper ball
        # is widened by 1e-6 R, for the count's MEET_MARGIN and rounding
        ratios = sorted(ratios)
        windows = ed.window_sweep(cloud, [(radii, ratios)], 40, 0)[0]
        for i, R in enumerate(windows.radii):
            for j, q in enumerate(ratios):
                r = R / q
                got = windows.counts[:, i, j].tolist()
                inner = ball_counts(cloud, windows.centers, R, r)
                outer = ball_counts(cloud, windows.centers, R * (1.0 + 1e-6) + math.sqrt(2.0) * r, r)
                assert all(a <= b <= c for a, b, c in zip(inner, got, outer)), (R, q)

    @pytest.mark.parametrize("cloud, radii, ratios", SWEEP_CASES)
    def test_several_sets_match_one_set_sweeps(self, cloud, radii, ratios):
        sets = [(radii, ratios), (None, (4.0, 8.0, 16.0)), (None, (8.0, 64.0))]
        for got, (radii_i, ratios_i) in zip(ed.window_sweep(cloud, sets, 40, 7), sets):
            want = ed.window_sweep(cloud, [(radii_i, ratios_i)], 40, 7)[0]
            assert_same_windows(got, want)

    def test_several_sets_match_on_the_gasket(self):
        # the cloud that verify reads at distance 9.5, with its two sets
        cloud = Pipeline(gr.builtin_group("apollonian"), 9.5).cloud
        sets = [(None, (8.0, 64.0)), (None, (4.0, 8.0, 16.0))]
        both = ed.window_sweep(cloud, sets, 128, 3)
        for got, one in zip(both, sets):
            assert_same_windows(got, ed.window_sweep(cloud, [one], 128, 3)[0])

    def test_ties_keep_their_witness(self):
        # the lattice ties dozens of windows at both extremes; the repr of
        # the witness picks one, as it did when every window was sorted
        cloud = lattice_cloud(30)
        windows = ed.window_sweep(cloud, [([13.0, 5.0, 10.0, 2.0], (2.0, 4.0))], 40, 0)[0]
        exact = [slope for slope, _ in all_windows(windows)]
        hi = ed.assouad_dimension(cloud, [13.0, 5.0, 10.0, 2.0], (2.0, 4.0), 40, 0)
        lo = ed.lower_dimension(cloud, [13.0, 5.0, 10.0, 2.0], (2.0, 4.0), 40, 0)
        assert exact.count(max(exact)) > 1 and exact.count(min(exact)) > 1
        assert (hi.diagnostics, lo.diagnostics) == TIED_EXTREMES

    def test_extremes_refit_windows_near_the_array_extreme(self):
        # counts (22, 32) and (44, 64) at ratios 8 and 64 fit slopes one
        # ulp apart, and the array fit over one centre and eight radii
        # (numpy 2.4, x86-64) orders them the other way round; each
        # extreme must be the exact one, whatever the array fit says
        cloud = random_cloud(2, 900, 2)
        radii = tuple(0.4 / 2**i for i in range(8))
        for method, filler, want in (("lower", (1, 64), 0), ("assouad", (5, 5), 1)):
            counts = np.array([[(22, 32), (44, 64)] + [filler] * 6])
            windows = ed.Windows(
                cloud, (8.0, 64.0), radii, cloud.coords[:1], counts,
                ed._array_slopes(counts, (8.0, 64.0)),
            )  # fmt: skip
            exact = [slope for slope, _ in all_windows(windows)]
            assert exact[0] < exact[1]
            est = windows.extreme(method)
            assert est.diagnostics["slope_raw"] == exact[want]
            assert est.diagnostics["witness"]["counts"] == list(counts[0, want])

    def test_unresolvable_set_errors_alone(self):
        cloud = random_cloud(2, 900, 2)
        # 0.05 / 64 lies below twice the resolution; equal ratios fit no slope
        sets = [([0.05], (64.0,)), (None, (8.0, 8.0)), (None, (8.0, 64.0))]
        thin, equal, good = ed.window_sweep(cloud, sets, 40, 0)
        with pytest.raises(ValueError, match="no sample window resolves every requested ratio"):
            thin.extreme("assouad")
        with pytest.raises(ValueError, match="several ratios must not all be equal"):
            equal.extreme("lower")
        want = ed.window_sweep(cloud, [(None, (8.0, 64.0))], 40, 0)[0]
        assert_same_windows(good, want)

    def test_identical_sets_build_their_grids_once(self, monkeypatch):
        calls = []
        grid_counts = ed._grid_meeting_counts

        def counted(*args):
            calls.append(args[2:4])
            return grid_counts(*args)

        monkeypatch.setattr(ed, "_grid_meeting_counts", counted)
        cloud = random_cloud(2, 900, 2)
        one = ed.window_sweep(cloud, [(None, (8.0, 64.0))], 40, 0)
        n_one = len(calls)
        two = ed.window_sweep(cloud, [(None, (8.0, 64.0)), (None, (8.0, 64.0))], 40, 0)
        assert n_one == 8 * 2 * ed.GRID_OFFSETS
        assert len(calls) == 2 * n_one
        for got in two:
            assert_same_windows(got, one[0])

    @pytest.mark.memory
    def test_memory_stays_below_int64_labels(self, traced_peak):
        # one int64 label per point and grid alone reaches 31 (Assouad)
        # and 43 (lower) times the coordinates on this cloud.  The sweep
        # holds one grid at a time: the points' plane and one grid's
        # int64 cells, each the coordinates' size, and an occupancy mask
        # with its int32 running sum, five bytes a key of at most
        # DENSE_SPAN keys a point, five times the coordinates.  The peaks
        # read 9.4, 9.1 and 9.5 times the coordinates (numpy 2, x86-64),
        # so 12 leaves a quarter of headroom, and a sweep of both sets
        # holds no more than one alone
        cloud = gr.sample_limit_set(gr.builtin_group("apollonian"), target_resolution=1e-3)
        assouad, lower = (None, (8.0, 64.0)), (None, (4.0, 8.0, 16.0))
        for sets in ([assouad], [lower], [assouad, lower]):
            peak, _ = traced_peak(ed.window_sweep, cloud, sets, 64, 0)
            assert peak <= 12 * cloud.coords.nbytes

    def test_identical_ratios_raise(self):
        with pytest.raises(ValueError):
            ed.assouad_dimension(cantor_cloud(9), ratios=(8.0, 8.0))


class TestLinearFit:
    """``_linear_fit`` against scipy's ``linregress``, bit for bit."""

    @staticmethod
    def assert_matches(x, y):
        want = linregress(x, y)
        got = ed._linear_fit(x, y)
        assert repr(got) == repr(
            (float(want.slope), float(want.rvalue), float(want.stderr))
        )

    @settings(max_examples=200)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 400))
    def test_random_inputs(self, seed, n):
        rng = np.random.default_rng(seed)
        x = np.sort(rng.uniform(-3.0, 9.0, n))
        y = rng.normal(size=n) * rng.uniform(0.01, 5.0) + rng.uniform(-2, 2) * x
        if x[0] == x[-1]:
            return
        self.assert_matches(x, y)

    def test_two_points(self):
        self.assert_matches(np.array([1.0, 3.0]), np.array([0.5, -2.0]))
        assert ed._linear_fit([1.0, 3.0], [0.5, -2.0])[2] == 0.0

    def test_perfect_fit_clips_r(self):
        x = np.linspace(0.1, 7.3, 25)
        for y in (0.3 * x + 1.1, -1.7 * x + 0.2, np.log(np.exp(x))):
            self.assert_matches(x, y)
            assert abs(ed._linear_fit(x, y)[1]) <= 1.0

    def test_constant_y_has_nan_r(self):
        x = np.linspace(0.0, 1.0, 7)
        self.assert_matches(x, np.full(7, 2.5))
        assert math.isnan(ed._linear_fit(x, np.full(7, 2.5))[1])

    def test_degenerate_inputs_raise(self):
        with pytest.raises(ValueError, match="identical"):
            ed._linear_fit(np.full(5, 2.0), np.arange(5.0))
        with pytest.raises(ValueError, match="empty"):
            ed._linear_fit(np.array([]), np.array([]))


class TestIntegrationWithSampling:
    def test_gasket_box_dimension_ballpark(self):
        g = gr.builtin_group("apollonian")
        cloud = gr.sample_limit_set(g, target_resolution=1e-3)
        # keep the scale window above the typical sample spacing, where
        # covering counts saturate towards the sample size
        est = ed.box_dimension(cloud, scales=np.geomspace(0.15, 0.01, 10))
        assert 1.15 < est.value < 1.45
