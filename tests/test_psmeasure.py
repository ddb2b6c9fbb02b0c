"""Measure-side oracles: exact Cantor masses, formula arithmetic, witnesses.

The pinned oracle is the uniform measure on the depth-m middle-thirds
set sampled at cylinder midpoints.  Midpoints leave 3^-m of slack
between every ball boundary and the nearest foreign atom, which dwarfs
the float rounding in ternary coordinates, so mu(B(x, 3^-a)) = 2^-a
holds exactly for every atom x and every a up to m.  Every mass-ratio
exponent a sweep can read off this measure is then log 2 / log 3 to
machine precision, which pins the regularity and local-dimension code
to a constant instead of a tolerance band.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from kleindim import estdim as ed
from kleindim import group as gr
from kleindim import hypgeom as hg
from kleindim import psmeasure as ps
from kleindim.pipeline import Pipeline

LOG2_LOG3 = math.log(2.0) / math.log(3.0)
LOG3 = math.log(3.0)


def cantor_measure(depth: int) -> ps.EmpiricalMeasure:
    """Uniform measure on the depth-m middle-thirds cylinder midpoints."""
    pts = np.zeros(1)
    for a in range(1, depth + 1):
        pts = np.concatenate([pts, pts + 2.0 * 3.0 ** -a])
    pts = np.sort(pts) + 0.5 * 3.0 ** -depth
    return ps.EmpiricalMeasure(
        coords=pts[:, None],
        weights=np.full(len(pts), 2.0 ** -depth),
        d=1,
        resolution=3.0 ** -depth,
    )


def grid_measure(n: int) -> ps.EmpiricalMeasure:
    """Uniform measure on an n-point unit grid (exponent exactly 1)."""
    step = 1.0 / (n - 1)
    return ps.EmpiricalMeasure(
        coords=np.linspace(0.0, 1.0, n)[:, None],
        weights=np.full(n, 1.0 / n),
        d=1,
        resolution=step,
    )


def empty_family(d: int = 2) -> gr.HoroballFamily:
    return gr.HoroballFamily(
        bases=np.array([], dtype=complex),
        sizes=np.array([]),
        ranks=np.array([], dtype=np.int32),
        d=d,
    )


def single_ball_family(size: float, rank: int = 1, d: int = 2) -> gr.HoroballFamily:
    return gr.HoroballFamily(
        bases=np.array([0.0 + 0.0j]),
        sizes=np.array([float(size)]),
        ranks=np.array([rank], dtype=np.int32),
        d=d,
    )


@pytest.fixture(scope="module")
def gasket():
    """Moderate-budget Apollonian pipeline shared by the integration tests."""
    g = gr.builtin_group("apollonian")
    orbit = gr.enumerate_orbit(g, 8.0)
    cusps = gr.find_cusps(orbit)
    family = gr.standard_horoballs(orbit, cusps)
    measure = ps.patterson_measure(g, orbit=orbit, band=3.5)
    delta = float(ed.poincare_exponent(orbit).value)
    return g, orbit, cusps, family, measure, delta


def deepest_cusp(cusps, family):
    """The cusp whose family ball at its point is largest."""
    member = family.members_at([hg._hs_boundary(c.point) for c in cusps.cusps])
    best, best_size = None, 0.0
    for c, i in zip(cusps.cusps, member):
        if i < len(family.sizes) and family.sizes[i] > best_size:
            best, best_size = c, float(family.sizes[i])
    return best, best_size


def _oracle_k_and_rho(ctx, z, t):
    """k_and_rho as first written, with the geodesic_point of the time
    inlined (Python complex arithmetic on Moebius matrices), then a
    one-point ``deepest``.  Kept as the oracle of the batched ray points."""
    w, h = hg._hs_interior(hg.origin(ctx.family.d))
    g = hg._mobius_to_infinity(complex(z))
    w, h = hg._apply_interior_mat(g.matrix, w, h)
    w, h = hg._apply_interior_mat(g.inverse().matrix, w, h * math.exp(t))
    w = complex(w.real, w.imag if ctx.family.d == 2 else 0.0)
    depth, rank = ctx.family.deepest(np.asarray([w]), np.asarray([h]))
    if depth[0] > 0.0:
        return int(rank[0]), float(depth[0])
    return 0, 0.0


def kdtree_ball_masses(measure, centers, r):
    """The KD-tree sweep that ``_ball_masses`` replaced: one sorted index
    list per centre, all held at once."""
    hits = cKDTree(measure.coords).query_ball_point(centers, float(r))
    return np.array(
        [float(measure.weights[idx].sum()) if idx else 0.0 for idx in hits]
    )


def kdtree_ball_mass(measure, x, r):
    """The KD-tree ``ball_mass`` it replaced: an unsorted index list."""
    idx = cKDTree(measure.coords).query_ball_point(x, float(r))
    return float(measure.weights[idx].sum()) if idx else 0.0


def kdtree_regularity(measure, radii, ratios, n_centers, extra_centers, min_atoms, seed):
    """The regularity sweep as it was read off ``kdtree_ball_masses``,
    one scale at a time: (value, witness) of the upper and the lower
    estimate."""
    min_mass = min(float(min_atoms), measure.n / 4.0) / measure.n
    floor = measure.resolution
    centers = measure.coords[ed._farthest_point_sample(measure.coords, n_centers, seed)]
    if extra_centers is not None:
        centers = np.vstack([centers, extra_centers])
    best_hi = best_lo = None
    for R in map(float, radii):
        if R < floor:
            continue
        mass_R = kdtree_ball_masses(measure, centers, R)
        for ratio in ratios:
            r = R / float(ratio)
            if r < floor:
                continue
            mass_r = kdtree_ball_masses(measure, centers, r)
            ok = (mass_r >= min_mass) & (mass_R > 0.0)
            if not ok.any():
                continue
            slopes = np.full(len(centers), np.nan)
            slopes[ok] = np.log(mass_R[ok] / mass_r[ok]) / math.log(ratio)
            for pick, is_hi in ((int(np.nanargmax(slopes)), True),
                                (int(np.nanargmin(slopes)), False)):
                cand = (float(slopes[pick]), {
                    "center": centers[pick].tolist(), "R": R, "r": r,
                    "mass_R": float(mass_R[pick]), "mass_r": float(mass_r[pick]),
                })
                if is_hi and (best_hi is None or cand[0] > best_hi[0]):
                    best_hi = cand
                if not is_hi and (best_lo is None or cand[0] < best_lo[0]):
                    best_lo = cand
    return best_hi, best_lo


class TestEmpiricalMeasure:
    def test_weights_are_normalized(self):
        mu = ps.EmpiricalMeasure(
            coords=np.array([[0.0], [1.0], [2.0]]),
            weights=np.array([2.0, 3.0, 5.0]),
            d=1,
            resolution=0.1,
        )
        assert mu.weights.sum() == pytest.approx(1.0, abs=1e-15)
        assert mu.weights[2] == pytest.approx(0.5)

    def test_rejects_bad_inputs(self):
        good = dict(
            coords=np.array([[0.0], [1.0]]),
            weights=np.array([1.0, 1.0]),
            d=1,
            resolution=0.1,
        )
        with pytest.raises(ValueError):
            ps.EmpiricalMeasure(**{**good, "d": 3})
        with pytest.raises(ValueError):
            ps.EmpiricalMeasure(**{**good, "coords": np.zeros((2, 2))})
        with pytest.raises(ValueError):
            ps.EmpiricalMeasure(**{**good, "weights": np.array([1.0, 0.0])})
        with pytest.raises(ValueError):
            ps.EmpiricalMeasure(**{**good, "weights": np.array([1.0])})
        with pytest.raises(ValueError):
            ps.EmpiricalMeasure(**{**good, "resolution": 0.0})

    @settings(max_examples=25)
    @given(st.integers(0, 10_000))
    def test_normalization_ignores_weight_scale(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        coords = rng.normal(size=(n, 1))
        w = rng.uniform(0.1, 5.0, size=n)
        lam = float(rng.uniform(0.01, 100.0))
        a = ps.EmpiricalMeasure(coords=coords, weights=w, d=1, resolution=0.1)
        b = ps.EmpiricalMeasure(coords=coords, weights=w * lam, d=1, resolution=0.1)
        assert np.allclose(a.weights, b.weights, rtol=1e-12)


# the five entry points that read a boundary point, on a plane measure
# and a plane family
POINT_ENTRIES = {
    "ball_mass": lambda ctx, mu, z: ps.ball_mass(mu, z, 0.1),
    "local_dimension": lambda ctx, mu, z: ps.local_dimension(mu, z, t_window=(1.0, 3.0)),
    "k_and_rho": lambda ctx, mu, z: ps.k_and_rho(ctx, z, 1.0),
    "gmf_value": lambda ctx, mu, z: ps.gmf_value(ctx, z, 1.0),
    "horoball_sum": lambda ctx, mu, z: ps.horoball_sum(ctx, z, 1.0, 2.0),
}


@pytest.mark.parametrize("entry", sorted(POINT_ENTRIES))
def test_points_outside_the_bounded_chart_raise(entry):
    grid = np.linspace(0.0, 1.0, 101)
    coords = np.stack(np.meshgrid(grid, grid), axis=-1).reshape(-1, 2)
    mu = ps.EmpiricalMeasure(
        coords=coords, weights=np.full(len(coords), 1.0 / len(coords)), d=2, resolution=0.01
    )
    ctx = ps.GMFContext(delta=1.5, family=single_ball_family(0.05))
    read = POINT_ENTRIES[entry]
    for z in ([0.3, 0.2], 0.3 + 0.2j, hg.BoundaryPoint((0.3, 0.2))):
        read(ctx, mu, z)
    bad = [hg.infinity(), [0.3], [0.3, 0.2, 0.1], hg.BoundaryPoint((0.3,)), (math.nan, 0.2)]
    for z in bad:
        with pytest.raises(ValueError, match="bounded chart"):
            read(ctx, mu, z)


class TestBallMass:
    def test_exact_cantor_masses(self):
        depth = 9
        mu = cantor_measure(depth)
        rng = np.random.default_rng(3)
        for i in rng.integers(0, mu.n, size=12):
            x = mu.coords[i]
            for a in range(0, depth + 1):
                assert ps.ball_mass(mu, x, 3.0 ** -a) == pytest.approx(
                    2.0 ** -a, rel=1e-12
                )

    def test_whole_space_ball(self):
        mu = cantor_measure(5)
        assert ps.ball_mass(mu, mu.coords[0], 2.0) == pytest.approx(1.0, abs=1e-15)

    @settings(max_examples=25)
    @given(st.integers(0, 10_000))
    def test_monotone_in_radius(self, seed):
        rng = np.random.default_rng(seed)
        mu = cantor_measure(6)
        x = rng.uniform(-0.2, 1.2)
        r1, r2 = np.sort(rng.uniform(1e-4, 1.5, size=2))
        assert ps.ball_mass(mu, [x], r1) <= ps.ball_mass(mu, [x], r2) + 1e-15

    @settings(max_examples=25)
    @given(st.integers(0, 10_000))
    def test_aggregation_conserves_mass(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 200))
        coords = rng.normal(size=(n, 2))
        w = rng.uniform(0.0001, 1.0, size=n)
        cell = float(rng.uniform(0.05, 2.0))
        merged, mw = ps._aggregate_atoms(coords, w, cell)
        assert mw.sum() == pytest.approx(w.sum(), rel=1e-12)
        assert len(merged) <= n


class TestBallMassKernel:
    """``_ball_masses`` against the KD-tree queries it replaced."""

    @pytest.fixture(scope="class")
    def sweep(self, gasket):
        mu = gasket[4]
        rng = np.random.default_rng(11)
        lo, hi = mu.coords.min(axis=0), mu.coords.max(axis=0)
        centers = np.vstack([
            mu.coords[ed._farthest_point_sample(mu.coords, 64, 0)],
            rng.uniform(lo, hi, size=(32, 2)),
            [[50.0, 50.0]],  # beyond every radius from every atom
        ])
        # radii that catch no atom, one atom, some and every atom
        radii = np.concatenate([[1e-12], np.geomspace(1e-4, 10.0, 30)])
        return mu, centers, radii

    def test_multi_centre_masses_equal_the_kdtree_sweep(self, sweep):
        mu, centers, radii = sweep
        got = ps._ball_masses(mu, centers, radii)
        assert got.shape == (len(centers), len(radii))
        for j, r in enumerate(radii):
            assert np.array_equal(got[:, j], kdtree_ball_masses(mu, centers, r))
        assert np.all(got[-1] == 0.0)
        assert np.all(got[:-1, -1] == mu.weights.sum())

    def test_single_centre_masses_differ_only_in_summation_order(self, sweep):
        # a single-point query returns its index list unsorted; the kernel
        # sums the same members in atom-index order
        mu, centers, radii = sweep
        tree = cKDTree(mu.coords)
        cols = mu.coords.T
        for c in centers[::3]:
            d2 = ed._sq_dists(cols, c)
            for r in radii[::2]:
                idx = tree.query_ball_point(c, float(r))
                assert sorted(idx) == np.flatnonzero(d2 <= r * r).tolist()
                got = ps.ball_mass(mu, c, r)
                want = kdtree_ball_mass(mu, c, r)
                assert got == float(mu.weights[sorted(idx)].sum())
                assert abs(got - want) <= 1e-15 * want

    def test_regularity_equals_the_kdtree_sweep(self, gasket):
        mu = gasket[4]
        cases = [
            (mu, dict(radii=np.geomspace(mu.extent() / 4, mu.resolution * 8, 8),
                      ratios=(8.0, 64.0), n_centers=256, extra_centers=None,
                      min_atoms=32)),
            (mu, dict(radii=np.geomspace(1.2, 0.5, 3), ratios=(16.0,), n_centers=192,
                      extra_centers=np.array([[0.0, 0.0], [0.5, 0.5]]), min_atoms=16)),
            # every window of the uniform Cantor measure reads the same
            # slope, so the tie rule alone picks both witnesses
            (cantor_measure(9), dict(radii=[3.0 ** -1, 3.0 ** -2, 3.0 ** -3],
                                     ratios=(9.0, 27.0), n_centers=64,
                                     extra_centers=None, min_atoms=4)),
        ]
        for mu, kw in cases:
            for seed in (0, 5):
                upper, lower = ps.regularity_exponents(mu, seed=seed, **kw)
                hi, lo = kdtree_regularity(mu, seed=seed, **kw)
                assert (upper.value, upper.witness) == hi
                assert (lower.value, lower.witness) == lo
                assert repr(upper.witness) == repr(hi[1])

    @pytest.mark.memory
    def test_regularity_memory_is_a_few_atom_arrays(self, gasket, traced_peak):
        # the KD-tree sweep held a Python index list per centre, over
        # 150 times the atom array at this budget
        mu = gasket[4]
        radii = np.geomspace(mu.extent() / 4, mu.resolution * 8, 8)
        peak, _ = traced_peak(ps.regularity_exponents, mu, radii=radii)
        assert peak <= 8 * mu.coords.nbytes


class TestPattersonMeasure:
    @pytest.mark.memory
    def test_measure_memory_is_the_band_and_its_atoms(self, traced_peak):
        # at this budget the measure that kept the whole orbit's
        # projections and weights while its atoms merged peaked at 4.03
        # times the orbit; dropping them first reads 3.38
        p = Pipeline(gr.builtin_group("apollonian"), 9.5)
        orbit = p.orbit
        peak, mu = traced_peak(
            ps.patterson_measure, p.group, orbit, band=p.band, delta_hat=p.delta
        )
        assert mu.coords.tobytes() == p.measure.coords.tobytes()
        assert peak < 3.7 * (orbit.matrices.nbytes + orbit.dists.nbytes + orbit.word_lengths.nbytes)

    def test_orbit_without_finite_projection_is_an_error(self):
        # the identity alone projects the base point to infinity
        g = gr.builtin_group("schottky")
        orbit = gr.enumerate_orbit(g, max_word_length=0)
        with pytest.raises(ValueError, match="no finite boundary projection"):
            ps.patterson_measure(g, orbit, band=math.inf, delta_hat=1.0)

    def test_default_exponent_sits_above_fit(self):
        g = gr.builtin_group("apollonian")
        mu = ps.patterson_measure(g, gr.enumerate_orbit(g, 6.0), band=math.inf)
        s = mu.provenance["s"]
        delta_hat = mu.provenance["delta_hat"]
        assert s == pytest.approx((1.0 + ps.S_MARGIN) * delta_hat, rel=1e-12)
        assert s > delta_hat

    def test_deterministic_rebuild(self):
        g = gr.builtin_group("apollonian")
        a = ps.patterson_measure(g, gr.enumerate_orbit(g, 6.0), band=2.5)
        b = ps.patterson_measure(g, gr.enumerate_orbit(g, 6.0), band=2.5)
        assert np.array_equal(a.coords, b.coords)
        assert np.array_equal(a.weights, b.weights)

    def test_band_restricts_budget(self):
        g = gr.builtin_group("apollonian")
        orbit = gr.enumerate_orbit(g, 6.5)
        full = ps.patterson_measure(g, orbit, band=math.inf)
        banded = ps.patterson_measure(g, orbit, band=2.0)
        # an infinite band drops only the projections at infinity
        assert full.provenance["n_dropped"] == int((~orbit.boundary_projections()[1]).sum())
        assert banded.provenance["n_dropped"] > full.provenance["n_dropped"]
        assert banded.n < full.n

    def test_cells_a_word_apart_stay_apart(self):
        # rows 0 and 1 lie 2^32 cells apart on the imaginary axis, rows 2
        # and 3 on the real one, at the cell side of both the sampler's
        # dedup and the atom grid; a key made of the cells' low 32 bits
        # put each pair in one cell
        t = 10.0
        res = 2.0 * math.exp(-t)
        cell = res / ps.ATOM_GRID_FACTOR
        ij = np.array([[3, 5], [3, 5 + 2**32], [7, 1], [7 + 2**32, 1]])
        w = ((ij + 0.5) * cell) @ np.array([1.0, 1j])
        # z -> s^2 z + w carries the base point to height s^2 above w
        s = 1e-6
        mats = np.array([[[s, wk / s], [0.0, 1.0 / s]] for wk in w], dtype=complex)
        g = gr.GroupPresentation((hg.MobiusMap(np.array([[1.0, 1.0], [0.0, 1.0]])),), d=2)
        orbit = gr.OrbitData(
            matrices=mats,
            dists=np.full(4, t),
            word_lengths=np.ones(4, dtype=np.int32),
            t_valid=t,
            truncated=False,
            d=2,
            group=g,
        )
        proj = orbit.boundary_projections()[0]
        assert np.array_equal(np.floor(np.column_stack([proj.real, proj.imag]) / cell), ij)
        cloud = gr.sample_limit_set(g, res, orbit=orbit)
        assert cloud.resolution == res
        assert cloud.n == 4
        assert ps.patterson_measure(g, orbit, band=math.inf, delta_hat=1.0).n == 4

    def test_atoms_keep_their_cell_order(self):
        # verify draws its typical point and regularity centres by atom
        # index: atoms come by real cell, then by imaginary cell with the
        # non-negative ones first, which a plain (real, imaginary) order
        # would not keep
        p = Pipeline(gr.builtin_group("apollonian"), 8.0)
        mu = p.measure
        cell = max(2.0 * math.exp(-p.orbit.t_valid), 1e-14) / ps.ATOM_GRID_FACTOR
        c0, c1 = np.floor(mu.coords / cell).T
        assert len(set(zip(c0.tolist(), c1.tolist()))) == mu.n
        assert np.array_equal(np.lexsort((c1, c1 < 0, c0)), np.arange(mu.n))
        assert not np.array_equal(np.lexsort((c1, c0)), np.arange(mu.n))

    def test_empty_band_is_an_error(self):
        # an untruncated orbit has no atom within 1e-12 of the horizon
        g = gr.builtin_group("apollonian")
        with pytest.raises(ValueError, match="band"):
            ps.patterson_measure(g, gr.enumerate_orbit(g, 6.0), band=1e-12)


def kdtree_kth_median(coords, k=9):
    """The declared-resolution statistic as first written, on scipy's
    KD tree: the median distance to the k-th nearest atom."""
    return float(np.median(cKDTree(coords).query(coords, k=k)[0][:, -1]))


def two_clusters(n_each: int) -> np.ndarray:
    """A tight cluster at the origin on the even rows and a loose one a
    hundred units away on the odd rows: a sample of even stride sees only
    the tight one, so the median lies outside its bracket."""
    rng = np.random.default_rng(3)
    coords = np.empty((2 * n_each, 2))
    coords[0::2] = rng.uniform(0.0, 1e-3, (n_each, 2))
    coords[1::2] = rng.uniform(100.0, 101.0, (n_each, 2))
    return coords


class TestKthNeighbourMedian:
    """``_kth_neighbour_median`` against the KD-tree statistic, bit for bit."""

    @pytest.mark.parametrize(
        "name, dist", [("apollonian", 8.0), ("rank2_cusp", 8.0), ("parabolic_cusp_fuchsian", 11.0)]
    )
    def test_builtin_measures(self, name, dist):
        coords = Pipeline(gr.builtin_group(name), dist).measure.coords
        assert ps._kth_neighbour_median(coords, 9) == kdtree_kth_median(coords)

    @pytest.mark.parametrize(
        "coords",
        [
            np.random.default_rng(0).uniform(-1.0, 1.0, (16, 2)),
            np.random.default_rng(1).uniform(-1.0, 1.0, (16, 1)),
            # d = 1 above the sample size, with spacings over six decades
            np.cumsum(10.0 ** np.random.default_rng(2).uniform(-6.0, 0.0, 10_000))[:, None],
            # every interior point has its 9th distance tied at sqrt(2)
            np.stack(np.meshgrid(np.arange(70.0), np.arange(70.0)), axis=-1).reshape(-1, 2),
            np.stack(np.meshgrid(np.arange(70.0), np.arange(70.0)), axis=-1).reshape(-1, 2) * 0.1,
            # d = 2 on one line of cells: the grid's rows hold one column
            np.column_stack([np.random.default_rng(4).uniform(0.0, 1.0, 5_000), np.zeros(5_000)]),
        ],
        ids=["n16", "n16_d1", "d1_wide", "lattice", "lattice_tenths", "one_column"],
    )
    def test_synthetic_points(self, monkeypatch, coords):
        solved = self._spy(monkeypatch)
        assert ps._kth_neighbour_median(coords, 9) == kdtree_kth_median(coords)
        # one solve: every point up to twice the sample size, else the
        # sample, whose bracket then holds the median
        assert len(solved) == 1

    @pytest.mark.parametrize("coords", [np.zeros((8, 2)), np.array([[0.0, np.nan]] * 16)])
    def test_too_few_or_non_finite_points_are_an_error(self, coords):
        with pytest.raises(ValueError, match="9 or more finite points"):
            ps._kth_neighbour_median(coords, 9)

    def test_missed_bracket_solves_every_point(self, monkeypatch):
        coords = two_clusters(2 * ps.KNN_SAMPLE + 1)
        solved = self._spy(monkeypatch)
        assert ps._kth_neighbour_median(coords, 9) == kdtree_kth_median(coords)
        assert solved == [ps.KNN_SAMPLE + 1, len(coords)]

    @staticmethod
    def _spy(monkeypatch) -> list:
        """The number of points of each ``_exact_kth_sq`` call."""
        solved = []
        exact = ps._exact_kth_sq

        def spy(plane, rows, k, fine):
            solved.append(len(rows))
            return exact(plane, rows, k, fine)

        monkeypatch.setattr(ps, "_exact_kth_sq", spy)
        return solved


class TestMeasureFormula:
    def test_gmf_arithmetic(self):
        # horoball of size e^-5 at 0: the vertical ray toward 0 has
        # depth t - 5, so at t = 10 the formula value is
        # exp(-10 * 1.305 - 5 * (1.305 - 1)) = exp(-14.575)
        fam = single_ball_family(math.exp(-5.0), rank=1)
        ctx = ps.GMFContext(delta=1.305, family=fam)
        k, rho = ps.k_and_rho(ctx, 0.0 + 0.0j, 10.0)
        assert k == 1
        assert rho == pytest.approx(5.0, abs=1e-9)
        assert ps.gmf_value(ctx, 0.0 + 0.0j, 10.0) == pytest.approx(
            math.exp(-14.575), rel=1e-9
        )

    def test_outside_every_ball(self):
        fam = single_ball_family(math.exp(-5.0), rank=1)
        ctx = ps.GMFContext(delta=1.305, family=fam)
        # at t = 2 the ray point sits at height e^-2, well above the
        # tiny horoball
        assert ps.k_and_rho(ctx, 0.0 + 0.0j, 2.0) == (0, 0.0)
        assert ps.gmf_value(ctx, 0.0 + 0.0j, 2.0) == pytest.approx(
            math.exp(-2.0 * 1.305), rel=1e-12
        )

    def test_empty_family_is_regular(self):
        ctx = ps.GMFContext(delta=0.75, family=empty_family())
        for t in (0.5, 2.0, 7.0):
            assert ps.k_and_rho(ctx, 0.3 + 0.1j, t) == (0, 0.0)
            assert ps.gmf_value(ctx, 0.3 + 0.1j, t) == pytest.approx(
                math.exp(-t * 0.75), rel=1e-12
            )

    def test_nonpositive_t_rejected(self):
        ctx = ps.GMFContext(delta=1.0, family=empty_family())
        with pytest.raises(ValueError):
            ps.k_and_rho(ctx, 0.0 + 0.0j, 0.0)

    def test_delta_must_clear_half_rank(self):
        fam = single_ball_family(1.0, rank=2)
        with pytest.raises(ValueError, match="k/2"):
            ps.GMFContext(delta=0.9, family=fam)
        ps.GMFContext(delta=1.1, family=fam)

    @pytest.mark.parametrize("d", [1, 2])
    def test_ray_depths_equal_the_scalar_oracle(self, gasket, d):
        if d == 1:
            p = Pipeline(gr.builtin_group("parabolic_cusp_fuchsian"), 8.0)
            family, mu, delta = p.family, p.measure, 0.8
        else:
            _, _, _, family, mu, delta = gasket
        ctx = ps.GMFContext(delta=delta, family=family)
        rng = np.random.default_rng(5)
        atoms = mu.coords[rng.choice(mu.n, size=300, p=mu.weights)]
        zs = atoms[:, 0] + (1j * atoms[:, 1] if d == 2 else 0.0)
        ts = rng.uniform(0.5, 9.0, size=len(zs))
        want = [_oracle_k_and_rho(ctx, complex(z), t) for z, t in zip(zs, ts)]
        assert any(k > 0 for k, _ in want)
        assert [ps.k_and_rho(ctx, complex(z), t) for z, t in zip(zs, ts)] == want
        ks, rhos = ps._ray_ranks_depths(ctx, zs, ts)
        assert list(zip(ks.tolist(), rhos.tolist())) == want

    def test_plane_member_rays_equal_the_scalar_oracle(self):
        fam = gr.HoroballFamily(
            bases=np.array([0.3 + 0.2j, -0.4 + 0.1j]),
            sizes=np.array([0.05, 0.02]),
            ranks=np.array([1, 2], dtype=np.int32),
            d=2,
        )
        ctx = ps.GMFContext(delta=1.5, family=fam)
        rng = np.random.default_rng(9)
        # the two bases at depths 0.5 .. 8, then random rays
        grid = [0.5, 1.0, 2.0, 4.0, 6.0, 8.0]
        points = [z for z in (0.3 + 0.2j, -0.4 + 0.1j) for _ in grid]
        points += [complex(*rng.uniform(-1.0, 1.0, 2)) for _ in range(200)]
        ts = np.concatenate([grid * 2, rng.uniform(0.2, 8.0, size=200)])
        want = [_oracle_k_and_rho(ctx, z, t) for z, t in zip(points, ts)]
        assert {k for k, _ in want} == {0, 1, 2}
        assert [ps.k_and_rho(ctx, z, t) for z, t in zip(points, ts)] == want

    @settings(max_examples=25)
    @given(st.integers(0, 10_000))
    def test_empty_family_value_matches_closed_form(self, seed):
        rng = np.random.default_rng(seed)
        delta = float(rng.uniform(0.2, 1.9))
        t = float(rng.uniform(0.1, 12.0))
        z = complex(rng.normal(), rng.normal())
        ctx = ps.GMFContext(delta=delta, family=empty_family())
        assert ps.gmf_value(ctx, z, t) == pytest.approx(
            math.exp(-t * delta), rel=1e-12
        )


class TestGMFDrift:
    def test_cantor_measure_has_no_drift(self):
        mu = cantor_measure(9)
        ctx = ps.GMFContext(delta=LOG2_LOG3, family=empty_family(d=1))
        report = ps.gmf_drift(ctx, mu, n_samples=200, t_range=(1.5, 5.5), seed=0)
        assert abs(report.slope) < 0.05
        assert report.spread < 4.0

    def test_wrong_delta_shows_drift(self):
        mu = cantor_measure(9)
        ctx = ps.GMFContext(delta=1.0, family=empty_family(d=1))
        report = ps.gmf_drift(ctx, mu, n_samples=200, t_range=(1.5, 5.5), seed=0)
        # log(mass / e^-t) then grows like (1 - log2/log3) t
        assert report.slope > 0.25

    def test_too_few_samples_rejected(self):
        mu = cantor_measure(7)
        ctx = ps.GMFContext(delta=LOG2_LOG3, family=empty_family(d=1))
        with pytest.raises(ValueError, match="too few"):
            ps.gmf_drift(ctx, mu, n_samples=4, t_range=(1.5, 4.0), seed=0)

    @pytest.mark.parametrize("d", [1, 2])
    def test_masses_are_ball_mass(self, gasket, d):
        # the strip scan reads ball_mass's members and sum, bit for bit
        if d == 1:
            mu = cantor_measure(9)
            ctx = ps.GMFContext(delta=LOG2_LOG3, family=empty_family(d=1))
        else:
            _, _, _, family, mu, delta = gasket
            ctx = ps.GMFContext(delta=delta, family=family)
        report = ps.gmf_drift(ctx, mu, n_samples=150, t_range=(1.0, 7.0), seed=3)
        assert len(report.rows) + report.n_zero_mass == 150
        for z, t, _, _, mass, _, _ in report.rows:
            x = [z.real] if d == 1 else [z.real, z.imag]
            assert mass == ps.ball_mass(mu, x, math.exp(-t))


class TestRegularityExponents:
    def test_uniform_cantor_is_pinned(self):
        mu = cantor_measure(9)
        upper, lower = ps.regularity_exponents(
            mu,
            radii=[3.0 ** -1, 3.0 ** -2, 3.0 ** -3],
            ratios=(9.0, 27.0),
            n_centers=64,
            min_atoms=4,
        )
        assert upper.value == pytest.approx(LOG2_LOG3, abs=1e-9)
        assert lower.value == pytest.approx(LOG2_LOG3, abs=1e-9)

    def test_uniform_grid_interior_is_one(self):
        # centres near an endpoint legitimately read below 1 at a fixed
        # finite ratio (the outer ball clips, the inner one does not),
        # so the exponent-1 pin holds for interior centres only
        mu = grid_measure(4097)
        upper, lower = ps.regularity_exponents(
            mu,
            radii=[0.25, 0.125],
            ratios=(8.0, 16.0),
            n_centers=0,
            extra_centers=np.array([[0.5], [0.3], [0.7]]),
            min_atoms=4,
        )
        assert 0.99 < lower.value <= upper.value < 1.01

    def test_witness_recheck_matches(self):
        mu = cantor_measure(8)
        upper, lower = ps.regularity_exponents(
            mu,
            radii=[3.0 ** -1, 3.0 ** -2],
            ratios=(9.0,),
            n_centers=32,
            min_atoms=4,
        )
        for est in (upper, lower):
            w = est.witness
            recheck = math.log(w["mass_R"] / w["mass_r"]) / math.log(w["R"] / w["r"])
            assert recheck == pytest.approx(est.value, abs=1e-12)
            assert est.witness["mass_R"] >= est.witness["mass_r"] > 0

    def test_small_ratio_rejected(self):
        mu = cantor_measure(8)
        with pytest.raises(ValueError, match="ratio"):
            ps.regularity_exponents(mu, radii=[0.25], ratios=(2.0,))

    def test_tiny_measure_rejected(self):
        mu = grid_measure(8)
        with pytest.raises(ValueError, match="fewer than 16"):
            ps.regularity_exponents(mu, radii=[0.25])

    def test_no_admissible_pair(self):
        mu = ps.EmpiricalMeasure(
            coords=np.linspace(0, 1, 32)[:, None],
            weights=np.full(32, 1.0),
            d=1,
            resolution=1.0,
        )
        with pytest.raises(ps.MeasureScaleError):
            ps.regularity_exponents(mu, radii=[0.25])

    @settings(max_examples=15)
    @given(st.integers(0, 10_000))
    def test_lower_never_exceeds_upper(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(64, 400))
        mu = ps.EmpiricalMeasure(
            coords=rng.uniform(0, 1, size=(n, 1)),
            weights=rng.uniform(0.2, 1.0, size=n),
            d=1,
            resolution=1e-4,
        )
        upper, lower = ps.regularity_exponents(
            mu, radii=[0.25], ratios=(8.0,), n_centers=32, min_atoms=2
        )
        assert lower.value <= upper.value + 1e-12


class TestLocalDimension:
    def test_cantor_atom_is_pinned(self):
        mu = cantor_measure(9)
        est = ps.local_dimension(
            mu, mu.coords[17], t_window=(LOG3, 6.0 * LOG3), n_steps=6
        )
        assert est.slope == pytest.approx(LOG2_LOG3, abs=1e-6)
        assert est.lower == pytest.approx(LOG2_LOG3, abs=1e-6)
        assert est.upper == pytest.approx(LOG2_LOG3, abs=1e-6)

    def test_iteration_order(self):
        mu = cantor_measure(8)
        est = ps.local_dimension(
            mu, mu.coords[0], t_window=(LOG3, 5.0 * LOG3), n_steps=5
        )
        lo, hi = est
        assert (lo, hi) == (est.lower, est.upper)

    def test_window_below_resolution_rejected(self):
        mu = cantor_measure(5)
        with pytest.raises(ps.MeasureScaleError):
            ps.local_dimension(mu, mu.coords[0], t_window=(2.0, 12.0))

    def test_far_center_rejected(self):
        mu = cantor_measure(6)
        with pytest.raises(ValueError, match="largest window scale"):
            ps.local_dimension(mu, [50.0], t_window=(1.5, 4.0))

    def test_flat_profile_rejected(self):
        # every ball of the window holds all three atoms: no slope
        mu = ps.EmpiricalMeasure(
            coords=[[0.0], [1e-4], [2e-4]], weights=[1.0, 1.0, 1.0], d=1, resolution=1e-5
        )
        with pytest.raises(ps.MeasureScaleError, match="flat mass profile"):
            ps.local_dimension(mu, [0.0], t_window=(1.0, 3.0))

    def test_gap_center_truncates_window(self):
        mu = cantor_measure(9)
        # 0.5 sits in the central gap at distance just over 1/6 from the
        # set, so scales below e^-1.8 have zero mass and the grid shrinks
        est = ps.local_dimension(mu, [0.5], t_window=(1.0, 4.0), n_steps=13)
        assert len(est.ts) < 13
        with pytest.raises(ValueError, match="fewer than 3"):
            ps.local_dimension(mu, [0.5], t_window=(1.65, 4.0), n_steps=13)

    @settings(max_examples=20)
    @given(st.integers(0, 10_000))
    def test_slope_between_extremes(self, seed):
        rng = np.random.default_rng(seed)
        mu = cantor_measure(8)
        i = int(rng.integers(0, mu.n))
        est = ps.local_dimension(mu, mu.coords[i], t_window=(1.0, 5.0), n_steps=9)
        assert est.lower - 1e-9 <= est.slope <= est.upper + 1e-9


class TestHoroballSum:
    def test_counts_only_matching_members(self):
        fam = gr.HoroballFamily(
            bases=np.array([0.0 + 0.0j, 0.5 + 0.0j]),
            sizes=np.array([0.01, 0.2]),
            ranks=np.array([1, 1], dtype=np.int32),
            d=2,
        )
        ctx = ps.GMFContext(delta=1.3, family=fam)
        # B(0, e^-1) holds only the first base; only its size falls in
        # [e^-5, e^-1)
        total = ps.horoball_sum(ctx, 0.0 + 0.0j, 1.0, 5.0)
        assert total == pytest.approx(0.01 ** 1.3, rel=1e-12)

    def test_size_window_is_half_open(self):
        fam = single_ball_family(0.5)
        ctx = ps.GMFContext(delta=1.3, family=fam)
        # the single member is larger than e^-1, hence not counted
        assert ps.horoball_sum(ctx, 0.0 + 0.0j, 1.0, 5.0) == 0.0
        # but counted once the top scale admits it
        assert ps.horoball_sum(ctx, 0.0 + 0.0j, 0.5, 5.0) == pytest.approx(
            0.5 ** 1.3, rel=1e-12
        )

    def test_empty_region(self):
        ctx = ps.GMFContext(delta=1.3, family=empty_family())
        assert ps.horoball_sum(ctx, 0.0 + 0.0j, 1.0, 5.0) == 0.0

    def test_bad_window_rejected(self):
        ctx = ps.GMFContext(delta=1.3, family=empty_family())
        with pytest.raises(ValueError):
            ps.horoball_sum(ctx, 0.0 + 0.0j, 3.0, 2.0)


class TestGasketIntegration:
    """End-to-end checks on a moderate Apollonian budget.

    Tolerances here are deliberately loose; the tight bands live in the
    acceptance suite, which runs the deep-budget pipeline.
    """

    def test_fitted_exponent(self, gasket):
        _, _, _, _, _, delta = gasket
        assert 1.2 < delta < 1.42

    def test_measure_shape(self, gasket):
        _, orbit, _, _, mu, _ = gasket
        assert mu.d == 2
        assert mu.n > 1000
        assert mu.provenance["band"] == pytest.approx(3.5)
        assert mu.provenance["t_valid"] == pytest.approx(orbit.t_valid)

    def test_typical_atom_local_dimension(self, gasket):
        _, _, _, _, mu, delta = gasket
        rng = np.random.default_rng(5)
        i = int(rng.choice(mu.n, p=mu.weights))
        est = ps.local_dimension(mu, mu.coords[i], t_window=(1.2, 3.6))
        assert est.slope == pytest.approx(delta, abs=0.35)

    def test_parabolic_point_local_dimension(self, gasket):
        _, _, cusps, family, mu, delta = gasket
        cusp, _ = deepest_cusp(cusps, family)
        p = np.array([cusp.point.coords[0], cusp.point.coords[1]])
        # window stops before the scale where the finite orbit budget
        # undersupplies the cusp neighbourhood and inflates the slope
        est = ps.local_dimension(mu, p, t_window=(0.8, 2.0))
        # the cusp reading sits near 2 delta - 1, clearly above delta
        assert 1.2 < est.slope < 2.0

    def test_gmf_drift_is_flat(self, gasket):
        _, _, _, family, mu, delta = gasket
        ctx = ps.GMFContext(delta=delta, family=family)
        report = ps.gmf_drift(ctx, mu, n_samples=120, t_range=(2.0, 4.5), seed=0)
        assert abs(report.slope) < 0.25

    def test_witness_escape_guarantee(self, gasket):
        g, _, cusps, family, _, delta = gasket
        cusp, _ = deepest_cusp(cusps, family)
        ctx = ps.GMFContext(delta=delta, family=family)
        spans = []
        for n in (4, 8, 16):
            z, t, T = ps.ureg_witness(g, cusp, n, family)
            assert T > t > 0
            _, rho = ps.k_and_rho(ctx, z, t)
            assert rho >= T - t - 1.0 - 1e-9
            spans.append(T - t)
        assert spans[0] < spans[1] < spans[2]

    def test_squeeze_mass_decay(self, gasket):
        _, _, cusps, family, mu, delta = gasket
        cusp, size = deepest_cusp(cusps, family)
        ctx = ps.GMFContext(delta=delta, family=family)
        H = hg.Horoball(cusp.point, size, cusp.rank)
        rows = ps.squeeze_mass_check(ctx, mu, H)
        assert len(rows) == 4
        radii = [r.shadow_radius for r in rows]
        masses = [r.mass for r in rows]
        assert all(a > b for a, b in zip(radii, masses and radii[1:]))
        assert all(a > b for a, b in zip(masses, masses[1:]))
        assert all(r.ratio > 0 for r in rows)

    def test_horoball_sum_bounded(self, gasket):
        _, _, _, family, mu, delta = gasket
        ctx = ps.GMFContext(delta=delta, family=family)
        rng = np.random.default_rng(2)
        idx = rng.choice(mu.n, size=30, p=mu.weights)
        for i in idx:
            x = mu.coords[i]
            t = float(rng.uniform(1.0, 2.5))
            T = t + float(rng.uniform(2.0, 4.0))
            total = ps.horoball_sum(ctx, x, t, T)
            mass = ps.ball_mass(mu, x, math.exp(-t))
            assert total <= 10.0 * (T - t) * mass
