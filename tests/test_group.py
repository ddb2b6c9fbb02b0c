"""Tests for group presentations, orbit enumeration, cusps, horoballs."""

import math

import numpy as np
import pytest

import kleindim.hypgeom as hg
from kleindim import group as gr


def brute_force_elements(group, max_len):
    """Reduced-word enumeration with exact byte keys, python-side.

    Independent of the vectorized walk: composes MobiusMap objects one
    letter at a time and deduplicates with the exact canonical key.
    """
    letters = []
    for g in group.generators:
        letters.append(g)
        letters.append(g.inverse())
    seen = {hg.identity_map().key(): hg.identity_map()}
    frontier = [(hg.identity_map(), -1)]
    for _ in range(max_len):
        nxt = []
        for w, last in frontier:
            for j, a in enumerate(letters):
                if last >= 0 and j == last ^ 1:
                    continue
                wa = w @ a
                k = wa.key()
                if k not in seen:
                    seen[k] = wa
                    nxt.append((wa, j))
        frontier = nxt
    return seen


class TestEnumeration:
    def test_schottky_free_group_counts(self):
        g = gr.builtin_group("schottky")
        orb = gr.enumerate_orbit(g, max_word_length=2)
        assert orb.n == 17  # 1 + 4 + 12 for a rank-2 free group
        hist = np.bincount(orb.word_lengths)
        assert hist.tolist() == [1, 4, 12]
        orb3 = gr.enumerate_orbit(g, max_word_length=3)
        assert orb3.n == 53  # adds 36 reduced words of length 3

    def test_dedup_matches_exact_keys(self):
        for name, max_len in [("schottky", 3), ("apollonian", 3)]:
            g = gr.builtin_group(name)
            exact = brute_force_elements(g, max_len)
            orb = gr.enumerate_orbit(g, max_word_length=max_len)
            assert orb.n == len(exact)
            keys = {hg.MobiusMap(m).key() for m in orb.matrices}
            assert keys == set(exact.keys())

    def test_orbit_dists_match_scalar_distance(self):
        g = gr.builtin_group("apollonian")
        orb = gr.enumerate_orbit(g, max_word_length=3)
        base = hg.origin(2)
        rng = np.random.default_rng(7)
        for i in rng.choice(orb.n, size=25, replace=False):
            gm = hg.MobiusMap(orb.matrices[i])
            expected = hg.hyp_distance(base, hg.apply(gm, base))
            assert abs(orb.dists[i] - expected) < 1e-9

    def test_orbit_points_match_scalar_action(self):
        g = gr.builtin_group("apollonian")
        orb = gr.enumerate_orbit(g, max_word_length=2)
        w, h = orb.orbit_points()
        base = hg.origin(2)
        for i in range(orb.n):
            pt = hg.apply(hg.MobiusMap(orb.matrices[i]), base)
            assert abs(complex(pt.coords[0], pt.coords[1]) - w[i]) < 1e-12
            assert abs(pt.coords[2] - h[i]) < 1e-12

    def test_prune_agrees_with_unpruned_walk(self):
        g = gr.builtin_group("apollonian")
        full = gr.enumerate_orbit(g, max_word_length=8)
        full_keys = {
            hg.MobiusMap(m).key()
            for m, dist in zip(full.matrices, full.dists)
            if dist <= 5.0
        }
        pruned = gr.enumerate_orbit(g, max_dist=5.0)
        pruned_keys = {hg.MobiusMap(m).key() for m in pruned.matrices}
        # the pruned walk reaches longer words, so it may find more
        assert full_keys <= pruned_keys
        assert pruned.t_valid == 5.0
        assert not pruned.truncated

    def test_budget_truncation_reports_horizon(self):
        g = gr.builtin_group("apollonian")
        orb = gr.enumerate_orbit(g, max_dist=9.0, max_elements=500)
        assert orb.truncated
        assert orb.t_valid < 9.0
        # everything below the horizon must really be there
        ref = gr.enumerate_orbit(g, max_dist=orb.t_valid)
        have = {hg.MobiusMap(m).key() for m in orb.matrices}
        want = {hg.MobiusMap(m).key() for m in ref.matrices}
        assert want <= have

    def test_word_length_budget(self):
        g = gr.builtin_group("schottky")
        orb = gr.enumerate_orbit(g, max_dist=50.0, max_word_length=2)
        assert orb.n == 17
        assert orb.truncated

    def test_keep_words(self):
        g = gr.builtin_group("schottky")
        orb = gr.enumerate_orbit(g, max_word_length=2, keep_words=True)
        assert len(orb.words) == orb.n
        for word, length in zip(orb.words, orb.word_lengths):
            assert len(word) == length
            assert all(letter < 4 for letter in word)
            # freely reduced: no letter followed by its inverse
            assert all(
                word[i + 1] != word[i] ^ 1 for i in range(len(word) - 1)
            )

    def test_requires_some_budget(self):
        g = gr.builtin_group("schottky")
        with pytest.raises(ValueError):
            gr.enumerate_orbit(g)

    def test_nondiscrete_guard(self):
        t1 = hg.MobiusMap(np.array([[1.0, 1e-3], [0.0, 1.0]]))
        t2 = hg.MobiusMap(np.array([[1.0, 1e-3 * math.pi], [0.0, 1.0]]))
        g = gr.GroupPresentation((t1, t2), d=1, name="dense")
        with pytest.raises(gr.NonDiscreteError):
            gr.enumerate_orbit(g, max_dist=4.0)


class TestPresentations:
    def test_apollonian_generators_are_the_dual_tangencies(self):
        g = gr.builtin_group("apollonian")
        expected = [-1.0 + 0j, 1j, (1 + 2j) / 5, 0j]
        for gen, point in zip(g.generators, expected):
            cl = hg.classify(gen, d=2)
            assert cl.kind is hg.IsometryClass.PARABOLIC
            assert not cl.ambiguous
            fp = cl.fixed_points[0]
            assert abs(complex(fp.coords[0], fp.coords[1]) - point) < 1e-12

    def test_apollonian_fourth_generator_matrix(self):
        g = gr.builtin_group("apollonian")
        ref = hg.MobiusMap(np.array([[1.0, 0.0], [-4.0j, 1.0]]))
        assert g.generators[3].key() == ref.key()

    def test_validation_rejects_identity_and_complex_for_d1(self):
        with pytest.raises(ValueError):
            gr.GroupPresentation((hg.identity_map(),), d=1)
        rot = hg.MobiusMap(np.array([[1.0, 1.0j], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            gr.GroupPresentation((rot,), d=1)

    def test_schottky_circle_validation(self):
        with pytest.raises(ValueError):
            gr.builtin_group("schottky", separation=1.5)

    def test_infinite_fuchsian_harmonic_centers(self):
        g = gr.builtin_group("infinite_fuchsian", alpha=0.1, beta=0.5, n_circles=6)
        # beta = 1/2 gives gamma = 1 and centers 1, 1/2, 1/3, ...
        assert g.n_generators == 5
        assert g.metadata["parabolic_free"]
        assert not g.metadata["geometrically_finite"]
        assert g.metadata["fixed_point_sampling"]
        assert g.metadata["resolution_floor"] > 0
        for k, gen in enumerate(g.generators, start=2):
            cl = hg.classify(gen, d=1)
            assert cl.kind is hg.IsometryClass.HYPERBOLIC_LOXODROMIC
            fps = [p.coords[0] for p in cl.fixed_points if not p.is_infinity]
            # one fixed point inside the circle at 1/k, one inside C_1
            assert any(abs(x - 1.0 / k) < 0.05 for x in fps)
            assert any(abs(x - 1.0) < 0.05 for x in fps)

    def test_infinite_fuchsian_circles_disjoint(self):
        g = gr.builtin_group("infinite_fuchsian", n_circles=50)
        gamma = 1.0 / g.metadata["beta"] - 1.0
        ks = np.arange(1, 51, dtype=float)
        xs = ks**-gamma
        alpha = g.metadata["alpha"]
        gaps = xs[:-1] - xs[1:]
        r = np.empty(50)
        for i in range(50):
            bound = math.exp(-(i + 1.0))
            if i > 0:
                bound = min(bound, gaps[i - 1] / 4.0)
            if i < 49:
                bound = min(bound, gaps[i] / 4.0)
            r[i] = alpha * bound
        for i in range(50):
            for j in range(i + 1, 50):
                assert abs(xs[i] - xs[j]) > r[i] + r[j]

    def test_unknown_builtin(self):
        with pytest.raises(ValueError):
            gr.builtin_group("nonexistent")


class TestCusps:
    def test_rank2_lattice_detected(self):
        g = gr.builtin_group("rank2_cusp")
        orb = gr.enumerate_orbit(g, max_dist=6.0)
        cs = gr.find_cusps(orb)
        assert len(cs.cusps) == 1
        assert cs.cusps[0].point.is_infinity
        assert cs.k_min == cs.k_max == 2

    def test_rank1_fuchsian_cusp(self):
        g = gr.builtin_group("parabolic_cusp_fuchsian")
        orb = gr.enumerate_orbit(g, max_dist=7.0)
        cs = gr.find_cusps(orb)
        assert len(cs.cusps) == 1
        assert cs.k_min == cs.k_max == 1
        assert cs.cusps[0].point.is_infinity
        cl = hg.classify(cs.cusps[0].generator, d=1)
        assert cl.kind is hg.IsometryClass.PARABOLIC

    def test_apollonian_root_tangencies_found(self):
        g = gr.builtin_group("apollonian")
        orb = gr.enumerate_orbit(g, max_dist=7.0)
        cs = gr.find_cusps(orb)
        assert cs.k_min == cs.k_max == 1
        points = [
            complex(cu.point.coords[0], cu.point.coords[1]) for cu in cs.cusps
        ]
        for root in (-1.0, 1.0, 1j, 0.0, (1 + 2j) / 5, (-1 + 2j) / 5):
            assert min(abs(p - root) for p in points) < 1e-9

    def test_parabolic_free_group_has_no_cusps(self):
        g = gr.builtin_group("schottky")
        orb = gr.enumerate_orbit(g, max_dist=8.0)
        cs = gr.find_cusps(orb)
        assert not cs.has_cusps
        assert cs.k_min is None and cs.k_max is None


class TestHoroballs:
    def test_image_sizes_match_scalar_oracle(self):
        rng = np.random.default_rng(11)
        p = 0.3 + 0.7j
        ball = hg.Horoball(hg.BoundaryPoint(hg.HALFSPACE, (p.real, p.imag)), 1.0)
        for _ in range(30):
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            if abs(np.linalg.det(m)) < 0.1:
                continue
            g = hg.MobiusMap(m)
            den = g.matrix[1, 0] * p + g.matrix[1, 1]
            if abs(den) < 0.1:
                continue
            img = hg.apply_horoball(g, ball, d=2)
            fb, fs, ih = gr._horoball_images(g.matrix[None], p)
            assert len(fs) == 1 and len(ih) == 0
            got = complex(img.base.coords[0], img.base.coords[1])
            assert abs(got - fb[0]) < 1e-9 * max(1.0, abs(fb[0]))
            assert abs(img.size - fs[0]) < 1e-9 * fs[0]

    def test_image_at_pole_becomes_plane(self):
        p = 0.25 - 0.5j
        ball = hg.Horoball(hg.BoundaryPoint(hg.HALFSPACE, (p.real, p.imag)), 1.0)
        q = hg._mobius_to_infinity(p)
        img = hg.apply_horoball(q, ball, d=2)
        assert img.base.is_infinity
        fb, fs, ih = gr._horoball_images(q.matrix[None], p)
        assert len(fs) == 0 and len(ih) == 1
        assert abs(img.size - ih[0]) < 1e-12

    def test_apollonian_family_disjoint_and_self_healed(self):
        g = gr.builtin_group("apollonian")
        orb = gr.enumerate_orbit(g, max_dist=7.0)
        cs = gr.find_cusps(orb)
        fam = gr.standard_horoballs(orb, cs)
        # detection over-splits at the enumeration boundary; construction
        # must merge back down to the six root tangency orbits
        assert fam.n_references == 6
        assert fam.theta <= 1.0
        assert math.log2(1.0 / fam.theta) == int(math.log2(1.0 / fam.theta))
        assert fam.inf_height is None
        assert set(np.unique(fam.ranks)) == {1}
        # brute-force disjointness among the largest members
        idx = np.argsort(fam.sizes)[::-1][:300]
        b, s = fam.bases[idx], fam.sizes[idx]
        for i in range(len(idx)):
            d2 = np.abs(b[i + 1 :] - b[i]) ** 2
            assert np.all(s[i] * s[i + 1 :] <= d2 * (1.0 + 1e-6))

    def test_deepest_membership_against_scalar(self):
        g = gr.builtin_group("apollonian")
        orb = gr.enumerate_orbit(g, max_dist=6.0)
        fam = gr.standard_horoballs(orb)
        balls = fam.to_horoballs(min_size=1e-3)
        rng = np.random.default_rng(3)
        w = rng.uniform(-1, 1, 40) + 1j * rng.uniform(-1, 1, 40)
        h = rng.uniform(0.001, 0.5, 40)
        depth, _ = fam.deepest(w, h)
        for i in range(40):
            x = hg.InteriorPoint(hg.HALFSPACE, (w[i].real, w[i].imag, h[i]))
            best = 0.0
            for ball in balls:
                if hg.horoball_contains(ball, x):
                    best = max(best, hg.escape_depth(x, ball))
            if best > 0 or depth[i] > 0:
                assert abs(best - depth[i]) < 1e-9

    def test_infinity_family_for_lattice_cusp(self):
        g = gr.builtin_group("rank2_cusp")
        orb = gr.enumerate_orbit(g, max_dist=8.0)
        fam = gr.standard_horoballs(orb)
        assert fam.inf_height is not None
        assert fam.inf_rank == 2
        # plane plus finite images under words through the loxodromic part
        assert len(fam.sizes) > 0
        depth, rank = fam.deepest(np.array([0.0j]), np.array([4.0 * fam.inf_height]))
        assert abs(depth[0] - math.log(4.0)) < 1e-12
        assert rank[0] == 2

    def test_no_cusps_raises(self):
        g = gr.builtin_group("schottky")
        orb = gr.enumerate_orbit(g, max_dist=6.0)
        with pytest.raises(gr.CuspDetectionError):
            gr.standard_horoballs(orb)


class TestSampling:
    def test_apollonian_cloud_lies_in_the_disk(self):
        g = gr.builtin_group("apollonian")
        cloud = gr.sample_limit_set(g, target_resolution=0.05)
        assert cloud.d == 2
        assert cloud.resolution == 0.05
        # a 0.05-net of the gasket needs on the order of 20^1.3 points
        assert cloud.n > 30
        radii = np.hypot(cloud.coords[:, 0], cloud.coords[:, 1])
        assert radii.max() < 1.0 + 2 * 0.05
        assert cloud.meta["n_orbit"] > 0

    def test_fuchsian_cloud_is_one_dimensional(self):
        g = gr.builtin_group("schottky")
        cloud = gr.sample_limit_set(g, target_resolution=0.01)
        assert cloud.coords.shape[1] == 1
        # thin Cantor set (small growth exponent): a 0.01-net is small but
        # must hit all four circles
        assert cloud.n >= 4
        centers = np.array([-4.5, -1.5, 1.5, 4.5])
        dist = np.abs(cloud.coords - centers[None, :]).min(axis=1)
        assert dist.max() <= 1.0 + 1e-6
        assert len(np.unique(np.abs(cloud.coords - centers[None, :]).argmin(axis=1))) == 4

    def test_bounded_model_conjugation(self):
        g = gr.builtin_group("parabolic_cusp_fuchsian")
        assert g.metadata["gap_point"] == 1.0
        bg, q = gr.bounded_model(g)
        assert bg.d == 1
        assert "gap_point" not in bg.metadata
        cloud = gr.sample_limit_set(bg, target_resolution=0.01)
        # growth exponent below 1, so a 0.01-net holds a few dozen points
        assert cloud.n > 10
        # the gap point went to infinity; everything else stays bounded
        assert np.abs(cloud.coords).max() < 25.0

    def test_infinite_fuchsian_skeleton_present(self):
        g = gr.builtin_group("infinite_fuchsian", n_circles=40)
        orb = gr.enumerate_orbit(g, max_word_length=2)
        cloud = gr.sample_limit_set(g, target_resolution=1e-4, orbit=orb)
        assert cloud.meta["n_fixed_points"] > 0
        gamma = 1.0 / g.metadata["beta"] - 1.0
        xs = np.arange(2, 41, dtype=float) ** -gamma
        for x in xs:
            assert np.abs(cloud.coords[:, 0] - x).min() < 0.01
        assert cloud.resolution >= g.metadata["resolution_floor"]

    def test_resolution_validation(self):
        g = gr.builtin_group("schottky")
        with pytest.raises(ValueError):
            gr.sample_limit_set(g, target_resolution=2.0)
