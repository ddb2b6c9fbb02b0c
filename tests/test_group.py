"""Tests for group presentations, orbit enumeration, cusps, horoballs."""

import ast
import cProfile
import hashlib
import math
import os
import sys
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from scipy.spatial import cKDTree

import kleindim.cli as cli
import kleindim.hypgeom as hg
from kleindim import group as gr
from kleindim.pipeline import Pipeline


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


def _shrink_loop_theta(bases, sizes):
    """The squeeze by repeated overlap scans, one per candidate theta."""
    worst = gr._max_overlap_ratio(bases, sizes)
    base_ratio = float((sizes / (1.0 + np.abs(bases) ** 2)).max()) if len(sizes) else 0.0
    m = 0
    if worst > 1.0 + 1e-6:
        m = math.ceil(math.log(worst) / math.log(4.0))
    if base_ratio > 1.0 - 1e-6:
        m = max(m, 1, math.ceil(math.log2(base_ratio / (1.0 - 1e-6))))
    while m <= 40:
        theta = 2.0**-m if m else 1.0
        ok = gr._max_overlap_ratio(bases, sizes * theta) <= 1.0 + 1e-6
        if len(sizes):
            ok &= float((sizes * theta / (1.0 + np.abs(bases) ** 2)).max()) <= 1.0 - 1e-6
        if ok:
            return theta
        m += 1
    raise AssertionError("no theta down to 2^-40")


def _spy_scans(monkeypatch):
    """Record (squeezed sizes, result) of every overlap scan."""
    calls = []
    scan = gr._max_overlap_ratio

    def spy(bases, sizes):
        out = scan(bases, sizes)
        calls.append((sizes.copy(), out))
        return out

    monkeypatch.setattr(gr, "_max_overlap_ratio", spy)
    return calls


def _squeeze_input(monkeypatch, name, dist):
    """The raw (bases, sizes) that standard_horoballs squeezes."""
    got = []
    squeeze = gr._squeeze_theta

    def recorded(bases, sizes):
        got.append((bases.copy(), sizes.copy()))
        return squeeze(bases, sizes)

    with monkeypatch.context() as mp:
        mp.setattr(gr, "_squeeze_theta", recorded)
        orb = gr.enumerate_orbit(gr.builtin_group(name), dist)
        gr.standard_horoballs(orb, gr.find_cusps(orb))
    return got[0]


def _kd_tree_bins(bases, sizes):
    """The size bands of ``gr._size_band_grids`` on scipy's KD trees:
    (tree, member indices, s_max) per band, from the smallest."""
    bins = []
    band = np.floor(np.log2(sizes) / gr.BAND_OCTAVES).astype(int)
    for o in np.unique(band):
        idx = np.flatnonzero(band == o)
        b = bases[idx]
        top = float(2.0 ** (gr.BAND_OCTAVES * (o + 1)))
        bins.append((cKDTree(np.column_stack([b.real, b.imag])), idx, top))
    return bins


def _oracle_overlap_ratio(bases, sizes):
    """``gr._max_overlap_ratio`` on KD trees: every pair within the
    geometric mean of two bands' tops, found by the trees' ball
    searches, and the ratio of each by one formula."""
    worst = 0.0
    if len(sizes) < 2:
        return worst
    bins = _kd_tree_bins(bases, sizes)
    for bi, (tree_i, idx_i, smax_i) in enumerate(bins):
        for tree_j, idx_j, smax_j in bins[bi:]:
            r = math.sqrt(smax_i * smax_j) * (1.0 + 1e-12)
            if tree_j is tree_i:
                pairs = tree_i.query_pairs(r, output_type="ndarray")
                gi, gj = idx_i[pairs[:, 0]], idx_i[pairs[:, 1]]
            else:
                pairs = tree_i.sparse_distance_matrix(tree_j, r, output_type="ndarray")
                gi, gj = idx_i[pairs["i"]], idx_j[pairs["j"]]
            if not len(gi):
                continue
            d = bases[gi] - bases[gj]
            d2 = d.real * d.real + d.imag * d.imag
            if (d2 == 0.0).any():
                return math.inf
            worst = max(worst, float((sizes[gi] * sizes[gj] / d2).max()))
    return worst


def _oracle_deepest(fam, w, h):
    """``HoroballFamily.deepest`` as first written: one KD-tree ball
    query and one argmax per point and size band."""
    depth = np.zeros(len(w))
    rank = np.zeros(len(w), dtype=np.int32)
    pts = np.column_stack([w.real, w.imag])
    for tree, idx, s_max in _kd_tree_bins(fam.bases, fam.sizes):
        radii = np.sqrt(np.maximum(s_max * h, 0.0))
        for i in np.flatnonzero(h <= s_max):
            hits = tree.query_ball_point(pts[i], radii[i])
            if not hits:
                continue
            gi = idx[hits]
            q = np.abs(fam.bases[gi] - w[i]) ** 2 + h[i] ** 2
            val = fam.sizes[gi] * h[i] / q
            j = int(np.argmax(val))
            if val[j] > 1.0 and math.log(val[j]) > depth[i]:
                depth[i] = math.log(val[j])
                rank[i] = fam.ranks[gi[j]]
    return depth, rank


def _deepest_probes(fam):
    """Points around the 200 largest members, as (sideways shift,
    height) in diameters: near the top and half-way up off-centre
    (inside), low beside the base and out to the side (outside); then a
    grid over the chart."""
    top = np.argsort(fam.sizes)[-200:]
    offsets = ((0.0, 0.999), (0.3, 0.5), (0.5j, 0.05), (-0.6, 0.3))
    w = np.concatenate([fam.bases[top] + dx * fam.sizes[top] for dx, _ in offsets])
    h = np.concatenate([fam.sizes[top] * f for _, f in offsets])
    axis = np.linspace(-1.2, 1.2, 13)
    gx, gy, gh = np.meshgrid(axis, axis, [0.01, 0.1, 0.4])
    return np.concatenate([w, (gx + 1j * gy).ravel()]), np.concatenate([h, gh.ravel()])


def _oracle_dedup(bases, sizes, ref_of):
    """The two-pass base dedup as first written: full-width copies of
    every column per pass.  Kept as the oracle of the lean rewrite."""
    idx = np.arange(len(bases))
    for frac in (0.0, 0.5):
        res = _oracle_dedup_pass(bases[idx], sizes[idx], ref_of[idx], frac)
        if isinstance(res, tuple):
            return res
        idx = idx[res]
    return idx


def _oracle_dedup_pass(bases, sizes, ref_of, frac):
    c0 = np.floor(bases.real / gr.DEDUP_GRID + frac)
    c1 = np.floor(bases.imag / gr.DEDUP_GRID + frac)
    if len(c0) and max(np.abs(c0).max(), np.abs(c1).max()) > 4.0e18:
        raise gr.CuspDetectionError("horoball base beyond the integer grid range")
    c0i = c0.astype(np.int64)
    c1i = c1.astype(np.int64)
    order = np.lexsort((-sizes, c1i, c0i))
    oc0, oc1, os_ = c0i[order], c1i[order], sizes[order]
    new_group = np.ones(len(order), dtype=bool)
    if len(order) > 1:
        new_group[1:] = (oc0[1:] != oc0[:-1]) | (oc1[1:] != oc1[:-1])
    gid = np.cumsum(new_group) - 1
    lead_rows = np.flatnonzero(new_group)
    lead_size = os_[lead_rows][gid]
    dup = np.abs(os_ - lead_size) <= gr.DEDUP_SIZE_REL_TOL * lead_size
    conflict = ~new_group & ~dup & (os_ > 1e-9) & (lead_size > 1e-9)
    if conflict.any():
        pairs = set()
        for row in np.flatnonzero(conflict):
            lead_row = int(lead_rows[gid[int(row)]])
            pairs.add((int(ref_of[order[lead_row]]), int(ref_of[order[int(row)]])))
        return ("merge", sorted(pairs))
    keep = order[new_group | ~dup]
    keep.sort()
    return keep


def _assert_same_dedup(got, want):
    if isinstance(want, tuple):
        assert got == want
    else:
        assert not isinstance(got, tuple)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def _walk_bytes(orb):
    return (
        orb.matrices.tobytes(),
        orb.dists.tobytes(),
        orb.word_lengths.tobytes(),
        orb.t_valid,
        orb.truncated,
    )


class _OracleUnionFind:
    """Union-find whose roots are the smallest member of each set."""

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, i):
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i, j):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)

    def labels(self):
        return [self.find(i) for i in range(len(self.parent))]


class _OracleGridIndex:
    """Hash grid over the plane: a point is found by the first inserted
    point within tol in its own or a neighbouring cell."""

    def __init__(self, tol):
        self.tol = tol
        self.cells = {}
        self.points = []

    def _cell(self, z):
        return (int(math.floor(z.real / self.tol)), int(math.floor(z.imag / self.tol)))

    def find(self, z):
        cx, cy = self._cell(z)
        for nx in (cx - 1, cx, cx + 1):
            for ny in (cy - 1, cy, cy + 1):
                for idx in self.cells.get((nx, ny), ()):
                    if abs(self.points[idx] - z) <= self.tol:
                        return idx
        return -1

    def insert(self, z):
        idx = len(self.points)
        self.points.append(z)
        self.cells.setdefault(self._cell(z), []).append(idx)
        return idx


def _oracle_find_cusps(orbit):
    """Cusp detection as first written: a python loop over the
    parabolics, clustered greedily around the first fixed point within
    CUSP_CLUSTER_TOL, with generator images looked up in the same grid.
    Kept as the oracle of the vectorized cell-rule rewrite."""
    group = orbit.group
    m = orbit.matrices
    tr2 = (m[:, 0, 0] + m[:, 1, 1]) ** 2
    para = (orbit.word_lengths > 0) & (np.abs(tr2 - 4.0) <= hg.PARABOLIC_TOL)
    para &= np.abs(m - np.eye(2)).max(axis=(1, 2)) > 1e-9
    pm, pd, plen = m[para], orbit.dists[para], orbit.word_lengths[para]
    n_para = len(pm)
    if n_para == 0:
        return gr.CuspSummary((), None, None, 0, orbit.truncated)
    a, c, dd = pm[:, 0, 0], pm[:, 1, 0], pm[:, 1, 1]
    at_inf = np.abs(c) <= hg.ENTRY_TOL * np.abs(pm).max(axis=(1, 2))
    fp = np.zeros(n_para, dtype=complex)
    fin = ~at_inf
    fp[fin] = (a[fin] - dd[fin]) / (2.0 * c[fin])

    cluster_of = np.empty(n_para, dtype=np.int64)
    members, cluster_ids, inf_id = [], {}, -1
    grid = _OracleGridIndex(gr.CUSP_CLUSTER_TOL)
    for i in range(n_para):
        if at_inf[i]:
            if inf_id < 0:
                inf_id = len(members)
                members.append([])
            cluster_of[i] = inf_id
            members[inf_id].append(i)
            continue
        idx = grid.find(complex(fp[i]))
        if idx < 0:
            idx = grid.insert(complex(fp[i]))
            cluster_ids[idx] = len(members)
            members.append([])
        cluster_of[i] = cluster_ids[idx]
        members[cluster_ids[idx]].append(i)
    reps = [None if cl == inf_id else complex(fp[mem[0]]) for cl, mem in enumerate(members)]

    uf = _OracleUnionFind(len(members))
    for gm in gr._generator_stack(group):
        ga, gb, gc, gd = gm[0, 0], gm[0, 1], gm[1, 0], gm[1, 1]
        gscale = float(np.abs(gm).max())
        den = gc * fp + gd
        ok = np.abs(den) > 1e-13 * gscale * np.maximum(1.0, np.abs(fp))
        img = (ga * fp + gb) / np.where(ok, den, 1.0)
        inf_img = None if abs(gc) < 1e-13 * gscale else complex(ga / gc)
        for i in range(n_para):
            if at_inf[i]:
                z = inf_img
            else:
                z = complex(img[i]) if ok[i] else None
            if z is None:
                tgt = inf_id
            else:
                gi = grid.find(z)
                tgt = cluster_ids.get(gi, -1) if gi >= 0 else -1
            if tgt >= 0:
                uf.union(int(cluster_of[i]), tgt)

    comps = {}
    for cl in range(len(members)):
        comps.setdefault(uf.find(cl), []).append(cl)
    cusps = []
    for comp in comps.values():
        elems = [i for cl in comp for i in members[cl]]
        rank = 1
        for cl in comp if group.d == 2 else ():
            sel = [members[cl][int(k)] for k in np.lexsort((pd[members[cl]],))[: gr.RANK_SAMPLE]]
            taus = []
            p = reps[cl]
            if p is None:
                q = qi = np.eye(2, dtype=complex)
            else:
                q = np.array([[0.0, -1.0], [1.0, -p]], dtype=complex)
                qi = np.array([[-p, 1.0], [-1.0, 0.0]], dtype=complex)
            for mat in pm[sel]:
                u = q @ mat @ qi
                taus.append(complex(u[0, 1] / u[0, 0]))
            taus = np.asarray(taus)
            if len(taus) >= 2:
                ref = taus[np.argmax(np.abs(taus))]
                cross = np.abs((taus * ref.conjugate()).imag)
                if (cross > 1e-8 * np.abs(taus) * abs(ref)).any():
                    rank = 2
        best = min(elems, key=lambda i: (plen[i], pd[i]))
        if at_inf[best]:
            point = hg.infinity()
        elif group.d == 1:
            point = hg.BoundaryPoint((fp[best].real,))
        else:
            point = hg.BoundaryPoint((fp[best].real, fp[best].imag))
        cusps.append(gr.Cusp(point, rank, hg.MobiusMap(pm[best]), len(elems)))
    cusps.sort(key=lambda cu: (math.inf,) if cu.point.is_infinity else cu.point.coords)
    ranks = [cu.rank for cu in cusps]
    return gr.CuspSummary(tuple(cusps), min(ranks), max(ranks), n_para, orbit.truncated)


def _assert_same_cusps(got, want):
    assert (got.k_min, got.k_max, got.n_parabolics) == (want.k_min, want.k_max, want.n_parabolics)
    assert len(got.cusps) == len(want.cusps)
    for g, w in zip(got.cusps, want.cusps):
        assert (g.point, g.rank, g.n_conjugates) == (w.point, w.rank, w.n_conjugates)
        assert np.array_equal(g.generator.matrix, w.generator.matrix)


def _oracle_premerge_refs(mats, refs, grid=1e-8):
    """The reference premerge with every image packed and looked up, its
    cells folded into one 64-bit key.  Kept as the oracle of the
    bucket-prefiltered rewrite; returns its union-find."""
    uf = _OracleUnionFind(len(refs))
    pts = [p for p, _ in refs]
    if len(pts) < 2:
        return uf
    a, b = mats[:, 0, 0], mats[:, 0, 1]
    c, dd = mats[:, 1, 0], mats[:, 1, 1]
    scale = np.abs(mats).max(axis=(1, 2))

    def pack(w, frac):
        c0 = np.floor(w.real / grid + frac).astype(np.int64)
        c1 = np.floor(w.imag / grid + frac).astype(np.int64)
        return (c0 << np.int64(32)) | (c1 & np.int64(0xFFFFFFFF))

    targets = {}
    for frac in (0.0, 0.5):
        keys = pack(np.array(pts, dtype=complex), frac)
        order = np.argsort(keys)
        targets[frac] = (keys[order], order)
    for i, p in enumerate(pts):
        num, den = a * p + b, c * p + dd
        to_inf = np.abs(den) <= 1e-12 * scale
        w = num[~to_inf] / den[~to_inf]
        for frac in (0.0, 0.5):
            keys, owners = targets[frac]
            kk = pack(w, frac)
            pos = np.searchsorted(keys, kk)
            ok = pos < len(keys)
            hit = np.zeros(len(kk), dtype=bool)
            hit[ok] = keys[pos[ok]] == kk[ok]
            for j in np.unique(owners[pos[hit]]):
                uf.union(i, int(j))
    return uf


def _assert_same_premerge(mats, refs):
    # each reference's component label is the oracle's find(i), the
    # smallest reference of its set
    got = gr._premerge_refs(mats, refs)
    assert got.tolist() == _oracle_premerge_refs(mats, refs).labels()


def _kdtree_nearest_distance(z, pts):
    """The premerge's nearest-reference distance as first written, by a
    KD-tree query over the references."""
    tree = cKDTree(np.column_stack([pts.real, pts.imag]))
    return tree.query(np.column_stack([z.real, z.imag]))[0]


def _brute_overlap_ratio(bases, sizes):
    """max s_i s_j / |p_i - p_j|^2 over all pairs."""
    worst = 0.0
    for i in range(len(sizes)):
        d2 = np.abs(bases[i + 1 :] - bases[i]) ** 2
        if len(d2):
            worst = max(worst, float((sizes[i] * sizes[i + 1 :] / d2).max()))
    return worst


def _sha(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()[:16]


def _fold_digests(monkeypatch, name, rows, dist, **caps):
    """The digests of one walk at four shares of recent hashes, from a
    share of 0, which folds every level at once, to one that never
    folds; ``rows`` frontier rows per chunk, or the default chunks."""
    g = gr.builtin_group(name)
    if rows is not None:
        monkeypatch.setattr(gr, "EXPAND_PRODUCTS", rows * 2 * g.n_generators)
    got = set()
    for share in (0.0, gr.RECENT_SHARE, 0.5, math.inf):
        monkeypatch.setattr(gr, "RECENT_SHARE", share)
        orb = gr.enumerate_orbit(g, dist, **caps)
        got.add(_sha(orb.matrices, orb.dists, orb.word_lengths, orb.t_valid, orb.truncated))
    return got


# sha256 prefixes of (matrices, dists, word_lengths, t_valid) and of
# (bases, sizes, ranks, theta, n_references) from Pipeline(group, dist),
# recorded from the walk with a hash-ordered visited lookup and the
# premerge of every image (numpy 2.4, x86-64)
_PARENT_DIGESTS = {
    ("apollonian", 6.0): ("b996f796b839ddae", "690a996fa1f8407e"),
    ("apollonian", 7.0): ("2d58022db3fdf50f", "54c3e9b8492a9829"),
    ("apollonian", 8.0): ("78b97e0f5afc51dc", "b0930097555004ba"),
    ("apollonian", 9.5): ("4e0ad71802a6fe82", "f972a310acdfe099"),
    # the measure side of the benchmark's deep fixture, recorded before
    # the walk and the family build were made to hold one copy at a time
    ("apollonian", 10.5): ("439edd85b52cacb1", "f0e23aa1c1e25c55"),
    ("rank2_cusp", 8.0): ("a380324afc9062e3", "f27bed979a524601"),
    ("parabolic_cusp_fuchsian", 8.0): ("f968cef343c28a69", "994db9718ec1aacf"),
}

# sha256 prefixes of Pipeline(group, dist).cloud's (coords, resolution)
# and .measure's (coords, weights, resolution) for the _PARENT_DIGESTS
# cases, recorded while group kept its own copies of the radial
# projection and fixed-point arithmetic (numpy 2.4, x86-64); apollonian
# at 6.0 holds no orbit point deep enough to sample
_PARENT_CLOUD_DIGESTS = {
    ("apollonian", 6.0): (None, "3224e9899677c32c"),
    ("apollonian", 7.0): ("6a9c3ddab2327ff4", "e764da28f5e1ca52"),
    ("apollonian", 8.0): ("2fb4c884f1db4809", "91da1b828c196955"),
    ("apollonian", 9.5): ("c08eccbf30c01768", "7605b82357db0d9e"),
    ("apollonian", 10.5): ("ffe2e94181869e5a", "605e6f1769bca1ec"),
    ("rank2_cusp", 8.0): ("8f5cc474035f48c9", "c9955fc419d67b3c"),
    ("parabolic_cusp_fuchsian", 8.0): ("68116a0cacf89a53", "7ce5d1ca8ee48c10"),
}

# the same record of sample_limit_set's default clouds of
# infinite_fuchsian, the fixed-point-sampling path, by (group
# parameters, target resolution)
_PARENT_FIXED_POINT_CLOUD_DIGESTS = {
    ((), 1e-3): "f84d054fae0bf560",
    ((), 1e-2): "4c3bd181d460f026",
    ((("n_circles", 30),), 1e-3): "ce4e5e136cfae7ce",
    ((("alpha", 0.2), ("beta", 0.5), ("n_circles", 60)), 1e-3): "c840d318273afbed",
}


@pytest.fixture(scope="module")
def digest_pipelines():
    """Pipeline(group, dist) built through the family for every digest
    case, with the (matrices, references) its reference premerge saw."""
    built = {}
    premerge = gr._premerge_refs
    seen = []

    def recorded(mats, refs, *args):
        seen.append((mats, list(refs)))
        return premerge(mats, refs, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gr, "_premerge_refs", recorded)
        for name, dist in _PARENT_DIGESTS:
            p = Pipeline(gr.builtin_group(name), dist)
            p.family
            built[name, dist] = (p, seen.pop())
    return built


@pytest.fixture(scope="module")
def apollonian_walk_9():
    return gr.enumerate_orbit(gr.builtin_group("apollonian"), 9.0)


class TestEnumeration:
    @pytest.mark.parametrize("name, max_len", [("schottky", 7), ("parabolic_cusp_fuchsian", 8)])
    def test_free_group_counts(self, name, max_len):
        # a group free on two letters has 4 * 3^(n-1) reduced words of
        # length n, each a distinct element; longer words than these reach
        # entries beyond the key grid's clamp
        g, _ = gr.bounded_model(gr.builtin_group(name))
        orb = gr.enumerate_orbit(g, max_word_length=max_len)
        want = [1] + [4 * 3 ** (n - 1) for n in range(1, max_len + 1)]
        assert np.bincount(orb.word_lengths).tolist() == want

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

    def test_projections_are_the_one_point_projection(self):
        orb = gr.enumerate_orbit(gr.builtin_group("apollonian"), 6.0)
        w, h = orb.orbit_points()
        proj, finite = orb.boundary_projections()
        # the base point itself (word length 0) has no projection
        for i in np.flatnonzero(orb.word_lengths > 0):
            x = hg._interior_from_hs(complex(w[i]), float(h[i]), 2)
            want = hg._boundary_from_hs(complex(proj[i]) if finite[i] else None, 2)
            assert hg.boundary_project(x) == want

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

    @pytest.mark.parametrize("name, dist", [("apollonian", 8.0), ("parabolic_cusp_fuchsian", 11.0)])
    def test_walk_does_not_depend_on_chunk_size(self, monkeypatch, name, dist):
        # duplicates resolve to their first row-major occurrence, so the
        # chunking of a level is invisible in the output; the one- and
        # seven-row walks, a chunk per few frontier rows, go 2 less deep
        g = gr.builtin_group(name)
        n_letters = 2 * g.n_generators
        runs = [(1, dist - 2.0), (7, dist - 2.0), (200_000, dist)]
        wants = [_walk_bytes(gr.enumerate_orbit(g, depth)) for _, depth in runs]
        for (rows, depth), want in zip(runs, wants):
            monkeypatch.setattr(gr, "EXPAND_PRODUCTS", rows * n_letters)
            assert _walk_bytes(gr.enumerate_orbit(g, depth)) == want

    def test_gather_is_the_rows_of_the_concatenation(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            pieces = [rng.normal(size=(int(rng.integers(0, 9)), 2, 2)) for _ in range(5)]
            whole = np.concatenate(pieces)
            rows = np.flatnonzero(rng.random(len(whole)) < 0.5) if trial % 4 else None
            want = whole if rows is None else whole[rows]
            got = gr._gather(pieces, rows)
            assert got.tobytes() == want.tobytes() and got.shape == want.shape
            assert pieces == [None] * 5  # each piece is dropped once read

    @pytest.mark.memory
    def test_walk_memory_is_one_level_at_a_time(self, traced_peak):
        # at distance 10 with the pipeline's slack, the walk that held the
        # expanded level, the new level's chunks, their concatenation
        # and its cross-chunk copy at once peaked at 6.1 times its
        # output; freeing the expanded level and gathering the new one
        # piece by piece reads 4.5
        peak, orb = traced_peak(gr.enumerate_orbit, gr.builtin_group("apollonian"), 10.0, slack=1.5)
        assert not orb.truncated
        assert peak < 5.0 * (orb.matrices.nbytes + orb.dists.nbytes + orb.word_lengths.nbytes)

    @pytest.mark.parametrize("rows", [7, None])
    @pytest.mark.parametrize("budget", [100, 500, 3000, 20_000])
    def test_truncated_walk_is_complete_below_its_horizon(
        self, monkeypatch, apollonian_walk_9, rows, budget
    ):
        g = gr.builtin_group("apollonian")
        full = apollonian_walk_9
        assert not full.truncated
        if rows is not None:
            monkeypatch.setattr(gr, "EXPAND_PRODUCTS", rows * 2 * g.n_generators)
        orb = gr.enumerate_orbit(g, 9.0, max_elements=budget)
        assert orb.truncated
        assert 0.0 <= orb.t_valid <= 9.0
        # every element of the untruncated walk inside the horizon is
        # there; with the unexpanded rows' smallest distance itself as
        # the horizon, the default chunks at a budget of 3000 miss four
        have = set(gr._key_hashes(orb.matrices).tolist())
        want = gr._key_hashes(full.matrices[full.dists <= orb.t_valid])
        assert set(want.tolist()) <= have

    def test_hashes_do_not_depend_on_the_block(self, monkeypatch):
        rng = np.random.default_rng(9)
        n = 3 * gr.HASH_BLOCK + 5
        mats = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
        mats *= 10.0 ** rng.uniform(-3, 3, size=(n, 1, 1))
        blocked = gr._key_hashes(mats)
        monkeypatch.setattr(gr, "HASH_BLOCK", n)
        assert blocked.tobytes() == gr._key_hashes(mats).tobytes()
        assert len(set(blocked.tolist())) == n

    def test_first_of_each_equals_unique(self):
        rng = np.random.default_rng(8)
        for n in (0, 1, 2, 7, 1000, 50_000):
            # few distinct values, spread over the whole int64 range
            keys = rng.integers(-20, 20, n) * np.int64(1 << 58) + rng.integers(0, 3, n)
            want_vals, want_first = np.unique(keys, return_index=True)
            vals, first = gr._first_of_each(keys)
            assert vals.tobytes() == want_vals.tobytes()
            assert first.dtype == want_first.dtype
            assert np.array_equal(first, want_first)

    @pytest.mark.parametrize(
        "name, rows, dist, budget, want",
        [
            ("parabolic_cusp_fuchsian", 3, 11.0, 500, "f3cb80a667347f82"),
            ("parabolic_cusp_fuchsian", 3, 11.0, 1000, "24bfe63867ba5d65"),
            ("parabolic_cusp_fuchsian", None, 11.0, 2_000_000, "a4a238f0f683c7b7"),
            ("apollonian", 7, 7.5, 500, "4068a6b9fcfe9faf"),
            ("apollonian", None, 9.0, 3000, "3efc9e1cd54e6fef"),
        ],
    )
    def test_walk_does_not_depend_on_when_recent_hashes_fold(
        self, monkeypatch, name, rows, dist, budget, want
    ):
        # digests recorded from the walk that merged every level into one
        # sorted array of all hashes.  A share of 0 folds every level at
        # once, as that walk did, and an infinite one never folds.  At the
        # default share parabolic_cusp_fuchsian's walk leaves levels
        # unfolded, and its budget of 1000 cuts a level while recent
        # hashes wait; apollonian's walk grows fast enough to fold at
        # every level
        assert _fold_digests(monkeypatch, name, rows, dist, max_elements=budget) == {want}

    @pytest.mark.parametrize(
        "name, rows, dist, budget, words, want",
        [
            # the budget binds at the start of level 1 (only the identity
            # is seen), exactly at the start of level 4 (397 seen) with
            # seven-row chunks, and exactly at the start of level 6
            # (10,615 seen) with one chunk per level
            ("apollonian", 7, 7.5, 1, None, "9c95b99668e386fa"),
            ("apollonian", 7, 7.5, 397, None, "d581dada0d87f075"),
            ("apollonian", None, 7.5, 10615, None, "dde0d8385d66f604"),
            # the budget binds mid-level 5, at its chunk from frontier row
            # 483 and, as chunk duplicates count, at its chunk from 2114
            ("apollonian", 7, 7.5, 5000, None, "82ceb93a5d84692e"),
            ("apollonian", 7, 7.5, 10615, None, "8ec9b091fba21290"),
            # the word-length cap binds at a level's first chunk: alone at
            # level 4, there together with the budget, at level 41 of a
            # walk that leaves recent hashes unfolded, and not at all when
            # the budget binds mid-level first
            ("apollonian", 7, 7.5, None, 3, "d581dada0d87f075"),
            ("apollonian", 7, 7.5, 397, 3, "d581dada0d87f075"),
            ("parabolic_cusp_fuchsian", 3, 11.0, None, 40, "c81d54e1cc8ca2e6"),
            ("apollonian", 7, 7.5, 5000, 6, "82ceb93a5d84692e"),
        ],
    )
    def test_one_stop_check_keeps_every_truncated_walk(
        self, monkeypatch, name, rows, dist, budget, words, want
    ):
        # digests recorded from the walk that checked its caps at each
        # level's start and, apart, before each later chunk of a level;
        # a budget of None is the default one
        caps = {"max_word_length": words}
        if budget is not None:
            caps["max_elements"] = budget
        assert _fold_digests(monkeypatch, name, rows, dist, **caps) == {want}

    def test_word_length_budget(self):
        g = gr.builtin_group("schottky")
        orb = gr.enumerate_orbit(g, max_dist=50.0, max_word_length=2)
        assert orb.n == 17
        assert orb.truncated

    def test_products_equal_einsum_on_random_chunks(self):
        rng = np.random.default_rng(5)
        for name in ("apollonian", "parabolic_cusp_fuchsian"):
            gens = gr._generator_stack(gr.builtin_group(name))
            k = len(gens)
            for rows in (1, 7, 2 * gr.PAIR_BLOCK // k + 3):
                chunk = rng.normal(size=(rows, 2, 2)) + 1j * rng.normal(size=(rows, 2, 2))
                # signed zeros in both planes, as real generators produce
                chunk.real[rng.random(chunk.shape) < 0.2] = -0.0
                chunk.imag[rng.random(chunk.shape) < 0.4] = -0.0
                oracle = np.einsum("fij,kjl->fkil", chunk, gens).reshape(-1, 2, 2)
                cols, planes = gr._columns(chunk), gr._letter_planes(gens)
                got = gr._pair_products(cols, planes, np.arange(rows * k))
                assert got.shape == oracle.shape
                assert got.tobytes() == oracle.tobytes()
                # a gathered subset, across block edges, in row-major order
                pick = np.flatnonzero(rng.random(rows * k) < 0.3)
                got = gr._pair_products(cols, planes, pick)
                assert got.tobytes() == oracle[pick].tobytes()

    def test_products_equal_einsum_near_overflow(self):
        rng = np.random.default_rng(6)
        gens = gr._generator_stack(gr.builtin_group("apollonian"))
        chunk = rng.normal(size=(500, 2, 2)) + 1j * rng.normal(size=(500, 2, 2))
        chunk *= 10.0 ** rng.uniform(150, 155, size=(500, 1, 1))
        oracle = np.einsum("fij,kjl->fkil", chunk, gens).reshape(-1, 2, 2)
        with np.errstate(over="ignore", invalid="ignore"):
            got = gr._pair_products(
                gr._columns(chunk), gr._letter_planes(gens), np.arange(len(oracle))
            )
            assert got.tobytes() == oracle.tobytes()
            kept_oracle = np.isfinite(gr._orbit_dists(oracle))
            kept = np.isfinite(gr._orbit_dists(got))
        # the walk drops the overflowing rows, and only those
        assert 0 < kept.sum() < len(kept)
        assert np.array_equal(kept, kept_oracle)

    def test_walk_equals_the_einsum_walk(self, monkeypatch):
        # the oracle multiplies every candidate, as einsum does, and
        # skips none
        g = gr.builtin_group("apollonian")
        orb = gr.enumerate_orbit(g, 8.0)
        gens = gr._generator_stack(g)

        def einsum_products(cols, planes, rows):
            mats = np.ascontiguousarray(cols.T).view(complex).reshape(-1, 2, 2)
            return np.einsum("fij,kjl->fkil", mats, gens).reshape(-1, 2, 2)[rows]

        monkeypatch.setattr(gr, "_pair_products", einsum_products)
        monkeypatch.setattr(gr, "_reach_cuts", lambda gens, dist: np.full(len(gens), np.inf))
        oracle = gr.enumerate_orbit(g, 8.0)
        assert orb.matrices.tobytes() == oracle.matrices.tobytes()
        assert orb.dists.tobytes() == oracle.dists.tobytes()
        assert np.array_equal(orb.word_lengths, oracle.word_lengths)

    @pytest.mark.parametrize("name", sorted(gr._BUILTINS))
    @pytest.mark.parametrize("dist", [12.0, 41.5])
    def test_prefilter_keeps_what_the_exact_test_keeps(self, name, dist):
        # frontier rows g with d(o, g o) at most the horizon, as the walk
        # has them: random ones spread below it, and ones lined up with a
        # letter a so that g a lands a hair either side of the horizon
        gens = gr._generator_stack(gr.bounded_model(gr.builtin_group(name))[0])
        rng = np.random.default_rng(int(dist * 10))

        def unitary(n):
            q, r = np.linalg.qr(rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2)))
            phase = np.diagonal(r, axis1=1, axis2=2)
            return q * (phase / np.abs(phase))[:, None]

        def stretch(t):
            d = np.zeros((len(t), 2, 2), dtype=complex)
            d[:, 0, 0], d[:, 1, 1] = np.exp(t / 2), np.exp(-t / 2)
            return d

        spread = unitary(4000) @ stretch(rng.uniform(dist - 6.0, dist, 4000)) @ unitary(4000)
        # a = U diag(e^(s/2), e^(-s/2)) V: g = W diag(e^(t/2), e^(-t/2)) U*
        # puts g a at distance s + t, for t = dist - s, and where that is
        # negative, g = W diag(e^(t/2), e^(-t/2)) U* puts it at s - |t|
        u, sv, _ = np.linalg.svd(gens)
        s = 2.0 * np.log(sv[:, 0])
        which = rng.integers(0, len(gens), 8000)
        t = dist - s[which] + rng.uniform(-1e-9, 1e-9, 8000) * dist
        lined = stretch(np.abs(t))
        lined[t < 0] = lined[t < 0][:, ::-1, ::-1]
        edge = unitary(8000) @ lined @ u[which].conj().transpose(0, 2, 1)
        frontier = np.concatenate([spread, edge[np.abs(t) <= dist]])
        frontier = frontier[gr._orbit_dists(frontier) <= dist]
        oracle = np.einsum("fij,kjl->fkil", frontier, gens).reshape(-1, 2, 2)
        with np.errstate(over="ignore", invalid="ignore"):
            d = gr._orbit_dists(oracle)
        exact = (d <= dist) & np.isfinite(d)
        near = gr._within_reach(
            gr._columns(frontier), gr._letter_forms(gens), gr._reach_cuts(gens, dist)
        ).ravel()
        assert exact.any() and not exact.all()
        # products within 1e-8 of the horizon on both sides
        assert ((d > dist) & (d < dist + 1e-8)).any() and (exact & (d > dist - 1e-8)).any()
        assert not (exact & ~near).any()
        # the estimate cuts: on letters of squared norm below 1e6 (all of
        # four builtins', none of infinite_fuchsian's, whose cuts leave
        # room for the rounding of entries up to 1e90) it keeps little
        # beyond what the exact test keeps
        small = np.tile((np.abs(gens) ** 2).sum(axis=(1, 2)) < 1e6, len(frontier))
        assert (near & small).sum() <= (exact & small).sum() + 0.01 * len(near)

    def test_nan_and_inf_estimates_reach_the_exact_test(self):
        gens = gr._generator_stack(gr.builtin_group("apollonian"))
        rows = np.array(
            [np.eye(2), np.full((2, 2), np.nan), np.eye(2) * 1e160, [[1e200, 0.0], [0.0, 1e-200]]],
            dtype=complex,
        )
        with np.errstate(over="ignore", invalid="ignore"):
            near = gr._within_reach(
                gr._columns(rows), gr._letter_forms(gens), gr._reach_cuts(gens, 10.0)
            )
        assert near.all()

    def test_word_length_walk_skips_nothing(self, monkeypatch):
        g = gr.builtin_group("apollonian")
        assert np.isinf(gr._reach_cuts(gr._generator_stack(g), math.inf)).all()
        within = gr._within_reach
        masks = []

        def spy(cols, forms, cut):
            near = within(cols, forms, cut)
            masks.append(near.copy())
            return near

        monkeypatch.setattr(gr, "_within_reach", spy)
        gr.enumerate_orbit(g, max_word_length=5)
        assert masks and all(m.all() for m in masks)

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


def test_every_element_budget_defaults_to_the_one_constant():
    # the walk's element budget has one default: no function of the
    # package gives a budget parameter a default but DEFAULT_BUDGET_WORDS,
    # which group alone defines, and the CLI's --budget-words reads it
    budgets = {"max_elements", "words"}

    def other_defaults(tree):
        found = []
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = fn.args
            params = a.posonlyargs + a.args
            pairs = list(zip(params[len(params) - len(a.defaults) :], a.defaults))
            pairs += [(p, d) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            for p, d in pairs:
                name = d.id if isinstance(d, ast.Name) else getattr(d, "attr", None)
                if p.arg in budgets and name != "DEFAULT_BUDGET_WORDS":
                    found.append(p.arg)
        return found

    package = os.path.dirname(os.path.abspath(gr.__file__))
    defined = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name)) as fh:
            tree = ast.parse(fh.read())
        assert not other_defaults(tree), name
        defined += [
            name
            for n in ast.walk(tree)
            if isinstance(n, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "DEFAULT_BUDGET_WORDS" for t in n.targets)
        ]
    assert defined == ["group.py"]
    assert cli._FLAGS["--budget-words"]["default"] is gr.DEFAULT_BUDGET_WORDS
    # the scan sees literal defaults, positional and keyword-only
    src = "def f(words=4_000_000, *, max_elements=gr.DEFAULT_BUDGET_WORDS, n=2): pass"
    assert other_defaults(ast.parse(src)) == ["words"]
    assert other_defaults(ast.parse("def f(*, max_elements=2_000_000): pass")) == ["max_elements"]


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

    def test_one_identity_tolerance(self):
        # within hg.IDENTITY_TOL of the identity, every entry point reads
        # the identity; just past it, a parabolic fixing infinity, which
        # cusp detection sees and refuses in the unbounded chart
        dilation = hg.MobiusMap(np.diag([2.0, 0.5]))
        for entries in ([[1.0, 5e-10], [0.0, 1.0]], [[1.0, 0.0], [5e-10, 1.0]]):
            near = hg.MobiusMap(np.array(entries))
            assert near.is_identity
            assert hg.classify(near).kind is hg.IsometryClass.IDENTITY
            assert hg.classify(near, 1).kind is hg.IsometryClass.IDENTITY
            with pytest.raises(ValueError, match="identity"):
                gr.GroupPresentation((near, dilation), d=1)
        past = hg.MobiusMap(np.array([[1.0, 2e-9], [0.0, 1.0]]))
        assert not past.is_identity
        cl = hg.classify(past, 1)
        assert cl.kind is hg.IsometryClass.PARABOLIC
        assert [p.is_infinity for p in cl.fixed_points] == [True]
        orb = gr.enumerate_orbit(gr.GroupPresentation((past, dilation), d=1), max_word_length=1)
        with pytest.raises(gr.CuspDetectionError, match="bounded_model"):
            gr.find_cusps(orb)

    @pytest.mark.parametrize("imag, d", [(5e-11, 1), (5e-10, 2)])
    def test_one_realness_tolerance(self, imag, d):
        # imaginary parts within hg.REAL_TOL are real for MobiusMap.d, for
        # a presentation, for a conjugation and so for classify's guess
        dilation = hg.MobiusMap(np.diag([2.0, 0.5]))
        gen = hg.MobiusMap(np.array([[1.0, 1.0 + imag * 1j], [0.0, 1.0]]))
        assert gen.d == d
        if d == 1:
            gr.GroupPresentation((gen, dilation), d=1)
        else:
            with pytest.raises(ValueError, match="real"):
                gr.GroupPresentation((gen, dilation), d=1)
        real = gr.GroupPresentation((hg.MobiusMap(np.array([[2.0, 1.0], [1.0, 1.0]])),), d=1)
        q = hg.MobiusMap(np.array([[1.0, imag * 1j], [0.0, 1.0]]))
        conj = gr.conjugated_presentation(real, q)
        assert conj.d == d
        assert [g.d for g in conj.generators] == [d]
        fixed = hg.classify(conj.generators[0]).fixed_points
        assert [len(p.coords) for p in fixed] == [d, d]

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
    @staticmethod
    def _bounded_chart_cusps(name, dist):
        """The cusps of a builtin whose raw chart has its cusp at
        infinity: a named error there, found in the bounded chart, where
        the conjugator sends infinity to 0."""
        g = gr.builtin_group(name)
        with pytest.raises(gr.CuspDetectionError, match="bounded_model"):
            gr.find_cusps(gr.enumerate_orbit(g, max_dist=dist))
        cs = gr.find_cusps(gr.enumerate_orbit(gr.bounded_model(g)[0], max_dist=dist))
        assert len(cs.cusps) == 1
        assert cs.cusps[0].point.coords == (0.0,) * g.d
        return cs

    def test_rank2_lattice_detected(self):
        cs = self._bounded_chart_cusps("rank2_cusp", 6.0)
        assert cs.k_min == cs.k_max == 2

    def test_rank1_fuchsian_cusp(self):
        cs = self._bounded_chart_cusps("parabolic_cusp_fuchsian", 7.0)
        assert cs.k_min == cs.k_max == 1
        cl = hg.classify(cs.cusps[0].generator, d=1)
        assert cl.kind is hg.IsometryClass.PARABOLIC

    @pytest.mark.parametrize("name", ["apollonian", "parabolic_cusp_fuchsian", "rank2_cusp"])
    def test_cusp_points_are_their_generators_fixed_points(self, name):
        g, _ = gr.bounded_model(gr.builtin_group(name))
        cs = gr.find_cusps(gr.enumerate_orbit(g, max_dist=7.0))
        assert cs.cusps
        for cu in cs.cusps:
            assert hg.classify(cu.generator, g.d).fixed_points == (cu.point,)

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

    @pytest.mark.parametrize(
        "name, dist",
        [
            ("apollonian", 6.0),
            ("apollonian", 8.0),
            ("rank2_cusp", 8.0),
            ("parabolic_cusp_fuchsian", 8.0),
            ("schottky", 11.0),
            ("infinite_fuchsian", 11.0),
        ],
    )
    def test_cusps_match_the_oracle_on_builtins(self, name, dist):
        orb = Pipeline(gr.builtin_group(name), dist).orbit
        _assert_same_cusps(gr.find_cusps(orb), _oracle_find_cusps(orb))

    @staticmethod
    def _fixed_point_orbit(points):
        """An orbit of one parabolic fixing each point, all of word
        length 1, under a group whose generator (a unit translation)
        carries no point near another."""
        mats = [[[1.0 - 0.5 * p, 0.5 * p * p], [-0.5, 1.0 + 0.5 * p]] for p in points]
        group = gr.GroupPresentation((hg.MobiusMap(np.array([[1.0, 1.0], [0.0, 1.0]])),), d=2)
        n = len(points)
        return gr.OrbitData(
            matrices=np.array(mats, dtype=complex),
            dists=1.0 + 0.01 * np.arange(n),
            word_lengths=np.ones(n, dtype=np.int32),
            t_valid=5.0,
            truncated=False,
            d=2,
            group=group,
        )

    def test_copies_straddling_a_cell_edge_join(self):
        # offset-0 edges sit at whole cells, offset-1/2 edges at half
        # cells; each pair is tol/4 or less apart across such edges
        tol = gr.CUSP_CLUSTER_TOL
        q = 1.0 / 16.0
        pairs = [
            ((1000 - 2 * q, 2000.3), (1000 + 2 * q, 2000.3)),  # offset 0, real
            ((3000.3, 4000 - 2 * q), (3000.3, 4000 + 2 * q)),  # offset 0, imaginary
            ((5000 - q, 6000 - q), (5000 + q, 6000 + q)),  # offset 0, both
            ((7000.5 - 2 * q, 8000.2), (7000.5 + 2 * q, 8000.2)),  # offset 1/2, real
            ((9000.2, 9500.5 - 2 * q), (9000.2, 9500.5 + 2 * q)),  # offset 1/2, imaginary
            ((9700.5 - q, 9900.5 + q), (9700.5 + q, 9900.5 - q)),  # offset 1/2, both
        ]
        points = [complex(x, y) * tol for pair in pairs for x, y in pair]
        for u, v in zip(points[0::2], points[1::2]):
            assert abs(u - v) <= tol / 4.0 * (1.0 + 1e-9)
        orb = self._fixed_point_orbit(points)
        cs = gr.find_cusps(orb)
        assert [cu.n_conjugates for cu in cs.cusps] == [2] * len(pairs)
        _assert_same_cusps(cs, _oracle_find_cusps(orb))

    def test_points_far_apart_stay_apart(self):
        tol = gr.CUSP_CLUSTER_TOL
        step = 2.0 * math.sqrt(2.0) * tol
        rng = np.random.default_rng(11)
        # a row, a column and a diagonal of points 2 sqrt(2) tol apart,
        # shifted against the cell edges of both offsets
        points = []
        for shift in rng.uniform(0.0, 1.0, 6):
            x0 = (1000.0 * len(points) + shift) * tol
            for k in range(6):
                points += [complex(x0 + k * step, 7 * tol), complex(x0, (k + 9) * step)]
                points.append(complex(x0 + (k + 20) * step, (k + 20) * step) / math.sqrt(2.0))
        cs = gr.find_cusps(self._fixed_point_orbit(points))
        assert len(cs.cusps) == len(points)
        assert all(cu.n_conjugates == 1 for cu in cs.cusps)

    @pytest.mark.parametrize("name", sorted(gr._BUILTINS) + ["sampler"])
    def test_boundary_action_clears_the_at_infinity_rule(self, name, monkeypatch):
        # on every builtin's bounded-chart orbit at distance 8, and on
        # infinite_fuchsian's default sampler walk, no non-identity
        # element comes near fixing infinity (|c| against its largest
        # entry) and no element comes near sending a cusp reference to
        # infinity (|cp + d| against the rule's scale): the margins read
        # 0.067 and 5.9e-3 at their smallest, so which value between
        # 1e-14 and 1e-9 hg.INFINITY_TOL takes moves no product bit.  A
        # builtin that comes within this floor of the rule needs a look.
        # infinite_fuchsian's walk at distance 8 holds only the identity,
        # so its sampler's walk stands in for it
        floor = 1e-6
        if name == "sampler":
            walks = []
            walk = gr.enumerate_orbit

            def spy(*args, **kwargs):
                walks.append(walk(*args, **kwargs))
                return walks[-1]

            monkeypatch.setattr(gr, "enumerate_orbit", spy)
            gr.sample_limit_set(gr.builtin_group("infinite_fuchsian"))
            orbit, points = walks[-1], []
        else:
            p = Pipeline(gr.builtin_group(name), 8.0)
            orbit, points = p.orbit, [hg._hs_boundary(cu.point) for cu in p.cusps.cusps]
        mats = orbit.matrices
        scale = hg._entry_scales(mats)
        moving = orbit.word_lengths > 0
        assert moving.any() == (name != "infinite_fuchsian")
        assert np.min(np.abs(mats[moving, 1, 0]) / scale[moving], initial=1.0) > floor
        for z in points:
            den = hg.boundary_images(mats, z, scale)[1]
            assert (np.abs(den) / (scale * max(1.0, abs(z)))).min() > floor
        assert bool(points) == (name in ("apollonian", "parabolic_cusp_fuchsian", "rank2_cusp"))


class TestHoroballs:
    def test_image_sizes_match_scalar_oracle(self):
        # apply_horoball is the one-element case of the family's array
        # images, bit for bit; z -> -1/z takes the horoball of size s at 2
        # to the one of size s/4 at -1/2
        rng = np.random.default_rng(11)
        p = 0.3 + 0.7j
        ball = hg.Horoball(hg.BoundaryPoint((p.real, p.imag)), 1.0)
        maps = []
        while len(maps) < 30:
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            if abs(np.linalg.det(m)) >= 0.1:
                maps.append(hg.MobiusMap(m))
        fb, fs = hg.horoball_images(np.stack([g.matrix for g in maps]), p)
        for g, base, size in zip(maps, fb, fs):
            img = hg.apply_horoball(g, ball)
            assert complex(*img.base.coords) == base and img.size == size
        inv = hg.MobiusMap(np.array([[0.0, -1.0], [1.0, 0.0]]))
        img = hg.apply_horoball(inv, hg.Horoball(hg.BoundaryPoint((2.0,)), 0.3))
        assert (img.base.coords, img.size) == ((-0.5,), 0.3 / 4.0)

    def test_image_at_infinity_raises(self):
        p = 0.25 - 0.5j
        mats = np.stack([np.eye(2, dtype=complex), hg._mobius_to_infinity(p).matrix])
        with pytest.raises(hg.ModelError, match="bounded_model"):
            hg.horoball_images(mats, p)
        with pytest.raises(gr.CuspDetectionError, match="bounded_model"):
            gr._raw_family(mats, [(p, 1)], [0])

    @pytest.mark.parametrize("hook", ["cProfile", "settrace"])
    def test_family_build_runs_under_a_profiler_or_tracer(self, hook):
        # a profile or trace hook holds the frame's locals, which numpy's
        # default resize check counts as references to the family's arrays
        orb = gr.enumerate_orbit(gr.bounded_model(gr.builtin_group("apollonian"))[0], 8.0)
        cs = gr.find_cusps(orb)
        want = gr.unsqueezed_horoballs(orb, cs)
        if hook == "cProfile":
            prof = cProfile.Profile()
            prof.enable()
            stop = prof.disable
        else:
            old = sys.gettrace()
            sys.settrace(lambda *args: None)
            stop = partial(sys.settrace, old)
        try:
            got = gr.unsqueezed_horoballs(orb, cs)
        finally:
            stop()
        for name in ("bases", "sizes", "ranks"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert got.n_references == want.n_references

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
        fam = gr.standard_horoballs(orb, gr.find_cusps(orb))
        balls = [b for b in fam.to_horoballs() if b.size >= 1e-3]
        rng = np.random.default_rng(3)
        w = rng.uniform(-1, 1, 40) + 1j * rng.uniform(-1, 1, 40)
        h = rng.uniform(0.001, 0.5, 40)
        depth, _ = fam.deepest(w, h)
        for i in range(40):
            x = hg.InteriorPoint((w[i].real, w[i].imag, h[i]))
            best = 0.0
            for ball in balls:
                best = max(best, hg.escape_depth(x, ball))
            if best > 0 or depth[i] > 0:
                assert abs(best - depth[i]) < 1e-9

    @pytest.mark.parametrize(
        "name, dist",
        [("apollonian", 7.0), ("rank2_cusp", 8.0), ("parabolic_cusp_fuchsian", 8.0)],
    )
    def test_squeeze_matches_the_shrink_loop(self, monkeypatch, name, dist):
        orb = gr.enumerate_orbit(gr.bounded_model(gr.builtin_group(name))[0], dist)
        cs = gr.find_cusps(orb)
        fam = gr.standard_horoballs(orb, cs)
        monkeypatch.setattr(gr, "_squeeze_theta", _shrink_loop_theta)
        oracle = gr.standard_horoballs(orb, cs)
        assert fam.theta == oracle.theta
        assert np.array_equal(fam.bases, oracle.bases)
        assert np.array_equal(fam.sizes, oracle.sizes)
        assert np.array_equal(fam.ranks, oracle.ranks)
        if name == "rank2_cusp":
            assert set(fam.ranks.tolist()) == {2}

    # the ids are the names these cases have always run under; their last
    # field was the height of a plane member at infinity (None: none),
    # which families no longer have
    @pytest.mark.parametrize(
        "bases, sizes",
        [
            # worst overlap exactly 4^2, far from the base point
            pytest.param([100.0, 101.0], [4.0, 4.0], id="bases0-sizes0-None"),
            # worst overlap exactly 4^5
            pytest.param([50.0 + 50.0j, 51.0 + 50.0j], [32.0, 32.0], id="bases1-sizes1-None"),
            # the base point decides: one large ball under it
            pytest.param([0.0, 40.0], [5.0, 0.01], id="bases2-sizes2-None"),
            # ... one ulp above 2^4 (1 - 1e-6): the logarithm rounds to
            # m = 4, the re-check bumps it to 5
            pytest.param(
                [0.0, 40.0],
                [np.nextafter(16.0 * (1.0 - 1e-6), 17.0), 0.01],
                id="bases3-sizes3-None",
            ),
            # no squeeze needed
            pytest.param([3.0, 9.0], [0.5, 0.5], id="bases6-sizes6-4.0"),
        ],
    )
    def test_squeeze_on_synthetic_families(self, bases, sizes):
        b = np.asarray(bases, dtype=complex)
        s = np.asarray(sizes)
        assert gr._squeeze_theta(b, s) == _shrink_loop_theta(b, s)

    def test_degenerate_squeeze_raises(self):
        # an overlap beyond 4^40, and two members sharing a base point
        for bases, sizes in [([100.0, 101.0], [2.0**41, 2.0**41]), ([0.5, 0.5], [1e-10, 2e-10])]:
            with pytest.raises(gr.CuspDetectionError, match="theta below 2"):
                gr._squeeze_theta(np.asarray(bases, dtype=complex), np.asarray(sizes))

    @pytest.mark.parametrize(
        "dist, scans",
        [
            # the base point decides theta: the scan that accepts it is
            # the only one
            (7.0, 1),
            # the overlap decides: the first scan reads above 1, and a
            # second at the theta it implies accepts the family
            (6.0, 2),
        ],
        ids=["base_point_decides", "overlap_decides"],
    )
    def test_family_overlap_scans(self, monkeypatch, dist, scans):
        orb = gr.enumerate_orbit(gr.builtin_group("apollonian"), dist)
        cs = gr.find_cusps(orb)
        calls = _spy_scans(monkeypatch)
        gr.standard_horoballs(orb, cs)
        assert len(calls) == scans
        # the last scan accepts the family
        assert calls[-1][1] <= 1.0 + 1e-6

    @pytest.mark.parametrize(
        "bases, sizes",
        [
            (None, None),  # the apollonian family at 6
            ([100.0, 101.0], [4.0, 4.0]),  # worst overlap exactly 4^2
            ([50.0 + 50.0j, 51.0 + 50.0j], [32.0, 32.0]),  # exactly 4^5
        ],
        ids=["apollonian_6", "overlap_4_2", "overlap_4_5"],
    )
    def test_failing_scan_recovers_the_raw_worst(self, monkeypatch, bases, sizes):
        if bases is None:
            bases, sizes = _squeeze_input(monkeypatch, "apollonian", 6.0)
        else:
            bases, sizes = np.asarray(bases, dtype=complex), np.asarray(sizes)
        raw = sizes.copy()
        scan = gr._max_overlap_ratio
        calls = _spy_scans(monkeypatch)
        theta = gr._squeeze_theta(bases, sizes)
        assert np.array_equal(sizes, raw)
        assert len(calls) == 2
        (first, check), (second, _) = calls
        assert check > 1.0 + 1e-6
        # dyadic squeezes, so these quotients are exact
        first_theta = float(first[0] / raw[0])
        assert float(second[0] / raw[0]) == theta
        assert check / (first_theta * first_theta) == scan(bases, raw)

    @pytest.mark.parametrize(
        "name, dist",
        [
            ("apollonian", 8.0),
            ("apollonian", 9.5),
            ("apollonian", 10.5),
            ("rank2_cusp", 8.0),
            ("rank2_cusp", 9.5),
            ("parabolic_cusp_fuchsian", 8.0),
            ("parabolic_cusp_fuchsian", 9.5),
        ],
    )
    def test_grid_joins_equal_the_kd_tree_oracles(self, digest_pipelines, monkeypatch, name, dist):
        if (name, dist) in digest_pipelines:
            p, _ = digest_pipelines[name, dist]
        else:
            p = Pipeline(gr.builtin_group(name), dist)
        raw, fam = p.unsqueezed, p.family
        # the raw family at 10.5 overlaps so deeply that a scan of it takes
        # seconds either way; its squeezed scans are compared there
        for sizes in (raw.sizes, fam.sizes) if dist < 10.5 else (fam.sizes,):
            want = _oracle_overlap_ratio(raw.bases, sizes)
            assert gr._max_overlap_ratio(raw.bases, sizes) == want
        monkeypatch.setattr(gr, "_max_overlap_ratio", _oracle_overlap_ratio)
        assert gr._squeeze_theta(raw.bases, raw.sizes.copy()) == fam.theta
        w, h = _deepest_probes(fam)
        depth, rank = fam.deepest(w, h)
        assert (depth > 0).any() and (depth == 0).any()
        if name == "apollonian":
            assert (depth > 0).sum() > 200 and (depth == 0).sum() > 200
        want_depth, want_rank = _oracle_deepest(fam, w, h)
        assert depth.tobytes() == want_depth.tobytes()
        assert np.array_equal(rank, want_rank)

    def test_batched_deepest_equals_the_per_point_loop(self):
        # points inside and beside the 2,000 largest members; a few of
        # these heights square differently by h * h than by pow, so a
        # batch that squares as a vector fails here
        orb = gr.enumerate_orbit(gr.builtin_group("apollonian"), 8.0)
        fam = gr.standard_horoballs(orb, gr.find_cusps(orb))
        rng = np.random.default_rng(0)
        top = np.argsort(fam.sizes)[-2000:]
        shift = rng.uniform(-0.5, 0.5, len(top)) + 1j * rng.uniform(-0.5, 0.5, len(top))
        w = fam.bases[top] + shift * fam.sizes[top]
        h = fam.sizes[top] * rng.uniform(0.0, 1.0, len(top))
        depth, rank = fam.deepest(w, h)
        want_depth, want_rank = _oracle_deepest(fam, w, h)
        assert (depth > 0).sum() > 500
        assert depth.tobytes() == want_depth.tobytes()
        assert np.array_equal(rank, want_rank)

    @pytest.mark.parametrize(
        "name, dist",
        [("apollonian", 7.0), ("rank2_cusp", 8.0), ("parabolic_cusp_fuchsian", 8.0)],
    )
    def test_dedup_matches_the_oracle_on_raw_families(self, monkeypatch, name, dist):
        orb = gr.enumerate_orbit(gr.bounded_model(gr.builtin_group(name))[0], dist)
        cs = gr.find_cusps(orb)
        lean = gr._dedup_and_find_conflict
        calls = []

        def checked(bases, sizes, ref_of):
            got = lean(bases, sizes, ref_of)
            _assert_same_dedup(got, _oracle_dedup(bases, sizes, ref_of))
            calls.append(1)
            return got

        monkeypatch.setattr(gr, "_dedup_and_find_conflict", checked)
        gr.standard_horoballs(orb, cs)
        assert calls

    @pytest.mark.parametrize(
        "bases, sizes, ref_of",
        [
            # a cross-reference size conflict at one base: a merge
            ([0.3 + 0.1j, 0.3 + 0.1j, 2.0], [0.5, 0.25, 0.1], [0, 1, 0]),
            # a duplicate straddling a first-pass cell boundary, found by
            # the offset pass
            ([6.9999999e-9, 7.0000001e-9, 1.0], [0.2, 0.2, 0.3], [0, 1, 1]),
            # ... and a size conflict straddling it: a merge of the
            # offset pass, mapped back to the input rows
            ([1.0, 6.9999999e-9, 7.0000001e-9], [0.3, 0.2, 0.1], [2, 0, 1]),
            # duplicates inside one reference, sizes within the tolerance
            ([0.5j, 0.5j, 0.5j, -0.5], [0.1, 0.1 * (1 + 1e-7), 0.1, 0.2], [0, 0, 0, 0]),
            # microscopic sizes never prove a merge
            ([0.25, 0.25], [1e-10, 5e-10], [0, 1]),
            ([], [], []),
            ([0.125j], [0.5], [3]),
        ],
    )
    def test_dedup_matches_the_oracle_on_synthetic_inputs(self, bases, sizes, ref_of):
        b = np.asarray(bases, dtype=complex)
        s = np.asarray(sizes, dtype=float)
        r = np.asarray(ref_of, dtype=np.int32)
        _assert_same_dedup(gr._dedup_and_find_conflict(b, s, r), _oracle_dedup(b, s, r))

    def test_dedup_matches_the_oracle_on_random_lattices(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 400))
            # few distinct bases, jittered across cell boundaries, with
            # repeated and near-repeated sizes
            cells = rng.integers(-5, 5, size=(n, 2)) * 3e-9
            jitter = rng.choice([0.0, 0.4e-9, -0.4e-9, 1.6e-9], size=(n, 2))
            b = (cells + jitter) @ np.array([1.0, 1j])
            s = rng.choice([0.25, 0.25 * (1 + 1e-8), 0.5], size=n)
            r = rng.integers(0, 2, size=n).astype(np.int32)
            if rng.random() < 0.5:
                r[:] = 0  # one reference: no merge possible, sizes must agree
                s[:] = 0.25
            _assert_same_dedup(gr._dedup_and_find_conflict(b, s, r), _oracle_dedup(b, s, r))

    def test_dedup_rejects_bases_beyond_the_grid(self):
        b = np.array([0.5, 1e10 + 0.5j])
        s = np.array([0.1, 0.1])
        r = np.zeros(2, dtype=np.int32)
        for dedup in (gr._dedup_and_find_conflict, _oracle_dedup):
            with pytest.raises(gr.CuspDetectionError, match="beyond the integer grid"):
                dedup(b, s, r)

    @staticmethod
    def _crowded_family(rng, n):
        # a few distinct cells of the first grid, two cells apart and
        # jittered within one, so that the offset grid splits some; sizes
        # tied exactly, within the tolerance and beyond it, and NaN
        span = int(rng.integers(1, 30))
        at = rng.integers(0, span, size=(n, 2)) * 2.0 + rng.uniform(0.0, 0.9, size=(n, 2))
        b = (at * gr.DEDUP_GRID) @ np.array([1.0, 1j])
        s = [0.25, 0.5, 0.5 * (1 - 1e-7), 0.5 * (1 + 3e-7), 1e-10, 4e-10, np.nan]
        s = rng.choice(s, size=n)
        return b, s

    def test_dedup_matches_the_oracle_on_crowded_cells(self):
        rng = np.random.default_rng(11)
        outcomes = set()
        for _ in range(40):
            n = int(rng.integers(2, 3000))
            b, s = self._crowded_family(rng, n)
            r = rng.integers(0, 3, size=n).astype(np.int32)
            if rng.random() < 0.5:
                # one reference, macroscopic sizes that agree: the exact
                # ties and near ties decide what is kept
                r[:] = 0
                big = s > 1e-9
                s[big] = rng.choice([0.5, 0.5 * (1 - 1e-7), 0.5 * (1 + 3e-7)], size=big.sum())
            want = _oracle_dedup(b, s, r)
            outcomes.add(isinstance(want, tuple))
            _assert_same_dedup(gr._dedup_and_find_conflict(b, s, r), want)
        assert outcomes == {True, False}

    def test_dedup_pass_on_rows_matches_the_oracle(self):
        # the second pass reads a subset of the rows; with every entry its
        # own reference, the oracle's merge pairs are (leader, member) rows
        rng = np.random.default_rng(12)
        for trial in range(40):
            n = int(rng.integers(1, 2000))
            b, s = self._crowded_family(rng, n)
            if trial % 2:
                s[s > 1e-9] = 0.5  # no conflicts: the kept rows decide
            rows = np.flatnonzero(rng.random(n) < rng.uniform(0.0, 1.0))
            if trial < 4:
                rows = rows[: trial % 2]  # no rows, and one row
            ids = np.arange(n, dtype=np.int32)
            for frac in (0.0, 0.5):
                keep, pairs = gr._dedup_pass(b, s, frac, rows)
                want = _oracle_dedup_pass(b[rows], s[rows], ids[rows], frac)
                if isinstance(want, tuple):
                    assert keep is None
                    assert sorted({(int(i), int(j)) for i, j in pairs}) == want[1]
                else:
                    assert pairs is None
                    assert keep.dtype == rows.dtype
                    assert np.array_equal(keep, rows[want])

    def test_dedup_leader_is_the_lowest_index_among_the_largest(self):
        # one cell whose three largest sizes tie exactly at rows 1, 3, 4
        b = np.full(6, 0.25 + 0.5j)
        s = np.array([0.3, 0.5, 0.2, 0.5, 0.5, 0.5 * (1 - 1e-7)])
        r = np.arange(6, dtype=np.int32)
        want = _oracle_dedup(b, s, r)
        assert want == ("merge", [(1, 0), (1, 2)])
        _assert_same_dedup(gr._dedup_and_find_conflict(b, s, r), want)
        # microscopic sizes prove nothing: the leader and the sizes that
        # disagree with it are kept
        s *= 1e-9
        keep = gr._dedup_and_find_conflict(b, s, r)
        assert keep.tolist() == [0, 1, 2]
        _assert_same_dedup(keep, _oracle_dedup(b, s, r))

    def test_dedup_keeps_cells_apart_beyond_a_word_of_indices(self):
        # rows 0 and 1 lie 2^32 cells apart along the imaginary axis, rows
        # 2 and 3 along the real one; a key made of the two raw indices'
        # low 32 bits each would put each pair in one cell, where their
        # sizes conflict
        g = gr.DEDUP_GRID
        ij = np.array([[3, 5], [3, 5 + 2**32], [7, 1], [7 + 2**32, 1]])
        b = ((ij + 0.5) * g) @ np.array([1.0, 1j])
        s = np.array([0.5, 0.25, 0.5, 0.25])
        r = np.arange(4, dtype=np.int32)
        for frac in (0.0, 0.5):
            c0, c1 = gr._cells(b, g, frac)
            assert np.array_equal(np.column_stack([c0, c1]) - ij, np.full((4, 2), int(2 * frac)))
            packed = (c0 << np.int64(32)) | (c1 & np.int64(0xFFFFFFFF))
            assert packed[0] == packed[1] and packed[2] == packed[3]
        want = _oracle_dedup(b, s, r)
        assert want.tolist() == [0, 1, 2, 3]
        _assert_same_dedup(gr._dedup_and_find_conflict(b, s, r), want)

    @pytest.mark.memory
    def test_family_build_memory_is_bounded(self, monkeypatch, traced_peak):
        # tracemalloc sees numpy's buffers, so the peak is deterministic.
        # At this budget the build that concatenated the raw family,
        # computed the second pass's cells over every entry and took the
        # kept members while the raw family lived peaked at 2.33 times
        # the raw family; raw arrays filled in place, cells at the pass's
        # rows, blockwise size checks and an in-place compaction read
        # 1.90 (at distance 8 fixed costs set both peaks, 3.5 times)
        orb = gr.enumerate_orbit(gr.builtin_group("apollonian"), 9.5)
        cs = gr.find_cusps(orb)
        lean = gr._dedup_and_find_conflict
        raw = []

        def sized(bases, sizes, ref_of):
            raw.append(bases.nbytes + sizes.nbytes + ref_of.nbytes)
            return lean(bases, sizes, ref_of)

        monkeypatch.setattr(gr, "_dedup_and_find_conflict", sized)
        peak, _ = traced_peak(gr.standard_horoballs, orb, cs)
        assert raw and raw[-1] > 5_000_000
        assert peak < 2.1 * raw[-1]

    @pytest.mark.memory
    def test_squeeze_scan_memory_is_its_band_grids(self, digest_pipelines, traced_peak):
        # the scan holds a grid per size band, 28 bytes a member as the
        # family itself; built from a copy of the members' bases and a
        # second copy of their coordinates, the grids peaked at 1.35
        # times the family at this budget, built in place at 1.14
        p, _ = digest_pipelines["apollonian", 10.5]
        raw = p.unsqueezed
        peak, fam = traced_peak(gr.squeeze_horoballs, raw)
        assert fam.theta == p.family.theta
        assert peak < 1.25 * (raw.bases.nbytes + raw.sizes.nbytes + raw.ranks.nbytes)

    @pytest.mark.parametrize("case", list(_PARENT_DIGESTS), ids=lambda c: f"{c[0]}_{c[1]}")
    def test_walk_and_family_match_the_recorded_digests(self, digest_pipelines, case):
        p, _ = digest_pipelines[case]
        orb, fam = p.orbit, p.family
        want_orbit, want_family = _PARENT_DIGESTS[case]
        assert _sha(orb.matrices, orb.dists, orb.word_lengths, orb.t_valid) == want_orbit
        assert _sha(fam.bases, fam.sizes, fam.ranks, fam.theta, fam.n_references) == want_family

    @pytest.mark.parametrize("case", list(_PARENT_DIGESTS), ids=lambda c: f"{c[0]}_{c[1]}")
    def test_premerge_matches_the_oracle_on_builtin_references(self, digest_pipelines, case):
        _, (mats, refs) = digest_pipelines[case]
        _assert_same_premerge(mats, refs)

    @pytest.mark.parametrize(
        "case", [("apollonian", 9.5), ("apollonian", 10.5), ("rank2_cusp", 8.0)],
        ids=lambda c: f"{c[0]}_{c[1]}",
    )
    def test_may_join_keeps_the_kd_tree_rows(self, digest_pipelines, monkeypatch, case):
        if case in digest_pipelines:
            _, (mats, refs) = digest_pipelines[case]
        else:
            p = Pipeline(gr.builtin_group(case[0]), case[1])
            mats = p.orbit.matrices
            refs = [(hg._hs_boundary(cu.point), cu.rank) for cu in p.cusps.cusps]
        pts = np.array([z for z, _ in refs], dtype=complex)
        # the centres and poles whose nearest reference _may_join reads
        a, c, d = mats[:, 0, 0], mats[:, 1, 0], mats[:, 1, 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.concatenate([a / c, -d / c])
        z = z[np.isfinite(z)]
        assert len(z) > gr.NEAREST_BLOCK
        got = gr._nearest_distance(z, pts)
        assert got.tobytes() == _kdtree_nearest_distance(z, pts).tobytes()

        scale = hg._entry_scales(mats)
        rows = gr._may_join(mats, pts, scale)
        monkeypatch.setattr(gr, "_nearest_distance", _kdtree_nearest_distance)
        assert np.array_equal(rows, gr._may_join(mats, pts, scale))

    @pytest.mark.parametrize("span", [1.4, 3e-7], ids=["wide", "narrow"])
    def test_premerge_matches_the_oracle_on_synthetic_references(self, span):
        grid = 1e-8
        t0 = 0.1 + 0.2j
        fin = [
            t0,
            0.1 + span / 2 - 0.3j,
            0.1 + span + 0.2j,
            t0 + 3.7e-9,
            # a quarter cell off the boundaries of both grids across
            0.1 + span / 4 + 1j * (0.55 + 0.25 * grid),
            0.1 + 3 * span / 4 - 1j * (0.65 + 0.25 * grid),
        ]
        refs = [(t, 1) for t in fin]

        def translation(s):
            return np.array([[1.0, s], [0.0, 1.0]], dtype=complex)

        mats = [np.eye(2, dtype=complex)]
        # ref 0 carried onto each target, off by steps of half a cell
        # (cell boundaries of both grid offsets) and by a hair either
        # side of a whole cell; the last two targets are reached only
        # from under half a cell away along the real axis
        near = [k * 0.5 * grid for k in range(-6, 7)]
        near += [sign * grid * (1.0 + eps) for sign in (-1, 1) for eps in (-1e-9, 1e-9)]
        far = [-3e-8, -2.5e-8, 2.5e-8, 3e-8]
        offsets = [
            (near, near),
            (near, near),
            (far, far),
            (near, near),
            ([0.45 * grid], []),
            ([-0.45 * grid], []),
        ]
        for t, (along, across) in zip(fin, offsets):
            mats += [translation(t - t0 + off) for off in along]
            mats += [translation(t - t0 + 1j * off) for off in across]
        # images on the bucket edges around each target's reach
        re = np.array([t.real for t in fin])
        lo = re.min() - 2.0 * grid
        per = gr.CELL_BUCKETS / (re.max() + 2.0 * grid - lo)
        for t in fin:
            for end in (t.real - 2.0 * grid, t.real + 2.0 * grid):
                k = math.floor((end - lo) * per)
                for m in (k, k + 1):
                    x = lo + m / per
                    for edge in (np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)):
                        mats.append(translation(complex(edge, t.imag) - t0))
        # ref 1 to infinity, where an image joins nothing
        mats.append(np.array([[0.0, -1.0], [1.0, -fin[1]]]))
        # moderate noise, and a row of NaNs (no target sits in the origin's
        # cell, where the oracle packs a NaN image)
        rng = np.random.default_rng(4)
        mats += [translation(complex(*rng.uniform(-5, 5, 2))) for _ in range(200)]
        mats.append(np.full((2, 2), np.nan, dtype=complex))
        mats = np.array(mats)
        with np.errstate(invalid="ignore"):
            want = _oracle_premerge_refs(mats, refs)
            _assert_same_premerge(mats, refs)
        # ref 2, reached only from more than a cell away, stays alone
        assert [want.find(i) for i in range(len(refs))] == [0, 0, 2, 0, 0, 0]

    def test_premerge_prefilter_keeps_every_row_that_can_join(self, monkeypatch):
        # each trial: one row that carries a reference to within 0.5 to 3
        # cells of another on both axes, to whole and half cells (the edges
        # of both grid offsets) or to under half a cell, among rows that
        # carry nothing near a reference and rows the prefilter must keep
        # (a pole on a reference, c = 0, NaN and inf entries); labels must
        # be the oracle's, and the carrying row must reach the exact
        # arithmetic
        tol = gr.CUSP_CLUSTER_TOL
        rng = np.random.default_rng(13)
        # references away from the origin's cells, where the oracle packs
        # NaN images
        pts = (0.2 + 0.7 * rng.random(8)) * np.exp(2j * np.pi * rng.random(8))
        refs = [(complex(p), 1) for p in pts]
        kept = []
        may_join = gr._may_join

        def spy(mats, points, scale):
            rows = may_join(mats, points, scale)
            kept.append(rows)
            return rows

        monkeypatch.setattr(gr, "_may_join", spy)

        def translation(t):
            return np.array([[1.0, t], [0.0, 1.0]], dtype=complex)

        def fixing_zero(c, det=1.0):
            # z -> lam z / (c z + det / lam), c != 0
            lam = np.exp(rng.uniform(-2.0, 2.0) + 2j * np.pi * rng.random())
            return np.array([[lam, 0.0], [c, det / lam]])

        def random_c(low, high):
            return np.exp(2j * np.pi * rng.random()) * 10.0 ** rng.uniform(low, high)

        n_joined, kinds = 0, set()
        for trial in range(300):
            i, j = rng.choice(len(pts), 2, replace=False)
            off = rng.uniform(0.5, 3.0, 2) * rng.choice([-1.0, 1.0], 2)
            if trial % 3 == 0:
                off = rng.integers(-6, 7, 2) * 0.5
            elif trial % 3 == 1:
                off = rng.uniform(-0.45, 0.45, 2)
            target = pts[j] + complex(*off) * tol
            kind = trial % 5
            kinds.add(kind)
            if kind == 0:  # c = 0
                carry = translation(target - pts[i])
            else:
                det = {1: 1.0, 2: 1.0, 3: 2.5, 4: 1.0}[kind]
                core = fixing_zero(random_c(-2, 2), det)
                carry = translation(target) @ core @ translation(-pts[i])
                if kind == 4:
                    carry = carry * 3.0  # the same map, determinant 9
            far = [
                translation(complex(*rng.uniform(-1, 1, 2)))
                @ fixing_zero(random_c(1, 2.5))
                @ translation(complex(*rng.uniform(-1, 1, 2)))
                for _ in range(20)
            ]
            special = [
                # a pole exactly on a reference: rho = 0
                np.array([[2.0, -2.0 * pts[i] - 1.0], [1.0, -pts[i]]]),
                np.full((2, 2), np.nan),
                np.array([[np.inf, 0.0], [1.0, 1.0]]),
                np.array([[1.0, np.inf], [1.0, 1.0]]),
                np.array([[1.0, 0.3], [np.nan, 1.0]]),
            ]
            mats = np.array([carry, *far, *special], dtype=complex)
            with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
                want = _oracle_premerge_refs(mats, refs).labels()
                got = gr._premerge_refs(mats, refs)
            assert got.tolist() == want
            rows = kept.pop()
            assert rows[0] == 0  # the carrying row
            assert set(range(len(mats) - len(special), len(mats))) <= set(rows.tolist())
            n_joined += want != list(range(len(refs)))
            assert len(rows) < len(mats)
        # both outcomes of a carried reference occur
        assert 50 < n_joined < 250

    def test_premerge_keeps_references_apart_by_whole_words_of_cells(self):
        # an image of reference 0 lands 2^32 cells up the imaginary axis
        # from reference 1: exact cells keep them apart, where one 64-bit
        # key made of both 32-bit cell halves (the oracle's) aliased them
        tol = gr.CUSP_CLUSTER_TOL
        t0 = complex(10_000_000.5, 20_000_000.5) * tol
        t1 = complex(40_000_000.5, 20_000_000.5) * tol
        image = t1 + 2**32 * tol * 1j
        for frac in (0.0, 0.5):
            (x1,), (y1,) = gr._cells(np.array([t1]), tol, frac)
            (xi,), (yi,) = gr._cells(np.array([image]), tol, frac)
            assert (xi, yi - y1) == (x1, 2**32)
        mats = np.array([np.eye(2), [[1.0, image - t0], [0.0, 1.0]]], dtype=complex)
        refs = [(t0, 1), (t1, 1)]
        assert gr._premerge_refs(mats, refs).tolist() == [0, 1]
        assert _oracle_premerge_refs(mats, refs).labels() == [0, 0]

    def test_overlap_scan_keeps_cross_octave_pairs_in_either_order(self):
        # one member an octave below the other, ratio 1.0 * 0.1 / 0.2^2
        for bases, sizes in [([0.0, 0.2], [1.0, 0.1]), ([0.2, 0.0], [0.1, 1.0])]:
            got = gr._max_overlap_ratio(np.asarray(bases, dtype=complex), np.asarray(sizes))
            assert got == pytest.approx(2.5, rel=1e-12)

    def test_overlap_scan_matches_all_pairs_on_shuffled_families(self):
        rng = np.random.default_rng(8)
        overlapping = straddling = 0
        for trial in range(30):
            n = int(rng.integers(2, 120))
            bases = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
            sizes = 2.0 ** rng.uniform(-14, -0.5, n)  # over 13 octaves
            # overlapping pairs a hair either side of a band edge
            edge = 2.0 ** (gr.BAND_OCTAVES * -int(rng.integers(1, 4)))
            for _ in range(int(rng.integers(0, 3))):
                at = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
                pair = edge * np.array([1.0 - 1e-9, 1.0 + 1e-9]) * rng.uniform(0.5, 2.0, 2)
                gap = math.sqrt(pair[0] * pair[1]) * rng.uniform(0.5, 1.0)
                bases = np.append(bases, [at, at + gap * np.exp(2j * np.pi * rng.random())])
                sizes = np.append(sizes, pair)
            n = len(sizes)
            want = _brute_overlap_ratio(bases, sizes)
            overlapping += want > 1.0
            band = np.floor(np.log2(sizes) / gr.BAND_OCTAVES)
            straddling += len(np.unique(band)) > 1 and want > 1.0
            for _ in range(3):
                perm = rng.permutation(n)
                got = gr._max_overlap_ratio(bases[perm], sizes[perm])
                # every pair with ratio 1 or more lies within the scan radius
                if want >= 1.0:
                    assert got == pytest.approx(want, rel=1e-12)
                else:
                    assert got <= want * (1.0 + 1e-12)
        assert overlapping >= 10 and straddling >= 10

    @pytest.mark.parametrize("family", ["random", "apollonian_6"])
    def test_overlap_scan_scales_exactly_under_dyadic_squeezes(self, monkeypatch, family):
        # a squeeze by 2^-k moves members across band edges, and scales a
        # worst ratio that stays at or above 1 by exactly 4^-k
        if family == "random":
            rng = np.random.default_rng(9)
            bases = rng.uniform(-1, 1, 300) + 1j * rng.uniform(-1, 1, 300)
            sizes = 2.0 ** rng.uniform(-16, -1, 300)
            # deep overlaps: ratios of about 2,000 and 5,000
            bases[1], bases[3] = bases[0] + sizes[0] / 45.0, bases[2] + 1j * sizes[2] / 70.0
            sizes[1], sizes[3] = sizes[0], sizes[2]
        else:
            # the raw family at 6 (worst 6.25), swollen by 2^10
            bases, sizes = _squeeze_input(monkeypatch, "apollonian", 6.0)
            sizes = sizes * 2.0**10
        worst = gr._max_overlap_ratio(bases, sizes)
        assert worst >= 4.0**5
        for k in range(6):
            assert gr._max_overlap_ratio(bases, sizes * 2.0**-k) * 4.0**k == worst

    def test_no_cusps_raises(self):
        g = gr.builtin_group("schottky")
        orb = gr.enumerate_orbit(g, max_dist=6.0)
        with pytest.raises(gr.CuspDetectionError):
            gr.standard_horoballs(orb, gr.find_cusps(orb))


class TestSampling:
    @pytest.mark.parametrize("case", list(_PARENT_DIGESTS), ids=lambda c: f"{c[0]}_{c[1]}")
    def test_cloud_and_measure_match_the_recorded_digests(self, digest_pipelines, case):
        p, _ = digest_pipelines[case]
        want_cloud, want_measure = _PARENT_CLOUD_DIGESTS[case]
        if want_cloud is not None:
            assert _sha(p.cloud.coords, p.cloud.resolution) == want_cloud
        m = p.measure
        assert _sha(m.coords, m.weights, m.resolution) == want_measure

    @pytest.mark.parametrize(
        "params, resolution", list(_PARENT_FIXED_POINT_CLOUD_DIGESTS), ids=str
    )
    def test_fixed_point_clouds_match_the_recorded_digests(self, params, resolution):
        g = gr.builtin_group("infinite_fuchsian", **dict(params))
        cloud = gr.sample_limit_set(g, resolution)
        want = _PARENT_FIXED_POINT_CLOUD_DIGESTS[params, resolution]
        assert _sha(cloud.coords, cloud.resolution) == want

    @pytest.mark.parametrize(
        "name, params",
        [
            ("apollonian", {}),
            ("parabolic_cusp_fuchsian", {}),
            ("infinite_fuchsian", {"n_circles": 10}),
        ],
    )
    def test_loxodromic_fixed_points_are_classifys(self, name, params):
        g, _ = gr.bounded_model(gr.builtin_group(name, **params))
        orb = gr.enumerate_orbit(g, max_word_length=3)
        # each matrix as a map holds it, rescaled where its determinant drifted
        maps = [hg.MobiusMap(m) for m in orb.matrices]
        orb = replace(orb, matrices=np.stack([gm.matrix for gm in maps]))
        want = [
            hg._hs_boundary(p)
            for gm, n in zip(maps, orb.word_lengths)
            if n > 0
            for cl in [hg.classify(gm, g.d)]
            if cl.kind is hg.IsometryClass.HYPERBOLIC_LOXODROMIC
            for p in cl.fixed_points
            if not p.is_infinity
        ]
        got = gr._loxodromic_fixed_points(orb)
        assert len(want) > 50
        assert np.sort(got).tobytes() == np.sort(np.array(want, dtype=complex)).tobytes()

    @pytest.mark.parametrize("name", sorted(gr._BUILTINS))
    def test_generator_fixed_points_are_classifys(self, name):
        # classify's fixed points, one generator at a time, are the oracle
        # of the array case on the generator stack
        raw = gr.builtin_group(name)
        for g in (raw, gr.bounded_model(raw)[0]):
            want = [
                hg._hs_boundary(p)
                for gen in g.generators
                for p in hg.classify(gen, d=g.d).fixed_points
                if not p.is_infinity
            ]
            got = hg.fixed_points(np.stack([gen.matrix for gen in g.generators]), g.d)[1]
            assert np.array_equal(got[~np.isnan(got)], np.array(want, dtype=complex))

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

    def test_shallow_complete_orbit_has_nothing_to_sample(self):
        # the orbit is complete to distance 6, short of log(1/1e-3), and
        # ends there: no point lies deep enough to project
        p = Pipeline(gr.builtin_group("apollonian"), 6.0)
        assert not p.orbit.truncated
        with pytest.raises(ValueError, match=r"t_valid=6, .* log\(1/resolution\)=6.908"):
            p.cloud

    def test_truncated_orbit_degrades_resolution(self):
        g = gr.builtin_group("apollonian")
        orb = gr.enumerate_orbit(g, 9.0, max_elements=3000)
        assert orb.truncated and orb.t_valid < math.log(1e3)
        cloud = gr.sample_limit_set(g, 1e-3, orbit=orb)
        assert len(cloud.coords) > 0
        assert cloud.meta["t_valid"] == orb.t_valid
        assert cloud.resolution == 2.0 * math.exp(-orb.t_valid)

    def test_default_budget_completes_the_gasket_to_10(self):
        # the walk's one default budget is verify's 4,000,000; the
        # sampler's old default of 2,000,000 stopped this walk at t_valid
        # 4.17 and declared a resolution of 0.031
        g, _ = gr.bounded_model(gr.builtin_group("apollonian"))
        cloud = gr.sample_limit_set(g, 5e-4, max_dist=10.0)
        assert not cloud.meta["orbit_truncated"]
        assert cloud.meta["t_valid"] == 10.0
        assert cloud.resolution == 5e-4

    def test_resolution_validation(self):
        g = gr.builtin_group("schottky")
        with pytest.raises(ValueError):
            gr.sample_limit_set(g, target_resolution=2.0)
