"""Oracle tests for the hyperbolic geometry core.

Closed-form values are checked against independent computations:
brute-force horosphere projection and ray-horoball crossings for shadows,
and dense ray sampling for horoball crossing times.
"""

import ast
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kleindim import group as gr
from kleindim import hypgeom as hg


def hs(*coords):
    return hg.InteriorPoint(coords)


def bd(*coords):
    return hg.BoundaryPoint(coords)


heights = st.floats(0.05, 20.0, allow_nan=False)


def random_mobius(rng, d=2, spread=1.0):
    m = rng.normal(size=(2, 2)) * spread
    if d == 2:
        m = m + 1j * rng.normal(size=(2, 2)) * spread
    while abs(np.linalg.det(m)) < 1e-3:
        m = m + np.eye(2)
    return hg.MobiusMap(m)


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


def test_halfspace_vertical_distance_is_log_ratio():
    assert abs(hg.hyp_distance(hs(0.0, 0.0, 1.0), hs(0.0, 0.0, math.e**3)) - 3.0) < 1e-12
    assert abs(hg.hyp_distance(hs(2.0, 0.25), hs(2.0, 4.0)) - math.log(16.0)) < 1e-12


@given(
    st.floats(-2, 2), st.floats(-2, 2), heights,
    st.floats(-2, 2), st.floats(-2, 2), heights,
)
def test_distance_symmetry_and_separation(x1, y1, h1, x2, y2, h2):
    p, q = hs(x1, y1, h1), hs(x2, y2, h2)
    assert hg.hyp_distance(p, q) == pytest.approx(hg.hyp_distance(q, p), abs=1e-12)
    if (x1, y1, h1) == (x2, y2, h2):
        assert hg.hyp_distance(p, q) == 0.0
    elif max(abs(x1 - x2), abs(y1 - y2), abs(h1 - h2)) > 1e-6:
        assert hg.hyp_distance(p, q) > 0.0


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------


def test_origin_alias():
    assert hg.origin(2).coords == (0.0, 0.0, 1.0)
    assert hg.origin(1).coords == (0.0, 1.0)


def test_interior_point_validation():
    with pytest.raises(hg.ModelError):
        hg.InteriorPoint((0.0, 0.0, -1.0))
    with pytest.raises(hg.ModelError):
        hg.InteriorPoint((0.5,))
    with pytest.raises(hg.ModelError):
        hg.InteriorPoint((0.0, 0.0, 0.0, 0.5))


# ---------------------------------------------------------------------------
# geodesics and projection
# ---------------------------------------------------------------------------


def test_geodesic_point_radial_norm():
    # the point at time t along a ray from the base point is at distance t
    for z in (bd(0.0, 0.0), bd(0.6, -1.3), bd(2.5)):
        for t in (0.25, 1.0, 3.0, 8.0):
            p = hg.geodesic_point(z, t)
            assert hg.hyp_distance(hg.origin(p.d), p) == pytest.approx(t, abs=1e-9)


def test_geodesic_point_distance_and_projection_consistency():
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = hs(*rng.uniform(-2, 2, size=2), rng.uniform(0.1, 3.0))
        z = hg.boundary_project(x)
        t = hg.hyp_distance(hg.origin(2), x)
        back = hg.geodesic_point(z, t)
        assert hg.hyp_distance(back, x) < 1e-8


def _oracle_geodesic_point(z, t, d):
    """geodesic_point as first written: Python complex arithmetic on the
    matrices of the map sending z to infinity and of its inverse.  Kept
    as the oracle of the vectorized ray points."""
    wb, hb = hg._hs_interior(hg.origin(d))
    g = hg._mobius_to_infinity(hg._hs_boundary(z))
    wb2, hb2 = hg._apply_interior_mat(g.matrix, wb, hb)
    w3, h3 = hg._apply_interior_mat(g.inverse().matrix, wb2, hb2 * math.exp(t))
    return hg._interior_from_hs(w3, h3, d)


@pytest.mark.parametrize("d", [1, 2])
def test_geodesic_points_equal_the_scalar_oracle(d):
    rng = np.random.default_rng(d)
    zs = [bd(*[0.0] * d)]
    zs += [bd(*rng.uniform(-3, 3, size=d)) for _ in range(300)]
    ts = rng.uniform(0.0, 12.0, size=len(zs))
    want = [_oracle_geodesic_point(z, t, d) for z, t in zip(zs, ts)]
    assert [hg.geodesic_point(z, t) for z, t in zip(zs, ts)] == want
    # many points at once give the same bits as one at a time
    zc = [hg._hs_boundary(z) for z in zs]
    w, h = hg.geodesic_points(np.array(zc, dtype=complex), ts, d)
    got = [hg._interior_from_hs(complex(wi), float(hi), d) for wi, hi in zip(w, h)]
    assert got == want


def test_projection_vertical_cases():
    assert hg.boundary_project(hs(0.0, 0.0, 0.25)).coords == (0.0, 0.0)
    assert hg.boundary_project(hs(0.0, 0.0, 4.0)).is_infinity
    with pytest.raises(ValueError):
        hg.boundary_project(hg.origin(2))


@pytest.mark.parametrize("d", [1, 2])
def test_projection_of_one_point_is_the_array_case(d):
    rng = np.random.default_rng(20 + d)
    w = rng.normal(size=300) + (1j * rng.normal(size=300) if d == 2 else 0.0)
    h = np.exp(rng.uniform(-6.0, 6.0, size=300))
    # straight above and straight below the base point, on and off the
    # vertical by less than its 1e-14 tolerance, and just outside it
    w = np.concatenate([w, [0.0, 0.0, 1e-15, 1e-15, 1e-13]])
    h = np.concatenate([h, [4.0, 0.25, 2.0, 0.5, 0.5]])
    proj, finite = hg.boundary_projections(w.astype(complex), h)
    assert finite[-5:].tolist() == [False, True, False, True, True]
    assert proj[-4] == proj[-2] == 0.0
    for wi, hi, z, fin in zip(w, h, proj, finite):
        got = hg.boundary_project(hg._interior_from_hs(complex(wi), float(hi), d))
        assert got == hg._boundary_from_hs(complex(z) if fin else None, d)


# ---------------------------------------------------------------------------
# Moebius maps
# ---------------------------------------------------------------------------


def test_quaternionic_action_examples():
    inv = hg.MobiusMap(np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert hg.apply(inv, hs(0.0, 0.0, 4.0)).coords == pytest.approx((0.0, 0.0, 0.25))
    shift = hg.MobiusMap(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert hg.apply(shift, bd(0.0, 0.0)).coords == (1.0, 0.0)
    assert hg.apply(shift, hg.infinity()).is_infinity
    # pole goes to infinity
    g = hg.MobiusMap(np.array([[1.0, 0.0], [1.0, 1.0]]))
    assert hg.apply(g, bd(-1.0, 0.0)).is_infinity


@settings(max_examples=60)
@given(st.integers(0, 10_000))
def test_mobius_action_is_isometric(seed):
    rng = np.random.default_rng(seed)
    g = random_mobius(rng)
    p = hs(*rng.uniform(-2, 2, size=2), rng.uniform(0.05, 5.0))
    q = hs(*rng.uniform(-2, 2, size=2), rng.uniform(0.05, 5.0))
    d0 = hg.hyp_distance(p, q)
    d1 = hg.hyp_distance(hg.apply(g, p), hg.apply(g, q))
    assert d1 == pytest.approx(d0, rel=1e-9, abs=1e-9)


@settings(max_examples=60)
@given(st.integers(0, 10_000))
def test_compose_inverse_and_action_compatibility(seed):
    rng = np.random.default_rng(seed)
    g, h = random_mobius(rng), random_mobius(rng)
    p = hs(0.3, -0.7, 1.1)
    lhs = hg.apply(g.compose(h), p)
    rhs = hg.apply(g, hg.apply(h, p))
    assert hg.hyp_distance(lhs, rhs) < 1e-8
    ident = g.compose(g.inverse())
    assert ident.is_identity


def test_orbit_distance_from_frobenius_norm():
    g = hg.MobiusMap(np.array([[2.0, 1.0], [1.0, 1.0]]))
    j = hg.origin(1)
    d = hg.hyp_distance(j, hg.apply(g, j))
    assert d == pytest.approx(float(np.arccosh(np.linalg.norm(g.matrix) ** 2 / 2.0)))


def test_canonical_form_identifies_psl_pairs():
    m = np.array([[1.0, 2.0], [0.5, 2.0]])
    a = hg.MobiusMap(m)
    b = hg.MobiusMap(-3.0 * m)
    assert a.key() == b.key()
    c = hg.MobiusMap(m + 1e-4)
    assert a.key() != c.key()


def test_classify_examples():
    para = hg.classify(hg.MobiusMap(np.array([[1.0, 1.0], [0.0, 1.0]])))
    assert para.kind is hg.IsometryClass.PARABOLIC
    assert para.fixed_points[0].is_infinity

    para_i = hg.classify(hg.MobiusMap(np.array([[1.0, 1.0j], [0.0, 1.0]])))
    assert para_i.kind is hg.IsometryClass.PARABOLIC

    conj = hg.MobiusMap(np.array([[1.0, 0.0], [-4.0j, 1.0]]))
    cc = hg.classify(conj)
    assert cc.kind is hg.IsometryClass.PARABOLIC
    assert cc.fixed_points[0].coords == pytest.approx((0.0, 0.0), abs=1e-12)

    lox = hg.classify(hg.MobiusMap(np.array([[2.0, 0.0], [0.0, 0.5]])))
    assert lox.kind is hg.IsometryClass.HYPERBOLIC_LOXODROMIC
    fps = lox.fixed_points
    assert any(fp.is_infinity for fp in fps)
    assert any(not fp.is_infinity and abs(fp.coords[0]) < 1e-12 for fp in fps)

    rot = hg.classify(hg.MobiusMap(np.array([[0.0, -1.0], [1.0, 0.0]])), d=1)
    assert rot.kind is hg.IsometryClass.ELLIPTIC
    assert rot.fixed_points == ()  # Fuchsian elliptic fixes an interior point

    rot2 = hg.classify(hg.MobiusMap(np.array([[0.0, -1.0], [1.0, 0.0]])), d=2)
    assert rot2.kind is hg.IsometryClass.ELLIPTIC
    assert len(rot2.fixed_points) == 2

    ident = hg.classify(hg.MobiusMap(np.eye(2)))
    assert ident.kind is hg.IsometryClass.IDENTITY
    ident2 = hg.classify(hg.MobiusMap(-np.eye(2)))
    assert ident2.kind is hg.IsometryClass.IDENTITY


def test_classify_near_boundary_flags_ambiguity():
    eps = 3e-8  # tr^2 - 4 lands between the tolerance and ten times it
    tr = math.sqrt(4.0 + eps)
    lam = (tr + math.sqrt(tr * tr - 4.0)) / 2.0
    g = hg.MobiusMap(np.array([[lam, 0.0], [0.0, 1.0 / lam]]))
    c = hg.classify(g)
    assert c.kind is hg.IsometryClass.HYPERBOLIC_LOXODROMIC
    assert c.ambiguous


def oracle_kind(m):
    """Beardon's trace rule on one matrix in Python scalars: (kind,
    ambiguous).  The identity has every entry within IDENTITY_TOL of the
    identity matrix's; otherwise tr^2 within PARABOLIC_TOL of 4 is
    parabolic, within it of the real segment [0, 4] elliptic, and any
    other loxodromic; a non-parabolic verdict within AMBIGUOUS_BAND of a
    class boundary is ambiguous."""
    m = [[complex(x) for x in row] for row in m]
    if max(abs(m[i][j] - (1.0 if i == j else 0.0)) for i in range(2) for j in range(2)) <= hg.IDENTITY_TOL:
        return hg.IsometryClass.IDENTITY, False
    t2 = (m[0][0] + m[1][1]) ** 2
    gap4 = abs(t2 - 4.0)
    if gap4 <= hg.PARABOLIC_TOL:
        return hg.IsometryClass.PARABOLIC, False
    seg = abs(complex(t2.real - min(max(t2.real, 0.0), 4.0), t2.imag))
    ambiguous = gap4 <= hg.AMBIGUOUS_BAND or hg.PARABOLIC_TOL < seg <= hg.AMBIGUOUS_BAND
    if seg > hg.PARABOLIC_TOL:
        return hg.IsometryClass.HYPERBOLIC_LOXODROMIC, ambiguous
    return hg.IsometryClass.ELLIPTIC, ambiguous


def _ulps(x, k):
    for _ in range(abs(k)):
        x = np.nextafter(x, math.inf if k > 0 else -math.inf)
    return float(x)


def _edge_matrices():
    """Unit-determinant matrices at the edges of the trace rule, kept
    exactly by MobiusMap.  [[t, -1], [1, 0]] has trace t: real t whose
    computed t^2 lies the nearest steps either side of 4 +- PARABOLIC_TOL
    and 4 +- AMBIGUOUS_BAND; t = 2 + iy and t = 1 + iy, whose t^2 rounds
    to exactly 4 + 4iy and 1 + 2iy, so that |t^2 - 4| or the distance to
    [0, 4] is PARABOLIC_TOL or AMBIGUOUS_BAND exactly and one ulp either
    side; entries IDENTITY_TOL from the identity's and one ulp past; real
    and complex elliptics."""
    mats = []
    for edge in (hg.PARABOLIC_TOL, hg.AMBIGUOUS_BAND):
        for t2 in (4.0 + edge, 4.0 - edge):
            mats += [[[_ulps(math.sqrt(t2), k), -1.0], [1.0, 0.0]] for k in range(-2, 3)]
        for re, im in ((2.0, edge / 4.0), (1.0, edge / 2.0)):
            mats += [[[re + 1j * _ulps(im, k), -1.0], [1.0, 0.0]] for k in (-1, 0, 1)]
    for e in (hg.IDENTITY_TOL, _ulps(hg.IDENTITY_TOL, 1)):
        mats += [[[1.0, e], [0.0, 1.0]], [[1.0, 0.0], [1j * e, 1.0]]]
        mats += [[[1.0 + e, 0.0], [0.0, 1.0 / (1.0 + e)]]]
    for theta in (0.5, math.pi / 2.0, 3.0):
        c, s = math.cos(theta), math.sin(theta)
        mats += [[[c, -s], [s, c]], [[complex(c, s), 0.0], [0.0, complex(c, -s)]]]
    return mats


def test_classify_is_the_one_element_case_of_isometry_kinds():
    maps = [hg.MobiusMap(np.array(m)) for m in _edge_matrices()]
    for g, m in zip(maps, _edge_matrices()):
        assert np.array_equal(g.matrix, m) or np.array_equal(g.matrix, -np.array(m))
    identity, parabolic, loxodromic, ambiguous = hg.isometry_kinds(np.stack([g.matrix for g in maps]))
    seen = set()
    for i, g in enumerate(maps):
        kind, flag = oracle_kind(g.matrix)
        seen.add((kind, flag))
        assert g.is_identity == identity[i] == (kind is hg.IsometryClass.IDENTITY)
        assert parabolic[i] == (kind is hg.IsometryClass.PARABOLIC)
        assert loxodromic[i] == (kind is hg.IsometryClass.HYPERBOLIC_LOXODROMIC)
        assert ambiguous[i] == flag
        for d in (1, 2):
            cl = hg.classify(g, d)
            assert (cl.kind, cl.ambiguous) == (kind, flag)
    # every verdict of the rule occurs among the edge cases
    assert len(seen) == 6


@pytest.mark.parametrize(
    "name, walk",
    [(name, {"max_dist": 8.0}) for name in sorted(gr._BUILTINS)]
    + [("infinite_fuchsian", {"max_word_length": 2})],
    ids=str,
)
def test_isometry_kinds_match_the_trace_rule_on_builtin_orbits(name, walk):
    orb = gr.enumerate_orbit(gr.builtin_group(name), **walk)
    masks = hg.isometry_kinds(orb.matrices)
    kinds = [oracle_kind(m) for m in orb.matrices]
    for mask, kind in zip(masks[:3], ("IDENTITY", "PARABOLIC", "HYPERBOLIC_LOXODROMIC")):
        assert mask.tolist() == [k is hg.IsometryClass[kind] for k, _ in kinds]
    assert masks[3].tolist() == [flag for _, flag in kinds]
    # the identity is the walk's first element and its only identity
    assert masks[0].tolist() == (orb.word_lengths == 0).tolist()


def test_only_isometry_kinds_reads_the_classification_tolerances():
    # the trace rule and the identity test are written once: no module
    # but hypgeom reads their tolerances, and in hypgeom no function but
    # isometry_kinds
    names = {"PARABOLIC_TOL", "AMBIGUOUS_BAND", "IDENTITY_TOL"}

    def reads(node):
        found = set()
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                found.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                found.add(n.attr)
            elif isinstance(n, ast.alias):
                found.add(n.name)
        return found & names

    package = os.path.dirname(os.path.abspath(hg.__file__))
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name)) as fh:
            tree = ast.parse(fh.read())
        if name != "hypgeom.py":
            assert not reads(tree), name
            continue
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and top.name != "isometry_kinds":
                assert not reads(top), top.name
    # the scan sees bare and module-qualified reads
    assert reads(ast.parse("isometry_kinds = PARABOLIC_TOL + hg.IDENTITY_TOL")) == names - {"AMBIGUOUS_BAND"}


def test_loxodromic_fixed_points_are_fixed():
    rng = np.random.default_rng(11)
    for _ in range(25):
        g = random_mobius(rng)
        c = hg.classify(g)
        if c.kind is not hg.IsometryClass.HYPERBOLIC_LOXODROMIC:
            continue
        for fp in c.fixed_points:
            img = hg.apply(g, fp)
            if fp.is_infinity:
                assert img.is_infinity
            else:
                assert np.allclose(img.coords, fp.coords, atol=1e-6)


# unit-determinant matrices, so that a map keeps its entries: leads that
# are zero or below ENTRY_TOL times the largest entry, real and imaginary
# leads, and a lead whose modulus counts but whose real part does not
_SIGN_CASES = [
    [[0.0, 1.0], [-1.0, 0.0]],
    [[0.0, 1j], [1j, 0.0]],
    [[1e-12, -1.0], [1.0, 0.0]],
    [[1e-12j, 1.0], [-1.0, 0.0]],
    [[1j, 0.0], [0.0, -1j]],
    [[1e-12 + 1j, 0.0], [0.0, 1.0 / (1e-12 + 1j)]],
    [[2.0, 1.0], [1.0, 1.0]],
]


def test_sign_rule_of_one_matrix_is_the_array_case():
    mats = np.array(_SIGN_CASES, dtype=complex)
    mats = np.concatenate([mats, -mats])
    want = hg._canonicalize_signs(mats.copy())
    got = np.stack([hg.MobiusMap(m).matrix for m in mats])
    assert got.tobytes() == want.tobytes()
    # one sign per PSL class: the first entry above ENTRY_TOL times the
    # largest gets positive real part, or positive imaginary part where
    # its real part is below that
    n = len(_SIGN_CASES)
    assert np.array_equal(want[:n], want[n:])
    assert [complex(m[0, 1]) for m in want[:4]] == [1, 1j, 1, 1]
    assert want[2, 0, 0] == -1e-12 and want[3, 0, 0] == 1e-12j
    assert [complex(m[0, 0]) for m in want[4:n]] == [1j, 1e-12 + 1j, 2]


@pytest.mark.parametrize("m", [np.zeros((2, 2)), np.full((2, 2), np.nan)], ids=["zero", "nan"])
def test_matrix_without_a_sign_is_an_error(m):
    with pytest.raises(hg.ModelError):
        hg.MobiusMap(m)


_SQRT5 = math.sqrt(5.0)
# (matrix, boundary dimension, its fixed points, None for infinity): c = 0
# with a != d; a parabolic fixed at infinity, one whose a - d would give
# a finite root b / (d - a) if it were not parabolic, and a finite one; |c| =
# 2e-13, exactly INFINITY_TOL times the largest entry, which counts as
# vanishing, and |c| = 2e-9, which does not; a real elliptic, whose
# complex roots are dropped when d = 1 only, as is the double root i of a
# complex parabolic; and a hyperbolic with two finite roots
_FIXED_CASES = [
    ([[2.0, 1.0], [0.0, 0.5]], 2, [None, -2.0 / 3.0]),
    ([[1.0, 1.0], [0.0, 1.0]], 1, [None]),
    ([[1.0 + 1e-9, 1.0], [0.0, 1.0 / (1.0 + 1e-9)]], 1, [None]),
    ([[1.0, 0.0], [1.0, 1.0]], 1, [0.0]),
    ([[2.0, 0.0], [2e-13, 0.5]], 1, [None, 0.0]),
    ([[2.0, 0.0], [2e-9, 0.5]], 1, [7.5e8, 0.0]),
    ([[0.0, -1.0], [1.0, 0.0]], 1, []),
    ([[0.0, -1.0], [1.0, 0.0]], 2, [-1j, 1j]),
    ([[1.0 - 1j, -1.0], [-1.0, 1.0 + 1j]], 1, []),
    ([[1.0 - 1j, -1.0], [-1.0, 1.0 + 1j]], 2, [1j]),
    ([[2.0, 1.0], [1.0, 1.0]], 1, [(1.0 + _SQRT5) / 2.0, (1.0 - _SQRT5) / 2.0]),
]


@pytest.mark.parametrize("d", [1, 2])
def test_fixed_points_of_one_map_are_the_array_case(d):
    assert hg.INFINITY_TOL * 2.0 == 2e-13
    cases = [(hg.MobiusMap(np.array(m)), want) for m, dim, want in _FIXED_CASES if dim == d]
    at_inf, roots = hg.fixed_points(np.stack([g.matrix for g, _ in cases]), d)
    for i, (g, want) in enumerate(cases):
        expect = [None] * int(at_inf[i]) + [complex(z) for z in roots[i] if not np.isnan(z)]
        assert hg.classify(g, d).fixed_points == tuple(hg._boundary_from_hs(z, d) for z in expect)
        assert [z is None for z in expect] == [z is None for z in want]
        assert [z for z in expect if z is not None] == pytest.approx(
            [z for z in want if z is not None], rel=1e-15, abs=1e-12
        )


def test_boundary_image_of_one_map_is_the_array_case():
    # random maps at random points; cz + d a hair below, at and above the
    # at-infinity rule at z = 0 (scale 1, reach 1), at z = 2 (reach 2)
    # and exactly 0 at a pole; the zero matrix; and NaN or infinite
    # entries.  Each scalar image has the bits of its row of the array
    # call, None marking the rule's images at infinity, and no division
    # warns
    rng = np.random.default_rng(17)
    tol = hg.INFINITY_TOL
    edges = [np.nextafter(tol, 0.0), tol, np.nextafter(tol, 1.0)]
    mats = [random_mobius(rng).matrix for _ in range(40)]
    zs = list(rng.normal(size=40) + 1j * rng.normal(size=40))
    for t in edges:
        mats += [np.array([[1.0, 1.0], [1.0, t]]), np.array([[1.0, 1.0], [0.0, 2.0 * t]])]
        zs += [0.0, 2.0]
    mats += [np.array([[2.0, 1.0], [1.0, -zs[0]]]), np.zeros((2, 2))]
    zs += [zs[0], 0.5]
    odd = [
        np.full((2, 2), np.nan),
        np.array([[np.inf, 0.0], [1.0, 1.0]]),
        np.array([[1.0, np.inf], [1.0, 1.0]]),
        np.array([[1.0, 0.3], [np.nan, 1.0]]),
    ]
    mats = np.array(mats + odd, dtype=complex)
    zs = np.array(zs + [0.3 + 0.2j] * len(odd), dtype=complex)
    n = len(mats) - len(odd)
    w, den, at_inf = hg.boundary_images(mats[:n], zs[:n])
    assert at_inf[40:46].tolist() == [True, True] * 2 + [False, False]
    assert at_inf[46:].all() and not at_inf[:40].any()
    assert (den == mats[:n, 1, 0] * zs[:n] + mats[:n, 1, 1]).all()
    scalar = [hg._apply_boundary_mat(m, z) for m, z in zip(mats[:n], zs[:n])]
    with np.errstate(invalid="ignore", over="ignore"):
        wo, _, odd_inf = hg.boundary_images(mats[n:], zs[n:])
        scalar += [hg._apply_boundary_mat(m, z) for m, z in zip(mats[n:], zs[n:])]
    assert odd_inf.tolist() == [False, True, True, False]
    w, at_inf = np.concatenate([w, wo]), np.concatenate([at_inf, odd_inf])
    for got, image, inf in zip(scalar, w, at_inf):
        assert (got is None) == inf
        if not inf:
            assert np.array([got]).tobytes() == np.array([image]).tobytes()
    # and at infinity: the image a / c, infinity where |c| is within the
    # rule at reach 1
    ends = np.array([[[1.0, 1.0], [t, 1.0]] for t in edges] + [mats[0]], dtype=complex)
    w, den, at_inf = hg.boundary_images(ends, None)
    assert at_inf.tolist() == [True, True, False, False]
    assert (den == ends[:, 1, 0]).all()
    for m, image, inf in zip(ends, w, at_inf):
        assert hg._apply_boundary_mat(m, None) == (None if inf else complex(image))


# ROADMAP item 14's matrices, each with the one answer that every entry
# point gives: its class, the fixed points of fixed_points (none at
# infinity) and the image of infinity, which is finite.  The first lies
# within IDENTITY_TOL, so classify calls it the identity
_ITEM_14 = [
    ([[1.0, 0.0], [5e-10, 1.0]], hg.IsometryClass.IDENTITY, [0.0], 2e9),
    ([[1.0, 0.0], [2e-9, 1.0]], hg.IsometryClass.PARABOLIC, [0.0], 5e8),
    ([[2.0, 0.0], [2e-9, 0.5]], hg.IsometryClass.HYPERBOLIC_LOXODROMIC, [7.5e8, 0.0], 1e9),
]


@pytest.mark.parametrize("m, kind, fixed, image", _ITEM_14, ids=["identity", "parabolic", "hyperbolic"])
def test_near_identity_maps_get_one_answer_everywhere(m, kind, fixed, image):
    g = hg.MobiusMap(np.array(m))
    assert g.matrix[1, 0] == m[1][0]
    at_inf, roots = hg.fixed_points(g.matrix[None], 1)
    assert not at_inf[0]
    assert roots[0][~np.isnan(roots[0])].tolist() == pytest.approx(fixed, rel=1e-15)
    cl = hg.classify(g, 1)
    assert cl.kind is kind
    want = () if kind is hg.IsometryClass.IDENTITY else fixed
    assert [bp.coords[0] for bp in cl.fixed_points] == pytest.approx(want, rel=1e-15)
    assert hg.apply(g, hg.infinity()).coords == pytest.approx((image,), rel=1e-15)
    assert hg._apply_boundary_mat(g.matrix, None) == pytest.approx(image, rel=1e-15)


# ---------------------------------------------------------------------------
# horoballs
# ---------------------------------------------------------------------------


def test_escape_depth_examples():
    H1 = hg.Horoball(bd(0.0, 0.0), 1.0)
    assert hg.escape_depth(hs(0.0, 0.0, math.exp(-2.0)), H1) == pytest.approx(2.0)
    assert hg.escape_depth(hs(0.0, 0.0, 1.0), H1) == pytest.approx(0.0, abs=1e-12)
    assert hg.escape_depth(hs(2.0, 0.0, 0.1), H1) == 0.0
    assert hg.escape_depth(hs(0.1, 0.0, 0.3), H1) > 0.0


def test_membership_matches_euclidean_ball_inequality():
    rng = np.random.default_rng(3)
    H = hg.Horoball(bd(0.25, -0.5), 0.8)
    for _ in range(200):
        w = rng.uniform(-1, 1, size=2) * 1.5 + np.array([0.25, -0.5])
        h = rng.uniform(0.01, 1.2)
        inside = (w[0] - 0.25) ** 2 + (w[1] + 0.5) ** 2 + h * h < 0.8 * h
        assert (hg.escape_depth(hs(w[0], w[1], h), H) > 0.0) == inside


@settings(max_examples=40)
@given(st.integers(0, 10_000))
def test_escape_depth_is_equivariant(seed):
    rng = np.random.default_rng(seed)
    g = random_mobius(rng)
    H = hg.Horoball(bd(*rng.uniform(-1, 1, size=2)), rng.uniform(0.2, 2.0))
    x = hs(*rng.uniform(-1, 1, size=2), rng.uniform(0.05, 2.0))
    d0 = hg.escape_depth(x, H)
    d1 = hg.escape_depth(hg.apply(g, x), hg.apply_horoball(g, H))
    assert d1 == pytest.approx(d0, abs=1e-8)


def test_squeeze_scales_size_and_shifts_depth():
    H = hg.Horoball(bd(0.0, 0.0), 1.0)
    assert hg.squeeze(H, 0.25).size == 0.25
    x = hs(0.02, 0.0, 0.2)
    d0 = hg.escape_depth(x, H)
    d1 = hg.escape_depth(x, hg.squeeze(H, 0.5))
    assert d0 - d1 == pytest.approx(math.log(2.0))
    with pytest.raises(ValueError):
        hg.squeeze(H, 0.0)
    with pytest.raises(ValueError):
        hg.squeeze(H, 1.5)


def test_squeeze_commutes_with_isometries():
    rng = np.random.default_rng(5)
    H = hg.Horoball(bd(0.4, -0.1), 0.7)
    for _ in range(10):
        g = random_mobius(rng)
        theta = rng.uniform(0.1, 1.0)
        a = hg.apply_horoball(g, hg.squeeze(H, theta))
        b = hg.squeeze(hg.apply_horoball(g, H), theta)
        assert np.allclose(a.base.coords, b.base.coords, atol=1e-9)
        assert a.size == pytest.approx(b.size, rel=1e-8)


# ---------------------------------------------------------------------------
# shadows
# ---------------------------------------------------------------------------


def brute_shadow_points(H, rng, n=1500):
    """Project horosphere sample points; the shadow must contain them all."""
    p = np.asarray(H.base.coords)
    s = H.size
    out = []
    while len(out) < n:
        if len(p) == 2:
            u = rng.normal(size=3)
        else:
            u = rng.normal(size=2)
        u /= np.linalg.norm(u)
        center = np.append(p, s / 2.0)
        x = center + (s / 2.0) * u
        if x[-1] <= 1e-9:
            continue
        b = hg.boundary_project(hg.InteriorPoint(tuple(x)))
        assert not b.is_infinity
        out.append(b.coords)
    return np.asarray(out)


@pytest.mark.parametrize("d", [1, 2])
def test_shadow_contains_and_fits_projected_horosphere(d):
    rng = np.random.default_rng(100 + d)
    for _ in range(3):
        H = hg.Horoball(bd(*rng.uniform(-1.5, 1.5, size=d)), float(rng.uniform(0.05, 0.5)))
        sb = hg.shadow(H)
        pts = brute_shadow_points(H, rng)
        dist = np.linalg.norm(pts - np.asarray(sb.center.coords), axis=1)
        assert dist.max() <= sb.radius * (1 + 1e-6)
        # exactness: sampled projections fill the claimed ball
        assert dist.max() >= sb.radius * 0.999


# horoball bases near and far from the foot of the base point
SHADOW_RIM_CASES = [(0.7, -0.4), (0.5, -0.2), (-1.3, 0.8), (0.05, 1.6), (2.4, -1.9)]


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("size", [0.3, 1e-2, 1e-4])
def test_shadow_rim_is_exact(d, size):
    # a ray toward a boundary point meets H exactly when the point lies in
    # the shadow: just inside the rim the ray crosses H, just outside it
    # misses.  A relative band of 1e-9 needs the radius and the centre to
    # about 1e-10 of the radius, also for horoballs of diameter 1e-4.
    eps = 1e-9
    if d == 1:
        dirs = [np.array([1.0]), np.array([-1.0])]
    else:
        angles = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
        dirs = [np.array([math.cos(a), math.sin(a)]) for a in angles]
    for q in SHADOW_RIM_CASES:
        H = hg.Horoball(bd(*q[:d]), size)
        sb = hg.shadow(H)
        c = np.asarray(sb.center.coords)
        for u in dirs:
            inside = bd(*(c + sb.radius * (1.0 - eps) * u))
            outside = bd(*(c + sb.radius * (1.0 + eps) * u))
            assert hg.horoball_crossing_times(inside, H) is not None, (q, u)
            assert hg.horoball_crossing_times(outside, H) is None, (q, u)


def test_shadow_errors():
    with pytest.raises(hg.ShadowError):
        hg.shadow(hg.Horoball(bd(0.0, 0.0), 5.0))


def test_shadow_radius_comparable_to_size():
    # from the standard base, small horoballs cast shadows of half their size
    for s in (0.02, 0.1, 0.3):
        sb = hg.shadow(hg.Horoball(bd(0.7, 0.0), s))
        assert 0.45 * s <= sb.radius <= 0.6 * s


# ---------------------------------------------------------------------------
# crossing times
# ---------------------------------------------------------------------------


def test_crossing_into_cusp_point_never_exits():
    H = hg.Horoball(bd(0.0, 0.0), 0.5)
    enter, exit_ = hg.horoball_crossing_times(bd(0.0, 0.0), H)
    assert enter == pytest.approx(math.log(2.0))
    assert math.isinf(exit_)


def test_crossing_times_match_sampled_ray():
    H = hg.Horoball(bd(0.0, 0.0), 0.5)
    z = bd(0.05, 0.0)
    enter, exit_ = hg.horoball_crossing_times(z, H)
    ts = np.linspace(0.0, 8.0, 2001)
    depths = np.array(
        [hg.escape_depth(hg.geodesic_point(z, float(t)), H) for t in ts]
    )
    inside = ts[depths > 0]
    assert inside[0] == pytest.approx(enter, abs=8.0 / 2000 * 2)
    assert inside[-1] == pytest.approx(exit_, abs=8.0 / 2000 * 2)
    # depth at the midpoint is positive and bounded by time from entry
    tm = 0.5 * (enter + exit_)
    dm = hg.escape_depth(hg.geodesic_point(z, tm), H)
    assert 0.0 < dm <= tm - enter + 1e-9


def test_crossing_misses():
    H = hg.Horoball(bd(0.0, 0.0), 0.5)
    assert hg.horoball_crossing_times(bd(3.0, 0.0), H) is None
    with pytest.raises(ValueError):
        hg.horoball_crossing_times(bd(0.0, 0.0), hg.Horoball(bd(0.0, 0.0), 5.0))



# ---------------------------------------------------------------------------
# the bounded chart
# ---------------------------------------------------------------------------


# every former use of a horoball at infinity or a ray toward it
AT_INFINITY = {
    "horoball": lambda: hg.Horoball(hg.infinity(), 1.0),
    "escape_depth": lambda: hg.escape_depth(hs(5.0, 1.0, 7.0), hg.Horoball(hg.infinity(), 1.0)),
    "squeeze": lambda: hg.squeeze(hg.Horoball(hg.infinity(), 2.0), 0.5),
    "shadow": lambda: hg.shadow(hg.Horoball(hg.infinity(), 3.0)),
    "crossing": lambda: hg.horoball_crossing_times(bd(0.3, 0.1), hg.Horoball(hg.infinity(), 3.0)),
    "geodesic_point": lambda: hg.geodesic_point(hg.infinity(), 2.0),
    "apply_horoball": lambda: hg.apply_horoball(
        hg._mobius_to_infinity(0.25 - 0.5j), hg.Horoball(bd(0.25, -0.5), 0.3)
    ),
}


@pytest.mark.parametrize("case", sorted(AT_INFINITY))
def test_infinity_is_outside_the_bounded_chart(case):
    with pytest.raises(hg.ModelError):
        AT_INFINITY[case]()


@given(
    st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.booleans(),
    st.floats(1e-6, 1e3),
)
def test_top_point_height_after_sending_the_base_to_infinity(x, y, line, size):
    # the exact arithmetic ureg_witness reads the horoball's plane height by
    p = complex(x, 0.0 if line else y)
    g = hg._mobius_to_infinity(p)
    assert size / (size * size) == hg._apply_interior_mat(g.matrix, p, size)[1]
