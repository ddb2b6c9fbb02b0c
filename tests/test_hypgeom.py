"""Oracle tests for the hyperbolic geometry core.

Closed-form values are checked against independent computations:
brute-force horosphere projection and ray-horoball crossings for shadows,
and dense ray sampling for horoball crossing times.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
