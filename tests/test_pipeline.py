"""Tests for the lazily built estimation chain."""

import dataclasses

import numpy as np
import pytest

import kleindim.estdim as ed
import kleindim.group as gr
import kleindim.hypgeom as hg
import kleindim.psmeasure as ps
from kleindim.pipeline import Pipeline, deepest_cusp_points


def _argmin_cusp_points(cusps, family):
    """deepest_cusp_points as first written, by a full pass over the
    family per cusp: the nearest base within 1e-8, the lowest index on
    ties.  On the builtins it picks the member the cell rule picks."""
    rows = []
    for c in cusps.cusps:
        z = complex(*c.point.coords)
        i = int(np.argmin(np.abs(family.bases - z)))
        size = float(family.sizes[i]) if abs(family.bases[i] - z) < 1e-8 else 0.0
        rows.append((size, c, np.array(c.point.coords)))
    rows.sort(key=lambda t: -t[0])
    return rows


def _assert_same_rows(got, oracle):
    assert len(got) == len(oracle)
    for (s, c, x), (s0, c0, x0) in zip(got, oracle):
        assert s == s0 and c is c0
        assert x.tobytes() == x0.tobytes()


def test_stages_equal_the_hand_built_chain():
    g = gr.builtin_group("apollonian")
    p = Pipeline(g, 8.0)

    orbit = gr.enumerate_orbit(g, 8.0, slack=1.5, max_elements=4_000_000)
    delta = float(ed.poincare_exponent(orbit).value)
    cusps = gr.find_cusps(orbit)
    family = gr.standard_horoballs(orbit, cusps)
    cloud = gr.sample_limit_set(g, 1e-3, orbit=orbit)
    measure = ps.patterson_measure(g, orbit=orbit, band=3.5)

    assert p.orbit.n == orbit.n
    assert p.delta == delta
    assert np.array_equal(p.cloud.coords, cloud.coords)
    assert np.array_equal(p.measure.coords, measure.coords)
    assert np.array_equal(p.measure.weights, measure.weights)
    assert np.array_equal(p.family.bases, family.bases)
    assert np.array_equal(p.family.sizes, family.sizes)


def test_deepest_cusp_of_a_line_group_is_finite():
    # the bounded chart moves the cusp at infinity to a finite point
    p = Pipeline(gr.builtin_group("parabolic_cusp_fuchsian"), 8.0)
    size, cusp, point = p.cusp_points[0]
    assert not cusp.point.is_infinity
    assert size > 0
    assert point.shape == (1,)
    assert [s for s, _, _ in p.cusp_points] == sorted(
        (s for s, _, _ in p.cusp_points), reverse=True
    )


def test_reading_the_cloud_leaves_the_family_unbuilt():
    p = Pipeline(gr.builtin_group("apollonian"), 8.0)
    assert p.cloud.n > 0
    assert "orbit" in vars(p)
    assert not {"unsqueezed", "family", "cusp_points"} & set(vars(p))


@pytest.mark.parametrize("dist", [8.0, 9.5])
@pytest.mark.parametrize("name", ["apollonian", "rank2_cusp", "parabolic_cusp_fuchsian"])
def test_cusp_points_keep_the_squeezed_family_order(name, dist):
    p = Pipeline(gr.builtin_group(name), dist)
    rows = p.cusp_points
    assert "family" not in vars(p)
    family = gr.standard_horoballs(p.orbit, p.cusps)
    want = deepest_cusp_points(p.cusps, family)
    assert family.theta < 1.0
    _assert_same_rows([(s * family.theta, c, x) for s, c, x in rows], want)


@pytest.mark.parametrize("name", ["apollonian", "parabolic_cusp_fuchsian"])
def test_deepest_cusp_points_match_the_argmin_oracle(name):
    p = Pipeline(gr.builtin_group(name), 7.0)
    c = p.cusps.cusps[0]
    # a cusp with no family base in its cell gets size 0
    coords = (0.123456,) if p.group.d == 1 else (0.123456, -0.654321)
    stray = dataclasses.replace(c, point=hg.BoundaryPoint(coords))
    cusps = dataclasses.replace(p.cusps, cusps=p.cusps.cusps + (stray,))
    rows = deepest_cusp_points(cusps, p.family)
    _assert_same_rows(rows, _argmin_cusp_points(cusps, p.family))
    assert rows[-1][1] is stray and rows[-1][0] == 0.0
    assert rows[0][0] > 0


def test_deepest_cusp_points_take_the_lowest_index_on_ties():
    # the two nearest bases lie exactly 2^-30 from z, the one with the
    # lower index on the side of larger real parts
    z = 0.25 + 0.5j
    family = gr.HoroballFamily(
        bases=np.array([z + 2.0**-30, z - 2.0**-30, z + 2.0**-29 * 1j, 2.0]),
        sizes=np.array([0.4, 0.1, 0.3, 0.5]),
        ranks=np.ones(4, dtype=np.int32),
        d=2,
    )
    p = Pipeline(gr.builtin_group("apollonian"), 4.0)
    c = dataclasses.replace(
        p.cusps.cusps[0], point=hg.BoundaryPoint((z.real, z.imag))
    )
    cusps = dataclasses.replace(p.cusps, cusps=(c,))
    rows = deepest_cusp_points(cusps, family)
    _assert_same_rows(rows, _argmin_cusp_points(cusps, family))
    assert rows[0][0] == 0.4
