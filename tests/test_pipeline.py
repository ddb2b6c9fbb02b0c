"""Tests for the lazily built estimation chain."""

import numpy as np

import kleindim.estdim as ed
import kleindim.group as gr
import kleindim.psmeasure as ps
from kleindim.pipeline import Pipeline


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
    assert "family" not in vars(p) and "cusp_points" not in vars(p)
