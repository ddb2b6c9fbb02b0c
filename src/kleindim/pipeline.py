"""The orbit -> fit -> cusps -> horoballs -> cloud -> measure chain.

A :class:`Pipeline` holds one group in its bounded chart and builds
each stage on first read, from the stages before it, then keeps it.
Callers read only the stages they need, in the order they need them,
so a run that fails at the growth fit never builds a cloud, and the
horoball family is not held in memory before something reads it.

Every stage calls through the module attributes of ``group``,
``estdim`` and ``psmeasure``, so a caller that wraps those attributes
sees each stage's call.
"""

from functools import cached_property

import numpy as np

from . import estdim as ed
from . import group as gr
from . import psmeasure as ps

# words are expanded this far past the distance horizon, so that short
# elements reached only through overshooting prefixes are still found
ORBIT_SLACK = 1.5


def deepest_cusp_points(cusps: gr.CuspSummary, family: gr.HoroballFamily) -> list:
    """(family ball size, cusp, boundary point as a d-length array) for
    each finite cusp, deepest family ball first.

    A cusp's ball is the lowest-index member based at the same point as
    the cusp by the ``group._cells`` rule at ``CUSP_CLUSTER_TOL``; a cusp
    without one gets size 0.
    """
    finite = [c for c in cusps.cusps if not c.point.is_infinity]
    points = np.array([complex(*c.point.coords) for c in finite], dtype=complex)
    # few cusps, many members: the members are looked up among the cusps
    i, j = gr._shared_cells(family.bases, points, gr.CUSP_CLUSTER_TOL)
    member = np.full(len(finite), len(family.sizes))
    np.minimum.at(member, j, i)
    sizes = np.append(family.sizes, 0.0)[member]
    rows = [(float(s), c, np.array(c.point.coords)) for s, c in zip(sizes, finite)]
    rows.sort(key=lambda t: -t[0])
    return rows


class Pipeline:
    """Lazily built stages of one group's estimation chain.

    ``dist`` and ``words`` bound the orbit walk, ``resolution`` is the
    target scale of the sampled cloud and ``band`` the deep band of
    orbit distances that weights the measure.
    """

    def __init__(
        self,
        group: gr.GroupPresentation,
        dist: float,
        *,
        words: int = 4_000_000,
        resolution: float = 1e-3,
        band: float = 3.5,
    ) -> None:
        self.group, _ = gr.bounded_model(group)
        self.dist = dist
        self.words = words
        self.resolution = resolution
        self.band = band

    @cached_property
    def orbit(self) -> gr.OrbitData:
        return gr.enumerate_orbit(
            self.group, self.dist, slack=ORBIT_SLACK, max_elements=self.words
        )

    @cached_property
    def fit(self) -> ed.DimensionEstimate:
        return ed.poincare_exponent(self.orbit)

    @cached_property
    def delta(self) -> float:
        return float(self.fit.value)

    @cached_property
    def cusps(self) -> gr.CuspSummary:
        return gr.find_cusps(self.orbit)

    @cached_property
    def family(self) -> gr.HoroballFamily:
        return gr.standard_horoballs(self.orbit, self.cusps)

    @cached_property
    def cloud(self) -> ed.PointCloud:
        return gr.sample_limit_set(self.group, self.resolution, orbit=self.orbit)

    @cached_property
    def measure(self) -> ps.EmpiricalMeasure:
        try:
            delta_hat = self.delta
        except ValueError:
            # patterson_measure meets the same failure and names it
            delta_hat = None
        return ps.patterson_measure(
            self.group, orbit=self.orbit, band=self.band, delta_hat=delta_hat
        )

    @cached_property
    def cusp_points(self) -> list:
        """The finite cusps as :func:`deepest_cusp_points` rows."""
        return deepest_cusp_points(self.cusps, self.family)
