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
from . import hypgeom as hg
from . import psmeasure as ps

# words are expanded this far past the distance horizon, so that short
# elements reached only through overshooting prefixes are still found
ORBIT_SLACK = 1.5


def deepest_cusp_points(cusps: gr.CuspSummary, family: gr.HoroballFamily) -> list:
    """(family ball size, cusp, boundary point as a d-length array) for
    each finite cusp, deepest family ball first.

    A cusp's ball is its :meth:`HoroballFamily.members_at` member; a cusp
    without one gets size 0.
    """
    finite = [c for c in cusps.cusps if not c.point.is_infinity]
    member = family.members_at([hg._hs_boundary(c.point) for c in finite])
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
        return ps.patterson_measure(
            self.group, self.orbit, band=self.band, delta_hat=self.delta
        )

    @cached_property
    def cusp_points(self) -> list:
        """The finite cusps as :func:`deepest_cusp_points` rows."""
        return deepest_cusp_points(self.cusps, self.family)
