"""kleindim: limit sets, conformal measures and dimension estimation for
finitely generated Kleinian and Fuchsian groups.

The package is organised around five layers:

- :mod:`kleindim.hypgeom` -- models of hyperbolic space, Moebius isometries,
  horoballs, shadows and boundary projections;
- :mod:`kleindim.group` -- group presentations, orbit enumeration, cusp
  detection and invariant horoball families;
- :mod:`kleindim.estdim` -- point-cloud estimators for box, Assouad and
  lower dimensions, plus the orbital growth exponent;
- :mod:`kleindim.psmeasure` -- empirical conformal densities on the limit
  set, their regularity dimensions and local scaling diagnostics against
  the global measure formula;
- :mod:`kleindim.predict` -- exact dimension predictions from the critical
  exponent and cusp rank data, with consistency checks.

:mod:`kleindim.pipeline` builds the orbit, growth fit, cusps, horoball
family, cloud and measure of one group on demand.  The command line
front end lives in :mod:`kleindim.cli`.
"""

from .hypgeom import (
    BALL,
    HALFSPACE,
    BoundaryBall,
    BoundaryPoint,
    Horoball,
    InteriorPoint,
    IsometryClass,
    MobiusMap,
    apply,
    boundary_project,
    classify,
    escape_depth,
    geodesic_point,
    hyp_distance,
    infinity,
    origin,
    shadow,
    squeeze,
)
from .group import (
    CuspSummary,
    GroupPresentation,
    HoroballFamily,
    OrbitData,
    builtin_group,
    enumerate_orbit,
    find_cusps,
    sample_limit_set,
    standard_horoballs,
)
from .estdim import (
    DimensionEstimate,
    PointCloud,
    assouad_dimension,
    box_dimension,
    lower_dimension,
    poincare_exponent,
)
from .psmeasure import (
    EmpiricalMeasure,
    GMFContext,
    gmf_value,
    local_dimension,
    patterson_measure,
    regularity_exponents,
)
from .pipeline import Pipeline
from .predict import (
    DimensionReport,
    GroupProfile,
    classify_corollaries,
    phase_plot,
    predict_dims,
)

__version__ = "0.1.0"

__all__ = [
    "BALL",
    "HALFSPACE",
    "BoundaryBall",
    "BoundaryPoint",
    "Horoball",
    "InteriorPoint",
    "IsometryClass",
    "MobiusMap",
    "apply",
    "boundary_project",
    "classify",
    "escape_depth",
    "geodesic_point",
    "hyp_distance",
    "infinity",
    "origin",
    "shadow",
    "squeeze",
    "CuspSummary",
    "GroupPresentation",
    "HoroballFamily",
    "OrbitData",
    "builtin_group",
    "enumerate_orbit",
    "find_cusps",
    "sample_limit_set",
    "standard_horoballs",
    "DimensionEstimate",
    "PointCloud",
    "assouad_dimension",
    "box_dimension",
    "lower_dimension",
    "poincare_exponent",
    "regularity_exponents",
    "EmpiricalMeasure",
    "GMFContext",
    "gmf_value",
    "local_dimension",
    "patterson_measure",
    "Pipeline",
    "DimensionReport",
    "GroupProfile",
    "classify_corollaries",
    "phase_plot",
    "predict_dims",
    "__version__",
]
