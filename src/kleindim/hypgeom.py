"""Hyperbolic geometry in the upper halfspace model.

Points live in hyperbolic space H^(d+1) with boundary dimension d = 1
(Fuchsian setting, boundary a line) or d = 2 (Kleinian setting, boundary
a plane).  Coordinates are ``(w_1, ..., w_d, h)`` in R^d x (0, inf) with
height last and metric |dx| / h; boundary points are points of R^d or
the point at infinity, but horoballs and geodesic rays are based at
finite points only, in the bounded chart.  A Moebius map is an ordinary
2x2 real (d=1) or complex (d=2) matrix of determinant one acting by
fractional-linear transformations on the boundary and by the
quaternionic extension on interior points.

The Moebius formulas that ``group`` applies to whole orbits live here
only, each written once for arrays: the PSL sign rule, the trace
classification (:func:`isometry_kinds`), radial projection, boundary fixed
points, and the boundary action with the one rule for an image at infinity
(:func:`boundary_images`).  The scalar API is their one-element case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

# |tr^2 - 4| below this means parabolic (if not the identity).
PARABOLIC_TOL = 1e-8
# within 10x of the classification boundary we refuse to commit silently.
AMBIGUOUS_BAND = 10 * PARABOLIC_TOL
# relative threshold for a zero matrix entry in the PSL sign rule; whether
# an image is infinity is decided by INFINITY_TOL alone (boundary_images)
ENTRY_TOL = 1e-9
# the one at-infinity rule's tolerance, relative to the largest entry
INFINITY_TOL = 1e-13
# identification grid for canonical matrices.
MATRIX_GRID = 1e-9
# a matrix whose entries all lie within this of the identity's is the
# identity, for classify and for cusp detection alike
IDENTITY_TOL = 1e-9
# a matrix whose entries have imaginary parts at most this is real: a
# Fuchsian (d = 1) map, for MobiusMap.d and for group presentations alike
REAL_TOL = 1e-10
# |imag z| <= REAL_LINE_TOL max(1, |z|) puts z on the real line (d = 1)
REAL_LINE_TOL = 1e-7
# this near the axis over 0 (and height 1), a point is above (at) the base point
VERTICAL_TOL = 1e-14

# saturation bound for grid-rounded matrix entries (exact in float64)
KEY_CLAMP = 2.0**62
_AT_INFINITY = (
    "a cusp or horoball at infinity; cusps and horoballs live in the bounded "
    "chart, so conjugate the group with group.bounded_model first"
)


class ModelError(ValueError):
    """Raised for points or maps of an unsupported dimension or shape."""


class ShadowError(ValueError):
    """Raised when a radial shadow is unbounded or ill-defined."""


@dataclass(frozen=True)
class InteriorPoint:
    """A point of hyperbolic space H^(d+1): ``(w_1, ..., w_d, h)``."""

    coords: tuple[float, ...]

    def __post_init__(self) -> None:
        coords = tuple(float(c) for c in self.coords)
        object.__setattr__(self, "coords", coords)
        if len(coords) not in (2, 3):
            raise ModelError("interior points need d+1 coordinates, d in {1, 2}")
        if coords[-1] <= 0.0:
            raise ModelError("interior points need positive height")

    @property
    def d(self) -> int:
        return len(self.coords) - 1


@dataclass(frozen=True)
class BoundaryPoint:
    """A boundary point: a point of R^d, or infinity."""

    coords: Optional[tuple[float, ...]]  # None encodes infinity

    def __post_init__(self) -> None:
        if self.coords is None:
            return
        coords = tuple(float(c) for c in self.coords)
        object.__setattr__(self, "coords", coords)
        if len(coords) not in (1, 2):
            raise ModelError("boundary points live in R^d, d in {1, 2}")

    @property
    def is_infinity(self) -> bool:
        return self.coords is None

    @property
    def d(self) -> int:
        if self.coords is None:
            raise ModelError("dimension of the point at infinity is ambiguous")
        return len(self.coords)


def infinity() -> BoundaryPoint:
    return BoundaryPoint(None)


def origin(d: int) -> InteriorPoint:
    """The canonical base point: the height-1 point above 0."""
    return InteriorPoint((0.0,) * d + (1.0,))


# ---------------------------------------------------------------------------
# complex coordinates
# ---------------------------------------------------------------------------


def _hs_interior(p: InteriorPoint) -> tuple[complex, float]:
    """Interior point as (complex boundary part, height)."""
    if p.d == 1:
        return complex(p.coords[0], 0.0), p.coords[1]
    return complex(p.coords[0], p.coords[1]), p.coords[2]


def _hs_boundary(p: BoundaryPoint) -> Optional[complex]:
    """Boundary point as a complex number, None for infinity."""
    if p.is_infinity:
        return None
    if len(p.coords) == 1:
        return complex(p.coords[0], 0.0)
    return complex(p.coords[0], p.coords[1])


def _interior_from_hs(w: complex, h: float, d: int) -> InteriorPoint:
    if d == 1:
        return InteriorPoint((w.real, h))
    return InteriorPoint((w.real, w.imag, h))


def _boundary_from_hs(w: Optional[complex], d: int) -> BoundaryPoint:
    if w is None:
        return infinity()
    if d == 1:
        return BoundaryPoint((w.real,))
    return BoundaryPoint((w.real, w.imag))


# ---------------------------------------------------------------------------
# distances and geodesics
# ---------------------------------------------------------------------------


def hyp_distance(p: InteriorPoint, q: InteriorPoint) -> float:
    """Hyperbolic distance between two interior points."""
    if p.d != q.d:
        raise ModelError("points of different dimension")
    wx, hx = _hs_interior(p)
    wy, hy = _hs_interior(q)
    val = 1.0 + (abs(wx - wy) ** 2 + (hx - hy) ** 2) / (2.0 * hx * hy)
    return float(np.arccosh(max(val, 1.0)))


def _mobius_to_infinity(p: complex) -> "MobiusMap":
    """A unit-determinant map sending the finite boundary point p to infinity."""
    return MobiusMap(np.array([[0.0, -1.0], [1.0, -p]], dtype=complex))


def _abs2(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """abs(complex(re, im)) ** 2 per element, in Python's own arithmetic:
    numpy's vector hypot and power round differently on some CPUs."""
    return np.array([abs(complex(x, y)) ** 2 for x, y in zip(re.tolist(), im.tolist())])


def geodesic_points(z: np.ndarray, t: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Halfspace coordinates (w, h) of the points at distance t from the
    height-1 point above 0 along the rays toward the finite boundary
    points z (complex) of R^d: w -> -1/(w - z) sends z to infinity, the
    base point's image is lifted by e^t there and w -> z - 1/w maps it
    back.  Each step is Python's complex arithmetic written out on real
    and imaginary parts, so one point or many give the same bits on any
    CPU."""
    lift = np.array([math.exp(s) for s in t.tolist()])
    pr, pi = z.real, z.imag
    # the base point under w -> -1/(w - z)
    den = _abs2(pr, pi) + 1.0
    wr, wi = pr / den, -pi / den
    h = 1.0 / den * lift
    # lifted, then under w -> z - 1/w: ((z w - 1) conj(w) + z h^2) / den
    x = (pr * wr - pi * wi) - 1.0
    y = pr * wi + pi * wr
    den = _abs2(wr, wi) + h * h
    re = ((x * wr + y * wi) + pr * h * h) / den
    im = ((y * wr - x * wi) + pi * h * h) / den
    h /= den
    if d == 1:
        im[:] = 0.0
    return re + 1j * im, h


def geodesic_point(z: BoundaryPoint, t: float) -> InteriorPoint:
    """Point at distance t from the height-1 point above 0 along the
    geodesic ray toward the finite point z: the one-point case of
    :func:`geodesic_points`.  Infinity raises ModelError."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    d = z.d
    w, h = geodesic_points(np.array([_hs_boundary(z)], dtype=complex), np.array([float(t)]), d)
    return _interior_from_hs(complex(w[0]), float(h[0]), d)


def boundary_projections(w: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Radial projections of the interior points (w complex, h): the
    endpoints of the geodesic rays from the height-1 point above 0
    through them.

    Returns (projections, finite_mask).  Points straight above the base
    point, itself included, project to infinity: their mask is False and
    their projection carries no value.  Points straight below project
    to 0.
    """
    sep = np.abs(w)
    vertical = sep < VERTICAL_TOL
    sep_safe = np.where(vertical, 1.0, sep)
    m = (sep_safe**2 + h**2 - 1.0) / (2.0 * sep_safe)
    hyp = np.hypot(m, 1.0)
    # endpoint on the far side of the point, stable for large negative m
    ep = np.where(m >= 0, m + hyp, 1.0 / (hyp - m))
    proj = ep * w / sep_safe
    proj[vertical] = 0.0
    return proj, ~(vertical & (h >= 1.0))


def boundary_project(x: InteriorPoint) -> BoundaryPoint:
    """Radial projection of one point: the one-point case of
    :func:`boundary_projections`.  The base point raises ValueError."""
    w, h = _hs_interior(x)
    if abs(w) < VERTICAL_TOL and abs(h - 1.0) < VERTICAL_TOL:
        raise ValueError("cannot project the base point")
    proj, finite = boundary_projections(np.array([w]), np.array([h]))
    return _boundary_from_hs(complex(proj[0]) if finite[0] else None, x.d)


# ---------------------------------------------------------------------------
# Moebius maps
# ---------------------------------------------------------------------------


class IsometryClass(Enum):
    IDENTITY = "identity"
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC_LOXODROMIC = "hyperbolic_loxodromic"


@dataclass(frozen=True)
class Classification:
    kind: IsometryClass
    fixed_points: tuple[BoundaryPoint, ...]
    ambiguous: bool = False


def _normalize_matrix(m: np.ndarray) -> np.ndarray:
    m = np.array(m, dtype=complex)
    if m.shape != (2, 2):
        raise ModelError("Moebius maps are 2x2 matrices")
    if not np.isfinite(m).all():
        raise ModelError("Moebius maps need finite entries")
    ad = m[0, 0] * m[1, 1]
    bc = m[0, 1] * m[1, 0]
    det = ad - bc
    # ad - bc cancels catastrophically for large-norm matrices, so the
    # computed determinant of a product of unit-determinant factors can
    # land anywhere in a window of width ~ eps |ad|.  If 1 lies in that
    # window, trust the construction and skip rescaling.
    err = 64.0 * 2.3e-16 * (abs(ad) + abs(bc) + 1.0)
    if abs(det - 1.0) > err:
        if abs(det) < max(1e-30, err):
            raise ModelError("singular matrix is not a Moebius map")
        m = m / np.sqrt(det)
    return _canonicalize_signs(m[None])[0]


def _canonicalize_signs(mats: np.ndarray) -> np.ndarray:
    """Fix the PSL sign of each matrix, in place: its first entry above
    ENTRY_TOL times its largest gets positive real part, or positive
    imaginary part where the real part is below that."""
    flat = mats.reshape(len(mats), 4)
    mag = np.abs(flat)
    tol = ENTRY_TOL * mag.max(axis=1)
    big = mag > tol[:, None]
    del mag
    first = np.argmax(big, axis=1)
    v = flat[np.arange(len(flat)), first]
    use_re = np.abs(v.real) > tol
    s = np.where(use_re, np.sign(v.real), np.sign(v.imag))
    s[s == 0] = 1.0
    mats *= s[:, None, None]
    return mats


def _key_ints(mats: np.ndarray) -> np.ndarray:
    """The one rule for when two canonical matrices are the same element:
    rows of their real and imaginary entries rounded to the MATRIX_GRID
    grid, equal rows meaning the same element.  Entries beyond the grid's
    integer range saturate at KEY_CLAMP, so maps of astronomical matrix
    norm may share a row."""
    flat = mats.reshape(len(mats), 4)
    parts = np.empty((len(flat), 8))
    parts[:, 0::2] = flat.real
    parts[:, 1::2] = flat.imag
    # in place: a walk hashes up to a chunk of products at once
    parts /= MATRIX_GRID
    np.round(parts, out=parts)
    np.clip(parts, -KEY_CLAMP, KEY_CLAMP, out=parts)
    return parts.astype(np.int64)


@dataclass(frozen=True)
class MobiusMap:
    """An orientation-preserving isometry of H^(d+1).

    Stored as a unit-determinant 2x2 complex matrix in canonical sign.  For
    d = 1 all entries are real and the map preserves the upper half plane;
    for d = 2 it acts on the upper halfspace over C.
    """

    matrix: np.ndarray
    label: str = ""

    def __post_init__(self) -> None:
        m = _normalize_matrix(self.matrix)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def d(self) -> int:
        return 1 if float(np.abs(self.matrix.imag).max()) <= REAL_TOL else 2

    @property
    def is_identity(self) -> bool:
        return bool(isometry_kinds(self.matrix[None])[0][0])

    def compose(self, other: "MobiusMap") -> "MobiusMap":
        return MobiusMap(self.matrix @ other.matrix)

    def __matmul__(self, other: "MobiusMap") -> "MobiusMap":
        return self.compose(other)

    def inverse(self) -> "MobiusMap":
        a, b = self.matrix[0]
        c, dd = self.matrix[1]
        return MobiusMap(np.array([[dd, -b], [-c, a]]))

    def key(self) -> bytes:
        """Identification key: the :func:`_key_ints` row of the canonical
        matrix."""
        return _key_ints(self.matrix[None]).tobytes()


def identity_map() -> MobiusMap:
    return MobiusMap(np.eye(2))


def _entry_scales(mats: np.ndarray) -> np.ndarray:
    """The largest entry modulus of each matrix."""
    return np.abs(mats).max(axis=(-2, -1))


def boundary_images(
    mats: np.ndarray, z: np.ndarray | complex | None, scale: Optional[np.ndarray] = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The boundary action of the matrices ``mats`` (..., 2, 2) on the
    complex points ``z``, broadcast against them: (images, den, at_inf).

    An image is (az + b) / (cz + d) and ``den`` is cz + d: at unit
    determinant |g'(z)| = 1 / |den|^2.  ``at_inf`` is the one rule for an
    image at infinity: |cz + d| <= INFINITY_TOL s max(1, |z|), s the
    matrix's largest entry modulus (``scale`` if given).  ``z`` = None is
    infinity: its image is a / c, ``den`` is c, and the rule reads
    |c| <= INFINITY_TOL s, the limit of |cz + d| / |z|.  An image at
    infinity carries no value.
    """
    a, b = mats[..., 0, 0], mats[..., 0, 1]
    c, dd = mats[..., 1, 0], mats[..., 1, 1]
    if scale is None:
        scale = _entry_scales(mats)
    if z is None:
        den, reach = c, 1.0
    else:
        den, reach = c * z + dd, np.maximum(1.0, np.abs(z))
    at_inf = np.abs(den) <= INFINITY_TOL * scale * reach
    # the numerator after the rule, whose temporaries are gone by then
    with np.errstate(divide="ignore", invalid="ignore"):
        return (a if z is None else a * z + b) / den, den, at_inf


def _apply_boundary_mat(m: np.ndarray, z: Optional[complex]) -> Optional[complex]:
    """g(z) for one matrix and z complex or None (infinity), None for an
    image at infinity: the one-element case of :func:`boundary_images`."""
    w, _, at_inf = boundary_images(m[None], None if z is None else np.array([z], dtype=complex))
    return None if at_inf[0] else complex(w[0])


def _apply_interior_mat(m: np.ndarray, w: complex, h: float) -> tuple[complex, float]:
    a, b = complex(m[0, 0]), complex(m[0, 1])
    c, dd = complex(m[1, 0]), complex(m[1, 1])
    cw = c * w + dd
    denom = abs(cw) ** 2 + abs(c) ** 2 * h * h
    w2 = ((a * w + b) * cw.conjugate() + a * c.conjugate() * h * h) / denom
    return w2, h / denom


def apply(g: MobiusMap, p: InteriorPoint | BoundaryPoint):
    """Apply an isometry to an interior or a boundary point."""
    if isinstance(p, InteriorPoint):
        w, h = _hs_interior(p)
        w2, h2 = _apply_interior_mat(g.matrix, w, h)
        return _interior_from_hs(w2, h2, p.d)
    d = g.d if p.is_infinity else p.d
    return _boundary_from_hs(_apply_boundary_mat(g.matrix, _hs_boundary(p)), d)


def isometry_kinds(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The trace classification of the matrices ``mats`` (n, 2, 2) as the
    masks (identity, parabolic, loxodromic, ambiguous).  Entries within
    IDENTITY_TOL of the identity's make the identity; another map is
    parabolic where |tr^2 - 4| <= PARABOLIC_TOL, else loxodromic where tr^2
    lies farther than that from the elliptic locus [0, 4], else elliptic,
    and ambiguous within AMBIGUOUS_BAND of a class boundary."""
    tr2 = (mats[:, 0, 0] + mats[:, 1, 1]) ** 2
    gap4 = np.abs(tr2 - 4.0)
    near4 = gap4 <= PARABOLIC_TOL
    identity = np.abs(mats - np.eye(2)).max(axis=(1, 2)) <= IDENTITY_TOL
    seg = np.hypot(tr2.real - np.clip(tr2.real, 0.0, 4.0), tr2.imag)
    off_seg = seg > PARABOLIC_TOL
    ambiguous = ~near4 & ((gap4 <= AMBIGUOUS_BAND) | (off_seg & (seg <= AMBIGUOUS_BAND)))
    return identity, near4 & ~identity, ~near4 & off_seg, ambiguous


def classify(g: MobiusMap, d: Optional[int] = None) -> Classification:
    """Trace classification, the one-element case of :func:`isometry_kinds`,
    with the map's :func:`fixed_points`.  ``d`` overrides the guessed
    boundary dimension: a real elliptic matrix has no boundary fixed
    points as a Fuchsian element but an axis pair as a Kleinian one."""
    if d is None:
        d = g.d
    identity, parabolic, loxodromic, ambiguous = isometry_kinds(g.matrix[None])
    if identity[0]:
        return Classification(IsometryClass.IDENTITY, ())
    at_inf, roots = fixed_points(g.matrix[None], d)
    fixed = [None] * int(at_inf[0]) + [z for z in roots[0] if not np.isnan(z)]
    kind = IsometryClass.HYPERBOLIC_LOXODROMIC if loxodromic[0] else IsometryClass.ELLIPTIC
    if parabolic[0]:
        kind = IsometryClass.PARABOLIC
    return Classification(kind, tuple(_boundary_from_hs(z, d) for z in fixed), bool(ambiguous[0]))


def fixed_points(mats: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Boundary fixed points of the maps z -> (az + b) / (cz + d) of the
    matrices ``mats``: the roots of c z^2 + (d - a) z - b = 0.

    Returns (at_inf, roots).  ``at_inf`` marks the maps that fix
    infinity: their g(infinity) = a / c is infinity by the one rule of
    :func:`boundary_images`.  ``roots`` is the (n, 2) pair
    (a - d +- sqrt((a - d)^2 + 4bc)) / 2c; where c vanishes, b / (d - a)
    if a - d does not on the same scale.  The identity and the parabolics
    of :func:`isometry_kinds` have one root, (a - d) / 2c, or none where
    they fix infinity.  NaN marks a root that is absent, infinite or, for
    boundary dimension ``d`` = 1, off the real line: the interior fixed
    point of a real elliptic.
    """
    a, b = mats[:, 0, 0], mats[:, 0, 1]
    c, dd = mats[:, 1, 0], mats[:, 1, 1]
    scale = _entry_scales(mats)
    at_inf = boundary_images(mats, None, scale)[2]
    c2 = 2.0 * np.where(at_inf, 1.0, c)
    disc = np.sqrt((a - dd) ** 2 + 4.0 * b * c)
    roots = np.stack([(a - dd + disc) / c2, (a - dd - disc) / c2], axis=1)
    roots[at_inf] = np.nan
    alt = at_inf & (np.abs(a - dd) > INFINITY_TOL * scale)
    roots[alt, 0] = b[alt] / (dd[alt] - a[alt])
    double = np.logical_or(*isometry_kinds(mats)[:2])
    roots[double] = np.nan
    double &= ~at_inf
    roots[double, 0] = (a[double] - dd[double]) / c2[double]
    if d == 1:
        off = ~(np.abs(roots.imag) <= REAL_LINE_TOL * np.maximum(1.0, np.abs(roots)))
        roots.imag = 0.0
        roots[off] = np.nan
    return at_inf, roots


# ---------------------------------------------------------------------------
# horoballs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Horoball:
    """Horoball tangent at the finite boundary point ``base``.

    ``size`` is its Euclidean diameter.  ``rank`` tags the rank of the
    parabolic fixed point when the horoball belongs to a cusp family;
    purely geometric horoballs default to 1.  A base at infinity raises
    ModelError: horoballs live in the bounded chart.
    """

    base: BoundaryPoint
    size: float
    rank: int = 1

    def __post_init__(self) -> None:
        if self.base.is_infinity:
            raise ModelError(_AT_INFINITY)
        if self.size <= 0:
            raise ValueError("horoball size must be positive")
        if self.rank < 1:
            raise ValueError("rank is a positive integer")


def escape_depth(x: InteriorPoint, H: Horoball) -> float:
    """Hyperbolic distance from x to the complement of H (0 outside H).

    Computed by conjugating the base point to infinity with an explicit
    Moebius map and reading off log(height / plane height) there.
    """
    w, h = _hs_interior(x)
    g = _mobius_to_infinity(_hs_boundary(H.base))
    w, h = _apply_interior_mat(g.matrix, w, h)
    plane = 1.0 / H.size
    if h <= plane:
        return 0.0
    return math.log(h / plane)


def squeeze(H: Horoball, theta: float) -> Horoball:
    """Shrink a horoball toward its base point: |theta H| = theta |H|.

    Equivalently the set of points of H at escape depth >= log(1/theta).
    """
    if not 0 < theta <= 1:
        raise ValueError("theta must lie in (0, 1]")
    return Horoball(H.base, H.size * theta, H.rank)


def horoball_images(
    mats: np.ndarray, p: complex, size: float = 1.0, scale: Optional[np.ndarray] = None
) -> tuple[np.ndarray, np.ndarray]:
    """Images (bases, sizes) of the horoball of diameter ``size`` at the
    finite point p: g(p) and |g'(p)| size = size / |cp + d|^2, exact for
    horoballs, by :func:`boundary_images` (and its ``scale``).  An image
    at infinity raises ModelError."""
    bases, den, at_inf = boundary_images(mats, p, scale)
    if at_inf.any():
        raise ModelError(_AT_INFINITY)
    return bases, size / np.abs(den) ** 2


def apply_horoball(g: MobiusMap, H: Horoball) -> Horoball:
    """Image horoball g(H): the one-element case of :func:`horoball_images`,
    which raises ModelError where g sends the base to infinity."""
    bases, sizes = horoball_images(g.matrix[None], _hs_boundary(H.base), H.size)
    return Horoball(_boundary_from_hs(complex(bases[0]), H.base.d), float(sizes[0]), H.rank)


def horoball_crossing_times(z: BoundaryPoint, H: Horoball) -> Optional[tuple[float, float]]:
    """Entry/exit times of the ray from the height-1 point above 0 toward
    z through H.

    Returns (t_enter, t_exit); t_exit is ``inf`` when z is the base point
    of H (the ray never leaves).  Returns None when the ray misses H.
    Requires the height-1 point above 0 to lie outside the horoball.
    """
    g = _mobius_to_infinity(_hs_boundary(H.base))
    plane = 1.0 / H.size
    wb, hb = _apply_interior_mat(g.matrix, 0j, 1.0)
    if hb >= plane:
        raise ValueError("base point lies inside the horoball")
    zc = _apply_boundary_mat(g.matrix, _hs_boundary(z))
    if zc is None:  # ray into the base point of H
        return math.log(plane / hb), math.inf
    sep = abs(zc - wb)
    if sep < VERTICAL_TOL:
        return None  # vertical ray downwards at the base's own projection
    m = (sep * sep - hb * hb) / (2.0 * sep)  # circle centre along the ray direction
    rc = math.hypot(m, hb)
    if rc <= plane:
        return None
    alpha = math.asin(plane / rc)
    # base sits at angle phi_b measured from the endpoint direction
    phi_b = math.atan2(hb, -m)  # xi_b = 0, circle centre at xi = m
    if phi_b <= alpha + 1e-15:
        return None  # base beyond the horoball's chord, ray only descends
    tan_b = math.tan(phi_b / 2.0)
    t_exit = math.log(tan_b / math.tan(alpha / 2.0))
    if phi_b >= math.pi - alpha:
        t_enter = math.log(tan_b / math.tan((math.pi - alpha) / 2.0))
    else:  # base already inside would have been caught; numerical edge
        t_enter = 0.0
    return t_enter, t_exit


# ---------------------------------------------------------------------------
# shadows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryBall:
    """A round Euclidean ball (disk or interval) on the boundary."""

    center: BoundaryPoint
    radius: float


def shadow(H: Horoball) -> BoundaryBall:
    """Radial projection of H from the height-1 point above 0 as an exact
    boundary ball.

    With H of base p and diameter D, the rays that meet H are those
    within angle alpha of the ray toward p, with
    sin(alpha) = D / (1 + |p|^2) = exp(-distance to H); their endpoints
    form the disk of centre 2p / den and radius D / den, where
    den = 1 - |p|^2 + (1 + |p|^2) cos(alpha) = 2 - D tan(alpha / 2).  The
    last form has no cancellation for small horoballs.  Raises
    ShadowError if the base point lies in H or the shadow is unbounded.
    """
    q = _hs_boundary(H.base)
    D = H.size
    sin_alpha = D / (1.0 + abs(q) ** 2)
    if sin_alpha >= 1.0:
        raise ShadowError("base point lies inside or on the horoball")
    den = 2.0 - D * sin_alpha / (1.0 + math.sqrt(1.0 - sin_alpha * sin_alpha))
    if den <= 0.0:
        raise ShadowError("shadow is unbounded in the halfspace chart")
    return BoundaryBall(_boundary_from_hs(2.0 * q / den, H.base.d), H.size / den)
